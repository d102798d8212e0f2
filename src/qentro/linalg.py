"""Complex linear algebra for small dense matrices.

Coercion to a vector and to a square complex matrix, the two norms behind
every tolerance check, the package's one unitarity check, a Haar-random
unitary, and the tolerance table.  Every comparison takes an explicit
tolerance, and every tolerance the package applies is named once, in the
table below; none relies on exact float equality.  All functions are
pure and never modify their inputs.  The eigensolvers are called only
where a spectrum is owned: ``states.DensityMatrix`` and
``zeno.Hamiltonian``.
"""

import numpy as np

from .errors import QentroError

# Tolerance table: every threshold the package applies, each named once.
DEFAULT_TOL = 1e-10  # Hermiticity, unit trace and norm, positivity, probabilities
LOOSE_TOL = 1e-9  # applied unitaries, completeness, bound slack
ROUNDING_TOL = 1e-12  # negatives taken as zero, certificate's diagonal floor
GRID_TOL = 1e-9  # relative spacing error of a uniform grid
INTEGRAL_TOL = 1e-6  # trapezoid integral of a tabulated density away from 1
SWEEP_TOL = 1e-15  # relative drop below which the unitary minimizer stops sweeping
STEP_KEEP = 0.25  # share of its certificate that the minimizer's all-pairs step must reach to be kept
RESIDUAL_WARN = 1e-4  # residual over the von Neumann entropy that the CLI warns of
PART_LIMIT = 2.0  # real or imaginary part above which an amplitude or a state, operator or unitary entry is rejected


def as_array(x, name: str, dtype=complex, copy: bool | None = True) -> np.ndarray:
    """``np.array(x, dtype=dtype, copy=copy)``, raising a QentroError that
    names the input as ``name`` where numpy raises ValueError, TypeError or
    OverflowError: a ragged nesting, a string, a complex number read as a
    real one, or an int beyond the float range."""
    try:
        return np.array(x, dtype=dtype, copy=copy)
    except (ValueError, TypeError, OverflowError):
        kind = "real" if dtype is float else "complex"
        raise QentroError(f"{name} must hold {kind} numbers of the right shape") from None


def as_matrix(m, name: str) -> np.ndarray:
    """Coerce ``m`` to a square complex ndarray, rejecting NaN/Inf entries;
    ``name`` names the input in the error of ``as_array``.

    Returns a new array; the input is never aliased.
    """
    a = as_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise QentroError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise QentroError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_vector(v, name: str, dtype=float) -> np.ndarray:
    """Coerce ``v`` to a new 1-D ndarray of ``dtype``, rejecting any other
    shape; ``name`` names the input in the error."""
    a = as_array(v, name, dtype)
    if a.ndim != 1:
        raise QentroError(f"{name} must be a vector, got shape {a.shape}")
    return a


def max_abs(a) -> float:
    """Largest entrywise modulus, the norm behind all tolerance checks."""
    return float(np.abs(a).max())


def max_part(a: np.ndarray) -> float:
    """Largest modulus of a real or imaginary part of a complex array's
    entries, in any memory layout; unlike ``max_abs``, it cannot overflow."""
    # the float view needs a contiguous last axis, so a transposed or
    # Fortran-ordered array is copied first; a C-ordered one is not
    return float(np.abs(np.ascontiguousarray(a).view(float)).max())


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``max |a†a - I| <= tol``."""
    m = as_matrix(a, "unitary")
    # a part above PART_LIMIT, which no unitary has, is rejected before the product
    if max_part(m) > PART_LIMIT:
        return False
    gram = m.conj().T @ m
    # subtract I in place: the diagonal of the fresh C-ordered product, with no identity built
    gram.ravel()[:: m.shape[0] + 1] -= 1
    return max_abs(gram) <= tol


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
