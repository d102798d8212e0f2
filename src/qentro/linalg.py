"""Complex linear algebra for small dense matrices.

Hermitian eigendecompositions with a deterministic eigenvector convention,
plus the structural predicates (Hermiticity, unitarity) used everywhere
else in the package.  Every comparison takes an explicit tolerance; none
relies on exact float equality.  All functions are pure and never modify
their inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFinite, NotHermitian

#: Default tolerance for structural predicates.
DEFAULT_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex ndarray, rejecting NaN/Inf entries.

    Returns a new array; the input is never aliased.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix entries must be finite (no NaN/Inf)")
    return a


def conjugate_transpose(a) -> np.ndarray:
    """Return the conjugate transpose (dagger) of ``a``."""
    return as_matrix(a).conj().T.copy()


#: Short alias used throughout the package.
dagger = conjugate_transpose


def multiply(a, b) -> np.ndarray:
    """Matrix product of two square matrices of equal dimension."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(
            f"cannot multiply {ma.shape[0]}x{ma.shape[0]} by {mb.shape[0]}x{mb.shape[0]}"
        )
    return ma @ mb


def max_abs(a) -> float:
    """Largest entrywise modulus, the norm behind all tolerance checks."""
    return float(np.abs(a).max())


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``max |a - a†| <= tol``."""
    m = as_matrix(a)
    return max_abs(m - m.conj().T) <= tol


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``max |a†a - I| <= tol``."""
    m = as_matrix(a)
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of ``eigenvectors``
    are the matching orthonormal eigenvectors, each phase-normalized so its
    first non-negligible component is positive real.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return ``V diag(w) V†``; equals the input matrix up to tolerance."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _normalize_column_phases(v: np.ndarray) -> np.ndarray:
    # Fix the gauge freedom: rotate each column so its first component with
    # modulus above 1e-12 of the column max becomes positive real.
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        mags = np.abs(col)
        idx = np.argmax(mags > 1e-12 * mags.max())
        pivot = col[idx]
        if abs(pivot) > 0:
            v[:, k] = col * (pivot.conjugate() / abs(pivot))
    return v


def hermitian_eigen(m, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises ``NotHermitian`` if ``max |m - m†|`` exceeds ``tol`` and
    ``NoConvergence`` if the underlying iteration fails to converge.
    """
    a = as_matrix(m)
    dev = max_abs(a - a.conj().T)
    if dev > tol:
        raise NotHermitian(f"max |m - m†| = {dev:.3e} exceeds tolerance {tol:.3e}")
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(w.astype(float), _normalize_column_phases(v))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
