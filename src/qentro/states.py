"""Pure states, density matrices, ensembles, and the two ways a state
can change: unitary evolution and projective measurement collapse.

Every stochastic operation takes an explicit ``numpy.random.Generator``
so identical seeds reproduce identical outcome sequences.

Validation happens once, at the boundary: the public constructors
(``PureState(...)``, ``DensityMatrix(...)``, ``Ensemble``, ``MeasurementSet``)
check every invariant of what they are given.  States derived from
already-validated inputs (evolution, collapse, mixing, dephasing) are built
through a private trusted path that skips the checks; their spectrum is
computed on first use of ``eigenvalues()``.
"""

import math

import numpy as np

from . import linalg
from .errors import QentroError
from .linalg import DEFAULT_TOL, LOOSE_TOL, PART_LIMIT, ROUNDING_TOL


class PureState:
    """Normalized complex amplitude vector over a finite basis (length >= 2)."""

    def __init__(self, amplitudes):
        amps = linalg.as_vector(amplitudes, "amplitudes", complex)
        if amps.size < 2:
            raise QentroError("a pure state needs at least 2 amplitudes")
        # a unit vector has no amplitude above 1 in modulus; a larger part is
        # turned away before its square can overflow (a NaN part is the largest)
        largest = linalg.max_part(amps)
        if not math.isfinite(largest):
            raise QentroError("amplitudes must be finite (no NaN/Inf)")
        if largest > PART_LIMIT:
            raise QentroError(f"amplitude part {largest!r} is above {PART_LIMIT}, so the norm is not 1")
        norm_sq = float((amps * amps.conj()).real.sum())
        if abs(norm_sq - 1.0) > DEFAULT_TOL:
            raise QentroError(
                f"squared norm {norm_sq!r} deviates from 1 by more than {DEFAULT_TOL}"
            )
        amps.setflags(write=False)
        self._amps = amps

    @classmethod
    def _trusted(cls, amps: np.ndarray, norm_sq: float) -> "PureState":
        # Wrap a nonzero vector derived from validated inputs, divided by the
        # square root of its squared norm ``norm_sq``, which the caller has
        # summed from ``(c * c.conj()).real`` as __init__ does; the result is
        # not checked again.
        state = cls.__new__(cls)
        state._amps = amps / math.sqrt(norm_sq)
        state._amps.setflags(write=False)
        return state

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "PureState":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    def probabilities(self) -> np.ndarray:
        """Computational-basis outcome probabilities ``|c_k|^2``, taken as
        ``(c_k * conj(c_k)).real``: the product behind ``density_of_pure``
        and ``mix``, so they are its diagonal to the bit."""
        return (self._amps * self._amps.conj()).real

    def __repr__(self):
        return f"PureState({np.array2string(self._amps, precision=6)})"


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Public construction validates all three invariants; the error message
    names the one that failed, and the spectrum computed for the
    positivity check is cached.  States the library derives from validated
    inputs skip the checks (see ``_trusted``) and compute their spectrum
    on the first ``eigenvalues()`` call.
    """

    def __init__(self, matrix):
        m = linalg.as_matrix(matrix, "density matrix")
        # no entry of a positive semidefinite matrix of unit trace is above 1 in
        # modulus; a larger part is turned away before the sums below can overflow
        largest = linalg.max_part(m)
        if largest > PART_LIMIT:
            raise QentroError(
                f"entry part {largest!r} is above {PART_LIMIT}: not positive semidefinite with trace 1"
            )
        adjoint = m.conj().T
        if linalg.max_abs(m - adjoint) > DEFAULT_TOL:
            raise QentroError("matrix is not Hermitian within tolerance")
        m = (m + adjoint) / 2
        trace = float(m.trace().real)
        if abs(trace - 1.0) > DEFAULT_TOL:
            raise QentroError(f"trace {trace!r} is not 1 within tolerance")
        eigs = np.linalg.eigvalsh(m)  # ascending
        if eigs[0] < -DEFAULT_TOL:
            raise QentroError(f"not positive semidefinite: eigenvalue {eigs[0]:.3e} < -{DEFAULT_TOL}")
        m.setflags(write=False)
        self._m = m
        self._eigs = eigs

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "DensityMatrix":
        # Wrap a complex matrix derived from validated inputs: symmetrize
        # exactly as __init__ does, but run no checks and no eigensolver.
        rho = cls.__new__(cls)
        rho._m = (m + m.conj().T) / 2
        rho._m.setflags(write=False)
        rho._eigs = None
        return rho

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def diagonal(self) -> np.ndarray:
        """Real diagonal entries (the receiver-basis outcome probabilities)."""
        return self._m.diagonal().real.copy()

    def eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues, computed once and cached."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self._m)
        return self._eigs.copy()

    def __repr__(self):
        return f"DensityMatrix({np.array2string(self._m, precision=6)})"


class Ensemble:
    """Weighted pure states plus an optional weighted mixed component.

    ``pure_parts`` is a sequence of ``(weight, PureState)`` pairs and
    ``mixed_part`` an optional ``(weight, DensityMatrix)``.  Weights must be
    nonnegative and sum to 1, and every component must have the same
    dimension, kept as ``dim``.
    """

    def __init__(self, pure_parts, mixed_part=None):
        self.pure_parts = [(float(w), s) for w, s in pure_parts]
        self.mixed_part = None if mixed_part is None else (float(mixed_part[0]), mixed_part[1])
        for i, (_, s) in enumerate(self.pure_parts):
            if not isinstance(s, PureState):
                raise QentroError(f"pure part {i} must be a PureState, got {type(s).__name__}")
        if self.mixed_part is not None and not isinstance(self.mixed_part[1], DensityMatrix):
            raise QentroError(
                f"mixed part must be a DensityMatrix, got {type(self.mixed_part[1]).__name__}"
            )
        parts = self.pure_parts + ([] if self.mixed_part is None else [self.mixed_part])
        weights = [w for w, _ in parts]
        if any(w < -ROUNDING_TOL for w in weights):
            raise QentroError(f"negative weight in {weights}")
        total = sum(weights)
        if not abs(total - 1.0) <= DEFAULT_TOL:  # also rejects a NaN weight
            raise QentroError(f"weights sum to {total!r}, expected 1")
        # weights summing to 1 leave at least one component
        dims = [c.dim for _, c in parts]
        if len(set(dims)) != 1:
            raise QentroError(f"ensemble components differ in dimension: {dims}")
        self.dim = dims[0]


class MeasurementSet:
    """A complete set of measurement operators.  The outcome labels,
    ``labels``, are the operators' indices as strings: ``"0"``, ``"1"``, ...

    Completeness ``sum_i M_i† M_i = I`` is checked to ``linalg.LOOSE_TOL`` at construction.
    """

    def __init__(self, operators):
        ops = [linalg.as_matrix(op, "measurement operator") for op in operators]
        if not ops:
            raise QentroError("measurement set is empty")
        dim = ops[0].shape[0]
        if any(op.shape[0] != dim for op in ops):
            raise QentroError("measurement operators differ in dimension")
        stacked = np.stack(ops)
        # no entry of an operator in a complete set is above 1 in modulus; a
        # larger part is turned away before the sum below can overflow
        largest = linalg.max_part(stacked)
        if largest > PART_LIMIT:
            raise QentroError(
                f"operator entry part {largest!r} is above {PART_LIMIT}: sum_i M_i† M_i cannot be I"
            )
        total = np.einsum("kji,kjl->il", stacked.conj(), stacked)
        if linalg.max_abs(total - np.eye(dim)) > LOOSE_TOL:
            raise QentroError(
                "operators do not satisfy sum_i M_i† M_i = I within tolerance"
            )
        self.operators = stacked
        self.labels = [str(i) for i in range(len(ops))]
        self.dim = dim

    @classmethod
    def qubit_angle_basis(cls, angle: float) -> "MeasurementSet":
        """Qubit projectors onto the basis rotated by ``angle`` from |0>/|1>."""
        fwd = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
        orth = np.array([-np.sin(angle), np.cos(angle)], dtype=complex)
        return cls([np.outer(fwd, fwd.conj()), np.outer(orth, orth.conj())])


def density_of_pure(state: PureState) -> DensityMatrix:
    """Rank-1 density matrix ``|phi><phi|`` of a pure state."""
    amps = state.amplitudes
    return DensityMatrix._trusted(amps[:, None] * amps.conj())


def mix(ensemble: Ensemble) -> DensityMatrix:
    """Density matrix of a weighted ensemble:
    ``sum_i p_i |phi_i><phi_i| + p_o rho_o``."""
    rho = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for weight, state in ensemble.pure_parts:
        amps = state.amplitudes
        rho += weight * (amps[:, None] * amps.conj())
    if ensemble.mixed_part is not None:
        weight, component = ensemble.mixed_part
        rho += weight * component.matrix
    # weights sum to 1 within tolerance; rescale so the strict unit-trace
    # invariant holds exactly
    return DensityMatrix._trusted(rho / rho.trace().real)


def evolve_unitary(state, u):
    """Apply a unitary (within ``linalg.LOOSE_TOL``): ``U|phi>`` for pure states,
    ``U rho U†`` for density matrices.  Returns the same kind as the input."""
    # a nested list is parsed once, here; is_unitary copies the array
    u = linalg.as_array(u, "unitary", copy=None)
    if not linalg.is_unitary(u, LOOSE_TOL):
        raise QentroError("matrix is not unitary within tolerance")
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    if state.dim != u.shape[0]:
        raise QentroError(f"state dim {state.dim} != unitary dim {u.shape[0]}")
    if isinstance(state, PureState):
        # renormalize away the (<= LOOSE_TOL) drift allowed by the unitarity check
        amps = u @ state.amplitudes
        return PureState._trusted(amps, (amps * amps.conj()).real.sum())
    rho = u @ state.matrix @ u.conj().T
    return DensityMatrix._trusted(rho / rho.trace().real)


def measure_collapse(state: PureState, mset: MeasurementSet, rng: np.random.Generator):
    """Sample one measurement outcome by the Born rule and collapse.

    Returns ``(label, post_state)`` where the post state is the branch
    ``M_i|phi>`` divided by ``sqrt(w_i)``, with ``w_i`` its Born weight: the
    sum of the branch's ``(c * conj(c)).real``, computed once for both the
    draw and the renormalization.  Deterministic given the generator state;
    an outcome with probability 0 is never returned.
    """
    if state.dim != mset.dim:
        raise QentroError(f"state dim {state.dim} != measurement dim {mset.dim}")
    # Born weights <phi|M_i† M_i|phi>, each the squared norm of its branch
    branches = mset.operators @ state.amplitudes
    weights = (branches * branches.conj()).real.sum(axis=1)
    probs = weights / weights.sum()
    # inverse-CDF draw, the step Generator.choice(len(probs), p=probs) runs
    # for one sample, so the outcome stream is the same
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    idx = int(cdf.searchsorted(rng.random(), side="right"))
    return mset.labels[idx], PureState._trusted(branches[idx], weights[idx])


def dephase(state: DensityMatrix) -> DensityMatrix:
    """Drop all coherences: zero the off-diagonal entries in the
    computational basis, keeping the diagonal."""
    if not isinstance(state, DensityMatrix):
        raise TypeError(f"expected DensityMatrix, got {type(state).__name__}")
    return DensityMatrix._trusted(np.diag(state.diagonal().astype(complex)))


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix (normalized Wishart)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = z @ z.conj().T
    return DensityMatrix(w / w.trace().real)
