"""Pure states, density matrices, ensembles, and the two ways a state
can change: unitary evolution and projective measurement collapse.

Pure states are compared up to global phase.  Every stochastic operation
takes an explicit ``numpy.random.Generator`` so identical seeds reproduce
identical outcome sequences.

Validation happens once, at the boundary: the public constructors
(``PureState(...)``, ``PureState.normalized``, ``DensityMatrix(...)``,
``Ensemble``, ``MeasurementSet``) check every invariant of what they are
given.  States derived from already-validated inputs (evolution, collapse,
mixing, dephasing) are built through a private trusted path that skips the
checks; their spectrum is computed on first use of ``eigenvalues()``.
"""

import math

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IncompleteMeasurementSet,
    NonFinite,
    NotADensityMatrix,
    NotNormalized,
    NotUnitary,
    QentroError,
    WeightSumInvalid,
)
from .linalg import DEFAULT_TOL, LOOSE_TOL, PART_LIMIT, ROUNDING_TOL


class PureState:
    """Normalized complex amplitude vector over a finite basis (length >= 2)."""

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise DimensionMismatch("a pure state needs at least 2 amplitudes")
        # a unit vector has no amplitude above 1 in modulus; a larger part is
        # turned away before its square can overflow (a NaN part is the largest)
        largest = linalg.max_part(amps)
        if not math.isfinite(largest):
            raise NonFinite("amplitudes must be finite (no NaN/Inf)")
        if largest > PART_LIMIT:
            raise NotNormalized(f"amplitude part {largest!r} is above {PART_LIMIT}, so the norm is not 1")
        norm_sq = float((np.abs(amps) ** 2).sum())
        if abs(norm_sq - 1.0) > DEFAULT_TOL:
            raise NotNormalized(
                f"squared norm {norm_sq!r} deviates from 1 by more than {DEFAULT_TOL}"
            )
        amps.setflags(write=False)
        self._amps = amps

    @classmethod
    def normalized(cls, raw_amplitudes) -> "PureState":
        """Construct from an unnormalized (nonzero) amplitude vector."""
        amps = np.asarray(raw_amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(amps)):
            raise NonFinite("amplitudes must be finite (no NaN/Inf)")
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise NotNormalized("cannot normalize the zero vector")
        return cls(amps / norm)

    @classmethod
    def _trusted_normalized(cls, amps: np.ndarray) -> "PureState":
        # Normalize a nonzero vector derived from validated inputs, as
        # ``normalized`` does, without checking the result again.
        state = cls.__new__(cls)
        state._amps = amps / np.linalg.norm(amps)
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
        """Computational-basis outcome probabilities ``|c_k|^2``."""
        return np.abs(self._amps) ** 2

    def equals_up_to_phase(self, other: "PureState", tol: float = LOOSE_TOL) -> bool:
        if self.dim != other.dim:
            return False
        overlap = abs(np.vdot(self._amps, other._amps))
        return abs(overlap - 1.0) <= tol

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
        m = linalg.as_matrix(matrix)
        # no entry of a positive semidefinite matrix of unit trace is above 1 in
        # modulus; a larger part is turned away before the sums below can overflow
        largest = linalg.max_part(m)
        if largest > PART_LIMIT:
            raise NotADensityMatrix(
                f"entry part {largest!r} is above {PART_LIMIT}: not positive semidefinite with trace 1"
            )
        if linalg._hermitian_deviation(m) > DEFAULT_TOL:
            raise NotADensityMatrix("matrix is not Hermitian within tolerance")
        m = (m + m.conj().T) / 2
        trace = float(m.trace().real)
        if abs(trace - 1.0) > DEFAULT_TOL:
            raise NotADensityMatrix(f"trace {trace!r} is not 1 within tolerance")
        eigs = np.linalg.eigvalsh(m)  # ascending
        if eigs[0] < -DEFAULT_TOL:
            raise NotADensityMatrix(f"not positive semidefinite: eigenvalue {eigs[0]:.3e} < -{DEFAULT_TOL}")
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
            raise WeightSumInvalid(f"negative weight in {weights}")
        total = sum(weights)
        if not abs(total - 1.0) <= DEFAULT_TOL:  # also rejects a NaN weight
            raise WeightSumInvalid(f"weights sum to {total!r}, expected 1")
        # weights summing to 1 leave at least one component
        dims = [c.dim for _, c in parts]
        if len(set(dims)) != 1:
            raise DimensionMismatch(f"ensemble components differ in dimension: {dims}")
        self.dim = dims[0]


class MeasurementSet:
    """A complete set of measurement operators with outcome labels.

    Completeness ``sum_i M_i† M_i = I`` is checked to ``linalg.LOOSE_TOL`` at construction.
    """

    def __init__(self, operators, labels=None):
        ops = [linalg.as_matrix(op) for op in operators]
        if not ops:
            raise IncompleteMeasurementSet("measurement set is empty")
        dim = ops[0].shape[0]
        if any(op.shape[0] != dim for op in ops):
            raise DimensionMismatch("measurement operators differ in dimension")
        stacked = np.stack(ops)
        total = np.einsum("kji,kjl->il", stacked.conj(), stacked)
        if linalg.max_abs(total - np.eye(dim)) > LOOSE_TOL:
            raise IncompleteMeasurementSet(
                "operators do not satisfy sum_i M_i† M_i = I within tolerance"
            )
        if labels is None:
            labels = [str(i) for i in range(len(ops))]
        if len(labels) != len(ops):
            raise DimensionMismatch("one label per operator required")
        self.operators = stacked
        self.labels = list(labels)
        self.dim = dim

    @classmethod
    def computational(cls, dim: int) -> "MeasurementSet":
        """Projectors onto the computational basis states."""
        ops = [np.diag((np.arange(dim) == k).astype(complex)) for k in range(dim)]
        return cls(ops, [str(k) for k in range(dim)])

    @classmethod
    def qubit_angle_basis(cls, angle: float, labels=("0", "1")) -> "MeasurementSet":
        """Qubit projectors onto the basis rotated by ``angle`` from |0>/|1>."""
        fwd = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
        orth = np.array([-np.sin(angle), np.cos(angle)], dtype=complex)
        return cls([np.outer(fwd, fwd.conj()), np.outer(orth, orth.conj())], list(labels))

    def outcome_probabilities(self, state: PureState) -> np.ndarray:
        """Born probabilities ``<phi|M_i†M_i|phi>`` for each operator."""
        branches = np.einsum("kij,j->ki", self.operators, state.amplitudes)
        return (np.abs(branches) ** 2).sum(axis=1)


def density_of_pure(state: PureState) -> DensityMatrix:
    """Rank-1 density matrix ``|phi><phi|`` of a pure state."""
    amps = state.amplitudes
    return DensityMatrix._trusted(np.outer(amps, amps.conj()))


def mix(ensemble: Ensemble) -> DensityMatrix:
    """Density matrix of a weighted ensemble:
    ``sum_i p_i |phi_i><phi_i| + p_o rho_o``."""
    rho = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for weight, state in ensemble.pure_parts:
        amps = state.amplitudes
        rho += weight * np.outer(amps, amps.conj())
    if ensemble.mixed_part is not None:
        weight, component = ensemble.mixed_part
        rho += weight * component.matrix
    # weights sum to 1 within tolerance; rescale so the strict unit-trace
    # invariant holds exactly
    return DensityMatrix._trusted(rho / rho.trace().real)


def evolve_unitary(state, u):
    """Apply a unitary (within ``linalg.LOOSE_TOL``): ``U|phi>`` for pure states,
    ``U rho U†`` for density matrices.  Returns the same kind as the input."""
    u = linalg.as_matrix(u)
    if linalg._unitary_deviation(u) > LOOSE_TOL:
        raise NotUnitary("matrix is not unitary within tolerance")
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    if state.dim != u.shape[0]:
        raise DimensionMismatch(f"state dim {state.dim} != unitary dim {u.shape[0]}")
    if isinstance(state, PureState):
        # renormalize away the (<= LOOSE_TOL) drift allowed by the unitarity check
        return PureState._trusted_normalized(u @ state.amplitudes)
    rho = u @ state.matrix @ u.conj().T
    return DensityMatrix._trusted(rho / rho.trace().real)


def measure_collapse(state: PureState, mset: MeasurementSet, rng: np.random.Generator):
    """Sample one measurement outcome by the Born rule and collapse.

    Returns ``(label, post_state)`` where the post state is
    ``M_i|phi> / sqrt(p_i)``.  Deterministic given the generator state; an
    outcome with probability 0 is never returned.
    """
    if state.dim != mset.dim:
        raise DimensionMismatch(f"state dim {state.dim} != measurement dim {mset.dim}")
    # clip rounding negatives to 0: np.clip(probs, 0.0, None) calls this
    # same ufunc, at a fraction of the per-call cost
    probs = np.maximum(mset.outcome_probabilities(state), 0.0)
    probs = probs / probs.sum()
    # inverse-CDF draw, the step Generator.choice(len(probs), p=probs) runs
    # for one sample, so the outcome stream is the same
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    idx = int(cdf.searchsorted(rng.random(), side="right"))
    branch = mset.operators[idx] @ state.amplitudes
    return mset.labels[idx], PureState._trusted_normalized(branch)


def dephase(state) -> DensityMatrix:
    """Drop all coherences: zero the off-diagonal entries in the
    computational basis, keeping the diagonal.  A matrix that is not a
    state yet is validated as a ``DensityMatrix`` first."""
    if isinstance(state, PureState):
        diag = state.probabilities()
    else:
        if not isinstance(state, DensityMatrix):
            state = DensityMatrix(state)
        diag = state.diagonal()
    return DensityMatrix._trusted(np.diag(diag.astype(complex)))


def random_pure(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-uniform random pure state."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(z)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix (normalized Wishart)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = z @ z.conj().T
    return DensityMatrix(w / w.trace().real)
