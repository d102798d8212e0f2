"""Pure states, density matrices, ensembles, and the two ways a state
can change: unitary evolution and projective measurement collapse.

Pure states are compared up to global phase; the canonical form fixes the
first non-negligible amplitude to be positive real.  Every stochastic
operation takes an explicit ``numpy.random.Generator`` so identical seeds
reproduce identical outcome sequences.
"""

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IncompleteMeasurementSet,
    NonFinite,
    NotADensityMatrix,
    NotNormalized,
    NotUnitary,
    WeightSumInvalid,
)

STATE_TOL = 1e-10


class PureState:
    """Normalized complex amplitude vector over a finite basis (length >= 2)."""

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise DimensionMismatch("a pure state needs at least 2 amplitudes")
        if not np.all(np.isfinite(amps)):
            raise NonFinite("amplitudes must be finite (no NaN/Inf)")
        norm_sq = float((np.abs(amps) ** 2).sum())
        if abs(norm_sq - 1.0) > STATE_TOL:
            raise NotNormalized(
                f"squared norm {norm_sq!r} deviates from 1 by more than {STATE_TOL}"
            )
        amps.setflags(write=False)
        self._amps = amps

    @classmethod
    def normalized(cls, raw_amplitudes) -> "PureState":
        """Construct from an unnormalized (nonzero) amplitude vector."""
        amps = np.asarray(raw_amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise NotNormalized("cannot normalize the zero vector")
        return cls(amps / norm)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "PureState":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def from_angle(cls, theta: float) -> "PureState":
        """Qubit ``cos(theta)|0> + sin(theta)|1>`` with real amplitudes."""
        return cls([np.cos(theta), np.sin(theta)])

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    def probabilities(self) -> np.ndarray:
        """Computational-basis outcome probabilities ``|c_k|^2``."""
        return np.abs(self._amps) ** 2

    def canonical(self) -> "PureState":
        """Global-phase-fixed representative: first significant amplitude
        rotated to be positive real."""
        mags = np.abs(self._amps)
        idx = np.argmax(mags > 1e-12 * mags.max())
        pivot = self._amps[idx]
        return PureState(self._amps * (pivot.conjugate() / abs(pivot)))

    def equals_up_to_phase(self, other: "PureState", tol: float = 1e-9) -> bool:
        if self.dim != other.dim:
            return False
        overlap = abs(np.vdot(self._amps, other._amps))
        return abs(overlap - 1.0) <= tol

    def __repr__(self):
        return f"PureState({np.array2string(self._amps, precision=6)})"


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Construction validates all three invariants; the error message names
    the one that failed.
    """

    def __init__(self, matrix, tol: float = STATE_TOL):
        m = linalg.as_matrix(matrix)
        if not linalg.is_hermitian(m, tol):
            raise NotADensityMatrix("matrix is not Hermitian within tolerance")
        m = (m + m.conj().T) / 2
        trace = float(m.trace().real)
        if abs(trace - 1.0) > tol:
            raise NotADensityMatrix(f"trace {trace!r} is not 1 within tolerance")
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -tol:
            raise NotADensityMatrix(
                f"not positive semidefinite: eigenvalue {eigs.min():.3e} < -{tol}"
            )
        m.setflags(write=False)
        self._m = m
        self._eigs = eigs

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
        """Ascending real eigenvalues, cached at construction."""
        return self._eigs.copy()

    def is_diagonal(self, tol: float = STATE_TOL) -> bool:
        off = self._m - np.diag(self._m.diagonal())
        return linalg.max_abs(off) <= tol

    def __repr__(self):
        return f"DensityMatrix({np.array2string(self._m, precision=6)})"


class Ensemble:
    """Weighted pure states plus an optional weighted mixed component.

    ``pure_parts`` is a sequence of ``(weight, PureState)`` pairs and
    ``mixed_part`` an optional ``(weight, DensityMatrix)``.  Weights must be
    nonnegative and sum to 1.
    """

    def __init__(self, pure_parts, mixed_part=None, tol: float = STATE_TOL):
        self.pure_parts = [(float(w), s) for w, s in pure_parts]
        self.mixed_part = None if mixed_part is None else (float(mixed_part[0]), mixed_part[1])
        weights = [w for w, _ in self.pure_parts]
        if self.mixed_part is not None:
            weights.append(self.mixed_part[0])
        if any(w < -1e-12 for w in weights):
            raise WeightSumInvalid(f"negative weight in {weights}")
        total = sum(weights)
        if abs(total - 1.0) > tol:
            raise WeightSumInvalid(f"weights sum to {total!r}, expected 1")


class MeasurementSet:
    """A complete set of measurement operators with outcome labels.

    Completeness ``sum_i M_i† M_i = I`` is checked to 1e-9 at construction.
    """

    def __init__(self, operators, labels=None, tol: float = 1e-9):
        ops = [linalg.as_matrix(op) for op in operators]
        if not ops:
            raise IncompleteMeasurementSet("measurement set is empty")
        dim = ops[0].shape[0]
        if any(op.shape[0] != dim for op in ops):
            raise DimensionMismatch("measurement operators differ in dimension")
        stacked = np.stack(ops)
        total = np.einsum("kji,kjl->il", stacked.conj(), stacked)
        if linalg.max_abs(total - np.eye(dim)) > tol:
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
    return DensityMatrix(np.outer(amps, amps.conj()))


def mix(ensemble: Ensemble) -> DensityMatrix:
    """Density matrix of a weighted ensemble:
    ``sum_i p_i |phi_i><phi_i| + p_o rho_o``."""
    dims = [s.dim for _, s in ensemble.pure_parts]
    if ensemble.mixed_part is not None:
        dims.append(ensemble.mixed_part[1].dim)
    if not dims:
        raise WeightSumInvalid("ensemble has no components")
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"ensemble components differ in dimension: {dims}")
    rho = np.zeros((dims[0], dims[0]), dtype=complex)
    for weight, state in ensemble.pure_parts:
        amps = state.amplitudes
        rho += weight * np.outer(amps, amps.conj())
    if ensemble.mixed_part is not None:
        weight, component = ensemble.mixed_part
        rho += weight * component.matrix
    # weights sum to 1 within tolerance; rescale so the strict unit-trace
    # invariant holds exactly
    return DensityMatrix(rho / rho.trace().real)


def evolve_unitary(state, u, tol: float = 1e-9):
    """Apply a unitary: ``U|phi>`` for pure states, ``U rho U†`` for density
    matrices.  Returns the same kind as the input."""
    u = linalg.as_matrix(u)
    if not linalg.is_unitary(u, tol):
        raise NotUnitary("matrix is not unitary within tolerance")
    if isinstance(state, PureState):
        if state.dim != u.shape[0]:
            raise DimensionMismatch(f"state dim {state.dim} != unitary dim {u.shape[0]}")
        # renormalize away the (<= tol) drift allowed by the unitarity check
        return PureState.normalized(u @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        if state.dim != u.shape[0]:
            raise DimensionMismatch(f"state dim {state.dim} != unitary dim {u.shape[0]}")
        rho = u @ state.matrix @ u.conj().T
        return DensityMatrix(rho / rho.trace().real)
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def measure_collapse(state: PureState, mset: MeasurementSet, rng: np.random.Generator):
    """Sample one measurement outcome by the Born rule and collapse.

    Returns ``(label, post_state)`` where the post state is
    ``M_i|phi> / sqrt(p_i)``.  Deterministic given the generator state; an
    outcome with probability 0 is never returned.
    """
    if state.dim != mset.dim:
        raise DimensionMismatch(f"state dim {state.dim} != measurement dim {mset.dim}")
    probs = mset.outcome_probabilities(state)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    idx = int(rng.choice(len(probs), p=probs))
    branch = mset.operators[idx] @ state.amplitudes
    return mset.labels[idx], PureState.normalized(branch)


def dephase(state) -> DensityMatrix:
    """Drop all coherences: zero the off-diagonal entries in the
    computational basis, keeping the diagonal."""
    if isinstance(state, PureState):
        diag = state.probabilities()
    elif isinstance(state, DensityMatrix):
        diag = state.diagonal()
    else:
        diag = linalg.as_matrix(state).diagonal().real
    return DensityMatrix(np.diag(diag.astype(complex)))


def alignment_matrix(theta: float) -> np.ndarray:
    """Real symmetric unitary mapping ``cos(theta)|0> + sin(theta)|1>``
    to ``|0>`` (a reflection, its own inverse)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def alignment_matrix_complex(alpha: complex, beta: complex) -> np.ndarray:
    """Unitary mapping ``alpha|0> + beta|1>`` (alpha real) to ``|0>``."""
    return np.array([[alpha, np.conjugate(beta)], [-beta, alpha]], dtype=complex)


def random_pure(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-uniform random pure state."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(z)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix (normalized Wishart)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = z @ z.conj().T
    return DensityMatrix(w / w.trace().real)
