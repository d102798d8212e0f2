"""Entropy measures for classical distributions and quantum states.

Implements Shannon entropy, differential (Boltzmann) entropy on a
tabulated grid, the quantization correction for finite measurement
precision, von Neumann entropy, the basis-dependent informational entropy
(the entropy of the density matrix diagonal as seen by the receiver), the
pure-state entropy, the ensemble lower bound, the area entropy bound, and
numerical minimization of the informational entropy over unitary
conjugations, with the rows the command line prints for the last two.

Log base is explicit everywhere and reported with every result; the
default is bits.  The convention ``0 log 0 = 0`` applies throughout, and
nonpositive entries (eigenvalues within rounding of zero) contribute
nothing.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import serialize, states
from .errors import (
    InvalidDistribution,
    NegativeArea,
    NonFinite,
    NonpositivePrecision,
    NotADensity,
)
from .linalg import DEFAULT_TOL, GRID_TOL, INTEGRAL_TOL, LOOSE_TOL, NEWTON_GATE, ROUNDING_TOL, SWEEP_TOL

BITS = "bits"
NATS = "nats"
# the pair visits that min_informational_over_unitaries spends by default
DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class EntropyResult:
    """An entropy value together with the log base it was computed in."""

    value: float
    base: str


@dataclass(frozen=True)
class BoundCheck:
    """Result of the ensemble lower-bound comparison."""

    lhs: float
    rhs: float
    holds: bool
    base: str


@dataclass(frozen=True)
class UnitaryMinimizationReport:
    """Outcome of minimizing informational entropy over unitaries."""

    minimizer: np.ndarray
    min_value: float
    iterations: int
    von_neumann: float
    certified_gap: float
    base: str
    budget_exhausted: bool = False
    newton_steps: int = 0

    @property
    def residual_vs_von_neumann(self) -> float:
        """How far the minimum reached lies above its floor, the von Neumann entropy."""
        return self.min_value - self.von_neumann


def _check_base(base: str):
    if base not in (BITS, NATS):
        raise ValueError(f"log base must be {BITS!r} or {NATS!r}, got {base!r}")


def _log(x, base: str):
    return np.log2(x) if base == BITS else np.log(x)


def _plogp_sum(probs: np.ndarray, base: str) -> float:
    """``-sum p log p`` over the positive entries (0 log 0 = 0); never -0.0."""
    p = np.asarray(probs, dtype=float)
    positive = p[p > 0]
    value = float(-(positive * _log(positive, base)).sum())
    return max(0.0, value)


def shannon(probs, base: str = BITS) -> EntropyResult:
    """Shannon entropy ``-sum_i p_i log p_i`` of a probability vector."""
    _check_base(base)
    p = np.asarray(probs, dtype=float).reshape(-1)
    if p.size == 0:
        raise InvalidDistribution("empty probability vector")
    if not np.all(np.isfinite(p)):
        raise NonFinite("probabilities must be finite (no NaN/Inf)")
    if p.min() < -DEFAULT_TOL:
        raise InvalidDistribution(f"negative probability {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > DEFAULT_TOL:
        raise InvalidDistribution(f"probabilities sum to {total!r}, expected 1")
    return EntropyResult(_plogp_sum(p, base), base)


def differential_entropy(grid, density, base: str = NATS) -> EntropyResult:
    """Differential entropy ``integral f log(1/f) dx`` of a tabulated density.

    ``grid`` must be uniformly spaced and ``density`` nonnegative with
    trapezoid-rule integral 1 within ``linalg.INTEGRAL_TOL``.  Unlike the
    discrete measures, the result may legitimately be negative (densities
    can exceed 1), so no nonnegativity clamp is applied here.
    """
    _check_base(base)
    x = np.asarray(grid, dtype=float).reshape(-1)
    f = np.asarray(density, dtype=float).reshape(-1)
    if x.size != f.size or x.size < 2:
        raise NotADensity("grid and density must share a length of at least 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
        raise NonFinite("grid and density must be finite (no NaN/Inf)")
    steps = np.diff(x)
    h = steps[0]
    if h <= 0 or np.abs(steps - h).max() > GRID_TOL * abs(h):
        raise NotADensity("grid must be uniformly spaced and increasing")
    if f.min() < -ROUNDING_TOL:
        raise NotADensity(f"density has negative value {f.min()!r}")
    f = np.clip(f, 0.0, None)
    total = float(np.trapezoid(f, x))
    if abs(total - 1.0) > INTEGRAL_TOL:
        raise NotADensity(f"density integrates to {total!r}, expected 1 within 1e-6")
    integrand = np.where(f > 0, -f * _log(np.where(f > 0, f, 1.0), base), 0.0)
    return EntropyResult(float(np.trapezoid(integrand, x)), base)


def quantized_entropy(h: EntropyResult, delta_x: float) -> EntropyResult:
    """Entropy at finite measurement precision: ``h - log(delta_x)``.

    Grows without bound as the precision ``delta_x`` shrinks.  Inherits the
    base of ``h``; like the differential entropy it may be negative when
    ``delta_x`` exceeds the spread of the density.
    """
    if delta_x <= 0:
        raise NonpositivePrecision(f"precision must be positive, got {delta_x!r}")
    return EntropyResult(h.value - float(_log(delta_x, h.base)), h.base)


def von_neumann(rho, base: str = BITS) -> EntropyResult:
    """Entropy ``-sum_x lambda_x log lambda_x`` of the eigenvalues of a
    density matrix.  Zero for every pure state, and equal to
    :func:`informational` exactly when the matrix is diagonal."""
    _check_base(base)
    if not isinstance(rho, states.DensityMatrix):
        rho = states.DensityMatrix(rho)
    m = rho.matrix
    # a diagonal matrix's spectrum is its diagonal: summed in the diagonal's
    # order, as informational sums it, and not sorted, the two agree to the bit
    if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
        return EntropyResult(_plogp_sum(rho.diagonal(), base), base)
    return EntropyResult(_plogp_sum(rho.eigenvalues(), base), base)


def informational(rho, base: str = BITS) -> EntropyResult:
    """Basis-dependent entropy ``-sum_i rho_ii log rho_ii`` of the diagonal.

    This is the average uncertainty per measurement in the receiver's basis;
    it upper-bounds the von Neumann entropy and equals it exactly when the
    matrix is diagonal in that basis.  Any finite dimension is accepted, and
    the value can reach ``log d``, so the measure is unbounded as the number
    of components grows.
    """
    _check_base(base)
    if not isinstance(rho, states.DensityMatrix):
        rho = states.DensityMatrix(rho)
    return EntropyResult(_plogp_sum(rho.diagonal(), base), base)


def pure_entropy(state: states.PureState, base: str = BITS) -> EntropyResult:
    """Entropy ``-sum_k |c_k|^2 log |c_k|^2`` of a pure state's amplitudes.

    Shares the ``p log p`` code path with :func:`informational`, so it equals
    ``informational(density_of_pure(state))`` exactly.
    """
    _check_base(base)
    return EntropyResult(_plogp_sum(state.probabilities(), base), base)


def ensemble_bound_check(ensemble: states.Ensemble, base: str = BITS) -> BoundCheck:
    """Compare the mixture's informational entropy against the weighted sum
    of component entropies.

    ``lhs = informational(mix(ensemble))``;
    ``rhs = sum_i p_i * pure_entropy(phi_i) + p_o * von_neumann(rho_o)``;
    ``holds`` is the inequality ``lhs >= rhs - linalg.LOOSE_TOL``.
    Components aligned with the receiver basis contribute nothing to the
    right side, which is why the left side can be strictly larger.
    """
    _check_base(base)
    lhs = informational(states.mix(ensemble), base).value
    rhs = 0.0
    for weight, state in ensemble.pure_parts:
        rhs += weight * pure_entropy(state, base).value
    if ensemble.mixed_part is not None:
        weight, component = ensemble.mixed_part
        rhs += weight * von_neumann(component, base).value
    return BoundCheck(lhs, rhs, lhs >= rhs - LOOSE_TOL, base)


def bekenstein_bound(area_planck_units: float, base: str = BITS) -> EntropyResult:
    """Area entropy bound: ``A/4`` nats for an area in Planck units,
    divided by ln 2 when reporting bits."""
    _check_base(base)
    if not math.isfinite(area_planck_units):
        raise NonFinite(f"area must be finite, got {area_planck_units!r}")
    if area_planck_units < 0:
        raise NegativeArea(f"area must be nonnegative, got {area_planck_units!r}")
    nats = area_planck_units / 4.0 + 0.0  # adding 0.0 turns an area of -0.0 into +0.0
    value = nats if base == NATS else nats / math.log(2.0)
    return EntropyResult(value, base)


def bound_row(area_planck_units: float) -> dict:
    """One row of the area bound in both bases.

    Columns: area, nats, bits.
    """
    return {
        "area": area_planck_units,
        "nats": bekenstein_bound(area_planck_units, NATS).value,
        "bits": bekenstein_bound(area_planck_units, BITS).value,
    }


# ---------------------------------------------------------------------------
# Minimization of informational entropy over unitary conjugations.
#
# Jacobi sweeps (Jacobi 1846; Golub & Van Loan, Matrix Computations,
# sec. 8.5).  A complex Givens rotation on the coordinate pair (p, q) moves
# only the diagonal entries m_pp and m_qq and keeps their sum fixed.  The
# two-entry entropy is Schur-concave, so the best rotation for the pair is
# the one that spreads m_pp and m_qq furthest apart: the 2x2 Jacobi rotation
# that zeroes work[p, q].  Each pair step is therefore solved in closed form
# and can never raise the objective; sweeping the pairs in turn drives the
# working matrix to diagonal, where the objective equals the von Neumann
# entropy.  No eigensolver is called.
#
# The search stops after a sweep that lowers the objective by less than
# SWEEP_TOL (1 + |value|), or once _certified_gap, an upper bound on the
# remaining gap read off the working matrix's entries in O(d^2), is at most
# that.  The bound is of the order of the squared off-diagonal entries, so it
# passes the tolerance at the end of the sweep that converges, where the drop
# needs one more sweep, lowering the objective by exactly 0, to show it; that
# sweep would be 15-20 % of the pair visits on full-rank inputs and half of
# them on pure ones.
#
# A sweep visits every pair once, in one of two orders chosen by dimension.
# Below _ROUNDS_FROM_DIM it goes row by row, one pair at a time, on nested
# lists of Python complex: a pair step touches two rows and two columns of
# d entries each, too few to pay for a numpy call.  From there on it runs
# the rounds of a round-robin tournament (the parallel Jacobi ordering of
# Golub & Van Loan): each round is a set of disjoint pairs, so one block
# rotation g turns them all with numpy, for ~35 us of call overhead per
# round whatever its size; the tournament's index tables depend on the
# dimension alone and are built once per dimension (_schedule).  Per
# matrix on a shared 2-vCPU x86-64 VM (OpenBLAS, one thread), Wishart
# inputs, best of 5, the two orders timed in turn on each of 11 matrices,
# median, lists -> rounds: d4 0.14 -> 0.21 ms, d5 0.24 -> 0.40 ms, d6 0.39
# -> 0.42 ms and d7 0.70 -> 0.68 ms (a tie: rounds faster on 5 and on 7 of
# the 11), d8 1.11 -> 0.78 ms and d10 2.2 -> 1.1 ms (rounds faster on all
# 11).  An earlier, not interleaved run gave d16 14.1 -> 2.4 ms, d32 119 ->
# 9.1 ms and d64 1200 -> 83 ms.  The host's speed swings by up to 1.5x from
# one run of such a table to the next.
#
# On the round path, the last sweeps of a search redo work that one
# all-pairs Newton step can do once the working matrix W is nearly diagonal:
# the quadratically convergent refinement of Ogita & Aishima (Japan J.
# Indust. Appl. Math. 35, 1007, 2018), kept exactly unitary by a Cayley
# transform (Wen & Yin, Math. Program. 142, 397, 2013).  Before each sweep
# after the first, the search tries one (_newton_step) if the remaining
# budget covers the d(d-1)/2 pair visits that a kept step counts.  It runs
# only if every off-diagonal |w_ij| is at most NEWTON_GATE |w_ii - w_jj|,
# and is kept only if the objective does not rise and the certificate falls
# to at most NEWTON_GATE^2 times what it was: inside the gate the linear
# model leaves off-diagonal entries of order NEWTON_GATE times the old
# ones.  Otherwise the search sweeps; a rejected step is its last try.  The
# stop rules above apply after every step, a sweep or a kept Newton step.
# Per matrix on the same VM, 10 matrices per size, min of 7 (3 at d64), the
# searches without and with Newton steps timed in turn, two runs: Wishart
# inputs take ~2 kept steps and 0.74-0.81x the time at d8-d64 (d16 2.0 ->
# 1.5 ms, d64 85 -> 66 ms); rank-deficient, pure, tiny-spectrum, two-level
# and clustered inputs, which rarely pass the gate, take 0.90-1.08x, within
# the host's noise.  A gate of 0.3 was 2-10 % faster on Wishart inputs but
# up to ~8 % slower on two-level and tiny-spectrum ones at d8-d9.

_ROUNDS_FROM_DIM = 8
# the phase b / |b| of a subnormal b loses bits, so the rotation is not unitary, and numpy takes it
# as b * (1 / |b|), which overflows at 0: both sweeps divide b * _SCALE by its modulus, floored at
# _TINY in the round sweep; for a normal b, the same quotient
_SCALE = 2.0**512
_TINY = np.finfo(float).tiny


def _sweep_lists(work, u, budget):
    """One cyclic-by-rows sweep on nested lists, at most ``budget`` pair
    visits; returns ``(visits, exhausted)``."""
    dim = len(work)
    visits = 0
    for p in range(dim):
        for q in range(p + 1, dim):
            if visits >= budget:
                return visits, True
            visits += 1
            b = work[p][q]
            if b == 0:
                continue
            a, d = work[p][p].real, work[q][q].real
            sgn = 1.0 if a >= d else -1.0
            scaled = b * _SCALE
            e = -sgn * scaled.conjugate() / abs(scaled)
            theta = 0.5 * math.atan2(2.0 * abs(b), abs(a - d))
            c, s = math.cos(theta), math.sin(theta)
            g_pp, g_pq = c, -s * e.conjugate()
            g_qp, g_qq = s * e, c
            for rows in (work, u):
                row_p, row_q = rows[p], rows[q]
                for k in range(dim):
                    x, y = row_p[k], row_q[k]
                    row_p[k] = g_pp * x + g_pq * y
                    row_q[k] = g_qp * x + g_qq * y
            h_pq, h_qp = g_pq.conjugate(), g_qp.conjugate()
            for row in work:
                x, y = row[p], row[q]
                row[p] = x * g_pp + y * h_pq
                row[q] = x * h_qp + y * g_qq
    return visits, False


def _round_robin(dim):
    """Pairs ``(p, q)``, ``p < q``, of a round-robin tournament on ``dim``
    indices (circle method), as two int arrays with one row per round and
    one column per pair.  Pairs within a round are disjoint and the rounds
    hold every pair once; an odd ``dim`` plays a dummy index, so each real
    index sits out one round."""
    n = dim + dim % 2
    r = np.arange(n - 1)[:, None]
    i = np.arange(n // 2)
    p, q = (r + i) % (n - 1), (r - i) % (n - 1)
    q[:, 0] = n - 1
    if dim % 2:
        p, q = p[:, 1:], q[:, 1:]
    return np.minimum(p, q), np.maximum(p, q)


@functools.cache
def _schedule(dim):
    """The round sweep's tables for ``dim``, kept write-protected (~44 dim^2
    bytes): per round of ``_round_robin(dim)``, its ``p`` and ``q``, the flat
    indices ``pq`` of ``work[p, q]`` and the ``scatter`` indices of
    ``g[p, p]``, ``g[q, q]``, ``g[p, q]`` and ``g[q, p]`` in turn; and the
    identity."""
    p, q = _round_robin(dim)
    pq = p * dim + q
    scatter = np.concatenate((p * (dim + 1), q * (dim + 1), pq, q * dim + p), axis=1)
    identity = np.eye(dim, dtype=complex)
    for table in (p, q, pq, scatter, identity):
        table.flags.writeable = False
    return tuple(zip(p, q, pq, scatter)), identity


def _sweep_rounds(work, u, budget):
    """One round-robin sweep on complex arrays, updated in place, at most
    ``budget`` pair visits (the round that reaches it is cut short);
    returns ``(visits, exhausted)``.  Each round computes the list
    sweep's rotation elementwise over its pairs, a pair whose entry is 0
    getting the identity block, and applies the block rotation g as
    ``work <- g work g†``, ``u <- g u``."""
    rounds, identity = _schedule(len(work))
    size = len(rounds[0][0])
    # work is only written in place, so these views of it stay current
    flat, diagonal = work.reshape(-1), work.diagonal().real
    visits = 0
    for p, q, pq, scatter in rounds:
        k = min(size, max(budget - visits, 0))
        visits += k
        if k < size:  # the round the budget cuts short: its first k pairs
            p, q, pq, scatter = p[:k], q[:k], pq[:k], scatter.reshape(4, size)[:, :k].reshape(-1)
        b = flat[pq]
        if np.count_nonzero(b):
            mod = np.abs(b)
            diff = diagonal[p] - diagonal[q]
            theta = 0.5 * np.arctan2(2.0 * mod, np.abs(diff))
            c = np.cos(theta)
            # the sign of a - d is the list sweep's sgn except for a = -0.0,
            # d = 0.0, which a PSD matrix with b != 0 cannot have; a b of 0
            # gets sin(theta) = 0 and so the identity block
            scaled = b * _SCALE
            g_pq = np.copysign(np.sin(theta), diff) * scaled / np.maximum(np.abs(scaled), _TINY)
            g = identity.copy()
            g.reshape(-1)[scatter] = np.concatenate((c, c, g_pq, -g_pq.conj()))
            np.matmul(g @ work, g.conj().T, out=work)
            np.matmul(g, u, out=u)
        if k < size:
            return visits, True
    return visits, False


def _newton_step(work, u, value, gap, base):
    """One all-pairs Newton step on the working matrix, kept only if it does
    what its linear model promises; ``work`` and ``u`` are never written.

    The step runs only if every off-diagonal ``|w_ij|`` is at most
    ``NEWTON_GATE |w_ii - w_jj|``; it then turns W by the Cayley transform
    ``g = (I - A/2)^-1 (I + A/2)`` of the skew-Hermitian generator
    ``a_ij = w_ij / (w_ii - w_jj)``, which zeroes W's off-diagonal entries to
    first order.  Returns ``None`` when the gate is closed, ``False`` when
    the step would raise the objective ``value`` or leave the certificate
    above ``NEWTON_GATE^2`` times ``gap``, and otherwise the new
    ``(work, u, value, gap)``."""
    diagonal = work.diagonal().real
    den = diagonal[:, None] - diagonal
    # an infinite diagonal lets one comparison cover the whole matrix
    den.reshape(-1)[:: len(den) + 1] = np.inf
    if not (np.abs(work) <= NEWTON_GATE * np.abs(den)).all():
        return None
    # the gate leaves only zero entries over a zero gap: they get no rotation
    den[den == 0] = np.inf
    x = work / den
    # exactly skew-Hermitian: W's rounding asymmetry over a tiny gap would
    # otherwise make g measurably non-unitary
    half = (x - x.conj().T) / 4
    identity = _schedule(len(work))[1]
    g = np.linalg.solve(identity - half, identity + half)
    work = g @ work @ g.conj().T
    diagonal = work.diagonal().real
    new_value = _plogp_sum(diagonal, base)
    new_gap = _certified_gap(work, diagonal, base)
    if new_value > value or new_gap > NEWTON_GATE**2 * gap:
        return False
    return work, g @ u, new_value, new_gap


def _certified_gap(work, diagonal, base):
    """An upper bound on ``informational(W) - von_neumann(W)`` for the
    working matrix W: ``ln(1 + sum_{i != j} |w_ij|^2 / sqrt(w_ii w_jj))``
    nats, in ``base``, with each ``w_ii`` floored at ``linalg.ROUNDING_TOL``.
    A row below the floor holds only what rounding leaves in a
    rank-deficient input, so the bound is finite on every input and holds
    there to within rounding."""
    if isinstance(work, list):
        roots = [math.sqrt(max(w, ROUNDING_TOL)) for w in diagonal]
        total = 0.0
        for i, row in enumerate(work):
            for j, w in enumerate(row):
                if w and j != i:
                    total += (w.real * w.real + w.imag * w.imag) / (roots[i] * roots[j])
    else:
        r = np.maximum(diagonal, ROUNDING_TOL) ** -0.25
        x = work * (r[:, None] * r)
        x.reshape(-1)[:: len(x) + 1] = 0
        total = np.vdot(x, x).real
    gap = math.log1p(total)
    return gap if base == NATS else gap / math.log(2.0)


def min_informational_over_unitaries(
    rho,
    base: str = BITS,
    budget: int = DEFAULT_BUDGET,
) -> UnitaryMinimizationReport:
    """Minimize ``informational(U rho U†)`` over unitaries ``U``.

    Jacobi sweeps over the coordinate pairs (p, q): each pair is rotated by
    the complex Givens rotation that zeroes the off-diagonal entry
    ``work[p, q]`` of the working matrix ``work = U rho U†``, which is the
    exact minimizer of the objective over that pair.  Pairs whose entry is
    already zero are skipped, so a diagonal input returns the identity.  A
    sweep visits the pairs row by row below dimension 8 and in round-robin
    rounds of disjoint pairs from dimension 8 on.  There, before each sweep
    after the first, one all-pairs Newton step is tried if every
    off-diagonal ``|w_ij|`` is at most ``linalg.NEWTON_GATE |w_ii - w_jj|``;
    it is kept, in place of the sweep, only if the objective does not rise
    and ``certified_gap`` falls to at most ``NEWTON_GATE**2`` times what it
    was, and a rejected step is the search's last try.  A kept step counts
    ``d(d-1)/2`` pair visits and runs only if the budget covers them;
    ``newton_steps`` reports how many were kept.

    After each step, a sweep or a kept Newton step, with
    ``tol = linalg.SWEEP_TOL * (1 + |value|)``, the search stops when the
    budget is spent, when the step lowered the objective by less than
    ``tol`` (as a sweep that rotates nothing does, by exactly 0), or when
    ``certified_gap`` is at most ``tol``.  That
    certificate bounds the objective's gap over the von Neumann entropy, the
    relative entropy of coherence ``D(W || diag W)`` (Baumgratz, Cramer &
    Plenio, PRL 113, 140401, 2014), by the sandwiched Renyi-2 divergence
    (Muller-Lennert et al., J. Math. Phys. 54, 122203, 2013), which needs
    the entries of W and no spectrum.  The von Neumann entropy is only
    reported, as ``von_neumann``.

    The infimum equals the von Neumann entropy, attained at the eigenbasis
    rotation, so ``residual_vs_von_neumann`` measures search quality
    directly; ``certified_gap`` is the last certificate, in ``base``.
    ``budget`` caps evaluations, one per pair visit, and ``iterations``
    reports the pair visits made; on exhaustion the point reached so far is
    returned with ``budget_exhausted=True``.  The search is deterministic.
    """
    _check_base(base)
    if not isinstance(rho, states.DensityMatrix):
        rho = states.DensityMatrix(rho)
    dim = rho.dim
    if dim >= _ROUNDS_FROM_DIM:
        sweep = _sweep_rounds
        work, u = np.array(rho.matrix, dtype=complex), np.eye(dim, dtype=complex)
    else:
        sweep = _sweep_lists
        work, u = rho.matrix.tolist(), np.eye(dim, dtype=complex).tolist()
    value = informational(rho, base).value
    evals = newton_steps = 0
    newton = sweep is _sweep_rounds  # False once a Newton step is rejected
    pairs = dim * (dim - 1) // 2

    while True:
        start = value
        step = None
        # after the first sweep, while no Newton step has been rejected and the
        # budget covers the visits that a kept one counts
        if evals and newton and budget - evals >= pairs:
            step = _newton_step(work, u, value, gap, base)
            newton = step is not False
        if step:
            work, u, value, gap = step
            evals += pairs
            newton_steps += 1
        else:
            visits, exhausted = sweep(work, u, budget - evals)
            evals += visits
            diagonal = work.diagonal().real if sweep is _sweep_rounds else [work[k][k].real for k in range(dim)]
            value = _plogp_sum(diagonal, base)
            gap = _certified_gap(work, diagonal, base)
        tol = SWEEP_TOL * (1.0 + abs(value))
        if exhausted or start - value < tol or gap <= tol:
            break

    return UnitaryMinimizationReport(
        minimizer=np.array(u),
        min_value=value,
        iterations=evals,
        von_neumann=von_neumann(rho, base).value,
        certified_gap=gap,
        base=base,
        budget_exhausted=exhausted,
        newton_steps=newton_steps,
    )


def minimization_row(report: UnitaryMinimizationReport) -> dict:
    """One row of a minimization, its minimizer as a JSON matrix object.

    Columns: min_informational, von_neumann, residual, iterations,
    budget_exhausted, base, minimizer.
    """
    return {
        "min_informational": report.min_value,
        "von_neumann": report.von_neumann,
        "residual": report.residual_vs_von_neumann,
        "iterations": report.iterations,
        "budget_exhausted": report.budget_exhausted,
        "base": report.base,
        "minimizer": serialize.matrix_to_json(report.minimizer),
    }
