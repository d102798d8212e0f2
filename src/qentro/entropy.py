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
from .errors import QentroError
from .linalg import DEFAULT_TOL, GRID_TOL, INTEGRAL_TOL, LOOSE_TOL, ROUNDING_TOL, STEP_KEEP, SWEEP_TOL, as_vector

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
    """Outcome of minimizing informational entropy over unitaries.

    ``iterations`` counts pair visits, ``d(d-1)/2`` for each sweep and each
    kept all-pairs step, as the budget rule of
    ``min_informational_over_unitaries`` spends them; ``all_pairs_steps``
    counts the kept all-pairs steps, which only the round path (dimension 8
    on) takes; ``certified_gap`` is the last certificate, read with no
    spectrum, and bounds ``residual_vs_von_neumann`` from above up to
    rounding."""

    minimizer: np.ndarray
    min_value: float
    iterations: int
    von_neumann: float
    certified_gap: float
    base: str
    budget_exhausted: bool
    all_pairs_steps: int

    @property
    def residual_vs_von_neumann(self) -> float:
        """How far the minimum reached lies above its floor, the von Neumann entropy."""
        return self.min_value - self.von_neumann


def _check_base(base: str):
    if base not in (BITS, NATS):
        raise ValueError(f"log base must be {BITS!r} or {NATS!r}, got {base!r}")


def _log(x, base: str):
    return np.log2(x) if base == BITS else np.log(x)


def _plogp_sum(probs, base: str) -> float:
    """``-sum p log p`` over the positive entries (0 log 0 = 0); never -0.0.

    Summed in Python floats by ``math.fsum``, which rounds the exact sum of
    the terms once (Shewchuk, Discrete Comput. Geom. 18, 305, 1997).  The
    value does not depend on the order of the entries, so a basis
    permutation leaves ``informational`` bit-identical.  Against a 60-digit
    reference, on 500 Dirichlet vectors per size and base on each of 4
    seeds, every value at 3-64 entries was within 1 ulp, where numpy's
    pairwise sum was 2 ulps off on 61 of 28,000; at 2 entries both round
    one addition, and the terms' own rounding left 3 of 4,000 values 2 ulps
    off.

    Diagonals and spectra of the CLI's matrices have at most 64 entries,
    where the numpy calls of an array sum cost 3.4-6 us whatever the size.
    Per call on a shared 2-vCPU x86-64 VM, this loop takes 0.9-2.3 us at
    2-16 entries; the two cross near 32 entries, and the loop takes twice
    numpy's time at 64 and twenty times at 1e6, a length that only a
    Shannon or pure-state input reaches (ROADMAP, Parked)."""
    log = math.log2 if base == BITS else math.log
    values = probs.tolist() if isinstance(probs, np.ndarray) else probs
    return max(0.0, -math.fsum([p * log(p) for p in values if p > 0]))


def shannon(probs, base: str = BITS) -> EntropyResult:
    """Shannon entropy ``-sum_i p_i log p_i`` of a probability vector."""
    _check_base(base)
    p = as_vector(probs, "probabilities")
    if p.size == 0:
        raise QentroError("empty probability vector")
    if not np.all(np.isfinite(p)):
        raise QentroError("probabilities must be finite (no NaN/Inf)")
    if p.min() < -DEFAULT_TOL:
        raise QentroError(f"negative probability {float(p.min())!r}")
    # checked before the sum, which entries near the float limit overflow; with
    # no entry below -DEFAULT_TOL, an entry this far above 1 puts the sum out too
    if p.max() > 1.0 + p.size * DEFAULT_TOL:
        raise QentroError(f"probability {float(p.max())!r} is above 1")
    total = float(p.sum())
    if abs(total - 1.0) > DEFAULT_TOL:
        raise QentroError(f"probabilities sum to {total!r}, expected 1")
    return EntropyResult(_plogp_sum(p, base), base)


def differential_entropy(grid, density, base: str = NATS) -> EntropyResult:
    """Differential entropy ``integral f log(1/f) dx`` of a tabulated density.

    ``grid`` must be uniformly spaced and ``density`` nonnegative with
    trapezoid-rule integral 1 within ``linalg.INTEGRAL_TOL``.  Unlike the
    discrete measures, the result may legitimately be negative (densities
    can exceed 1), so no nonnegativity clamp is applied here.
    """
    _check_base(base)
    x = as_vector(grid, "grid")
    f = as_vector(density, "density")
    if x.size != f.size or x.size < 2:
        raise QentroError("grid and density must share a length of at least 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
        raise QentroError("grid and density must be finite (no NaN/Inf)")
    # the rule is read on the halved steps, which cannot overflow as a step
    # may; halving is exact for points in the normal float range
    halves = np.diff(x / 2)
    if halves.min() <= 0 or np.abs(halves - halves[0]).max() > GRID_TOL * halves[0]:
        raise QentroError("grid must be uniformly spaced and increasing")
    if not math.isfinite(2 * float(halves.max())):
        raise QentroError(f"grid from {float(x[0])!r} to {float(x[-1])!r} has a step out of floating-point range")
    steps = np.diff(x)
    if f.min() < -ROUNDING_TOL:
        raise QentroError(f"density has negative value {float(f.min())!r}")
    f = np.clip(f, 0.0, None)
    # the trapezoid rule on per-point masses, f times half of each step beside
    # the point: a density near the float limit on a fine grid overflows
    # neither sum, as f[i] + f[i + 1] and f log f did; a mass or total that
    # does overflow is inf, which the integral check below rejects
    weights = np.zeros_like(x)
    weights[:-1] += steps / 2
    weights[1:] += steps / 2
    with np.errstate(over="ignore"):
        mass = f * weights
        total = float(mass.sum())
    if abs(total - 1.0) > INTEGRAL_TOL:
        raise QentroError(f"density integrates to {total!r}, expected 1 within 1e-6")
    # 0.0 minus the sum, so a zero entropy is never -0.0
    return EntropyResult(0.0 - float((mass * _log(np.where(f > 0, f, 1.0), base)).sum()), base)


def quantized_entropy(h: EntropyResult, delta_x: float) -> EntropyResult:
    """Entropy at finite measurement precision: ``h - log(delta_x)``.

    Grows without bound as the precision ``delta_x`` shrinks.  Inherits the
    base of ``h``; like the differential entropy it may be negative when
    ``delta_x`` exceeds the spread of the density.
    """
    if not math.isfinite(delta_x):
        raise QentroError(f"precision must be finite, got {delta_x!r}")
    if delta_x <= 0:
        raise QentroError(f"precision must be positive, got {delta_x!r}")
    return EntropyResult(h.value - float(_log(delta_x, h.base)), h.base)


def von_neumann(rho, base: str = BITS) -> EntropyResult:
    """Entropy ``-sum_x lambda_x log lambda_x`` of the eigenvalues of a
    density matrix.  Zero for every pure state, and equal to
    :func:`informational` exactly when the matrix is diagonal."""
    _check_base(base)
    if not isinstance(rho, states.DensityMatrix):
        rho = states.DensityMatrix(rho)
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
        raise QentroError(f"area must be finite, got {area_planck_units!r}")
    if area_planck_units < 0:
        raise QentroError(f"area must be nonnegative, got {area_planck_units!r}")
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
# d entries each, too few to pay for a numpy call, and turns them in one
# pass, the columns mirrored from the rows, as W stays exactly Hermitian.
# The pass leaves W's entries in the pair's own 2x2 block to the closed-form
# close, which overwrites them; on the same machine as below, 40 Wishart
# inputs per size, best of 7, searches took 0.94x the time of a pass over
# all d entries at d2, 0.90x at d4 and 0.91-0.93x at d6-d7, bits unchanged.
# From _ROUNDS_FROM_DIM on it runs the rounds of a round-robin tournament
# (the parallel Jacobi ordering of Golub & Van Loan): each round is a set of
# disjoint pairs, so one block rotation g turns them all with numpy, for
# ~35 us of call overhead per round whatever its size; the tournament's
# index tables depend on the dimension alone and are built once per
# dimension (_schedule).  Per matrix on a shared 2-vCPU x86-64 VM
# (OpenBLAS, one thread), Wishart inputs, best of 5, the two orders timed
# in turn on 20 matrices, median, two runs, rounds (with their all-pairs
# steps) over lists: d2 2.43x and 2.35x, d3 4.30x and 3.85x, d4 2.23x and
# 2.10x, d5 2.21x and 1.86x, d6 1.37x and 1.28x, d7 1.09x and 0.92x, d8
# 0.78x and 0.70x, d9 0.61x and 0.60x, d10 0.46x and 0.47x.  Rounds win
# from d8 on and split d7; the bound stays at 8.  The host's speed swings
# by up to 1.5x from one run of such a table to the next.
#
# On the round path, a sweep of d - 1 rounds costs ~20-35 us of numpy call
# overhead per round, and a search on a full-rank input spends 3-4 sweeps
# that converge quadratically only at the end.  After every sweep but the
# first, the search tries one all-pairs Jacobi step (_all_pairs_step):
# every pair turns at once by the angle of its own 2x2 Jacobi rotation,
# mapped through a Cayley transform (Wen & Yin, Math. Program. 142, 397,
# 2013), so that the rotation is exactly unitary and costs one LU solve and
# a few products.  A lone pair turns exactly as a sweep turns it, and a pair
# far apart as the quadratically convergent Newton step of Ogita & Aishima
# (Japan J. Indust. Appl. Math. 35, 1007, 2018) turns it.  In a cluster of
# nearly equal diagonal entries the pairs' rotations do not commute, and
# turning them all at once leaves first-order errors in the couplings out
# of the cluster: the steps then converge only linearly, and the sweep
# after them loses its quadratic rate.  As Ogita & Aishima do,
# the step leaves such pairs unturned and a sweep resolves them.  A kept
# step is tried again at once; a rejected one, which leaves the working
# matrix as it was, is followed by a sweep.  A kept step's small drop does
# not end the search, since it may leave a cluster unturned; its
# certificate does.  The first sweep starts from the input's basis, where
# the step is rejected after it on most full-rank inputs, so the first try
# follows the second sweep.  Per call on a shared 2-vCPU x86-64 VM
# (OpenBLAS, one thread), 15 matrices per family and size, the searches with
# this step and with its predecessor timed in turn on each matrix in one
# process (min of 3 calls, 1 at d64), median of 10 runs: Wishart inputs
# take 0.92x the time at d8, 0.72x at d16 (2.06 -> 1.48 ms), 0.76x at d32
# and 0.75x at d64 (68 -> 51 ms), with 3.7-5.5 kept steps;
# tiny-spectrum ones 0.56-0.77x, rank-deficient (rank d/2) 0.42-0.68x,
# two-level 0.20-0.86x and 4-fold clustered 0.44-0.70x, d8 the least gain
# each time; pure ones end with their first sweep, as before.  Without the
# cluster rule, two-level and clustered inputs took 1.4-1.5x at d8 and
# two-level ones 1.4x at d16; with a try after the first sweep too, Wishart
# inputs took 0.94-0.98x at d8 and 0.79x at d16.

_ROUNDS_FROM_DIM = 8
# the phase b / |b| of a subnormal b loses bits, so the rotation is not unitary, and numpy takes it
# as b * (1 / |b|), which overflows at 0: both sweeps divide b * _SCALE by its modulus, floored at
# _TINY in the round sweep; for a normal b, the same quotient
_SCALE = 2.0**512
_TINY = np.finfo(float).tiny


def _sweep_lists(work, u):
    """One cyclic-by-rows sweep on nested lists, updated in place; returns
    the working matrix's diagonal.

    The pair (p, q) with ``a = w_pp``, ``d = w_qq`` and ``b = w_pq`` turns
    by the angle theta of ``tan 2 theta = 2|b| / |a - d|``, taken as ``t =
    tan theta = 2|b| / (|a - d| + hypot(a - d, 2|b|))`` and ``c = 1 /
    sqrt(1 + t^2)``.  W is kept exactly Hermitian, so one pass per pair does
    the pair step: for each k it turns the two rows of U, ``u[p][k]`` and
    ``u[q][k]``, and for each k but p and q it turns ``work[p][k]`` and
    ``work[q][k]`` and writes ``work[k][p]`` and ``work[k][q]`` as the
    conjugates of the new row entries, which are W's new columns.  The
    pair's own 2x2 block, which the pass leaves as it was, is then closed
    in closed form (the classical Jacobi update; Rutishauser, Numer. Math.
    9, 1, 1966): with ``sgn`` the sign of ``a - d``, + on a tie, ``w_pp =
    a + sgn t |b|``, ``w_qq = d - sgn t |b|`` and ``w_pq = w_qp = 0``.  The
    diagonal entries are written as floats, so their imaginary parts are
    exactly 0."""
    dim = len(work)
    for p in range(dim):
        row_p, u_p = work[p], u[p]
        for q in range(p + 1, dim):
            b = row_p[q]
            if b == 0:
                continue
            row_q, u_q = work[q], u[q]
            a, d = row_p[p].real, row_q[q].real
            mod = abs(b)
            t = 2.0 * mod / (abs(a - d) + math.hypot(a - d, 2.0 * mod))
            c = 1.0 / math.sqrt(1.0 + t * t)
            shift = t * mod if a >= d else -t * mod
            scaled = b * _SCALE
            g_pq = math.copysign(t * c, shift) * scaled / abs(scaled)
            g_qp = -g_pq.conjugate()
            for k, row in enumerate(work):
                x, y = u_p[k], u_q[k]
                u_p[k] = c * x + g_pq * y
                u_q[k] = g_qp * x + c * y
                # the close below writes the pair's own 2x2 block, and no other k reads it
                if k == p or k == q:
                    continue
                x, y = row_p[k], row_q[k]
                row_p[k] = new_p = c * x + g_pq * y
                row_q[k] = new_q = g_qp * x + c * y
                row[p], row[q] = new_p.conjugate(), new_q.conjugate()
            row_p[p], row_q[q] = a + shift, d - shift
            row_p[q] = row_q[p] = 0.0
    return [row[k].real for k, row in enumerate(work)]


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
    """The round sweep's tables for ``dim``, kept write-protected (~45 dim^2
    bytes): per round of ``_round_robin(dim)``, its ``p`` and ``q``, the flat
    indices ``pq`` of ``work[p, q]`` and the ``scatter`` indices of
    ``g[p, p]``, ``g[q, q]``, ``g[p, q]`` and ``g[q, p]`` in turn; the
    identity; and the mask of the strict upper triangle, which the all-pairs
    step reads."""
    p, q = _round_robin(dim)
    pq = p * dim + q
    scatter = np.concatenate((p * (dim + 1), q * (dim + 1), pq, q * dim + p), axis=1)
    identity = np.eye(dim, dtype=complex)
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
    for table in (p, q, pq, scatter, identity, upper):
        table.flags.writeable = False
    return tuple(zip(p, q, pq, scatter)), identity, upper


def _sweep_rounds(work, u):
    """One round-robin sweep on complex arrays, updated in place; returns
    the working matrix's diagonal.  Each round computes the list sweep's
    rotation elementwise over its pairs, a pair whose entry is 0 getting the
    identity block, and applies the block rotation g as ``work <- g work
    g†``, ``u <- g u``."""
    rounds, identity, _ = _schedule(len(work))
    # work is only written in place, so these views of it stay current
    flat, diagonal = work.reshape(-1), work.diagonal().real
    for p, q, pq, scatter in rounds:
        b = flat[pq]
        if np.count_nonzero(b):
            mod = np.abs(b)
            diff = diagonal[p] - diagonal[q]
            theta = 0.5 * np.arctan2(2.0 * mod, np.abs(diff))
            c = np.cos(theta)
            # the sign of a - d is the list sweep's a >= d except for a = -0.0,
            # d = 0.0, which a PSD matrix with b != 0 cannot have; a b of 0
            # gets sin(theta) = 0 and so the identity block
            scaled = b * _SCALE
            g_pq = np.copysign(np.sin(theta), diff) * scaled / np.maximum(np.abs(scaled), _TINY)
            g = identity.copy()
            g.reshape(-1)[scatter] = np.concatenate((c, c, g_pq, -g_pq.conj()))
            np.matmul(g @ work, g.conj().T, out=work)
            np.matmul(g, u, out=u)
    return diagonal


def _all_pairs_step(work, u, value, gap, base):
    """One all-pairs Jacobi step on the working matrix, kept only if it at
    least quarters the certificate; ``work`` and ``u`` are never written.

    W turns by the Cayley transform ``g = (I - A/2)^-1 (I + A/2)`` of the
    skew-Hermitian generator ``a_ij = copysign(2 tan(theta_ij / 2), w_ii -
    w_jj) w_ij / |w_ij|``, where ``theta_ij`` is the angle of the pair's own
    2x2 Jacobi rotation: a lone pair turns exactly as the sweeps turn it,
    and a pair far apart as Newton's step turns it.  A pair in a cluster
    does not turn.  The rotations of the other pairs move ``w_ii`` by up to
    ``s_i = sum_k |w_ik| tan theta_ik``, the shift each 2x2 rotation gives
    its diagonal entries; a pair whose gap ``|w_ii - w_jj|`` is at most what
    the other pairs' rotations move its two entries, ``s_i + s_j`` less its
    own shift twice, is unresolved, and one that shares an index with another
    unresolved pair is in a cluster, where turning every pair at once would
    leave first-order errors (Ogita & Aishima, who leave clustered pairs
    unturned).  Returns ``None`` when the step would raise the objective
    ``value`` or leave the certificate above ``STEP_KEEP`` times ``gap``,
    and otherwise the new ``(work, u, value, gap)``."""
    _, identity, upper = _schedule(len(work))
    diagonal = work.diagonal().real
    diff = diagonal[:, None] - diagonal
    gaps, mod = np.abs(diff), np.abs(work)
    theta = 0.5 * np.arctan2(2.0 * mod, gaps)
    shift = mod * np.tan(theta)
    shift.reshape(-1)[:: len(work) + 1] = 0
    reach = shift.sum(axis=1)
    # each row's own diagonal entry is one of its unresolved pairs
    unresolved = gaps <= reach[:, None] + reach - 2.0 * shift
    crowded = unresolved.sum(axis=1) > 2
    turn = upper & ~(unresolved & (crowded[:, None] | crowded)) if crowded.any() else upper
    # the upper triangle, mirrored: exactly skew-Hermitian, and a pair over an
    # equal diagonal turns one way, as the sweeps turn it; the floor makes the
    # phase of a 0 entry 0, and a subnormal entry only turns less, which
    # leaves g unitary
    t = np.copysign(np.tan(0.5 * theta) * turn / np.maximum(mod, _TINY), diff) * work
    half = t - t.conj().T
    g = np.linalg.solve(identity - half, identity + half)
    work = g @ work @ g.conj().T
    diagonal = work.diagonal().real
    new_gap = _certified_gap(work, diagonal, base)
    if new_gap > STEP_KEEP * gap:
        return None
    new_value = _plogp_sum(diagonal, base)
    if new_value > value:
        return None
    return work, g @ u, new_value, new_gap


def _certified_gap(work, diagonal, base):
    """An upper bound on ``informational(W) - von_neumann(W)`` for the
    working matrix W: ``ln(1 + sum_{i != j} |w_ij|^2 / sqrt(w_ii w_jj))``
    nats, in ``base``, with each ``w_ii`` floored at ``linalg.ROUNDING_TOL``.
    A row below the floor holds only what rounding leaves in a
    rank-deficient input, so the bound is finite on every input and holds
    there to within rounding.

    The list form reads the list sweep's working matrix, which is exactly
    Hermitian, so it sums the strict upper triangle once and doubles it.
    The array form reads both triangles, as the round path's products are
    Hermitian only to rounding."""
    if isinstance(work, list):
        scales = [1.0 / math.sqrt(max(w, ROUNDING_TOL)) for w in diagonal]
        total = 0.0
        for i, row in enumerate(work):
            part = 0.0
            for j in range(i + 1, len(row)):
                w = row[j]
                part += (w.real * w.real + w.imag * w.imag) * scales[j]
            total += part * scales[i]
        total *= 2.0
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
    rounds of disjoint pairs from dimension 8 on.  There, after every sweep
    but the first, one all-pairs Jacobi step is tried: it turns every pair
    at once by the angle of its own 2x2 Jacobi rotation, except the pairs of
    a cluster of nearly equal diagonal entries, and is kept, in place of the
    next sweep, only if the objective does not rise and ``certified_gap``
    falls to at most ``linalg.STEP_KEEP`` times what it was.  A kept step is
    followed by another try, a rejected one by a sweep; ``all_pairs_steps``
    reports how many were kept.

    With ``tol = linalg.SWEEP_TOL * (1 + |value|)``, the search stops when
    the budget does not cover the next step, when a sweep lowered the
    objective by less than ``tol`` (as a sweep that rotates nothing does, by
    exactly 0), or, after any step, a sweep or a kept all-pairs step, when
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

    ``budget`` caps the pair visits, and the budget is spent in whole steps
    of ``d(d-1)/2`` pair visits: a sweep and a kept all-pairs step each
    count ``d(d-1)/2``, and a step that what is left of the budget does not
    cover is not begun.  ``iterations`` reports the pair visits made.  A
    search that stops so returns the point reached so far with
    ``budget_exhausted=True``, the report of a budget of ``budget - budget %
    (d(d-1)/2)``; a budget that covers no step returns the identity and the
    input basis's certificate.  The search is deterministic.
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
    iterations = all_pairs_steps = 0
    pairs = dim * (dim - 1) // 2
    gap = None

    while True:
        exhausted = budget - iterations < pairs
        if exhausted:
            break
        start = value
        step = None
        # after a round sweep but the first, which starts from the input's
        # basis and leaves angles that a step rarely turns, or after a kept step
        if iterations > pairs and sweep is _sweep_rounds:
            step = _all_pairs_step(work, u, value, gap, base)
        if step:
            work, u, value, gap = step
            all_pairs_steps += 1
        else:
            diagonal = sweep(work, u)
            value = _plogp_sum(diagonal, base)
            gap = _certified_gap(work, diagonal, base)
        iterations += pairs
        tol = SWEEP_TOL * (1.0 + abs(value))
        # a kept step may leave a cluster unturned, so only a sweep's small drop ends the search
        if gap <= tol or not step and start - value < tol:
            break
    if gap is None:  # the budget covered no step: the input's basis is reported
        gap = _certified_gap(work, rho.diagonal(), base)

    return UnitaryMinimizationReport(
        minimizer=np.array(u),
        min_value=value,
        iterations=iterations,
        von_neumann=von_neumann(rho, base).value,
        certified_gap=gap,
        base=base,
        budget_exhausted=exhausted,
        all_pairs_steps=all_pairs_steps,
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
