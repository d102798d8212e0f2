import math

import numpy as np
import pytest

from qentro import entropy
from qentro.entropy import (
    BITS,
    NATS,
    bekenstein_bound,
    differential_entropy,
    ensemble_bound_check,
    informational,
    min_informational_over_unitaries,
    pure_entropy,
    quantized_entropy,
    shannon,
    von_neumann,
)
from qentro.errors import (
    InvalidDistribution,
    NegativeArea,
    NonFinite,
    NonpositivePrecision,
    NotADensity,
)
from qentro.linalg import NEWTON_GATE, SWEEP_TOL, is_unitary, random_unitary
from qentro.states import DensityMatrix, Ensemble, PureState, density_of_pure, random_density

PLUS = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])

RHO_BLEND_A = DensityMatrix([[0.5, 0.25], [0.25, 0.5]])
RHO_BLEND_B = DensityMatrix([[0.71, 0.15], [0.15, 0.29]])
RHO_DIAG_34 = DensityMatrix(np.diag([0.75, 0.25]))

# frozen oracle values: -0.75 log 0.75 - 0.25 log 0.25 in both bases
H34_BITS = 0.8112781244591328
H34_NATS = 0.5623351446188083

# -0.71 log2 0.71 - 0.29 log2 0.29; reference texts quote the 3-decimal
# truncation 0.868, which sits 7.2e-4 below the actual value
H71_BITS = 0.8687212463394045


def conjugate(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    m = u @ rho.matrix @ u.conj().T
    return DensityMatrix((m + m.conj().T) / 2)


# ---------------------------------------------------------------- shannon


def test_shannon_uniform_two_point():
    assert shannon([0.5, 0.5]).value == pytest.approx(1.0, abs=1e-12)


def test_shannon_three_outcome_half_quarter_quarter():
    assert shannon([0.5, 0.25, 0.25]).value == pytest.approx(1.5, abs=1e-12)


def test_shannon_degenerate():
    assert shannon([1.0, 0.0]).value == 0.0


def test_shannon_validates_distribution():
    with pytest.raises(InvalidDistribution):
        shannon([0.5, 0.4])
    with pytest.raises(InvalidDistribution):
        shannon([1.2, -0.2])


def test_shannon_permutation_invariant_and_uniform_maximal():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        p = rng.dirichlet(np.ones(n))
        h = shannon(p).value
        assert shannon(rng.permutation(p)).value == pytest.approx(h, abs=1e-12)
        uniform = shannon(np.full(n, 1.0 / n)).value
        assert uniform == pytest.approx(math.log2(n), abs=1e-12)
        for _ in range(100):
            perturbed = rng.dirichlet(np.ones(n))
            assert shannon(perturbed).value <= uniform + 1e-12


# ----------------------------------------------------- differential entropy


def test_differential_uniform_unit_interval():
    x = np.linspace(0.0, 1.0, 1001)
    assert differential_entropy(x, np.ones_like(x), NATS).value == pytest.approx(0.0, abs=1e-12)


def test_differential_uniform_length_two():
    x = np.linspace(0.0, 2.0, 1001)
    h = differential_entropy(x, np.full_like(x, 0.5), NATS)
    assert h.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_differential_gaussian_matches_closed_form():
    # truncated at +-8 sigma; oracle is (1/2) ln(2 pi e)
    x = np.linspace(-8.0, 8.0, 4001)
    pdf = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    h = differential_entropy(x, pdf, NATS)
    assert h.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-3)


def test_differential_rejects_non_density():
    x = np.linspace(0.0, 1.0, 101)
    with pytest.raises(NotADensity):
        differential_entropy(x, np.full_like(x, 2.0), NATS)  # integrates to 2
    with pytest.raises(NotADensity):
        differential_entropy(x, -np.ones_like(x), NATS)
    with pytest.raises(NotADensity):
        differential_entropy(np.cumsum(np.linspace(0.1, 1, 101)), np.ones(101), NATS)


def test_differential_can_be_negative():
    # a density concentrated on a short interval has negative differential
    # entropy; this operation alone is exempt from the value >= 0 invariant
    x = np.linspace(0.0, 0.5, 1001)
    h = differential_entropy(x, np.full_like(x, 2.0), NATS)
    assert h.value == pytest.approx(-math.log(2.0), abs=1e-12)


# ------------------------------------------------------- quantized entropy


def test_quantized_entropy():
    from qentro.entropy import EntropyResult

    assert quantized_entropy(EntropyResult(0.0, NATS), 1.0).value == 0.0
    assert quantized_entropy(EntropyResult(0.0, NATS), math.exp(-1.0)).value == pytest.approx(1.0)
    assert quantized_entropy(EntropyResult(0.0, BITS), 2.0 ** -10).value == pytest.approx(10.0)
    with pytest.raises(NonpositivePrecision):
        quantized_entropy(EntropyResult(0.0, BITS), 0.0)


def test_quantized_entropy_monotone_in_precision():
    from qentro.entropy import EntropyResult

    h = EntropyResult(1.3, BITS)
    values = [quantized_entropy(h, dx).value for dx in (0.5, 0.25, 0.125)]
    assert values[0] < values[1] < values[2]


# ------------------------------------------------------------- von Neumann


def test_von_neumann_symmetric_mixture():
    assert von_neumann(DensityMatrix(np.eye(2) / 2)).value == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_blend_equals_eigenvalue_entropy():
    # eigenvalues of the blend are {0.25, 0.75} by the 2x2 closed form
    assert von_neumann(RHO_BLEND_A).value == pytest.approx(H34_BITS, abs=5e-4)
    assert von_neumann(RHO_BLEND_A).value == pytest.approx(H34_BITS, abs=1e-12)


def test_von_neumann_pure_states_are_zero():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        from qentro.states import random_pure

        rho = density_of_pure(random_pure(dim, rng))
        assert von_neumann(rho).value == pytest.approx(0.0, abs=1e-8)


def test_von_neumann_bernoulli_formula():
    for p in (0.1, 0.3, 0.5, 0.9):
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert von_neumann(DensityMatrix(np.diag([p, 1 - p]))).value == pytest.approx(expected)


# ---------------------------------------------------------- informational


def test_informational_blend_a():
    assert informational(RHO_BLEND_A).value == pytest.approx(1.0, abs=1e-12)


def test_informational_blend_b():
    assert informational(RHO_BLEND_B).value == pytest.approx(H71_BITS, abs=1e-12)
    # truncated 3-decimal quote, matched at its quantization bound
    assert informational(RHO_BLEND_B).value == pytest.approx(0.868, abs=1e-3)


def test_informational_diagonal_both_bases():
    assert informational(RHO_DIAG_34, BITS).value == pytest.approx(H34_BITS, abs=1e-12)
    assert informational(RHO_DIAG_34, NATS).value == pytest.approx(H34_NATS, abs=1e-12)


def test_entropies_take_a_transposed_ndarray():
    # rho.T is the Fortran-ordered conjugate of rho: the same spectrum and diagonal
    rho = random_density(8, np.random.default_rng(21))
    for m in (rho.matrix.T, np.asfortranarray(rho.matrix)):
        assert von_neumann(m).value == pytest.approx(von_neumann(rho).value, abs=1e-12)
        assert informational(m).value == pytest.approx(informational(rho).value, abs=1e-12)
        report = min_informational_over_unitaries(m)
        assert report.min_value == pytest.approx(von_neumann(rho).value, abs=1e-9)


def test_informational_dominates_von_neumann():
    # 1000 random conjugated densities, dims 2-4
    rng = np.random.default_rng(12)
    for trial in range(1000):
        dim = 2 + trial % 3
        rho = random_density(dim, rng)
        u = random_unitary(dim, rng)
        assert informational(conjugate(rho, u)).value >= von_neumann(rho).value - 1e-10


def test_informational_equals_von_neumann_iff_diagonal():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        diag = DensityMatrix(np.diag(rng.dirichlet(np.ones(dim))))
        assert informational(diag).value == pytest.approx(von_neumann(diag).value, abs=1e-10)
    # converse direction: visible off-diagonal mass with a spread spectrum
    # forces a strict gap
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        off = rho.matrix - np.diag(rho.matrix.diagonal())
        eigs = rho.eigenvalues()
        if np.abs(off).max() > 1e-3 and np.diff(eigs).min() > 1e-3:
            assert informational(rho).value - von_neumann(rho).value > 0.0


def test_eigenbasis_conjugation_reaches_von_neumann():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 4):
        rho = random_density(dim, rng)
        _, v = np.linalg.eigh(rho.matrix)
        rotated = conjugate(rho, v.conj().T)
        assert informational(rotated).value == pytest.approx(
            von_neumann(rho).value, abs=1e-9
        )


# ------------------------------------------------------------ pure entropy


def test_pure_entropy_values():
    assert pure_entropy(PLUS).value == pytest.approx(1.0, abs=1e-12)
    assert pure_entropy(PureState.basis_state(2, 0)).value == 0.0
    state = PureState([math.sqrt(0.75), math.sqrt(0.25)])
    assert pure_entropy(state, NATS).value == pytest.approx(H34_NATS, abs=1e-12)


def test_pure_entropy_matches_informational_of_projector():
    rng = np.random.default_rng(15)
    for dim in (2, 3, 4):
        from qentro.states import random_pure

        state = random_pure(dim, rng)
        assert pure_entropy(state).value == pytest.approx(
            informational(density_of_pure(state)).value, abs=1e-12
        )


# ------------------------------------------------------------ bound check


def test_bound_check_blend_b():
    ens = Ensemble(
        pure_parts=[(0.3, PLUS)],
        mixed_part=(0.7, DensityMatrix(np.diag([0.8, 0.2]))),
    )
    check = ensemble_bound_check(ens)
    assert check.lhs == pytest.approx(H71_BITS, abs=1e-12)
    assert check.rhs == pytest.approx(0.805, abs=5e-4)
    assert check.holds


def test_bound_check_equality_case():
    ens = Ensemble(
        pure_parts=[(0.5, PLUS)],
        mixed_part=(0.5, DensityMatrix(np.eye(2) / 2)),
    )
    check = ensemble_bound_check(ens)
    assert check.lhs == pytest.approx(1.0, abs=1e-12)
    assert check.rhs == pytest.approx(1.0, abs=1e-12)
    assert check.holds


def test_bound_check_trivial():
    check = ensemble_bound_check(Ensemble([(1.0, PureState.basis_state(2, 0))]))
    assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds


# --------------------------------------------------------- area bound


def test_bekenstein_bound():
    assert bekenstein_bound(4.0, NATS).value == pytest.approx(1.0)
    assert bekenstein_bound(4.0 * math.log(2.0), BITS).value == pytest.approx(1.0)
    assert bekenstein_bound(0.0, NATS).value == 0.0
    with pytest.raises(NegativeArea):
        bekenstein_bound(-1.0)


# --------------------------------------------- minimization over unitaries


def test_minimizer_on_blend_a():
    report = min_informational_over_unitaries(RHO_BLEND_A)
    assert report.min_value == pytest.approx(H34_BITS, abs=1e-6)
    assert abs(report.residual_vs_von_neumann) <= 1e-6
    assert is_unitary(report.minimizer, 1e-8)


def test_minimizer_on_diagonal_input_is_identity():
    report = min_informational_over_unitaries(RHO_DIAG_34)
    assert report.residual_vs_von_neumann == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(report.minimizer, np.eye(2))


def test_minimizer_random_3x3_matches_eigen_oracle():
    rng = np.random.default_rng(19)
    rho = random_density(3, rng)
    report = min_informational_over_unitaries(rho)
    assert report.residual_vs_von_neumann <= 1e-4
    # the report's minimum is reproducible from its own minimizer
    rotated = conjugate(rho, report.minimizer)
    assert informational(rotated).value == pytest.approx(report.min_value, abs=1e-9)


def test_minimizer_never_dips_below_von_neumann():
    rng = np.random.default_rng(20)
    for dim in (2, 3, 4):
        rho = random_density(dim, rng)
        report = min_informational_over_unitaries(rho)
        assert report.min_value >= von_neumann(rho).value - 1e-6


def test_minimizer_converges_at_dim_8():
    # the upper end of the supported size range stays within the default
    # evaluation budget
    rho = random_density(8, np.random.default_rng(88))
    report = min_informational_over_unitaries(rho)
    assert not report.budget_exhausted
    assert report.residual_vs_von_neumann <= 1e-4
    assert is_unitary(report.minimizer, 1e-8)


def test_minimizer_budget_exhaustion_returns_best_so_far():
    rng = np.random.default_rng(21)
    rho = random_density(3, rng)
    # a d3 sweep visits 3 pairs, so a budget of 2 ends inside the first one;
    # the budget is checked before every pair visit, so it is met exactly
    report = min_informational_over_unitaries(rho, budget=2)
    assert report.budget_exhausted
    assert report.iterations == 2
    assert report.min_value >= von_neumann(rho).value - 1e-6
    assert is_unitary(report.minimizer, 1e-8)


@pytest.mark.parametrize("dim", [16, 32])
def test_minimizer_converges_at_dims_16_and_32(dim):
    rho = random_density(dim, np.random.default_rng(1600 + dim))
    report = min_informational_over_unitaries(rho)
    assert not report.budget_exhausted
    assert abs(report.residual_vs_von_neumann) <= 1e-10
    assert is_unitary(report.minimizer, 1e-10)


def test_minimizer_calls_no_eigensolver(monkeypatch):
    rho = random_density(5, np.random.default_rng(55))
    expected = von_neumann(rho).value

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called by the minimizer")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    report = min_informational_over_unitaries(rho)
    assert report.min_value == pytest.approx(expected, abs=1e-12)
    assert is_unitary(report.minimizer, 1e-10)
    # the search stopped on its certificate, which needs no spectrum either
    assert 0.0 <= report.certified_gap <= SWEEP_TOL * (1.0 + abs(report.min_value))


# From entropy._ROUNDS_FROM_DIM on, sweeps run in round-robin rounds of
# disjoint pairs; the tests below hold that path to the same contract.


@pytest.mark.parametrize("dim", [17, 64])
def test_round_sweeps_converge_at_odd_and_large_dims(dim):
    # an odd dim gives each index a bye once per sweep
    rho = random_density(dim, np.random.default_rng(6400 + dim))
    report = min_informational_over_unitaries(rho)
    assert not report.budget_exhausted
    assert abs(report.residual_vs_von_neumann) <= 1e-10
    assert is_unitary(report.minimizer, 1e-10)


def test_round_sweeps_call_no_eigensolver(monkeypatch):
    rho = random_density(16, np.random.default_rng(1616))
    expected = von_neumann(rho).value

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called by the minimizer")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    report = min_informational_over_unitaries(rho)
    assert report.min_value == pytest.approx(expected, abs=1e-12)
    assert is_unitary(report.minimizer, 1e-10)
    # the search stopped on its certificate, which needs no spectrum either
    assert 0.0 <= report.certified_gap <= SWEEP_TOL * (1.0 + abs(report.min_value))


def test_round_sweeps_leave_a_diagonal_input_alone():
    diag = np.arange(1.0, 17.0)
    report = min_informational_over_unitaries(DensityMatrix(np.diag(diag / diag.sum())))
    # one sweep of 16 * 15 / 2 pair visits finds nothing to rotate
    assert report.iterations == 120
    assert np.array_equal(report.minimizer, np.eye(16))
    assert report.residual_vs_von_neumann == pytest.approx(0.0, abs=1e-12)


def _one_coherence(dim, entry):
    m = np.eye(dim, dtype=complex) / dim
    m[0, 1], m[1, 0] = entry, np.conj(entry)
    m[2, 5] = m[5, 2] = 0.02
    return DensityMatrix(m)


@pytest.mark.parametrize("dim", [8, 9])
@pytest.mark.parametrize("entry", [0.01, 1e-310, 5e-324, 1e-320 + 3e-321j])
def test_round_sweeps_handle_zero_and_subnormal_entries(dim, entry):
    # a round whose pairs mix zero and nonzero entries once made a NaN block
    # (0 * (1 / 5e-324)), and a subnormal entry over an equal diagonal once
    # made a rotation that was not unitary
    rho = _one_coherence(dim, entry)
    report = min_informational_over_unitaries(rho)
    assert np.isfinite(report.minimizer).all()
    assert is_unitary(report.minimizer, 1e-14)
    assert abs(report.residual_vs_von_neumann) <= 1e-12


@pytest.mark.parametrize("dim", [6, 7])
@pytest.mark.parametrize("entry", [1e-310, 5e-324, 1e-320 + 3e-321j])
def test_list_sweeps_keep_a_subnormal_phase_unitary(dim, entry):
    # b / |b| for a subnormal b once had a modulus 2.9e-5 away from 1, and
    # the minimizer was as far from unitary
    report = min_informational_over_unitaries(_one_coherence(dim, entry))
    assert is_unitary(report.minimizer, 1e-14)
    assert abs(report.residual_vs_von_neumann) <= 1e-12


def _first_newton_step(monkeypatch, rho):
    # the pair visits an unbudgeted search has made when it keeps its first
    # Newton step, and its count of kept steps
    visits = []
    sweep, newton_step = entropy._sweep_rounds, entropy._newton_step

    def counted_sweep(work, u, budget):
        made, exhausted = sweep(work, u, budget)
        visits.append(made)
        return made, exhausted

    def counted_step(work, u, value, gap, base):
        step = newton_step(work, u, value, gap, base)
        if step:
            visits.append(None)
        return step

    with monkeypatch.context() as patch:
        patch.setattr(entropy, "_sweep_rounds", counted_sweep)
        patch.setattr(entropy, "_newton_step", counted_step)
        report = min_informational_over_unitaries(rho)
    return sum(visits[: visits.index(None)]), report.newton_steps


def test_round_sweeps_stop_at_the_budget_exactly(monkeypatch):
    # a budget that ends inside a round of m pairs cuts it short after each
    # position 1 ... m - 1, in the first sweep and in the second; 50 visits
    # end inside a round of 8 pairs at d16, and d9 plays a bye in each round.
    # A Newton step counts all d(d - 1)/2 pairs, and runs only if the budget
    # covers them: one pair short, the search sweeps instead, cut short; and
    # after a kept step, a budget of 0 ... d(d - 1)/2 - 1 more visits cuts
    # short the sweep that follows it
    for dim in (16, 9):
        rho = random_density(dim, np.random.default_rng(1650 + dim))
        m, rounds, pairs = dim // 2, dim - 1 + dim % 2, dim * (dim - 1) // 2
        cuts = [k * m + j for k in (3, rounds + 1) for j in range(1, m)]
        start, kept = _first_newton_step(monkeypatch, rho)
        assert kept >= 2  # so the first kept step does not end the search
        after = [start + pairs + j for j in (0, 1, m - 1, m, pairs // 2, pairs - 1)]
        for budget in cuts + [50] * (dim == 16) + [start + pairs - 1] + after:
            report = min_informational_over_unitaries(rho, budget=budget)
            assert report.budget_exhausted
            assert report.iterations == budget
            assert report.newton_steps == (budget in after)
            assert is_unitary(report.minimizer, 1e-10)
            assert report.min_value >= von_neumann(rho).value - 1e-12


def _watch_newton(monkeypatch):
    # wraps entropy._newton_step: every kept step lowers the objective and
    # divides the certificate by at least NEWTON_GATE^-2, and a closed gate or
    # a rejected step leaves the working matrix and the unitary as they were;
    # returns the list of outcomes, "closed", "rejected" or "kept" in turn
    outcomes = []
    newton_step = entropy._newton_step

    def watched(work, u, value, gap, base):
        before = work.tobytes(), u.tobytes()
        step = newton_step(work, u, value, gap, base)
        assert (work.tobytes(), u.tobytes()) == before
        if step:
            _, _, new_value, new_gap = step
            assert new_value <= value
            assert new_gap <= NEWTON_GATE**2 * gap
        outcomes.append("kept" if step else "rejected" if step is False else "closed")
        return step

    monkeypatch.setattr(entropy, "_newton_step", watched)
    return outcomes


@pytest.mark.parametrize("dim", [8, 16, 17])
def test_newton_steps_finish_a_wishart_search(monkeypatch, dim):
    outcomes = _watch_newton(monkeypatch)
    for seed in range(3):
        rho = random_density(dim, np.random.default_rng(2100 + 10 * dim + seed))
        report = min_informational_over_unitaries(rho)
        assert not report.budget_exhausted
        assert report.newton_steps == outcomes.count("kept") >= 1
        assert abs(report.residual_vs_von_neumann) <= 1e-12
        assert is_unitary(report.minimizer, 1e-13)
        outcomes.clear()


@pytest.mark.filterwarnings("error")  # 0 / 0 over a zero gap would warn
def test_newton_steps_keep_to_their_contract_on_every_kind(monkeypatch):
    # rank-deficient inputs leave rows of rounding-level entries, a two-level
    # spectrum gaps of rounding noise, and a Wishart block next to a multiple
    # of the identity exact zeros over exact zero gaps, under the gate
    outcomes = _watch_newton(monkeypatch)
    seen = set()
    rng = np.random.default_rng(2121)
    for dim in (8, 9, 12):
        u = random_unitary(dim, rng)
        levels = np.where(np.arange(dim) < dim // 3, 0.7, 0.3)
        inputs = [DensityMatrix((u * (levels / levels.sum())) @ u.conj().T)]
        block = np.eye(dim, dtype=complex) / (2 * dim - 8)
        block[:4, :4] = random_density(4, rng).matrix / 2
        inputs.append(DensityMatrix(block))
        for rank in range(1, dim):
            z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            inputs.append(DensityMatrix(z @ z.conj().T / np.vdot(z, z).real))
        for rho in inputs:
            report = min_informational_over_unitaries(rho)
            assert abs(report.residual_vs_von_neumann) <= 1e-12
            assert is_unitary(report.minimizer, 1e-13)
            # a rejected step is the search's last try: nothing follows it
            assert "rejected" not in outcomes[:-1]
            seen.update(outcomes)
            outcomes.clear()
    assert seen == {"closed", "rejected", "kept"}


def test_the_list_path_takes_no_newton_step(monkeypatch):
    outcomes = _watch_newton(monkeypatch)
    for dim in range(2, entropy._ROUNDS_FROM_DIM):
        assert min_informational_over_unitaries(random_density(dim, np.random.default_rng(dim))).newton_steps == 0
    assert outcomes == []


def test_round_schedule_is_built_once_per_dim(monkeypatch):
    built = []

    def counted(dim):
        built.append(dim)
        return round_robin(dim)

    round_robin = entropy._round_robin
    monkeypatch.setattr(entropy, "_round_robin", counted)
    entropy._schedule.cache_clear()
    try:
        rho = random_density(16, np.random.default_rng(1616))
        for _ in range(2):
            assert min_informational_over_unitaries(rho).iterations > 120  # more than one sweep
    finally:
        entropy._schedule.cache_clear()
    assert built == [16]


@pytest.mark.parametrize("dim", [8, 9, 16])
def test_round_schedule_is_read_only_and_scatters_each_rounds_block(dim):
    rounds, identity = entropy._schedule(dim)
    all_p, all_q = entropy._round_robin(dim)
    assert len(rounds) == len(all_p)
    for (p, q, pq, scatter), round_p, round_q in zip(rounds, all_p, all_q):
        assert np.array_equal(p, round_p) and np.array_equal(q, round_q)
        assert np.array_equal(pq, np.ravel_multi_index((p, q), (dim, dim)))
        # g[p, p], g[q, q], g[p, q] and g[q, p], in that order, and nothing else
        rows, cols = np.unravel_index(scatter, (dim, dim))
        assert np.array_equal(rows, np.concatenate((p, q, p, q)))
        assert np.array_equal(cols, np.concatenate((p, q, q, p)))
        assert not any(table.flags.writeable for table in (p, q, pq, scatter))
    assert np.array_equal(identity, np.eye(dim)) and not identity.flags.writeable
    with pytest.raises(ValueError):
        rounds[0][3][0] = 0


@pytest.mark.parametrize("dim", [3, 16])
@pytest.mark.parametrize("budget", [0, -3])
def test_minimizer_with_no_budget_makes_no_visit(dim, budget):
    rho = random_density(dim, np.random.default_rng(dim))
    report = min_informational_over_unitaries(rho, budget=budget)
    assert report.budget_exhausted
    assert report.iterations == 0
    assert np.array_equal(report.minimizer, np.eye(dim))
    assert report.min_value == informational(rho).value

@pytest.mark.parametrize("dim", [8, 9, 12])
def test_round_and_list_sweeps_reach_the_same_minimum(monkeypatch, dim):
    # the list sweep is the reference; the pair order differs, so the two
    # minima agree to rounding, not bitwise
    rho = random_density(dim, np.random.default_rng(800 + dim))
    rounds = min_informational_over_unitaries(rho)
    monkeypatch.setattr(entropy, "_ROUNDS_FROM_DIM", dim + 1)
    lists = min_informational_over_unitaries(rho)
    assert rounds.min_value == pytest.approx(lists.min_value, abs=1e-12)
    assert not rounds.budget_exhausted and not lists.budget_exhausted


@pytest.mark.parametrize("dim", range(2, 21))
def test_round_robin_schedule_visits_each_pair_once(dim):
    p, q = entropy._round_robin(dim)
    assert (p < q).all()
    # pairs within a round share no index
    for row_p, row_q in zip(p, q):
        assert len(set(row_p) | set(row_q)) == 2 * len(row_p)
    pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert pairs == [(i, j) for i in range(dim) for j in range(i + 1, dim)]


@pytest.mark.parametrize(
    "grid, density",
    [
        ([0.0, 1.0, 2.0], [0.5, math.nan, 0.5]),
        ([0.0, 1.0, 2.0], [0.5, math.inf, 0.5]),
        ([0.0, math.nan, 2.0], [0.5, 0.5, 0.5]),
        ([0.0, 1.0, math.inf], [0.5, 0.5, 0.5]),
    ],
)
def test_differential_entropy_rejects_non_finite(grid, density):
    with pytest.raises(NonFinite, match="finite"):
        differential_entropy(grid, density)
