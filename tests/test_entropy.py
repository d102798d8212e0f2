import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qentro import entropy
from qentro.entropy import (
    BITS,
    NATS,
    EntropyResult,
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
from qentro.errors import QentroError
from qentro.interferometer import mirror_position_uncertainty
from qentro.linalg import STEP_KEEP, SWEEP_TOL, is_unitary, random_unitary
from qentro.states import DensityMatrix, Ensemble, PureState, density_of_pure, random_density
from test_states import random_pure

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
    with pytest.raises(QentroError, match="probabilities sum to 0.9, expected 1"):
        shannon([0.5, 0.4])
    with pytest.raises(QentroError, match="negative probability"):
        shannon([1.2, -0.2])
    # the minimum is printed as a float, not as np.float64(-0.5)
    with pytest.raises(QentroError, match=r"^negative probability -0\.5$"):
        shannon([1.5, -0.5])
    # rejected before the sum, which overflowed with a numpy warning
    with pytest.raises(QentroError, match=r"probability 1e\+308 is above 1"):
        shannon([1e308, 1e308])


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


# ------------------------------------------------------ the p log p kernel


def plogp_reference(p, base) -> Decimal:
    """``-sum p log p`` of the float entries, to 60 digits."""
    with localcontext() as context:
        context.prec = 60
        total = Decimal(0)
        for x in p:
            if x > 0:
                term = Decimal(x) * Decimal(x).ln()
                total += term / Decimal(2).ln() if base == BITS else term
        return -total


# 4 Dirichlet entries whose bits value numpy's pairwise sum left 2 ulps from the reference
PAIRWISE_TWO_ULPS = [0.42967004825225474, 0.27713557850300585, 0.022627869793589002, 0.2705665034511503]


def test_plogp_sum_is_within_one_ulp_of_a_60_digit_reference():
    rng = np.random.default_rng(29)
    vectors = [rng.dirichlet(np.ones(n)) for n in (2, 3, 4, 5, 8, 16, 32, 64) for _ in range(4)]
    for p in [np.array(PAIRWISE_TWO_ULPS), *vectors]:
        for base in (BITS, NATS):
            reference = float(plogp_reference(p.tolist(), base))
            value = entropy._plogp_sum(p, base)
            assert abs(value - reference) <= math.ulp(reference), (p.size, base)
            # the list path, which the list sweep takes, gives the same bits
            assert entropy._plogp_sum(p.tolist(), base) == value


def test_informational_is_bit_identical_under_a_basis_permutation():
    # the sum is rounded once, so the order of the diagonal cannot move a bit
    rng = np.random.default_rng(30)
    for dim in range(2, 17):
        for _ in range(10):
            rho = random_density(dim, rng)
            perm = rng.permutation(dim)
            permuted = DensityMatrix(rho.matrix[perm][:, perm])
            for base in (BITS, NATS):
                assert informational(permuted, base).value == informational(rho, base).value


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
    with pytest.raises(QentroError, match="density integrates to 2.0"):
        differential_entropy(x, np.full_like(x, 2.0), NATS)  # integrates to 2
    # the masses f * step / 2 overflow: rejected as an integral of inf, with no warning
    with pytest.raises(QentroError, match="density integrates to inf"):
        differential_entropy([0.0, 10.0], [1e308, 1e308], NATS)
    with pytest.raises(QentroError, match=r"^density has negative value -1\.0$"):
        differential_entropy(x, -np.ones_like(x), NATS)
    with pytest.raises(QentroError, match="grid must be uniformly spaced and increasing"):
        differential_entropy(np.cumsum(np.linspace(0.1, 1, 101)), np.ones(101), NATS)
    # a constant grid has steps of 0: uniform, but not increasing
    with pytest.raises(QentroError, match="^grid must be uniformly spaced and increasing$"):
        differential_entropy([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], NATS)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([-1e308, 1e308], "grid from -1e\\+308 to 1e\\+308 has a step out of floating-point range"),
        ([0.0, 1.5e308, -1.5e308], "grid must be uniformly spaced and increasing"),
    ],
    ids=["increasing", "decreasing"],
)
def test_differential_rejects_a_grid_step_out_of_range(grid, message):
    # np.diff warned of an overflow, and the integral then came out inf
    with pytest.raises(QentroError, match=message):
        differential_entropy(grid, np.full(len(grid), 5e-309))


def test_differential_density_near_the_float_limit():
    # f[1:] + f[:-1] of the trapezoid rule overflowed, and f log f would next
    h = differential_entropy([0.0, 5e-309, 1e-308], [1e308] * 3, NATS)
    assert h.value == pytest.approx(math.log(1e-308), rel=1e-14)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: shannon([0.5, 0.5], "decibans"), ValueError, "log base must be 'bits' or 'nats', got 'decibans'"),
        (lambda: shannon([]), QentroError, "empty probability vector"),
        (lambda: differential_entropy([0.0], [1.0]), QentroError, "grid and density must share a length of at least 2"),
    ],
    ids=["base", "shannon-empty", "differential-one-point"],
)
def test_entropy_rejects_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    with pytest.raises(QentroError, match="precision must be positive, got 0.0"):
        quantized_entropy(EntropyResult(0.0, BITS), 0.0)


def test_quantized_entropy_monotone_in_precision():
    from qentro.entropy import EntropyResult

    h = EntropyResult(1.3, BITS)
    values = [quantized_entropy(h, dx).value for dx in (0.5, 0.25, 0.125)]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, name",
    [(lambda x: quantized_entropy(EntropyResult(1.3, BITS), x), "precision"), (mirror_position_uncertainty, "wavelength")],
    ids=["quantized_entropy", "mirror_position_uncertainty"],
)
def test_a_non_finite_scale_is_rejected_before_any_arithmetic(call, name, value):
    # a NaN precision or wavelength gave NaN, and an infinite one -inf or inf
    with pytest.raises(QentroError, match=f"{name} must be finite"):
        call(value)


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
    # |c_k|^2 and the projector's diagonal are one product, so the two agree to the bit
    rng = np.random.default_rng(15)
    for dim in range(2, 17):
        for _ in range(20):
            state = random_pure(dim, rng)
            for base in (BITS, NATS):
                assert pure_entropy(state, base).value == informational(density_of_pure(state), base).value


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
    with pytest.raises(QentroError, match="area must be nonnegative, got -1.0"):
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
    # a d3 sweep visits 3 pairs, so a budget of 5 covers one sweep, and the
    # second, which it does not cover, is not begun
    report = min_informational_over_unitaries(rho, budget=5)
    assert report.budget_exhausted
    assert report.iterations == 3
    assert report.min_value < informational(rho).value
    assert report.min_value >= von_neumann(rho).value - 1e-6
    assert is_unitary(report.minimizer, 1e-8)


@pytest.mark.parametrize("dim, rank, seed, iterations", [(6, 2, 6022, 60), (8, 2, 8020, 140)])
@pytest.mark.parametrize("base", [BITS, NATS])
def test_a_sweep_that_lowers_the_objective_too_little_ends_the_search(dim, rank, seed, iterations, base):
    # on these rank-deficient inputs the drop test stops the search a sweep
    # before the certificate would: without it, 75 and 168 pair visits
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    report = min_informational_over_unitaries(DensityMatrix(z @ z.conj().T / np.vdot(z, z).real), base)
    assert report.iterations == iterations
    assert not report.budget_exhausted
    assert abs(report.residual_vs_von_neumann) <= 1e-12


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


@pytest.mark.parametrize("dim", range(2, 8))
def test_list_sweeps_keep_the_working_matrix_exactly_hermitian(monkeypatch, dim):
    # the list form of the certificate reads only the upper triangle, so
    # every sweep must leave W Hermitian to the bit, its diagonal real; the
    # inputs are Wishart, of every lower rank down to pure, and, from d6 on,
    # I/d with one subnormal coherence
    sweep, sweeps = entropy._sweep_lists, []

    def checked(work, u):
        diagonal = sweep(work, u)
        for p, row in enumerate(work):
            assert row[p].imag == 0.0
            assert row[p].real == diagonal[p]
            for k, w in enumerate(row):
                assert work[k][p] == w.conjugate()
        array = np.array(work)
        list_gap = entropy._certified_gap(work, diagonal, BITS)
        array_gap = entropy._certified_gap(array, array.diagonal().real, BITS)
        assert math.isclose(list_gap, array_gap, rel_tol=1e-12)
        sweeps.append(list_gap)
        return diagonal

    monkeypatch.setattr(entropy, "_sweep_lists", checked)
    rng = np.random.default_rng(3500 + dim)
    inputs = [random_density(dim, rng) for _ in range(3)]
    for rank in range(1, dim):
        z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        inputs.append(DensityMatrix(z @ z.conj().T / np.vdot(z, z).real))
    if dim >= 6:
        inputs += [_one_coherence(dim, entry) for entry in (1e-310, 5e-324, 1e-320 + 3e-321j)]
    for rho in inputs:
        sweeps.clear()
        report = min_informational_over_unitaries(rho)
        assert len(sweeps) * dim * (dim - 1) // 2 == report.iterations > 0
        assert abs(report.residual_vs_von_neumann) <= 1e-12


def _bits(report):
    # every field of a report but those that depend on the input alone, to the bit
    return (
        report.minimizer.tobytes(),
        report.min_value.hex(),
        report.certified_gap.hex(),
        report.iterations,
        report.all_pairs_steps,
    )


@pytest.mark.parametrize("dim", [5, 9, 16])
def test_the_budget_is_spent_in_whole_steps(monkeypatch, dim):
    # a budget that ends inside a step of d(d - 1)/2 pair visits gives the
    # report of the budget that ends at the step before, to the bit: every
    # budget that ends inside the first or the second sweep, one pair short
    # of the first kept all-pairs step, and every budget that ends inside the
    # step after it.  d9 and d16 take the round path, d9 with a bye in each
    # round, and d5 the list path
    rho = random_density(dim, np.random.default_rng(1650 + dim))
    pairs = dim * (dim - 1) // 2
    budgets = [budget for budget in range(1, 2 * pairs) if budget % pairs]
    start = math.inf  # the list path keeps no all-pairs step
    if dim >= entropy._ROUNDS_FROM_DIM:
        start, kept = _first_kept_step(monkeypatch, rho)
        assert kept >= 2  # so the first kept step does not end the search
        budgets += [start + pairs - 1] + [start + pairs + j for j in range(1, pairs)]
    for budget in budgets:
        whole = budget - budget % pairs
        report = min_informational_over_unitaries(rho, budget=budget)
        assert report.budget_exhausted
        assert _bits(report) == _bits(min_informational_over_unitaries(rho, budget=whole))
        assert report.iterations == whole
        assert report.all_pairs_steps == (whole > start)
        assert is_unitary(report.minimizer, 1e-10)
        assert report.min_value >= von_neumann(rho).value - 1e-12


def _watch_steps(monkeypatch):
    # wraps entropy._all_pairs_step: every kept step does not raise the
    # objective and divides the certificate by at least 1 / STEP_KEEP, and a
    # rejected step leaves the working matrix and the unitary as they were;
    # returns the list of outcomes in turn, "kept" or "rejected" for a step
    # and "swept" for a round sweep
    outcomes = []
    all_pairs_step, sweep = entropy._all_pairs_step, entropy._sweep_rounds

    def watched(work, u, value, gap, base):
        before = work.tobytes(), u.tobytes()
        step = all_pairs_step(work, u, value, gap, base)
        assert (work.tobytes(), u.tobytes()) == before
        if step:
            _, _, new_value, new_gap = step
            assert new_value <= value
            assert new_gap <= STEP_KEEP * gap
        outcomes.append("kept" if step else "rejected")
        return step

    def swept(work, u):
        outcomes.append("swept")
        return sweep(work, u)

    monkeypatch.setattr(entropy, "_all_pairs_step", watched)
    monkeypatch.setattr(entropy, "_sweep_rounds", swept)
    return outcomes


def _first_kept_step(monkeypatch, rho):
    # the pair visits a watched, unbudgeted search has made when it keeps its
    # first all-pairs step, one sweep of d(d - 1)/2 per "swept" before it, and
    # its count of kept steps
    with monkeypatch.context() as patch:
        outcomes = _watch_steps(patch)
        report = min_informational_over_unitaries(rho)
    dim = len(report.minimizer)
    return outcomes[: outcomes.index("kept")].count("swept") * dim * (dim - 1) // 2, report.all_pairs_steps


@pytest.mark.parametrize("dim", [8, 16, 17])
def test_all_pairs_steps_finish_a_wishart_search(monkeypatch, dim):
    outcomes = _watch_steps(monkeypatch)
    for seed in range(3):
        rho = random_density(dim, np.random.default_rng(2100 + 10 * dim + seed))
        report = min_informational_over_unitaries(rho)
        assert not report.budget_exhausted
        assert report.all_pairs_steps == outcomes.count("kept") >= 1
        # the first try follows the second sweep, not the first
        assert outcomes[:2] == ["swept", "swept"]
        if dim == 8:
            assert outcomes[2] == "kept"
        assert outcomes[-1] == "kept"  # a step ends the search
        assert abs(report.residual_vs_von_neumann) <= 1e-12
        assert is_unitary(report.minimizer, 1e-13)
        outcomes.clear()


@pytest.mark.filterwarnings("error")  # 0 / 0 over a zero gap would warn
def test_all_pairs_steps_keep_to_their_contract_on_every_kind(monkeypatch):
    # rank-deficient inputs leave rows of rounding-level entries, two-level
    # and tiny spectra clusters of equal or near-zero levels that the step
    # leaves unturned, and a Wishart block next to a multiple of the identity
    # exact zeros over exact zero gaps
    outcomes = _watch_steps(monkeypatch)
    seen = set()
    rng = np.random.default_rng(2121)
    for dim in (8, 9, 12):
        u = random_unitary(dim, rng)
        levels = np.where(np.arange(dim) < dim // 3, 0.7, 0.3)
        inputs = [DensityMatrix((u * (levels / levels.sum())) @ u.conj().T)]
        for _ in range(4):
            u = random_unitary(dim, rng)
            spectrum = np.concatenate((rng.uniform(0.1, 1.0, dim - dim // 2), 10 ** rng.uniform(-16, -10, dim // 2)))
            inputs.append(DensityMatrix((u * (spectrum / spectrum.sum())) @ u.conj().T))
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
            assert report.all_pairs_steps == outcomes.count("kept")
            # a step follows a sweep or a kept step, and a rejected one a sweep
            assert outcomes[0] == "swept"
            assert all(after == "swept" for before, after in zip(outcomes, outcomes[1:]) if before == "rejected")
            seen.update(outcomes)
            outcomes.clear()
    assert seen == {"swept", "rejected", "kept"}


@pytest.mark.parametrize("seed, dim", [(6, 12), (81, 8), (289, 8)])
def test_a_cluster_that_steps_leave_unturned_is_swept_before_the_search_stops(seed, dim):
    # half the spectrum in [1e-16, 1e-10]: the kept steps turn the rest and
    # lower the objective by less than the stop tolerance while the near-zero
    # cluster still holds ~1e-12 bits, which ended these searches there when
    # a kept step's small drop could stop them
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    spectrum = np.concatenate((rng.uniform(0.1, 1.0, dim - dim // 2), 10 ** rng.uniform(-16, -10, dim // 2)))
    report = min_informational_over_unitaries(DensityMatrix((u * (spectrum / spectrum.sum())) @ u.conj().T))
    assert report.all_pairs_steps >= 1
    assert abs(report.residual_vs_von_neumann) <= 1e-12
    assert report.certified_gap <= SWEEP_TOL * (1.0 + report.min_value)


@pytest.mark.parametrize("dim", [8, 13])
def test_an_all_pairs_step_turns_lone_pairs_as_the_sweep_does(dim):
    # one pair over an equal diagonal and one over a wide gap, sharing no
    # index: the step zeroes both, as a sweep's exact 2x2 rotations do
    diagonal = np.linspace(0.3, 0.05, dim)
    diagonal[2] = diagonal[5]
    m = np.diag(diagonal / diagonal.sum()).astype(complex)
    m[2, 5], m[5, 2] = 0.004 + 0.003j, 0.004 - 0.003j
    m[0, dim - 1], m[dim - 1, 0] = -0.02j, 0.02j
    value = informational(DensityMatrix(m)).value
    work, u, new_value, _ = entropy._all_pairs_step(m, np.eye(dim, dtype=complex), value, 1.0, "bits")
    swept = m.copy()
    entropy._sweep_rounds(swept, np.eye(dim, dtype=complex))
    assert np.allclose(work, swept, rtol=0, atol=1e-16)
    assert np.allclose(work, np.diag(work.diagonal()), rtol=0, atol=1e-16)
    assert new_value < value
    assert is_unitary(u, 1e-15)


def test_the_list_path_takes_no_all_pairs_step(monkeypatch):
    outcomes = _watch_steps(monkeypatch)
    for dim in range(2, entropy._ROUNDS_FROM_DIM):
        assert min_informational_over_unitaries(random_density(dim, np.random.default_rng(dim))).all_pairs_steps == 0
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
    rounds, identity, upper = entropy._schedule(dim)
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
    assert np.array_equal(upper, np.triu(np.ones((dim, dim)), 1)) and not upper.flags.writeable
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


def test_a_dim_1_step_visits_no_pair():
    # so a budget of 0 covers it, and a negative one does not
    rho = DensityMatrix([[1.0]])
    assert not min_informational_over_unitaries(rho, budget=0).budget_exhausted
    report = min_informational_over_unitaries(rho, budget=-1)
    assert report.budget_exhausted and report.iterations == 0 and report.certified_gap == 0.0


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
    with pytest.raises(QentroError, match="grid and density must be finite"):
        differential_entropy(grid, density)
