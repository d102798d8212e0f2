"""Acceptance suite: one test per shipping criterion, each printing a
single PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo checks run at fixed seeds and compare against exact values
within 3 binomial standard deviations at the stated sample sizes; analytic
checks pin the worked-example numbers at their stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from qentro.entropy import (
    BITS,
    NATS,
    ensemble_bound_check,
    informational,
    min_informational_over_unitaries,
    pure_entropy,
    von_neumann,
)
from qentro.interferometer import (
    ABSORBED,
    D1,
    D2,
    OUTCOMES,
    MirrorModel,
    arrangement_entropy,
    outcome_distribution,
    posterior_springy,
    simulate_photons,
)
from qentro.linalg import random_unitary
from qentro.protocol import (
    GUESS_BITS,
    HiddenQubitSource,
    QuantizationGrid,
    SignatureKey,
    estimate_theta_adaptive,
    estimate_theta_bruteforce,
    eve_attack_success,
    honest_stream,
    verify_signature,
)
from qentro.states import (
    DensityMatrix,
    Ensemble,
    PureState,
    random_density,
)
from qentro.zeno import (
    Hamiltonian,
    SteeringPlan,
    simulate_steering,
    steering_success_probability,
    survival_exact,
    survival_second_order,
    zeno_survival,
)

PLUS = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])

# -0.71 log2 0.71 - 0.29 log2 0.29, frozen; the commonly quoted "0.868" is
# this value truncated (not rounded) to three decimals
H71_BITS = 0.8687212463394045


def _report(number: int, started: float, budget_s: float, detail: str):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s < {budget_s:.0f}s) :: {detail}")


def test_criterion_01_equal_blend_example():
    t0 = time.perf_counter()
    rho = DensityMatrix([[0.5, 0.25], [0.25, 0.5]])
    s_i = informational(rho, BITS).value
    s_n = von_neumann(rho, BITS).value
    assert s_i == pytest.approx(1.0, abs=5e-4)
    assert s_n == pytest.approx(0.811, abs=5e-4)
    ens = Ensemble([(0.5, PLUS)], mixed_part=(0.5, DensityMatrix(np.eye(2) / 2)))
    check = ensemble_bound_check(ens, BITS)
    # 0.5 * 1 + 0.5 * 1, exact up to float rounding
    assert check.rhs == pytest.approx(1.0, abs=1e-12)
    assert check.lhs == pytest.approx(1.0, abs=1e-12)
    assert check.holds
    _report(1, t0, 1.0, f"S_i={s_i:.4f} S_n={s_n:.4f} ensemble sum={check.rhs:.12f}")


def test_criterion_02_skewed_blend_example():
    t0 = time.perf_counter()
    rho = DensityMatrix([[0.71, 0.15], [0.15, 0.29]])
    s_i = informational(rho, BITS).value
    # the informational entropy of this matrix is 0.86872...; the quoted
    # 3-decimal figure 0.868 is a truncation, so it is matched at the 1e-3
    # quantization bound while the formula value is pinned at 1e-12
    assert s_i == pytest.approx(H71_BITS, abs=1e-12)
    assert s_i == pytest.approx(0.868, abs=1e-3)
    mixed = DensityMatrix(np.diag([0.8, 0.2]))
    s_mixed = von_neumann(mixed, BITS).value
    assert s_mixed == pytest.approx(0.722, abs=5e-4)
    ens = Ensemble([(0.3, PLUS)], mixed_part=(0.7, mixed))
    check = ensemble_bound_check(ens, BITS)
    assert check.rhs == pytest.approx(0.805, abs=5e-4)
    assert check.holds and check.lhs >= check.rhs
    _report(2, t0, 1.0, f"S_i={s_i:.4f} mixed={s_mixed:.4f} bound rhs={check.rhs:.4f} holds")


def test_criterion_03_two_decompositions_one_matrix():
    t0 = time.perf_counter()
    diagonal = Ensemble([], mixed_part=(1.0, DensityMatrix(np.diag([0.75, 0.25]))))
    a = PureState([math.sqrt(0.75), math.sqrt(0.25)])
    b = PureState([math.sqrt(0.75), -math.sqrt(0.25)])
    two_pure = Ensemble([(0.5, a), (0.5, b)])
    from qentro.states import mix

    s_i_diag = informational(mix(diagonal), BITS).value
    s_i_pure = informational(mix(two_pure), BITS).value
    assert abs(s_i_diag - s_i_pure) <= 1e-12
    nats = informational(mix(two_pure), NATS).value
    assert nats == pytest.approx(0.562, abs=5e-3)
    assert s_i_pure == pytest.approx(0.811, abs=5e-4)
    _report(3, t0, 1.0, f"identical S_i={s_i_pure:.6f} bits = {nats:.4f} nats")


def test_criterion_04_unitary_infimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4040)
    worst = {2: 0.0, 3: 0.0, 4: 0.0}
    for dim, count, tol in ((2, 100, 1e-6), (3, 50, 1e-4), (4, 50, 1e-4)):
        for i in range(count):
            rho = random_density(dim, rng)
            report = min_informational_over_unitaries(rho, BITS)
            assert report.residual_vs_von_neumann <= tol
            worst[dim] = max(worst[dim], report.residual_vs_von_neumann)
    _report(
        4, t0, 60.0,
        "200 matrices; worst residual "
        + " ".join(f"dim{d}={worst[d]:.2e}" for d in (2, 3, 4)),
    )


def test_criterion_05_majorization_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5050)
    worst_violation = -np.inf
    for trial in range(1000):
        dim = 2 + trial % 3
        rho = random_density(dim, rng)
        u = random_unitary(dim, rng)
        m = u @ rho.matrix @ u.conj().T
        rotated = DensityMatrix((m + m.conj().T) / 2)
        gap = informational(rotated, BITS).value - von_neumann(rho, BITS).value
        worst_violation = max(worst_violation, -gap)
        assert gap >= -1e-10
    _report(5, t0, 30.0, f"1000 conjugations; worst S_i-S_n deficit {worst_violation:.2e}")


def test_criterion_06_interferometer():
    t0 = time.perf_counter()
    assert outcome_distribution(MirrorModel.rigid()).as_array().tolist() == [0, 1, 0]
    assert outcome_distribution(MirrorModel.springy()).as_array().tolist() == [0.5, 0.25, 0.25]
    unknown = MirrorModel.unknown(0.5)
    assert outcome_distribution(unknown).as_array().tolist() == [0.25, 0.625, 0.125]
    assert arrangement_entropy(MirrorModel.rigid(), BITS).value == 0.0
    assert arrangement_entropy(MirrorModel.springy(), BITS).value == pytest.approx(1.5, abs=5e-4)
    h_unknown = arrangement_entropy(unknown, BITS).value
    assert h_unknown == pytest.approx(1.299, abs=5e-4)
    assert posterior_springy(0.5, D2) == 1.0
    assert posterior_springy(0.5, D1) == 0.2
    photons = 100_000
    for mirror in (MirrorModel.springy(), unknown):
        counts = simulate_photons(mirror, photons, np.random.default_rng(606))
        for outcome, p in zip(OUTCOMES, outcome_distribution(mirror).as_array()):
            sigma = math.sqrt(p * (1 - p) / photons)
            assert abs(counts[outcome] / photons - p) <= 3 * sigma
    _report(6, t0, 10.0, f"distributions exact; H(unknown)={h_unknown:.4f}; MC within 3 sigma")


def test_criterion_07_steering_closed_form_and_monte_carlo():
    t0 = time.perf_counter()
    assert steering_success_probability(SteeringPlan(math.pi / 4)) == pytest.approx(
        0.25, abs=1e-12
    )
    p90 = steering_success_probability(SteeringPlan.from_steps(90))
    assert p90 == pytest.approx(0.973, abs=5e-4)
    trials = 100_000
    rates = {}
    for n in (2, 45, 90):
        plan = SteeringPlan.from_steps(n)
        p = steering_success_probability(plan)
        result = simulate_steering(plan, trials, np.random.default_rng(707 + n))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(result.success_rate - p) <= 3 * sigma
        rates[n] = result.success_rate
    _report(7, t0, 30.0, f"p(45deg)=0.25, p(n=90)={p90:.4f}; MC rates {rates}")


def test_criterion_08_second_order_error_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    for _ in range(100):
        a, b = rng.standard_normal(2)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        h = Hamiltonian([[a, c], [np.conjugate(c), b]])
        psi = PureState.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        disc = [
            abs(survival_exact(h, t, psi) - survival_second_order(h, t, psi))
            for t in (0.1, 0.05)
        ]
        if disc[0] >= 1e-13:
            assert disc[0] / disc[1] >= 8.0
            checked += 1
    assert checked >= 90  # the scaling was actually exercised
    pauli_x = Hamiltonian([[0, 1], [1, 0]])
    survival = zeno_survival(pauli_x, 1.0, 1000, PureState.basis_state(2, 0))
    assert survival > 0.999
    _report(8, t0, 10.0, f"{checked} Hamiltonians at >=8x shrink; n=1000 survival {survival:.6f}")


def test_criterion_09_signature_attack_and_honest_acceptance():
    t0 = time.perf_counter()
    trials = 1_000_000
    ratios = {}
    for n in (4, 8, 12):
        key = SignatureKey.uniform(n)
        result = eve_attack_success(key, GUESS_BITS, trials, np.random.default_rng(909 + n))
        ratio = result.success_rate * 2.0 ** n
        assert 0.7 <= ratio <= 1.3
        ratios[n] = round(ratio, 3)
    key = SignatureKey.uniform(8)
    verifier = np.random.default_rng(910)
    accepted = sum(verify_signature(key, honest_stream(key), verifier) for _ in range(10_000))
    assert accepted == 10_000
    _report(9, t0, 60.0, f"rate*2^n {ratios}; honest acceptance 10000/10000")


def test_criterion_10_estimation_game():
    t0 = time.perf_counter()
    grid = QuantizationGrid(8)
    theta = float(grid.hypotheses[5])
    hits = 0
    for run in range(100):
        src = HiddenQubitSource(theta, seed=run)
        est = estimate_theta_bruteforce(src, grid, 10_000)
        hits += est.theta_hat == theta
    assert hits >= 99

    target = math.pi / 64
    rng = np.random.default_rng(1010)
    adaptive_copies, brute_copies = [], []
    adaptive_errors, brute_errors = [], []
    for run in range(100):
        hidden = float(rng.uniform(0, math.pi / 2))
        est_a = estimate_theta_adaptive(
            HiddenQubitSource(hidden, seed=run), target, confidence_shots=200
        )
        adaptive_copies.append(est_a.copies_used)
        adaptive_errors.append(abs(est_a.theta_hat - hidden))
        est_b = estimate_theta_bruteforce(
            HiddenQubitSource(hidden, seed=run), QuantizationGrid(64), 10_000
        )
        brute_copies.append(est_b.copies_used)
        brute_errors.append(abs(est_b.theta_hat - hidden))
    assert np.median(adaptive_errors) <= target
    assert np.median(brute_errors) <= target  # matched precision
    assert np.median(adaptive_copies) < np.median(brute_copies)
    _report(
        10, t0, 120.0,
        f"on-grid {hits}/100; median copies adaptive {np.median(adaptive_copies):.0f} "
        f"vs grid sweep {np.median(brute_copies):.0f}",
    )
