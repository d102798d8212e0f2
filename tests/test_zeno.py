import math

import numpy as np
import pytest

from qentro.errors import DimensionMismatch, InvalidTheta, NonpositiveN, NotHermitian
from qentro.states import MeasurementSet, PureState, measure_collapse
from qentro.zeno import (
    Hamiltonian,
    SteeringPlan,
    energy_variance,
    evolve,
    simulate_steering,
    steering_success_probability,
    steering_sweep_rows,
    survival_exact,
    survival_second_order,
    zeno_survival,
)

PAULI_X = Hamiltonian([[0, 1], [1, 0]])
ZERO = PureState.basis_state(2, 0)
ONE = PureState.basis_state(2, 1)


def random_two_level(rng):
    a, b = rng.standard_normal(2)
    c = rng.standard_normal() + 1j * rng.standard_normal()
    return Hamiltonian([[a, c], [np.conjugate(c), b]])


def test_hamiltonian_validation():
    with pytest.raises(NotHermitian):
        Hamiltonian([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        Hamiltonian(np.eye(2), hbar=0.0)


def test_evolve_zero_time_is_identity():
    psi = PureState([0.6, 0.8j])
    assert evolve(PAULI_X, 0.0, psi).equals_up_to_phase(psi, 1e-12)


def test_evolve_eigenstate_only_gains_phase():
    omega = 1.7
    h = Hamiltonian(np.diag([0.0, omega]))
    t = 0.9
    out = evolve(h, t, ONE)
    assert out.equals_up_to_phase(ONE, 1e-12)
    overlap = np.vdot(ONE.amplitudes, out.amplitudes)
    assert overlap == pytest.approx(np.exp(-1j * omega * t), abs=1e-12)
    assert survival_exact(h, t, ONE) == pytest.approx(1.0, abs=1e-12)


def test_evolve_rabi_quarter_period():
    out = evolve(PAULI_X, math.pi / 2, ZERO)
    assert np.allclose(out.amplitudes, [0.0, -1.0j], atol=1e-12)
    assert survival_exact(PAULI_X, math.pi / 2, ZERO) == pytest.approx(0.0, abs=1e-12)


def test_evolve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evolve(PAULI_X, 1.0, PureState([1, 0, 0]))


def test_evolve_respects_hbar():
    slow = Hamiltonian([[0, 1], [1, 0]], hbar=2.0)
    assert survival_exact(slow, 1.0, ZERO) == pytest.approx(math.cos(0.5) ** 2, abs=1e-12)


def test_survival_exact_rabi_oracle():
    # two-level closed form: |<0|exp(-iXt)|0>|^2 = cos^2 t
    for t in (0.0, 0.1, 0.7, 1.3, 2.9):
        assert survival_exact(PAULI_X, t, ZERO) == pytest.approx(math.cos(t) ** 2, abs=1e-12)


def test_evolve_preserves_norm():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        h = random_two_level(rng)
        psi = PureState.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        out = evolve(h, float(rng.uniform(-3, 3)), psi)
        assert abs((np.abs(out.amplitudes) ** 2).sum() - 1.0) <= 1e-10


def test_energy_variance():
    assert energy_variance(Hamiltonian(np.diag([0.0, 2.0])), ZERO) == 0.0
    assert energy_variance(PAULI_X, ZERO) == pytest.approx(1.0, abs=1e-12)
    plus = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
    # eigenvalues 0 and 2 weighted half/half: variance 1 by hand
    assert energy_variance(Hamiltonian(np.diag([0.0, 2.0])), plus) == pytest.approx(1.0, abs=1e-12)


def test_survival_second_order_small_time():
    assert survival_second_order(PAULI_X, 0.0, ZERO) == 1.0
    approx = survival_second_order(PAULI_X, 0.01, ZERO)
    assert approx == pytest.approx(1.0 - 1e-4, abs=1e-15)
    assert abs(survival_exact(PAULI_X, 0.01, ZERO) - approx) < 1e-8


def test_survival_second_order_eigenstate():
    h = Hamiltonian(np.diag([0.0, 3.0]))
    for t in (0.1, 1.0, 10.0):
        assert survival_second_order(h, t, ONE) == 1.0


def test_second_order_discrepancy_is_fourth_order():
    # halving t must shrink |exact - second_order| by at least 8x
    rng = np.random.default_rng(55)
    for _ in range(100):
        h = random_two_level(rng)
        psi = PureState.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        disc = [
            abs(survival_exact(h, t, psi) - survival_second_order(h, t, psi))
            for t in (0.1, 0.05, 0.025)
        ]
        for coarse, fine in zip(disc, disc[1:]):
            if coarse < 1e-13:  # both negligible; nothing to resolve
                continue
            assert coarse / fine >= 8.0


def test_zeno_survival_reductions():
    t = 0.8
    assert zeno_survival(PAULI_X, t, 1, ZERO) == pytest.approx(
        survival_exact(PAULI_X, t, ZERO), abs=1e-12
    )
    with pytest.raises(NonpositiveN):
        zeno_survival(PAULI_X, t, 0, ZERO)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: zeno_survival(PAULI_X, 1.0, 3, ZERO, mode="bogus"), ValueError, "mode must be 'exact'"),
        (
            lambda: energy_variance(PAULI_X, PureState.basis_state(3, 0)),
            DimensionMismatch,
            "Hamiltonian dim 2 != state dim 3",
        ),
    ],
    ids=["survival-mode", "variance-dims"],
)
def test_zeno_rejects_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_zeno_survival_closed_form_n100():
    value = zeno_survival(PAULI_X, 1.0, 100, ZERO)
    assert value == pytest.approx(math.cos(0.01) ** 200, abs=1e-12)
    assert value == pytest.approx(0.990, abs=1e-3)


def test_zeno_survival_second_order_formula():
    assert zeno_survival(PAULI_X, 1.0, 10, ZERO, mode="second_order") == pytest.approx(0.9)


def test_zeno_survival_monotone_approach_to_one():
    values = [zeno_survival(PAULI_X, 1.0, n, ZERO) for n in (1, 10, 100, 1000)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999


def test_zeno_survival_nondecreasing_in_n():
    # within the first quarter period (spread * t <= pi/2) more frequent
    # observation means more survival
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = random_two_level(rng)
        spread = np.ptp(np.linalg.eigvalsh(h.matrix)) / 2
        scaled = Hamiltonian(h.matrix * (math.pi / 2 / max(spread, 1e-9)))
        psi = PureState.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        values = [zeno_survival(scaled, 1.0, n, psi) for n in range(1, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_steering_plan_construction():
    assert SteeringPlan(math.pi / 4).n_steps == 2
    assert SteeringPlan.from_steps(90).theta_step == pytest.approx(math.radians(1.0))
    with pytest.raises(InvalidTheta):
        SteeringPlan(0.0)
    with pytest.raises(InvalidTheta):
        SteeringPlan(2.0)
    with pytest.raises(InvalidTheta):
        SteeringPlan(math.pi / 4, n_steps=7)  # misses the quarter turn


@pytest.mark.parametrize("theta", [1e-310, 5e-324])
def test_steering_plan_rejects_a_step_too_small_to_count(theta):
    # pi/2 over a subnormal step overflows to inf before it is rounded
    with pytest.raises(InvalidTheta, match=repr(theta)):
        SteeringPlan(theta)


def test_steering_success_closed_form():
    assert steering_success_probability(SteeringPlan(math.pi / 4)) == pytest.approx(0.25, abs=1e-12)
    assert steering_success_probability(SteeringPlan.from_steps(90)) == pytest.approx(
        0.973, abs=5e-4
    )
    assert steering_success_probability(SteeringPlan.from_steps(100_000)) > 0.99997


def test_steering_success_increases_with_step_count():
    values = [steering_success_probability(SteeringPlan.from_steps(n)) for n in range(1, 101)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_simulate_steering_matches_closed_form():
    for n, trials in ((2, 100_000), (10, 50_000), (45, 20_000), (90, 20_000)):
        plan = SteeringPlan.from_steps(n)
        p = steering_success_probability(plan)
        rng = np.random.default_rng(1000 + n)
        result = simulate_steering(plan, trials, rng)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(result.success_rate - p) <= 3 * sigma
        assert result.successes == result.survivors_per_step[-1]
        assert np.all(np.diff(result.survivors_per_step) <= 0)


def test_simulate_steering_orthogonal_projection_never_succeeds():
    plan = SteeringPlan(math.pi / 2)  # one 90-degree projection
    result = simulate_steering(plan, 10_000, np.random.default_rng(2))
    assert result.successes == 0


def test_simulate_steering_agrees_with_collapse_machinery():
    # dual route: drive the same schedule through explicit Born-rule
    # collapses and compare success rates
    plan = SteeringPlan(math.pi / 4)
    trials = 2000
    rng = np.random.default_rng(42)
    msets = [
        MeasurementSet.qubit_angle_basis((k + 1) * plan.theta_step, labels=("fwd", "back"))
        for k in range(plan.n_steps)
    ]
    successes = 0
    for _ in range(trials):
        state = ZERO
        for mset in msets:
            label, state = measure_collapse(state, mset, rng)
            if label == "back":
                break
        else:
            successes += 1
    p = steering_success_probability(plan)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(successes / trials - p) <= 3 * sigma


def test_steering_sweep_rows_deterministic():
    rows1 = steering_sweep_rows(range(1, 11), 2000, seed=9)
    rows2 = steering_sweep_rows(range(1, 11), 2000, seed=9)
    assert rows1 == rows2
    closed = [row["closed_form_prob"] for row in rows1]
    assert all(b > a for a, b in zip(closed, closed[1:]))
