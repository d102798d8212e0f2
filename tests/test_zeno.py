import math

import numpy as np
import pytest

from qentro.cli import WORK_LIMITS
from qentro.errors import QentroError
from qentro.linalg import random_unitary
from qentro.states import MeasurementSet, PureState, measure_collapse
from qentro.zeno import (
    HALF_PI,
    Hamiltonian,
    SteeringPlan,
    simulate_steering,
    steering_success_probability,
    steering_sweep_rows,
    zeno_survival,
)
from test_states import random_pure

PAULI_X = Hamiltonian([[0, 1], [1, 0]])
ZERO = PureState.basis_state(2, 0)
ONE = PureState.basis_state(2, 1)


def exact(h, t, psi0):
    # the survival probability |<psi0|exp(-i H t)|psi0>|^2 of one observation
    return zeno_survival(h, t, 1, psi0)


def second_order(h, t, psi0):
    # the short-time expansion 1 - (dE t)^2 of the survival probability
    return zeno_survival(h, t, 1, psi0, "second_order")


def random_two_level(rng):
    a, b = rng.standard_normal(2)
    c = rng.standard_normal() + 1j * rng.standard_normal()
    return Hamiltonian([[a, c], [np.conjugate(c), b]])


def test_hamiltonian_symmetrizes_as_the_mean_with_its_adjoint():
    # halving first gives the bits of (m + m^H) / 2 for entries in the normal range
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 8) * 5:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        noise = 1e-12 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        m = (a + a.conj().T) * 10.0 ** rng.uniform(-300, 300) + noise
        assert Hamiltonian(m).matrix.tobytes() == ((m + m.conj().T) / 2).tobytes()


def test_hamiltonian_near_the_float_limit_stays_finite_or_is_rejected():
    # (m + m^H) and (m - m^H) overflow here; a warning would fail the suite
    near_limit = np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)
    h = Hamiltonian(near_limit)
    assert h.matrix.tobytes() == near_limit.tobytes()
    w, _ = h.eigen()
    assert np.isfinite(w).all() and w[1] == pytest.approx(math.sqrt(2) * 1e308)
    with pytest.raises(QentroError, match="Hermitian within"):
        Hamiltonian([[1e308, 1e308], [-1e308, 0]])


def test_hamiltonian_validation():
    with pytest.raises(QentroError, match="Hamiltonian must be Hermitian within"):
        Hamiltonian([[0, 1], [0, 0]])


# the evolution exp(-i H t), seen through the exact survival it leaves


def test_evolve_zero_time_is_identity():
    assert exact(PAULI_X, 0.0, PureState([0.6, 0.8j])) == pytest.approx(1.0, abs=1e-12)


def test_evolve_eigenstate_only_gains_phase():
    h = Hamiltonian(np.diag([0.0, 1.7]))
    for n in (1, 7):
        assert zeno_survival(h, 0.9, n, ONE) == pytest.approx(1.0, abs=1e-12)


def test_evolve_rabi_quarter_period():
    assert exact(PAULI_X, math.pi / 2, ZERO) == pytest.approx(0.0, abs=1e-12)


def test_evolve_dimension_mismatch():
    with pytest.raises(QentroError, match="Hamiltonian dim 2 != state dim 3"):
        exact(PAULI_X, 1.0, PureState([1, 0, 0]))


def test_exact_survival_rabi_oracle():
    # two-level closed form: |<0|exp(-iXt)|0>|^2 = cos^2 t
    for t in (0.0, 0.1, 0.7, 1.3, 2.9):
        assert exact(PAULI_X, t, ZERO) == pytest.approx(math.cos(t) ** 2, abs=1e-12)


def test_evolve_preserves_norm():
    # H = e0 I + r.sigma turns the Bloch vector s of psi about r, so the
    # survival is 1 - sin^2(|r| t) (1 - (r.s / |r|)^2), at most 1
    rng = np.random.default_rng(77)
    for _ in range(1000):
        h = random_two_level(rng)
        psi = random_pure(2, rng)
        t = float(rng.uniform(-3, 3))
        (a, c), (_, b) = h.matrix
        r = np.array([c.real, -c.imag, (a.real - b.real) / 2])
        alpha, beta = psi.amplitudes
        cross = 2 * alpha.conjugate() * beta
        s = np.array([cross.real, cross.imag, abs(alpha) ** 2 - abs(beta) ** 2])
        norm = np.linalg.norm(r)
        closed = 1.0 - math.sin(norm * t) ** 2 * (1.0 - (r @ s / norm) ** 2)
        value = exact(h, t, psi)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(closed, abs=1e-12)


def test_exact_survival_matches_the_evolved_state():
    # the one sum over the spectrum against the state evolved in the
    # eigenbasis and projected back, compounded over n intervals
    rng = np.random.default_rng(2025)
    for dim in range(2, 9):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = Hamiltonian(m + m.conj().T)
        w, v = h.eigen()
        psi = random_pure(dim, rng)
        for t in (0.3, 1.0, 5.0):
            for n in (1, 7, 100):
                evolved = v @ (np.exp(-1j * w * t / n) * (v.conj().T @ psi.amplitudes))
                reference = min(abs(np.vdot(psi.amplitudes, evolved)) ** 2, 1.0) ** n
                assert zeno_survival(h, t, n, psi) == pytest.approx(reference, rel=1e-12, abs=1e-15)


def degenerate_hamiltonian(scale):
    # U diag(1, 1, 2) U† / scale: eigh may return any basis of the doubled eigenspace
    u = random_unitary(3, np.random.default_rng(19))
    return u, Hamiltonian((u * [1.0, 1.0, 2.0]) @ u.conj().T / scale)


@pytest.mark.parametrize("scale", [1.0, 0.5, 3.0])
def test_evolve_is_independent_of_the_eigenvector_gauge(scale):
    u, h = degenerate_hamiltonian(scale)
    psi = random_pure(3, np.random.default_rng(29))
    for t in (-1.3, 0.0, 0.4, 2.0, 7.5):
        phases = np.exp(-1j * np.array([1.0, 1.0, 2.0]) / scale * t)
        expected = u @ (phases * (u.conj().T @ psi.amplitudes))
        assert exact(h, t, psi) == pytest.approx(abs(np.vdot(psi.amplitudes, expected)) ** 2, abs=1e-12)


def variance(h, psi0):
    # the energy variance, read off the second-order survival 1 - (dE)^2 t^2 at t = 1
    return 1.0 - zeno_survival(h, 1.0, 1, psi0, "second_order")


def test_second_order_reads_the_energy_variance():
    assert variance(Hamiltonian(np.diag([0.0, 2.0])), ZERO) == 0.0
    assert variance(PAULI_X, ZERO) == pytest.approx(1.0, abs=1e-12)
    plus = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
    # eigenvalues 0 and 2 weighted half/half: variance 1 by hand
    assert variance(Hamiltonian(np.diag([0.0, 2.0])), plus) == pytest.approx(1.0, abs=1e-12)


def test_second_order_variance_of_a_huge_hamiltonian_is_finite_or_rejected():
    # the products overflowed to inf, and inf - inf gave a silent NaN
    assert variance(Hamiltonian([[1e200, 0], [0, -1e200]]), ZERO) == 0.0
    assert variance(Hamiltonian([[1e-320, 0], [0, 0]]), ZERO) == 0.0
    tilted = PureState([0.6, 0.8])
    h = Hamiltonian([[1e150, 1e150], [1e150, -1e150]])
    assert variance(h, tilted) == pytest.approx(1.5376e300, rel=1e-12)
    # the true variance, ~1.5e320, is above the largest float
    with pytest.raises(QentroError, match="energy variance of the state is out of floating-point range"):
        variance(Hamiltonian([[1e160, 1e160], [1e160, -1e160]]), tilted)


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6, 1e8])
def test_second_order_variance_ignores_a_large_mean_energy(shift):
    # <H^2> - <H>^2 cancelled to 0 at a mean of 1e8; the spread about the mean is 1
    h = Hamiltonian(shift * np.eye(2) + np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert variance(h, ZERO) == pytest.approx(1.0, abs=1e-6)
    assert second_order(h, 0.1, ZERO) == pytest.approx(exact(h, 0.1, ZERO), abs=1e-4)


def test_survival_second_order_small_time():
    assert second_order(PAULI_X, 0.0, ZERO) == 1.0
    approx = second_order(PAULI_X, 0.01, ZERO)
    assert approx == pytest.approx(1.0 - 1e-4, abs=1e-15)
    assert abs(exact(PAULI_X, 0.01, ZERO) - approx) < 1e-8


def test_survival_second_order_eigenstate():
    h = Hamiltonian(np.diag([0.0, 3.0]))
    for t in (0.1, 1.0, 10.0):
        assert second_order(h, t, ONE) == 1.0


def test_second_order_discrepancy_is_fourth_order():
    # halving t must shrink |exact - second_order| by at least 8x
    rng = np.random.default_rng(55)
    for _ in range(100):
        h = random_two_level(rng)
        psi = random_pure(2, rng)
        disc = [
            abs(exact(h, t, psi) - second_order(h, t, psi))
            for t in (0.1, 0.05, 0.025)
        ]
        for coarse, fine in zip(disc, disc[1:]):
            if coarse < 1e-13:  # both negligible; nothing to resolve
                continue
            assert coarse / fine >= 8.0


def test_zeno_survival_reductions():
    # n observations compound the survival of one over t / n
    t = 0.8
    assert zeno_survival(PAULI_X, t, 5, ZERO) == pytest.approx(exact(PAULI_X, t / 5, ZERO) ** 5, abs=1e-12)
    with pytest.raises(QentroError, match="observation count must be >= 1, got 0"):
        zeno_survival(PAULI_X, t, 0, ZERO)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: zeno_survival(PAULI_X, 1.0, 3, ZERO, mode="bogus"), ValueError, "mode must be 'exact'"),
        (
            lambda: second_order(PAULI_X, 1.0, PureState.basis_state(3, 0)),
            QentroError,
            "Hamiltonian dim 2 != state dim 3",
        ),
        (lambda: exact(PAULI_X, math.nan, ZERO), QentroError, "time t must be finite"),
        (lambda: exact(PAULI_X, -math.inf, ZERO), QentroError, "time t must be finite"),
        (lambda: exact(PAULI_X, math.inf, ZERO), QentroError, "time t must be finite"),
        (lambda: second_order(PAULI_X, math.nan, ZERO), QentroError, "time t must be finite"),
        (lambda: zeno_survival(PAULI_X, math.nan, 3, ZERO), QentroError, "time t must be finite"),
        (lambda: SteeringPlan.from_steps(0), QentroError, "n_steps must be >= 1, got 0"),
        (
            lambda: zeno_survival(PAULI_X, math.inf, 3, ZERO, "second_order"),
            QentroError,
            "time t must be finite",
        ),
        # a finite t whose phase E t overflows
        (lambda: exact(Hamiltonian([[0, 10], [10, 0]]), 1e308, ZERO), QentroError, "t=1e\\+308 puts E t"),
        (lambda: zeno_survival(Hamiltonian([[0, 10], [10, 0]]), 1e308, 3, ZERO), QentroError, "t=1e\\+308 puts E t"),
        (lambda: second_order(PAULI_X, 1e200, ZERO), QentroError, "t=1e\\+200 puts E t"),
        (lambda: zeno_survival(PAULI_X, 1e200, 3, ZERO, "second_order"), QentroError, "t=1e\\+200 puts E t"),
    ],
    ids=[
        "survival-mode",
        "variance-dims",
        "evolve-nan",
        "evolve-minus-inf",
        "survival-exact-inf",
        "second-order-nan",
        "zeno-exact-nan",
        "plan-no-steps",
        "zeno-second-order-inf",
        "evolve-phase-overflow",
        "zeno-exact-phase-overflow",
        "second-order-phase-overflow",
        "zeno-second-order-phase-overflow",
    ],
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
        psi = random_pure(2, rng)
        values = [zeno_survival(scaled, 1.0, n, psi) for n in range(1, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_steering_plan_construction():
    assert SteeringPlan(math.pi / 4).n_steps == 2
    # the largest accepted angles give one step, with no floor on the count
    assert SteeringPlan(HALF_PI).n_steps == 1
    assert SteeringPlan(math.nextafter(HALF_PI, 0.0)).n_steps == 1
    assert SteeringPlan.from_steps(90).theta_step == pytest.approx(math.radians(1.0))
    with pytest.raises(QentroError, match=r"step angle must be in \(0, pi/2\], got 0.0"):
        SteeringPlan(0.0)
    with pytest.raises(QentroError, match=r"step angle must be in \(0, pi/2\], got 2.0"):
        SteeringPlan(2.0)
    # the count is derived from the angle, never given
    with pytest.raises(TypeError):
        SteeringPlan(math.pi / 4, 7)


def test_a_plan_from_a_step_count_is_the_plan_of_its_angle():
    limit = WORK_LIMITS["steps"]
    rng = np.random.default_rng(48)
    counts = [*range(1, 1001), *rng.integers(1000, limit, 2000, endpoint=True).tolist(), limit]
    for n in counts:
        plan = SteeringPlan.from_steps(n)
        assert plan == SteeringPlan(HALF_PI / n)
        assert plan.n_steps == n


@pytest.mark.parametrize("theta", [1e-310, 5e-324])
def test_steering_plan_rejects_a_step_too_small_to_count(theta):
    # pi/2 over a subnormal step overflows to inf before it is rounded
    with pytest.raises(QentroError, match=f"step angle {theta!r} rad is too small"):
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


@pytest.mark.parametrize("n", [1, 2, 10])
def test_simulate_steering_runs_a_single_trial(n):
    result = simulate_steering(SteeringPlan.from_steps(n), 1, np.random.default_rng(n))
    assert result.trials == 1
    assert result.successes in (0, 1)
    assert result.survivors_per_step.shape == (n,)


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
        MeasurementSet.qubit_angle_basis((k + 1) * plan.theta_step)
        for k in range(plan.n_steps)
    ]
    successes = 0
    for _ in range(trials):
        state = ZERO
        for mset in msets:
            label, state = measure_collapse(state, mset, rng)
            if label == "1":  # the backward branch
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
