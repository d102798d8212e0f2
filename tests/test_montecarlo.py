"""The count-level Monte Carlo samplers against per-trial reference samplers.

``simulate_steering`` and ``eve_attack_success`` track only how many trials
are still alive, and ``simulate_latent_mirror`` draws its joint counts at
once.  The reference functions below draw every trial at every step, or
every photon, as the library once did; over many seeds the two must give
the same distribution of counts, checked by a two-sample chi-square test.
"""

import math

import numpy as np
import pytest

from qentro import montecarlo, protocol
from qentro.errors import QentroError
from qentro.interferometer import (
    OUTCOMES,
    RIGID,
    SPRINGY,
    MirrorModel,
    outcome_distribution,
    simulate_latent_mirror,
)
from qentro.protocol import (
    GUESS_ANGLES,
    GUESS_BITS,
    REPLAY,
    SignatureKey,
    attack_success_probability,
    eve_attack_success,
)
from qentro.zeno import SteeringPlan, simulate_steering, steering_success_probability

HALF_PI = math.pi / 2
SEEDS = 1500

# upper 0.1 % points of the chi-square distribution, by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124, 9: 27.877}
# each bin holds at least this much of the exact law, so at most 10 bins
MIN_MASS = 0.1

MIXED_KEY = SignatureKey([0.0, math.pi / 8, math.pi / 4, HALF_PI])
KEYS = {"mixed": MIXED_KEY, "45deg": SignatureKey.uniform(4)}


def reference_steering(plan, trials, rng):
    """Survivors per step, drawing one uniform per trial and step."""
    p_forward = float(np.cos(plan.theta_step) ** 2)
    alive = np.ones(trials, dtype=bool)
    survivors = np.empty(plan.n_steps, dtype=int)
    for k in range(plan.n_steps):
        alive &= rng.random(trials) < p_forward
        survivors[k] = int(alive.sum())
    return survivors


def reference_attack(key, strategy, trials, rng):
    """Accepted forgeries, drawing a preparation and a verification per
    trial and position."""
    n = key.length
    if strategy == GUESS_BITS:
        prepared = rng.integers(0, 2, size=(trials, n)) * HALF_PI
    elif strategy == GUESS_ANGLES:
        prepared = rng.random((trials, n)) * HALF_PI
    else:  # REPLAY: resend the computational-basis outcome of an honest photon
        prepared = (rng.random((trials, n)) >= np.cos(key.angles) ** 2) * HALF_PI
    p_zero = np.cos(prepared - key.angles[None, :]) ** 2
    return int((rng.random((trials, n)) < p_zero).all(axis=1).sum())


def reference_latent_mirror(prior, count, rng):
    """Joint (mirror, outcome) counts, drawing the mirror and then an
    outcome for every photon."""
    springy = rng.random(count) < prior
    u = rng.random(count)
    springy_edges = np.cumsum(list(outcome_distribution(MirrorModel(SPRINGY)).values()))
    rigid_edges = np.cumsum(list(outcome_distribution(MirrorModel(RIGID)).values()))
    outcome_idx = np.where(
        springy,
        np.searchsorted(springy_edges, u, side="right"),
        np.searchsorted(rigid_edges, u, side="right"),
    )
    outcome_idx = np.clip(outcome_idx, 0, 2)
    counts = {}
    for is_springy, kind in ((True, SPRINGY), (False, RIGID)):
        for idx, outcome in enumerate(OUTCOMES):
            counts[(kind, outcome)] = int(((springy == is_springy) & (outcome_idx == idx)).sum())
    return counts


def binomial_bins(trials, q):
    """Upper ends of bins of Binomial(trials, q) outcomes, each holding at
    least ``MIN_MASS`` of the law; the last bin runs to ``trials``."""
    uppers, mass = [], 0.0
    for k in range(trials + 1):
        mass += math.comb(trials, k) * q**k * (1.0 - q) ** (trials - k)
        if mass >= MIN_MASS:
            uppers.append(k)
            mass = 0.0
    uppers[-1] = trials
    return np.array(uppers)


def two_sample_chi2(a, b, uppers):
    """Chi-square statistic for two equal-size samples of counts over the
    same bins, and its degrees of freedom."""
    ha = np.bincount(np.searchsorted(uppers, a), minlength=len(uppers))
    hb = np.bincount(np.searchsorted(uppers, b), minlength=len(uppers))
    both = ha + hb
    used = both > 0
    return float(np.sum((ha - hb)[used] ** 2 / both[used])), int(used.sum()) - 1


def assert_same_law(new_counts, old_counts, trials, q):
    uppers = binomial_bins(trials, q)
    assert len(uppers) >= 2
    stat, df = two_sample_chi2(np.asarray(new_counts), np.asarray(old_counts), uppers)
    assert stat <= CHI2_999[df], (stat, df)


def test_steering_survivors_per_step_match_the_per_trial_sampler():
    plan = SteeringPlan.from_steps(6)
    trials = 30
    new = np.array(
        [simulate_steering(plan, trials, np.random.default_rng([s, 0])).survivors_per_step for s in range(SEEDS)]
    )
    old = np.array([reference_steering(plan, trials, np.random.default_rng([s, 1])) for s in range(SEEDS)])
    p_forward = math.cos(plan.theta_step) ** 2
    for k in range(plan.n_steps):
        assert_same_law(new[:, k], old[:, k], trials, p_forward ** (k + 1))


@pytest.mark.parametrize("key_name", sorted(KEYS))
@pytest.mark.parametrize("strategy", protocol.EVE_STRATEGIES)
def test_attack_successes_match_the_per_trial_sampler(strategy, key_name):
    key = KEYS[key_name]
    trials = 40
    new = [eve_attack_success(key, strategy, trials, np.random.default_rng([s, 0])).successes for s in range(SEEDS)]
    old = [reference_attack(key, strategy, trials, np.random.default_rng([s, 1])) for s in range(SEEDS)]
    assert_same_law(new, old, trials, attack_success_probability(key, strategy))


def test_latent_mirror_cells_match_the_per_photon_sampler():
    prior, photons = 0.3, 40
    new = [simulate_latent_mirror(prior, photons, np.random.default_rng([s, 0])) for s in range(SEEDS)]
    old = [reference_latent_mirror(prior, photons, np.random.default_rng([s, 1])) for s in range(SEEDS)]
    for kind, weight in ((SPRINGY, prior), (RIGID, 1.0 - prior)):
        for outcome, p in outcome_distribution(MirrorModel(kind)).items():
            cell = (kind, outcome)
            if p == 0.0:
                assert all(counts[cell] == 0 for counts in new), cell
            else:
                assert_same_law([c[cell] for c in new], [c[cell] for c in old], photons, weight * p)


def test_chi2_check_tells_different_laws_apart():
    # the check has power: 2^-4 against 0.15 at 40 trials is far outside it
    rng = np.random.default_rng(3)
    a, b = rng.binomial(40, 1 / 16, SEEDS), rng.binomial(40, 0.15, SEEDS)
    stat, df = two_sample_chi2(a, b, binomial_bins(40, 1 / 16))
    assert stat > CHI2_999[df]


class CountingGenerator:
    """Passes the one draw the samplers make to a numpy Generator and
    records how many variates each call drew."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def binomial(self, n, p):
        self.sizes.append(np.broadcast(n, p).size)
        return self._rng.binomial(n, p)


@pytest.mark.parametrize("trials", [10, 10**7])
def test_steering_draws_once_per_step(trials):
    plan = SteeringPlan.from_steps(40)
    rng = CountingGenerator(5)
    simulate_steering(plan, trials, rng)
    assert sum(rng.sizes) <= plan.n_steps


@pytest.mark.parametrize("strategy", protocol.EVE_STRATEGIES)
@pytest.mark.parametrize("trials", [10, 10**7])
def test_attacks_draw_once_per_position(strategy, trials):
    key = SignatureKey.uniform(64)
    rng = CountingGenerator(6)
    eve_attack_success(key, strategy, trials, rng)
    assert len(rng.sizes) <= key.length
    assert set(rng.sizes) <= {1}


@pytest.mark.parametrize(
    "sample",
    [
        lambda trials: montecarlo.thin(trials, [0.5], np.random.default_rng(0)),
        lambda trials: simulate_steering(SteeringPlan.from_steps(3), trials, np.random.default_rng(0)),
        lambda trials: eve_attack_success(MIXED_KEY, GUESS_BITS, trials, np.random.default_rng(0)),
    ],
    ids=["thin", "steering", "attack"],
)
@pytest.mark.parametrize("trials", [0, -1])
def test_a_trial_count_below_one_is_rejected(sample, trials):
    with pytest.raises(QentroError, match=f"trials must be >= 1, got {trials}"):
        sample(trials)


def test_results_carry_their_closed_form():
    plan = SteeringPlan.from_steps(12)
    steering = simulate_steering(plan, 50_000, np.random.default_rng(8))
    assert steering.expected_rate == steering_success_probability(plan)
    for strategy in protocol.EVE_STRATEGIES:
        attack = eve_attack_success(MIXED_KEY, strategy, 50_000, np.random.default_rng(9))
        assert attack.expected_rate == attack_success_probability(MIXED_KEY, strategy)
        assert abs(attack.z) <= 3.0
        assert type(attack) is type(steering) is montecarlo.RateEstimate
        # one survivor count per key position, thinning down to the successes
        survivors = attack.survivors_per_step
        assert survivors.shape == (MIXED_KEY.length,)
        assert np.all(np.diff(survivors) <= 0)
        assert survivors[-1] == attack.successes
    assert abs(steering.z) <= 3.0
    # guessed bits pass each 45-degree position with 1/2: 2^-k survive k positions
    trials, key = 50_000, SignatureKey.uniform(10)
    survivors = eve_attack_success(key, GUESS_BITS, trials, np.random.default_rng(10)).survivors_per_step
    for k, alive in enumerate(survivors, start=1):
        p = 2.0**-k
        assert abs(alive - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))


def test_stderr_and_z_follow_the_closed_form():
    result = montecarlo.RateEstimate(400, np.array([300, 110]), 0.25)
    assert result.successes == 110
    assert result.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 400), rel=1e-15)
    assert result.z == pytest.approx((110 / 400 - 0.25) / result.stderr, rel=1e-15)
    # a closed form of exactly 0 or 1 has no spread
    assert montecarlo.RateEstimate(10, np.array([10]), 1.0).z == 0.0
    assert montecarlo.RateEstimate(10, np.array([9]), 1.0).z == -math.inf


def test_a_result_cannot_change_after_it_is_made():
    survivors = np.array([300, 110])
    result = montecarlo.RateEstimate(400, survivors, 0.25)
    with pytest.raises(ValueError, match="read-only"):
        result.survivors_per_step[-1] = 9
    # the result holds its own copy, so the caller's array does not reach it
    survivors[-1] = 9
    assert result.successes == 110
    assert result.survivors_per_step.tolist() == [300, 110]


def test_results_hash():
    result = montecarlo.RateEstimate(400, np.array([300, 110]), 0.25)
    assert {result: 1}[result] == 1


def test_results_compare_by_identity():
    result = montecarlo.RateEstimate(400, np.array([300, 110]), 0.25)
    assert result == result
    assert result != montecarlo.RateEstimate(400, np.array([300, 110]), 0.25)


@pytest.mark.parametrize(
    "angle, per_position",
    [
        (math.pi / 4, {GUESS_BITS: 0.5, GUESS_ANGLES: 0.5 + 1 / math.pi, REPLAY: 0.5}),
        (0.0, {GUESS_BITS: 0.5, GUESS_ANGLES: 0.5, REPLAY: 1.0}),
    ],
)
def test_attack_success_probability_pinned(angle, per_position):
    for strategy, p in per_position.items():
        assert attack_success_probability(SignatureKey([angle]), strategy) == pytest.approx(p, abs=1e-15)
        assert attack_success_probability(SignatureKey.uniform(5, angle), strategy) == pytest.approx(p**5, rel=1e-12)


def test_attack_success_probability_multiplies_positions():
    # mixed key 0, pi/8, pi/4, pi/2: replay passes 1, 3/4, 1/2, 1
    assert attack_success_probability(MIXED_KEY, REPLAY) == pytest.approx(0.375, rel=1e-12)
    expected = 0.5 * (0.5 + math.sqrt(0.5) / math.pi) * (0.5 + 1 / math.pi) * 0.5
    assert attack_success_probability(MIXED_KEY, GUESS_ANGLES) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(QentroError):
        attack_success_probability(MIXED_KEY, "guess-everything")


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 + 3, 10**23])
def test_seeded_streams(seed):
    # no key is the plain seeded stream; a key is the spawned child stream
    assert montecarlo.seeded(seed).random(4).tolist() == np.random.default_rng(seed).random(4).tolist()
    child = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    assert montecarlo.seeded(seed, 7).random(4).tolist() == child.random(4).tolist()
    assert montecarlo.seeded(seed, 7).random(4).tolist() != montecarlo.seeded(seed, 8).random(4).tolist()
