import math

import numpy as np
import pytest

from qentro.errors import QentroError
from qentro.montecarlo import RateEstimate
from qentro.protocol import (
    GUESS_ANGLES,
    GUESS_BITS,
    REPLAY,
    HiddenQubitSource,
    QuantizationGrid,
    SignatureKey,
    estimate_theta_adaptive,
    estimate_theta_bruteforce,
    eve_attack_success,
    verify_signature,
)

HALF_PI = math.pi / 2


def test_source_validates_angle():
    with pytest.raises(QentroError):
        HiddenQubitSource(-0.1)
    with pytest.raises(QentroError):
        HiddenQubitSource(2.0)


def test_measure_aligned_basis_always_zero():
    src = HiddenQubitSource(0.7, seed=1)
    assert src.measure_batch(0.7, 100, 0) == 100
    assert src.copies_used == 100


def test_measure_orthogonal_basis_always_one():
    src = HiddenQubitSource(0.0, seed=2)
    assert src.measure_batch(HALF_PI, 100, 0) == 0


def test_measure_unbiased_at_45_degrees():
    src = HiddenQubitSource(0.0, seed=3)
    shots = 100_000
    zeros = src.measure_batch(math.pi / 4, shots, 0)
    assert abs(zeros / shots - 0.5) <= 0.005


def test_measure_frequencies_on_angle_grid():
    # 9x9 grid of (theta, basis); batch frequencies against cos^2 within
    # 3 binomial sigmas (exact when the probability degenerates to 0 or 1)
    shots = 100_000
    angles = np.linspace(0.0, HALF_PI, 9)
    for i, theta in enumerate(angles):
        for j, basis in enumerate(angles):
            src = HiddenQubitSource(float(theta), seed=500 + 9 * i + j)
            p = math.cos(theta - basis) ** 2
            zeros = src.measure_batch(float(basis), shots, 0)
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(zeros / shots - p) <= max(3 * sigma, 1e-12)


def test_source_streams_are_reproducible_and_independent():
    a = HiddenQubitSource(0.4, seed=9)
    b = HiddenQubitSource(0.4, seed=9)
    assert [a.measure_batch(0.1, 50, k) for k in range(20)] == [
        b.measure_batch(0.1, 50, k) for k in range(20)
    ]
    src = HiddenQubitSource(0.4, seed=9)
    seq0 = [src.measure_batch(0.9, shots, 0) for shots in range(1, 201)]
    seq1 = [src.measure_batch(0.9, shots, 1) for shots in range(1, 201)]
    assert seq0 != seq1


def test_bruteforce_recovers_on_grid_angle():
    grid = QuantizationGrid(8)
    theta = float(grid.hypotheses[5])
    for seed in range(20):
        src = HiddenQubitSource(theta, seed=seed)
        est = estimate_theta_bruteforce(src, grid, 10_000)
        assert est.theta_hat == theta
    assert est.copies_used == 8 * 10_000


def test_bruteforce_two_level_grid():
    # theta = 0 scores cos^2(pi/8) on the lower hypothesis vs cos^2(3 pi/8)
    grid = QuantizationGrid(2)
    for seed in range(50):
        src = HiddenQubitSource(0.0, seed=seed)
        est = estimate_theta_bruteforce(src, grid, 1000)
        assert est.theta_hat == grid.hypotheses[0]


def test_bruteforce_single_shot_degenerate():
    # one shot per hypothesis: legal, high-variance; just record the spread
    grid = QuantizationGrid(8)
    estimates = {
        estimate_theta_bruteforce(HiddenQubitSource(0.3, seed=s), grid, 1).theta_hat
        for s in range(30)
    }
    assert estimates <= set(grid.hypotheses)
    assert len(estimates) > 1  # visibly noisier than the calibrated regime


def test_bruteforce_calibrated_shot_budget():
    # empirical calibration (frozen): with shots = ceil(c n^2 ln n) and
    # c = 1, recovery within one grid spacing held in 200/200 runs for
    # n in {4, 8, 16}; re-checked here at n = 8 with the 99% requirement
    n = 8
    shots = int(math.ceil(1.0 * n * n * math.log(n)))
    grid = QuantizationGrid(n)
    rng = np.random.default_rng(999)
    hits = 0
    runs = 200
    for r in range(runs):
        theta = float(rng.uniform(0, HALF_PI))
        est = estimate_theta_bruteforce(HiddenQubitSource(theta, seed=r), grid, shots)
        hits += abs(est.theta_hat - theta) <= HALF_PI / n
    assert hits >= 0.99 * runs


def test_bruteforce_permutation_stable():
    # per-hypothesis streams are keyed by hypothesis index, so the counts the
    # estimator receives are the grid's draws in any order: hypothesis j's
    # from stream j
    class LoggedSource(HiddenQubitSource):
        def __init__(self, secret_theta, seed):
            super().__init__(secret_theta, seed)
            self.log = []

        def measure_batch(self, basis_angle, shots, stream):
            count = super().measure_batch(basis_angle, shots, stream)
            self.log.append((stream, count))
            return count

    grid = QuantizationGrid(6)
    src = LoggedSource(0.5, seed=31)
    est = estimate_theta_bruteforce(src, grid, 500)
    shuffled = HiddenQubitSource(0.5, seed=31)
    reversed_draws = {j: shuffled.measure_batch(float(grid.hypotheses[j]), 500, j) for j in reversed(range(6))}
    assert src.log == [(j, reversed_draws[j]) for j in range(6)]
    # the winner is the first hypothesis with the most 0 outcomes
    counts = [count for _, count in src.log]
    assert est.theta_hat == grid.hypotheses[counts.index(max(counts))]


def test_bruteforce_validates_shots():
    # the source owns the rule; the grid estimator reaches it on its first batch
    with pytest.raises(QentroError, match="^shots must be >= 1, got 0$"):
        estimate_theta_bruteforce(HiddenQubitSource(0.1), QuantizationGrid(4), 0)
    with pytest.raises(QentroError, match="^shots must be >= 1, got 0$"):
        HiddenQubitSource(0.1).measure_batch(0.0, 0, 0)


def test_adaptive_bisection_keeps_the_left_half_on_a_tie():
    class TiedSource:
        # both probes of every round collect the same count
        copies_used = 0

        def measure_batch(self, basis_angle, shots, stream):
            self.copies_used += shots
            return shots // 2

    est = estimate_theta_adaptive(TiedSource(), math.pi / 32, confidence_shots=10)
    # three rounds, each keeping [lo, mid]: the interval is [0, pi/16]
    assert (est.rounds, est.theta_hat, est.halfwidth) == (3, math.pi / 32, math.pi / 32)
    assert est.copies_used == 60


def test_adaptive_takes_one_shot_per_probe():
    # the fewest shots a probe may take: [0, pi/2] halved twice reaches 0.2
    est = estimate_theta_adaptive(HiddenQubitSource(0.5), 0.2, confidence_shots=1)
    assert (est.rounds, est.copies_used) == (2, 4)


def test_adaptive_reaches_target_near_zero():
    target = math.pi / 64
    hits = 0
    runs = 50
    for seed in range(runs):
        src = HiddenQubitSource(0.0, seed=seed)
        est = estimate_theta_adaptive(src, target, confidence_shots=200)
        assert est.halfwidth <= target
        hits += abs(est.theta_hat - 0.0) <= target + 1e-12
    assert hits >= 0.95 * runs


@pytest.mark.parametrize("target", [math.pi / 8, math.pi / 64, 1e-3])
def test_adaptive_probes_draw_distinct_streams_and_report_the_final_halfwidth(target):
    src = HiddenQubitSource(0.7, seed=3)
    streams = []
    measure = src.measure_batch

    def recorded(basis_angle, shots, stream):
        streams.append(stream)
        return measure(basis_angle, shots, stream)

    src.measure_batch = recorded
    est = estimate_theta_adaptive(src, target, confidence_shots=50)
    # round r draws its left probe from stream 2r and its right from 2r + 1
    assert streams == list(range(2, 2 * est.rounds + 2))
    # r halvings of [0, pi/2] leave an interval of halfwidth pi/2 / 2^(r + 1),
    # the first one at most the target
    assert est.halfwidth == pytest.approx(HALF_PI / 2 ** (est.rounds + 1), rel=1e-12)
    assert est.halfwidth <= target < 2 * est.halfwidth


def test_adaptive_immediate_return_for_loose_target():
    src = HiddenQubitSource(0.3, seed=0)
    est = estimate_theta_adaptive(src, math.pi / 4)
    assert est.rounds == 0
    assert est.copies_used == 0
    assert est.theta_hat == pytest.approx(math.pi / 4)


def test_adaptive_cheaper_than_bruteforce_at_matched_precision():
    # head-to-head fixture: adaptive at pi/64 vs a 64-level grid sweep
    rng = np.random.default_rng(12)
    adaptive_copies, brute_copies = [], []
    for run in range(20):
        theta = float(rng.uniform(0, HALF_PI))
        est_a = estimate_theta_adaptive(
            HiddenQubitSource(theta, seed=run), math.pi / 64, confidence_shots=200
        )
        adaptive_copies.append(est_a.copies_used)
        est_b = estimate_theta_bruteforce(
            HiddenQubitSource(theta, seed=run), QuantizationGrid(64), 1000
        )
        brute_copies.append(est_b.copies_used)
    assert np.median(adaptive_copies) < np.median(brute_copies)


def test_source_counts_the_copies_each_estimator_reports():
    src = HiddenQubitSource(0.6, seed=3)
    est = estimate_theta_bruteforce(src, QuantizationGrid(8), 300)
    assert src.copies_used == est.copies_used == 8 * 300
    src = HiddenQubitSource(0.6, seed=3)
    est = estimate_theta_adaptive(src, math.pi / 64, confidence_shots=120)
    assert est.rounds > 0
    assert src.copies_used == est.copies_used == est.rounds * 2 * 120


def test_estimates_drawn_from_one_source_each_count_only_their_own_copies():
    src = HiddenQubitSource(0.6, seed=3)
    first = estimate_theta_bruteforce(src, QuantizationGrid(8), 300)
    adaptive = estimate_theta_adaptive(src, math.pi / 64, confidence_shots=120)
    last = estimate_theta_bruteforce(src, QuantizationGrid(4), 50)
    assert first.copies_used == 8 * 300
    assert adaptive.rounds > 0 and adaptive.copies_used == adaptive.rounds * 2 * 120
    assert last.copies_used == 4 * 50
    assert src.copies_used == first.copies_used + adaptive.copies_used + last.copies_used


def test_signature_key_validation():
    with pytest.raises(QentroError, match="a signature key needs at least one angle"):
        SignatureKey([])
    with pytest.raises(QentroError):
        SignatureKey([0.1, 3.0])


def test_honest_verification_always_accepts():
    rng = np.random.default_rng(5)
    key = SignatureKey(rng.uniform(0, HALF_PI, size=12))
    verifier_rng = np.random.default_rng(6)
    assert all(verify_signature(key, key.angles, verifier_rng) for _ in range(200))


def test_tampered_position_always_rejects():
    key = SignatureKey.uniform(6, 0.3)
    stream = key.angles.copy()
    stream[2] = 0.3 + HALF_PI  # orthogonal state at one position
    rng = np.random.default_rng(8)
    rejections = sum(not verify_signature(key, stream, rng) for _ in range(1000))
    assert rejections == 1000


def test_verify_length_mismatch():
    with pytest.raises(QentroError, match="stream length 3 != key length 4"):
        verify_signature(SignatureKey.uniform(4), np.zeros(3), np.random.default_rng(0))


def test_single_position_guess_acceptance_is_half():
    key = SignatureKey.uniform(1)
    result = eve_attack_success(key, GUESS_BITS, 100_000, np.random.default_rng(17))
    assert abs(result.success_rate - 0.5) <= 3 * math.sqrt(0.25 / 100_000)


def test_guess_bits_rate_scales_as_two_to_minus_n():
    n = 10
    trials = 1_000_000
    result = eve_attack_success(SignatureKey.uniform(n), GUESS_BITS, trials, np.random.default_rng(23))
    p = 2.0 ** -n
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(result.success_rate - p) <= 3 * sigma


def test_guess_angles_rate_against_45_degree_key():
    # random-angle forgeries pass one position with probability
    # E[cos^2(a - pi/4)] over a ~ U[0, pi/2] = 1/2 + 1/pi (by direct
    # integration), so the full-key rate is that to the n-th power
    n = 8
    trials = 500_000
    result = eve_attack_success(
        SignatureKey.uniform(n), GUESS_ANGLES, trials, np.random.default_rng(29)
    )
    p = (0.5 + 1.0 / math.pi) ** n
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(result.success_rate - p) <= 3 * sigma
    # still exponentially small, but far above the bit-guessing rate
    assert 2.0 ** -n < result.success_rate < 1.0


def test_basis_aligned_key_accepts_a_constant_guess():
    # degenerate key of all-zero angles: the fixed all-zeros bit guess is
    # aligned with every position and passes verification every time, so
    # keys must avoid the measurement basis
    key = SignatureKey(np.zeros(8))
    guess_zero_stream = np.zeros(8)
    rng = np.random.default_rng(53)
    assert all(verify_signature(key, guess_zero_stream, rng) for _ in range(1000))


def test_replay_breaks_a_basis_aligned_key():
    # a key of all-zero angles is insecure: intercept-resend observes the
    # exact bits and replays them successfully every time
    key = SignatureKey(np.zeros(6))
    result = eve_attack_success(key, REPLAY, 10_000, np.random.default_rng(31))
    assert result.success_rate == 1.0
    # against the diagonal key, replay collapses to coin flips
    result45 = eve_attack_success(SignatureKey.uniform(8), REPLAY, 500_000, np.random.default_rng(37))
    p = 2.0 ** -8
    assert abs(result45.success_rate - p) <= 3 * math.sqrt(p * (1 - p) / 500_000)


def test_accepted_forgery_does_not_replay_at_future_times():
    # find one accepted guessed bitstring, then re-verify that exact stream
    # against fresh photons: acceptance stays near 2^-n, nowhere near 1
    n = 8
    key = SignatureKey.uniform(n)
    rng = np.random.default_rng(41)
    accepted = None
    for _ in range(200_000):
        bits = rng.integers(0, 2, size=n)
        stream = bits * HALF_PI
        if verify_signature(key, stream, rng):
            accepted = stream
            break
    assert accepted is not None
    reverifications = 200_000
    hits = sum(verify_signature(key, accepted, rng) for _ in range(reverifications))
    p = 2.0 ** -n
    sigma = math.sqrt(p * (1 - p) / reverifications)
    assert abs(hits / reverifications - p) <= 3 * sigma
    assert hits / reverifications < 0.05


def test_attack_result_rate():
    assert RateEstimate(100, np.array([50, 25]), 0.25).success_rate == 0.25


def test_an_unknown_strategy_is_named_before_a_bad_trial_count():
    with pytest.raises(QentroError, match="strategy must be one of"):
        eve_attack_success(SignatureKey.uniform(3), "bogus", 0, np.random.default_rng(0))


def test_signature_key_rejects_nonpositive_length_and_nan():
    for n in (0, -1):
        with pytest.raises(QentroError, match="a signature key needs at least one angle"):
            SignatureKey.uniform(n)
    with pytest.raises(QentroError, match="key angles must not be NaN"):
        SignatureKey([0.1, math.nan])


def test_adaptive_rejects_nan_target():
    with pytest.raises(QentroError, match="halfwidth"):
        estimate_theta_adaptive(HiddenQubitSource(0.3), math.nan)
