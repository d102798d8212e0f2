"""The receiver's game: estimating a hidden polarization angle from
identically prepared qubit copies, and the signature protocol built on it.

The source emits copies of ``cos(theta)|0> + sin(theta)|1>`` for a hidden
``theta``; measuring a copy in a basis rotated by ``b`` yields outcome 0
with probability ``cos^2(theta - b)``.  The angle is sealed behind the
sampling interface: estimators only see counts of outcomes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QentroError
from .linalg import as_vector
from .montecarlo import RateEstimate, seeded, thin

HALF_PI = math.pi / 2.0

GUESS_BITS = "guess-bits"
GUESS_ANGLES = "guess-angles"
REPLAY = "replay"
EVE_STRATEGIES = (GUESS_BITS, GUESS_ANGLES, REPLAY)


class HiddenQubitSource:
    """Emits copies of a qubit state at a hidden angle in [0, pi/2].

    Each batch of copies is drawn from the stream keyed by an integer
    ``stream``, ``montecarlo.seeded(seed, stream)``, so work split per
    hypothesis or per round does not depend on its order.  A key
    names one batch: drawing the same batch again repeats its outcomes.
    ``copies_used`` counts every copy measured, over all streams.
    """

    def __init__(self, secret_theta: float, seed: int = 0):
        theta = float(secret_theta)
        if not 0.0 <= theta <= HALF_PI:
            raise QentroError(f"hidden angle must lie in [0, pi/2], got {theta!r}")
        self._theta = theta
        self._seed = int(seed)
        self.copies_used = 0

    def measure_batch(self, basis_angle: float, shots: int, stream: int) -> int:
        """Measure ``shots`` fresh copies in one basis on stream ``stream``;
        returns the count of 0 outcomes, a binomial draw with success
        probability cos^2(theta - basis_angle)."""
        if shots < 1:
            raise QentroError(f"shots must be >= 1, got {shots!r}")
        rng = seeded(self._seed, int(stream))
        self.copies_used += shots
        p_zero = math.cos(self._theta - basis_angle) ** 2
        return int(rng.binomial(shots, p_zero))


@dataclass(frozen=True)
class QuantizationGrid:
    """n candidate angles ``(j + 1/2) * (pi/2) / n`` spread over [0, pi/2]."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise QentroError(f"grid needs at least 2 levels, got {self.levels!r}")

    @property
    def hypotheses(self) -> np.ndarray:
        n = self.levels
        return (np.arange(n) + 0.5) * HALF_PI / n


@dataclass(frozen=True)
class BruteForceEstimate:
    theta_hat: float
    copies_used: int


def estimate_theta_bruteforce(
    source: HiddenQubitSource, grid: QuantizationGrid, shots_per_hypothesis: int
) -> BruteForceEstimate:
    """Score every grid hypothesis by measuring shots in its own basis.

    Hypothesis j is scored by its count of 0 outcomes (expected
    ``shots * cos^2(theta - theta_j)``, maximal when aligned); the winner is
    the argmax with lowest-index tie-breaking.  Hypothesis j draws from the
    source's stream j, so evaluation order is irrelevant.  ``copies_used``
    is what the source counted for this estimate.
    """
    hypotheses = grid.hypotheses
    spent = source.copies_used
    # measure_batch rejects a shot count below 1
    zeros = np.array([source.measure_batch(float(b), shots_per_hypothesis, j) for j, b in enumerate(hypotheses)])
    winner = int(np.argmax(zeros))  # argmax returns the first maximal index
    return BruteForceEstimate(theta_hat=float(hypotheses[winner]), copies_used=source.copies_used - spent)


@dataclass(frozen=True)
class AdaptiveEstimate:
    """Outcome of ``estimate_theta_adaptive``.

    ``halfwidth`` is the halfwidth of the last bisection interval, which
    ``theta_hat`` is the midpoint of; it is not a confidence interval.  Once
    the two probes of a round lie closer than about ``1/sqrt(shots)``, the
    round's choice of half is close to a coin flip, and later rounds shrink
    the interval without learning the angle: at 200 shots per probe, the
    hidden angle lay outside ``theta_hat +- halfwidth`` in 79-100 % of runs.
    """

    theta_hat: float
    halfwidth: float
    copies_used: int
    rounds: int


def estimate_theta_adaptive(
    source: HiddenQubitSource, target_halfwidth: float, confidence_shots: int = 200
) -> AdaptiveEstimate:
    """Interval bisection on [0, pi/2], homing in on the hidden angle.

    Each round probes the midpoints of the two candidate half-intervals
    with ``confidence_shots`` copies apiece and keeps the half whose probe
    basis collected more 0 outcomes (probing the full-interval midpoint
    itself cannot work: cos^2 is symmetric about the probe axis, so a
    centered probe carries no side information).  Round r = 1, 2, ... draws
    its left probe from the source's stream 2r and its right probe from
    stream 2r + 1.  Rounds continue until the interval halfwidth is at most
    the target; the estimate is the final midpoint.  ``copies_used`` is
    what the source counted for this estimate.
    """
    if not target_halfwidth > 0:  # also rejects NaN
        raise QentroError(f"target halfwidth must be positive, got {target_halfwidth!r}")
    if confidence_shots < 1:
        raise QentroError(f"confidence_shots must be >= 1, got {confidence_shots!r}")
    lo, hi = 0.0, HALF_PI
    spent = source.copies_used
    rounds = 0
    while (hi - lo) / 2.0 > target_halfwidth:
        mid = (lo + hi) / 2.0
        probe_left = (lo + mid) / 2.0
        probe_right = (mid + hi) / 2.0
        rounds += 1
        zeros_left = source.measure_batch(probe_left, confidence_shots, 2 * rounds)
        zeros_right = source.measure_batch(probe_right, confidence_shots, 2 * rounds + 1)
        if zeros_left >= zeros_right:  # tie goes left for determinism
            hi = mid
        else:
            lo = mid
    return AdaptiveEstimate(
        theta_hat=(lo + hi) / 2.0,
        halfwidth=(hi - lo) / 2.0,
        copies_used=source.copies_used - spent,
        rounds=rounds,
    )


class SignatureKey:
    """Shared secret: a sequence of polarization angles in [0, pi/2]."""

    def __init__(self, angles):
        arr = as_vector(angles, "key angles")
        if arr.size < 1:
            raise QentroError("a signature key needs at least one angle")
        if np.isnan(arr).any():
            raise QentroError("key angles must not be NaN")
        if arr.min() < 0.0 or arr.max() > HALF_PI:
            raise QentroError("key angles must lie in [0, pi/2]")
        arr.setflags(write=False)
        self.angles = arr

    @classmethod
    def uniform(cls, n: int, angle: float = math.pi / 4.0) -> "SignatureKey":
        # n <= 0 gives no angle, which the constructor rejects
        return cls([angle] * n)

    @property
    def length(self) -> int:
        return self.angles.size


def verify_signature(key: SignatureKey, prepared_angles, rng: np.random.Generator) -> bool:
    """Measure photon k in the basis of key angle k; accept iff every
    outcome is 0.  An honest stream is accepted with probability 1 (every
    photon is aligned with its verification basis)."""
    prepared = as_vector(prepared_angles, "prepared angles")
    if prepared.size != key.length:
        raise QentroError(f"stream length {prepared.size} != key length {key.length}")
    p_zero = np.cos(prepared - key.angles) ** 2
    return bool(np.all(rng.random(key.length) < p_zero))


def _pass_probabilities(key: SignatureKey, strategy: str) -> np.ndarray:
    a = key.angles
    if strategy == GUESS_BITS:
        return np.full(a.shape, 0.5)
    if strategy == REPLAY:
        return np.cos(a) ** 4 + np.sin(a) ** 4
    if strategy == GUESS_ANGLES:
        return 0.5 + np.sin(2.0 * a) / math.pi
    raise QentroError(f"strategy must be one of {EVE_STRATEGIES}, got {strategy!r}")


def attack_success_probability(key: SignatureKey, strategy: str) -> float:
    """Closed-form acceptance rate of ``strategy`` against ``key``: the
    product over positions of the probability of passing one position at
    key angle a.  guess-bits prepares 0 or pi/2 by a fair coin and passes
    with 1/2; replay (intercept-resend) prepares the computational-basis
    outcome of one honest photon, 0 with probability cos^2 a, and passes
    with cos^4 a + sin^4 a; guess-angles prepares a uniform angle in
    [0, pi/2] and passes with cos^2 averaged over it, 1/2 + sin(2a)/pi.  An
    unknown strategy raises ``QentroError``."""
    return float(np.prod(_pass_probabilities(key, strategy)))


def eve_attack_success(
    key: SignatureKey, strategy: str, trials: int, rng: np.random.Generator
) -> RateEstimate:
    """Forged streams the verifier accepts out of ``trials``, and how many
    are still unrejected after each key position.

    Each forged photon is prepared independently of the others and passes
    its key position with a fixed probability (see
    ``attack_success_probability``), and the verifier rejects a stream at
    its first failing position, so the trials are thinned position by
    position by ``montecarlo.thin``: one draw per position whatever
    ``trials`` is, with exactly the law of drawing every trial.

    A forger who guesses computational-basis bits against an all-45-degree
    key passes each position with probability 1/2, so the acceptance rate
    is 2^-n."""
    survivors = thin(trials, _pass_probabilities(key, strategy), rng)
    return RateEstimate(trials, survivors, attack_success_probability(key, strategy))


def estimation_row(n: int, shots: int, theta_true: float, estimate, seed: int) -> dict:
    """One row scoring an angle estimate (a ``BruteForceEstimate`` or an
    ``AdaptiveEstimate``) against the true angle.

    Columns: n, shots, theta_true, theta_hat, error, copies_used, seed.
    """
    return {
        "n": n,
        "shots": shots,
        "theta_true": theta_true,
        "theta_hat": estimate.theta_hat,
        "error": abs(estimate.theta_hat - theta_true),
        "copies_used": estimate.copies_used,
        "seed": seed,
    }


def attack_row(key: SignatureKey, strategy: str, trials: int, seed: int) -> dict:
    """One row of forgery statistics of ``strategy`` against ``key``, from
    ``eve_attack_success`` run on the stream of ``seed``.

    Columns: n, strategy, trials, successes, rate, seed.
    """
    result = eve_attack_success(key, strategy, trials, seeded(seed))
    return {
        "n": key.length,
        "strategy": strategy,
        "trials": result.trials,
        "successes": result.successes,
        "rate": result.success_rate,
        "seed": seed,
    }
