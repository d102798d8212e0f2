"""The one constructor of seeded random streams, the one Monte Carlo
sampler, and the one record of its run, read against the closed form it
samples."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QentroError


def seeded(seed: int, *key: int) -> np.random.Generator:
    """The random stream of ``seed`` keyed by ``key``:
    ``default_rng(SeedSequence(entropy=seed, spawn_key=key))``.  With no key
    it is the stream of ``default_rng(seed)``, and streams with different
    keys are independent whatever order they are drawn in."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def thin(trials: int, pass_probs, rng: np.random.Generator) -> np.ndarray:
    """Survivors after each step of ``trials`` independent trials, each of
    which passes step k with probability ``pass_probs[k]`` or drops out.

    The trials are exchangeable, so only their count is tracked: step k
    draws ``Binomial(survivors_{k-1}, pass_probs[k])``, one scalar draw per
    step whatever ``trials`` is, with exactly the law of drawing every
    trial.  Drawing stops once no trial survives; later steps read 0.
    ``trials`` must be at least 1."""
    if trials < 1:
        raise QentroError(f"trials must be >= 1, got {trials!r}")
    survivors = np.zeros(len(pass_probs), dtype=int)
    alive = trials
    for k, p in enumerate(pass_probs):
        alive = int(rng.binomial(alive, p))
        survivors[k] = alive
        if alive == 0:
            break
    return survivors


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """One ``thin`` run of ``trials`` trials: the survivors after each step
    (``survivors_per_step``, as ``thin`` returns them) and the closed-form
    probability ``expected_rate`` that a trial passes every step.  The
    trials that pass every step are its successes.

    The survivors are held as a read-only copy, so a result cannot change
    after it is made.  Results compare and hash by identity: an array field
    has no truth value to compare by."""

    trials: int
    survivors_per_step: np.ndarray
    expected_rate: float

    def __post_init__(self):
        survivors = np.array(self.survivors_per_step)
        survivors.flags.writeable = False
        object.__setattr__(self, "survivors_per_step", survivors)

    @property
    def successes(self) -> int:
        return int(self.survivors_per_step[-1])

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        """Standard error of ``success_rate`` under the closed form."""
        p = self.expected_rate
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def z(self) -> float:
        """Distance of ``success_rate`` from the closed form in standard
        errors."""
        diff = self.success_rate - self.expected_rate
        stderr = self.stderr
        if stderr > 0.0:
            return diff / stderr
        # a closed form of exactly 0 or 1 has no spread: any miss is infinitely far
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
