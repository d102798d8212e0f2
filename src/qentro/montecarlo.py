"""Shared reading of a Monte Carlo success count against its closed form."""

import math


class RateEstimate:
    """Mixin for a frozen result with ``successes`` out of ``trials`` and the
    closed-form success probability ``expected_rate`` it samples (NaN when
    the law is not known)."""

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
        if stderr > 0.0 or math.isnan(stderr):
            return diff / stderr
        # a closed form of exactly 0 or 1 has no spread: any miss is infinitely far
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
