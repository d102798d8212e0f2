"""Single-photon interferometer with a blockable lower arm.

Three arrangements are modeled: a rigid mirror (every photon reaches
detector D1), a springy mirror that absorbs the photon on the lower path
(absorbed 1/2, D1 1/4, D2 1/4), and an unknown mirror that is springy with
some prior probability.  A D2 click only ever happens with the springy
mirror, which is what makes the click informative without the photon
having touched the mirror.

The whole law is one joint table P(mirror, outcome), the prior-weighted
rows of P(outcome | mirror): its column sums are the outcome distribution,
a column's springy share is the Bayes posterior, and the flattened table is
the latent-mirror multinomial.  Rigid is prior 0 and springy prior 1.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .entropy import BITS, EntropyResult, shannon
from .errors import QentroError
from .montecarlo import seeded

ABSORBED = "absorbed"
D1 = "d1"
D2 = "d2"
OUTCOMES = (ABSORBED, D1, D2)

RIGID = "rigid"
SPRINGY = "springy"
UNKNOWN = "unknown"

# P(outcome | mirror): rows rigid, springy; columns in OUTCOMES order
_LIKELIHOOD = ((0.0, 1.0, 0.0), (0.5, 0.25, 0.25))


@dataclass(frozen=True)
class MirrorModel:
    """Mirror arrangement: rigid, springy, or springy with probability
    ``prior_springy``, which only the unknown kind takes, 0.5 when not given.
    ``joint``, built here once, is its law: the module docstring's table,
    which every reader of the law reads and which equality, hashing and the
    repr ignore."""

    kind: str
    prior_springy: Optional[float] = None
    joint: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (RIGID, SPRINGY, UNKNOWN):
            raise QentroError(f"unknown mirror kind {self.kind!r}")
        if self.kind == UNKNOWN:
            if self.prior_springy is None:
                object.__setattr__(self, "prior_springy", 0.5)
            if not 0.0 <= self.prior_springy <= 1.0:
                raise QentroError(f"prior must lie in [0, 1], got {self.prior_springy!r}")
        elif self.prior_springy is not None:
            raise QentroError(f"a {self.kind} mirror takes no prior, got {self.prior_springy!r}")
        # rigid is prior 0 and springy prior 1; a prior of -0.0 reads as 0.0, so no cell is -0.0
        prior = {RIGID: 0.0, SPRINGY: 1.0}.get(self.kind, self.prior_springy) + 0.0
        rigid, springy = _LIKELIHOOD
        joint = (tuple((1.0 - prior) * p for p in rigid), tuple(prior * p for p in springy))
        object.__setattr__(self, "joint", joint)

    def _posterior(self, outcome):
        # the springy share of the outcome's column of the table; None if the column is 0
        rigid, springy = (row[OUTCOMES.index(outcome)] for row in self.joint)
        return springy / (rigid + springy) if rigid + springy else None


def outcome_distribution(mirror: MirrorModel) -> dict:
    """Outcome probabilities for an arrangement, keyed by ``OUTCOMES``: the
    column sums of its joint table, so the unknown case is the
    prior-weighted mixture of the rigid and springy cases."""
    return dict(zip(OUTCOMES, (r + s for r, s in zip(*mirror.joint))))


def arrangement_entropy(mirror: MirrorModel, base: str = BITS) -> EntropyResult:
    """Shannon entropy of the click distribution (zero-probability outcomes
    contribute nothing, so the rigid arrangement scores exactly 0)."""
    return shannon(list(outcome_distribution(mirror).values()), base)


def posterior_springy(prior: float, outcome: str) -> float:
    """Posterior probability that the mirror is springy given one outcome,
    by Bayes' rule over the rigid/springy conditional distributions.

    Raises ``QentroError`` when the prior assigns the outcome zero
    probability.  An absorption is conclusive (the rigid arrangement never
    absorbs), as is a D2 click.
    """
    mirror = MirrorModel(UNKNOWN, prior)
    if outcome not in OUTCOMES:
        raise QentroError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
    posterior = mirror._posterior(outcome)
    if posterior is None:
        raise QentroError(f"outcome {outcome!r} has probability 0 at prior {prior!r}")
    return posterior


def _draw(count: int, cells, probs, rng: np.random.Generator) -> dict:
    # one multinomial draw of count photons over the cells, as plain ints
    if count < 1:
        raise QentroError(f"photon count must be >= 1, got {count!r}")
    return dict(zip(cells, (int(c) for c in rng.multinomial(count, probs))))


def simulate_photons(mirror: MirrorModel, count: int, rng: np.random.Generator) -> dict:
    """Multinomial photon counts per outcome; deterministic given the seed."""
    return _draw(count, OUTCOMES, list(outcome_distribution(mirror).values()), rng)


def simulate_latent_mirror(prior: float, count: int, rng: np.random.Generator) -> dict:
    """Simulate the unknown arrangement with the mirror as a latent variable.

    Each photon finds the mirror springy with probability ``prior`` and
    then an outcome from that mirror's distribution, so the counts of the
    six joint (mirror, outcome) cells are one multinomial draw.  Returns
    counts keyed by ``(mirror_kind, outcome)``; the springy fraction among
    D1 clicks estimates the Bayes posterior empirically.
    """
    # numpy's multinomial gives the last cell whatever the others leave; in
    # this order that is springy D2, so rounding never puts a photon in a
    # cell of probability 0
    probs = [p for row in MirrorModel(UNKNOWN, prior).joint for p in row]
    cells = [(kind, outcome) for kind in (RIGID, SPRINGY) for outcome in OUTCOMES]
    return _draw(count, cells, probs, rng)


def mirror_position_uncertainty(wavelength: float) -> float:
    """Lower bound ``lambda / (4 pi)`` on the position spread of a mirror
    that must register a photon of the given wavelength."""
    if not math.isfinite(wavelength):
        raise QentroError(f"wavelength must be finite, got {wavelength!r}")
    if wavelength <= 0:
        raise QentroError(f"wavelength must be positive, got {wavelength!r}")
    return wavelength / (4.0 * math.pi)


def arrangement_rows(mirror: MirrorModel, photons: int, seed: int) -> list[dict]:
    """One row summarizing an arrangement: exact distribution and entropy,
    for the unknown arrangement the posterior after each outcome (empty for
    an outcome the prior makes impossible), and, unless ``photons`` is 0,
    photon counts simulated from ``seed``."""
    row = {
        "arrangement": mirror.kind,
        "prior": "" if mirror.prior_springy is None else mirror.prior_springy,
        **{f"p_{outcome}": p for outcome, p in outcome_distribution(mirror).items()},
        "entropy_bits": arrangement_entropy(mirror).value,
        "seed": seed,
    }
    if mirror.kind == UNKNOWN:
        for outcome in (D1, D2, ABSORBED):
            posterior = mirror._posterior(outcome)
            row[f"posterior_{outcome}"] = "" if posterior is None else posterior
    if photons != 0:
        counts = simulate_photons(mirror, photons, seeded(seed))
        for outcome in OUTCOMES:
            row[f"count_{outcome}"] = counts[outcome]
    return [row]
