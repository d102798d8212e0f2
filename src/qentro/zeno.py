"""Survival of a state under a Hamiltonian and its short-time
approximation, both read off the Hamiltonian's cached spectrum with no
state evolved, and measurement-driven dynamics: survival freezing under
repeated observation and steering a qubit through a ladder of rotated
measurement bases.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import QentroError
from .linalg import DEFAULT_TOL
from .montecarlo import RateEstimate, seeded, thin
from .states import PureState

HALF_PI = math.pi / 2.0


class Hamiltonian:
    """Time-independent Hermitian generator, in units where hbar = 1.

    The matrix is validated and symmetrized once, here; its spectrum is
    computed on the first ``eigen()`` call and cached.
    """

    def __init__(self, matrix):
        # halved before the difference and the sum below, which then cannot
        # overflow; halving is exact for entries in the normal float range
        half = linalg.as_matrix(matrix, "Hamiltonian") / 2
        if linalg.max_abs(half - half.conj().T) > DEFAULT_TOL / 2:
            raise QentroError(f"Hamiltonian must be Hermitian within {DEFAULT_TOL}")
        m = half + half.conj().T
        m.setflags(write=False)
        self.matrix = m
        self._eigen = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigen(self):
        """``np.linalg.eigh`` of the matrix: ascending eigenvalues ``w`` and
        orthonormal eigenvector columns ``v``, computed once and cached."""
        if self._eigen is None:
            self._eigen = np.linalg.eigh(self.matrix)
        return self._eigen


def _finite_phase(x: float, t) -> float:
    """``x``, a product of energies and times computed in Python floats,
    which overflow to inf without a warning; refused when not finite,
    before numpy sees it."""
    if not math.isfinite(x):
        raise QentroError(f"t={t!r} puts E t out of floating-point range")
    return x


def zeno_survival(h: Hamiltonian, t: float, n: int, psi0: PureState, mode: str = "exact") -> float:
    """Probability of still finding ``psi0`` after n projective observations
    spread over total time t (projective reset onto psi0 each step).

    Both modes read the spectrum ``h.eigen()`` caches, the energies ``E_k``
    and the weights ``p_k = |<v_k|psi0>|^2``.  ``exact`` compounds the
    per-interval survival ``|sum_k p_k exp(-i E_k t/n)|^2``; ``second_order``
    uses the linearized ``1 - (dE)^2 t^2 / n``, the short-time expansion,
    with ``(dE)^2 = sum_k p_k (E_k - sum_j p_j E_j)^2``, which at n = 1
    differs from the exact survival by O(t^4); the gap between the two is
    the term the linearization drops.  The exact mode tends to 1 as n grows.
    """
    # t is read before any arithmetic, as a Python float, whose products
    # overflow to inf without a numpy warning
    if not math.isfinite(t):
        raise QentroError(f"time t must be finite, got {t!r}")
    t = float(t)
    if n < 1:
        raise QentroError(f"observation count must be >= 1, got {n!r}")
    if mode not in ("exact", "second_order"):
        raise ValueError(f"mode must be 'exact' or 'second_order', got {mode!r}")
    if h.dim != psi0.dim:
        raise QentroError(f"Hamiltonian dim {h.dim} != state dim {psi0.dim}")
    w, v = h.eigen()
    c = v.conj().T @ psi0.amplitudes
    p = (c * c.conj()).real
    if mode == "exact":
        tau = t / n
        _finite_phase(float(np.abs(w).max()) * abs(tau), t)  # the largest phase
        amp = np.dot(p, np.exp(-1j * w * tau))
        return min(abs(amp) ** 2, 1.0) ** n
    # energies scaled exactly, by a power of two, to below 1 in modulus, so that
    # no difference or square overflows; unlike <H^2> - <H>^2, the spread about
    # the mean does not cancel when the mean is large
    exp = math.frexp(float(np.abs(w).max()))[1]
    scaled = np.ldexp(w, -exp)
    var = float(np.dot(p, (scaled - np.dot(p, scaled)) ** 2))
    try:
        var = math.ldexp(var, 2 * exp)
    except OverflowError:
        raise QentroError("energy variance of the state is out of floating-point range") from None
    return 1.0 - _finite_phase(var * t * t, t) / n


@dataclass(frozen=True)
class SteeringPlan:
    """Rotate-by-theta-per-step measurement schedule covering a quarter turn
    in ``n_steps = round(pi / (2 theta))`` steps, at least one."""

    theta_step: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.theta_step <= HALF_PI:
            raise QentroError(f"step angle must be in (0, pi/2], got {self.theta_step!r}")
        steps = HALF_PI / self.theta_step
        if not math.isfinite(steps):
            raise QentroError(f"step angle {self.theta_step!r} rad is too small: pi/2 over it is not finite")
        object.__setattr__(self, "n_steps", int(round(steps)))

    @classmethod
    def from_steps(cls, n: int) -> "SteeringPlan":
        # the plan rounds pi/2 over this angle back to n, for every n far past the CLI's work limit
        if n < 1:
            raise QentroError(f"n_steps must be >= 1, got {n!r}")
        return cls(HALF_PI / n)


def steering_success_probability(plan: SteeringPlan) -> float:
    """Closed-form probability ``(cos^2 theta)^n`` that every one of the n
    rotated projections takes the forward branch."""
    return float(np.cos(plan.theta_step) ** (2 * plan.n_steps))


def simulate_steering(plan: SteeringPlan, trials: int, rng: np.random.Generator) -> RateEstimate:
    """Monte Carlo steering: each trial starts at |0> and is measured in
    bases rotated by cumulative k*theta.

    After a forward collapse at step k the state is exactly the step-k basis
    state, so each step is an independent forward collapse with probability
    cos^2(theta); a single backward collapse makes the trial a failure (no
    resampling).  The trials are thinned by ``montecarlo.thin``, one draw
    per step.  The result's ``survivors_per_step`` records how many trials
    are still on the forward ladder after each step, and its
    ``expected_rate`` is ``steering_success_probability(plan)``.
    """
    p_forward = float(np.cos(plan.theta_step) ** 2)
    return RateEstimate(trials, thin(trials, [p_forward] * plan.n_steps, rng), steering_success_probability(plan))


def steering_rows(plans, trials: int, seed: int) -> list[dict]:
    """Closed form vs Monte Carlo, one row per plan in ``plans``.  Each plan
    runs ``trials`` trials on the stream of ``seed`` keyed by its step
    count, so a plan's row is the same whether it is run alone or among
    others, and rows are deterministic for a fixed seed.

    Columns: n_steps, theta_deg, closed_form_prob, empirical_prob, trials,
    seed.
    """
    rows = []
    for plan in plans:
        result = simulate_steering(plan, trials, seeded(seed, plan.n_steps))
        rows.append(
            {
                "n_steps": plan.n_steps,
                "theta_deg": math.degrees(plan.theta_step),
                "closed_form_prob": result.expected_rate,
                "empirical_prob": result.success_rate,
                "trials": result.trials,
                "seed": seed,
            }
        )
    return rows
