"""Pieces shared by the three workloads: the operation record, the workload
record, and the reference formulas the correctness checks compare against.

The references here are independent of the package on purpose: an entropy
is recomputed from numpy's eigenvalues or from a diagonal, never by calling
the qentro function under test.
"""

import hashlib
import math

import numpy as np

# The package's own tolerances: structural predicates (linalg.DEFAULT_TOL,
# states.STATE_TOL) and the slack its ensemble bound check allows.
STRUCT_TOL = 1e-10
VALUE_TOL = 1e-9


class Op:
    """One closed-loop operation.

    ``call()`` is the timed request.  ``check(result, exc)`` runs untimed
    afterwards and returns the failure kinds it found (empty when correct);
    ``exc`` is the exception ``call`` raised, or None.  ``key`` identifies
    the generated inputs, so a test can compare two builds.
    """

    __slots__ = ("label", "call", "check", "key")

    def __init__(self, label, call, check, key):
        self.label = label
        self.call = call
        self.check = check
        self.key = key


class Workload:
    """Generated inputs of one run.

    ``ops`` holds ``pool_cycles`` cycles of ``cycle_len`` operations; the
    loop runs whole cycles and wraps around the pool.  ``warm_up`` callables
    run once before timing.  ``finish()`` returns failure kinds of checks
    that need the whole run, such as outcome frequencies.
    """

    def __init__(self, ops, cycle_len, warm_up, finish=None):
        if not ops or len(ops) % cycle_len:
            raise ValueError("the operation pool must hold whole cycles")
        self.ops = ops
        self.cycle_len = cycle_len
        self.warm_up = warm_up
        self.finish = finish or (lambda: [])


def residual_target(dim: int) -> float:
    """The residual the unitary minimizer itself aims for."""
    return 1e-7 if dim <= 2 else 1e-5


def input_key(*parts) -> str:
    """Short digest of generated inputs (arrays, strings or numbers)."""
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def exception_kind(prefix: str, exc: BaseException) -> str:
    return f"{prefix}.exception.{type(exc).__name__}"


def shannon_bits(probs) -> float:
    """``-sum p log2 p`` with the package's conventions: ``0 log 0 = 0`` and
    values in ``[-1e-10, 0]`` clamped to 0."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return max(float(-(p * np.log2(p)).sum()), 0.0)


def max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def unitarity_dev(u) -> float:
    u = np.asarray(u, dtype=complex)
    return max_dev(u.conj().T @ u, np.eye(u.shape[0]))


def within_5_sigma(successes: float, trials: int, p: float) -> bool:
    """Binomial count within five standard deviations of ``trials * p``.

    The half-count of slack keeps p = 0 and p = 1 exact: the count must
    then equal 0 or ``trials``.
    """
    sigma = math.sqrt(trials * p * (1.0 - p))
    return abs(successes - trials * p) <= 5.0 * sigma + 0.5


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank normalized Wishart matrix, exactly Hermitian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = z @ z.conj().T
    w = (w + w.conj().T) / 2
    return w / w.trace().real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_amplitudes(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)
