"""``state_ops`` workload: many small library requests on mostly-qubit
inputs with a tail up to dim 16.

Why: almost all the time here goes to per-call validation (``as_matrix``,
the ``DensityMatrix`` constructor) and the entropy kernels, while the
minimizer and the Monte Carlo kernels are bypassed.  A change that
validates once shows here and should leave ``minimize`` unchanged.  A small
share of malformed inputs, one per invariant, drives the same validation
layer down its error path.

A cycle is 100 requests: JSON decode to a density matrix (14 matrix, 6
ensemble), ``evolve_unitary`` (18), ``informational`` + ``von_neumann`` +
``ensemble_bound_check`` (20), three-step ``measure_collapse`` chains (20),
``dephase`` (17) and 5 malformed matrices.  Valid requests are 70 % dim 2,
15 % dim 4, 10 % dim 8 and 5 % dim 16 within each kind.
"""

import json
import math

import numpy as np

from checks import (
    STRUCT_TOL,
    VALUE_TOL,
    Op,
    Workload,
    exception_kind,
    input_key,
    max_dev,
    random_amplitudes,
    random_density,
    random_unitary,
    shannon_bits,
    within_5_sigma,
)
from qentro import entropy, serialize, states
from qentro.errors import QentroError

KINDS = (
    ("decode_matrix", 14),
    ("decode_ensemble", 6),
    ("evolve", 18),
    ("entropies", 20),
    ("collapse_chain", 20),
    ("dephase", 17),
)
DIM_SHARES = ((2, 0.70), (4, 0.15), (8, 0.10), (16, 0.05))
MALFORMED = ("non_hermitian", "trace_not_one", "not_psd", "wrong_shape", "non_finite")
POOL_CYCLES = 4
DECODE_TOL = 1e-12

# Failure kinds present when the benchmark was introduced: a NaN entry is
# rejected with a plain ValueError instead of a QentroError.
KNOWN_DEFECTS = frozenset({"reject.non_finite.wrong_exception.ValueError"})


def dims_for(count: int) -> list[int]:
    """Split ``count`` requests over DIM_SHARES by largest remainder."""
    exact = [share * count for _, share in DIM_SHARES]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    return [dim for (dim, _), n in zip(DIM_SHARES, counts) for _ in range(n)]


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _state_json(amps: np.ndarray) -> dict:
    return {"amplitudes": [{"re": float(a.real), "im": float(a.imag)} for a in amps]}


def _first_seen(label):
    """Closure that flags a result differing from the slot's first one."""
    first = []

    def same(fingerprint) -> list[str]:
        if not first:
            first.append(fingerprint)
            return []
        return [] if fingerprint == first[0] else [f"{label}.nondeterministic"]

    return same


def _valid_check(label, compare):
    same = _first_seen(label)

    def check(result, exc):
        if exc is not None:
            return [exception_kind(label, exc)]
        bad, fingerprint = compare(result)
        return bad + same(fingerprint)

    return check


def _density_check(label, reference, tol):
    def compare(result):
        if not isinstance(result, states.DensityMatrix):
            return [f"{label}.not_a_density_matrix"], None
        m = result.matrix
        ok = m.shape == reference.shape and max_dev(m, reference) <= tol
        return ([] if ok else [f"{label}.matrix_mismatch"]), m.tobytes()

    return _valid_check(label, compare)


def _ensemble(dim, rng):
    """Random ensemble of 2 or 3 pure states, half of them with a mixed part;
    returns its JSON form, the Ensemble and the reference quantities."""
    n_pure = int(rng.integers(2, 4))
    with_mixed = bool(rng.random() < 0.5)
    weights = rng.dirichlet(np.ones(n_pure + with_mixed))
    amps = [random_amplitudes(dim, rng) for _ in range(n_pure)]
    mixed = random_density(dim, rng) if with_mixed else None
    obj = {
        "pure_parts": [
            {"weight": float(w), "state": _state_json(a)} for w, a in zip(weights, amps)
        ],
        "mixed_part": None if mixed is None else {"weight": float(weights[-1]), "matrix": _matrix_json(mixed)},
    }
    rho = sum(w * np.outer(a, a.conj()) for w, a in zip(weights, amps))
    rhs = sum(w * shannon_bits(np.abs(a) ** 2) for w, a in zip(weights, amps))
    if mixed is not None:
        rho = rho + weights[-1] * mixed
        rhs += weights[-1] * shannon_bits(np.linalg.eigvalsh(mixed))
    rho = rho / rho.trace().real
    ensemble = states.Ensemble(
        [(float(w), states.PureState(a)) for w, a in zip(weights, amps)],
        None if mixed is None else (float(weights[-1]), states.DensityMatrix(mixed)),
    )
    return obj, ensemble, rho, shannon_bits(np.diagonal(rho).real), rhs


def _decode_matrix(dim, rng):
    m = random_density(dim, rng)
    text = json.dumps(_matrix_json(m))

    def call():
        return states.DensityMatrix(serialize.matrix_from_json(json.loads(text)))

    return Op("decode_matrix", call, _density_check("decode_matrix", m, DECODE_TOL), input_key(text))


def _decode_ensemble(dim, rng):
    obj, _, rho, _, _ = _ensemble(dim, rng)
    text = json.dumps(obj)

    def call():
        return states.mix(serialize.ensemble_from_json(json.loads(text)))

    return Op("decode_ensemble", call, _density_check("decode_ensemble", rho, DECODE_TOL), input_key(text))


def _evolve(dim, rng):
    m = random_density(dim, rng)
    u = random_unitary(dim, rng)
    rho = states.DensityMatrix(m)
    expected = u @ m @ u.conj().T
    expected = expected / expected.trace().real

    def call():
        return states.evolve_unitary(rho, u)

    return Op("evolve", call, _density_check("evolve", expected, STRUCT_TOL), input_key(m, u))


def _entropies(dim, rng):
    m = random_density(dim, rng)
    rho = states.DensityMatrix(m)
    _, ensemble, _, lhs_ref, rhs_ref = _ensemble(dim, rng)
    s_i_ref = shannon_bits(np.diagonal(m).real)
    s_n_ref = shannon_bits(np.linalg.eigvalsh(m))

    def call():
        return (
            entropy.informational(rho).value,
            entropy.von_neumann(rho).value,
            entropy.ensemble_bound_check(ensemble),
        )

    def compare(result):
        s_i, s_n, bound = result
        bad = []
        if abs(s_i - s_i_ref) > VALUE_TOL:
            bad.append("entropies.informational_mismatch")
        if abs(s_n - s_n_ref) > VALUE_TOL:
            bad.append("entropies.von_neumann_mismatch")
        if s_i < s_n - VALUE_TOL:
            bad.append("entropies.informational_below_von_neumann")
        if abs(bound.lhs - lhs_ref) > VALUE_TOL or abs(bound.rhs - rhs_ref) > VALUE_TOL:
            bad.append("entropies.bound_mismatch")
        if not bound.holds:
            bad.append("entropies.bound_violated")
        return bad, (s_i, s_n, bound.lhs, bound.rhs, bound.holds)

    return Op("entropies", call, _valid_check("entropies", compare), input_key(m, lhs_ref, rhs_ref))


def _collapse_chain(dim, rng, draws, tally):
    """Measure in basis A, then B, then A again.  Each post state is a basis
    vector, so every step's outcome distribution is known exactly."""
    amps = random_amplitudes(dim, rng)
    state = states.PureState(amps)
    if dim == 2:
        angles = rng.random(2) * math.pi
        bases = [
            np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]], dtype=complex)
            for a in angles
        ]
        msets = [states.MeasurementSet.qubit_angle_basis(float(a)) for a in angles]
    else:
        bases = [np.eye(dim, dtype=complex), random_unitary(dim, rng)]
        msets = [
            states.MeasurementSet([np.outer(v, v.conj()) for v in basis.T]) for basis in bases
        ]
    chain = [msets[0], msets[1], msets[0]]
    chain_bases = [bases[0], bases[1], bases[0]]
    first_probs = np.abs(bases[0].conj().T @ amps) ** 2
    label_index = [{label: k for k, label in enumerate(ms.labels)} for ms in chain]
    counts = np.zeros(dim, dtype=int)
    tally.append((counts, first_probs))

    def call():
        s = state
        labels = []
        for ms in chain:
            label, s = states.measure_collapse(s, ms, draws)
            labels.append(label)
        return labels, s

    def check(result, exc):
        if exc is not None:
            return [exception_kind("collapse_chain", exc)]
        labels, post = result
        incoming = amps
        for step, (label, basis, index) in enumerate(zip(labels, chain_bases, label_index)):
            k = index[label]
            if abs(np.vdot(basis[:, k], incoming)) ** 2 <= 1e-12:
                return ["collapse_chain.impossible_outcome"]
            if step == 0:
                counts[k] += 1
            incoming = basis[:, k]
        if abs(abs(np.vdot(incoming, post.amplitudes)) - 1.0) > VALUE_TOL:
            return ["collapse_chain.wrong_post_state"]
        return []

    return Op("collapse_chain", call, check, input_key(amps, bases[1]))


def _dephase(dim, rng):
    m = random_density(dim, rng)
    rho = states.DensityMatrix(m)

    def call():
        return states.dephase(rho)

    return Op("dephase", call, _density_check("dephase", np.diag(np.diagonal(m)), DECODE_TOL), input_key(m))


def _malformed(invariant, rng):
    m = random_density(2, rng)
    if invariant == "non_hermitian":
        m[0, 1] += 0.05 + 0.05j
    elif invariant == "trace_not_one":
        m = 1.5 * m
    elif invariant == "not_psd":
        u = random_unitary(2, rng)
        m = u @ np.diag([1.5, -0.5]).astype(complex) @ u.conj().T
        m = (m + m.conj().T) / 2
    elif invariant == "wrong_shape":
        m = rng.random((2, 3))
    else:
        m[1, 1] = np.nan

    def call():
        return states.DensityMatrix(m)

    def check(result, exc):
        if exc is None:
            return [f"reject.{invariant}.accepted"]
        if not isinstance(exc, QentroError):
            return [f"reject.{invariant}.wrong_exception.{type(exc).__name__}"]
        return []

    return Op(f"reject.{invariant}", call, check, input_key(invariant, m))


BUILDERS = {
    "decode_matrix": _decode_matrix,
    "decode_ensemble": _decode_ensemble,
    "evolve": _evolve,
    "entropies": _entropies,
    "dephase": _dephase,
}


def build(seed: int, tmpdir) -> Workload:
    rng = np.random.default_rng(seed)
    draws = np.random.default_rng([seed, 1])  # outcome stream of measure_collapse
    tally = []
    slots = [(kind, dim) for kind, count in KINDS for dim in dims_for(count)]
    slots += [("malformed", invariant) for invariant in MALFORMED]
    ops = []
    for _ in range(POOL_CYCLES):
        for i in rng.permutation(len(slots)):
            kind, arg = slots[i]
            if kind == "malformed":
                ops.append(_malformed(arg, rng))
            elif kind == "collapse_chain":
                ops.append(_collapse_chain(arg, rng, draws, tally))
            else:
                ops.append(BUILDERS[kind](arg, rng))

    def finish():
        # first-step outcome frequencies against the exact Born probabilities
        for counts, probs in tally:
            trials = int(counts.sum())
            if trials and not all(within_5_sigma(c, trials, p) for c, p in zip(counts, probs)):
                return ["collapse_chain.frequency_outside_5_sigma"]
        return []

    warm = [ops[[op.label for op in ops].index(kind)].call for kind, _ in KINDS]
    return Workload(ops, len(slots), warm, finish)
