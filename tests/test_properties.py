"""Property tests of the paper's invariants over generated inputs."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qentro import entropy
from qentro.cli import main
from qentro.entropy import (
    BITS,
    NATS,
    informational,
    min_informational_over_unitaries,
    shannon,
    von_neumann,
)
from qentro.linalg import ROUNDING_TOL, SWEEP_TOL, is_unitary, random_unitary
from qentro.serialize import matrix_from_json, matrix_to_json, state_from_json, state_to_json
from qentro.states import (
    DensityMatrix,
    Ensemble,
    MeasurementSet,
    PureState,
    density_of_pure,
    dephase,
    evolve_unitary,
    measure_collapse,
    mix,
    random_density,
    random_pure,
)
from test_entropy import _one_coherence


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_unitary_evolution_keeps_spectrum_and_informational_bound(dim, seed):
    # Wishart density matrix and Haar unitary from the same seeded stream
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    evolved = evolve_unitary(rho, random_unitary(dim, rng))
    assert informational(evolved).value >= von_neumann(rho).value - 1e-12
    assert np.abs(evolved.eigenvalues() - rho.eigenvalues()).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
def test_informational_equals_von_neumann_exactly_on_diagonal_matrices(weights):
    assume(sum(weights) > 0)
    rho = DensityMatrix(np.diag(np.array(weights) / sum(weights)))
    for base in (BITS, NATS):
        assert informational(rho, base).value == von_neumann(rho, base).value


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), target=st.floats(1e-3, 1.0))
def test_informational_exceeds_von_neumann_off_the_diagonal(dim, seed, target):
    # keep the Wishart diagonal and scale the coherences so that the largest
    # off-diagonal modulus is min(target, its own value), never below 1e-3
    m = random_density(dim, np.random.default_rng(seed)).matrix
    diagonal = np.diag(np.diag(m))
    largest = np.abs(m - diagonal).max()
    assume(largest >= 1e-3)
    rho = DensityMatrix(diagonal + min(1.0, target / largest) * (m - diagonal))
    for base in (BITS, NATS):
        assert informational(rho, base).value > von_neumann(rho, base).value


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 5.0))
def test_entropies_in_nats_are_bits_times_ln2(dim, seed, alpha):
    # full-rank, skewed and pure inputs; the relation is checked on the two
    # computed values, with no conversion helper in between
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(dim, alpha))
    cases = [(shannon, probs)]
    for rho in (random_density(dim, rng), DensityMatrix(np.diag(probs)), density_of_pure(random_pure(dim, rng))):
        cases += [(informational, rho), (von_neumann, rho)]
    for measure, arg in cases:
        nats, bits = measure(arg, NATS).value, measure(arg, BITS).value
        assert math.isclose(nats, bits * math.log(2.0), rel_tol=1e-12, abs_tol=0.0), (measure, nats, bits)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 5), data=st.data())
def test_matrix_json_round_trip_is_exact(dim, data):
    parts = [data.draw(st.lists(_FLOATS, min_size=dim * dim, max_size=dim * dim)) for _ in "ri"]
    m = np.empty((dim, dim), dtype=complex)
    m.real, m.imag = (np.reshape(part, (dim, dim)) for part in parts)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert back.dtype == m.dtype and back.tobytes() == m.tobytes()  # signed zeros too


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=8))
def test_state_json_round_trip_is_exact(parts):
    amps = np.array([complex(re, im) for re, im in parts])
    assume(np.linalg.norm(amps) >= 1e-3)
    state = PureState.normalized(amps)
    back = state_from_json(json.loads(json.dumps(state_to_json(state))))
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_trusted_states_pass_the_validating_constructors(dim, seed):
    # Wishart rho, Haar U and Haar pure states; every state derived from them
    # skips validation, so the public constructors must accept it unchanged
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    u = random_unitary(dim, rng)
    psi, phi = random_pure(dim, rng), random_pure(dim, rng)
    weights = rng.dirichlet(np.ones(3))
    ensemble = Ensemble([(weights[0], psi), (weights[1], phi)], (weights[2], rho))
    basis = random_unitary(dim, rng)
    mset = MeasurementSet([np.outer(v, v.conj()) for v in basis.T])
    densities = [
        density_of_pure(psi),
        mix(ensemble),
        evolve_unitary(rho, u),
        dephase(rho),
        dephase(psi),
    ]
    for state in densities:
        assert np.array_equal(DensityMatrix(state.matrix).matrix, state.matrix)
    pures = [evolve_unitary(psi, u), measure_collapse(psi, mset, rng)[1]]
    for state in pures:
        assert np.array_equal(PureState(state.amplitudes).amplitudes, state.amplitudes)


def _density_of_kind(dim, kind, rng):
    # a Wishart matrix of full rank, of a random lower rank, or of rank 1; or
    # I/d with one zero, subnormal or small coherence (at least d6); or, in a
    # Haar basis, eigenvalues in [1e-16, 1e-10] next to O(1) ones, or two
    # levels, exact or spread by ~1e-9, whose gaps the Newton step's gate can
    # pass on rounding noise
    if kind == "full":
        return random_density(dim, rng)
    if kind == "coherence":
        return _one_coherence(max(dim, 6), [0.01, 1e-310, 5e-324, 1e-320 + 3e-321j][rng.integers(4)])
    if kind in ("tiny", "clustered"):
        small = int(rng.integers(1, dim)) if dim > 1 else 0
        if kind == "tiny":
            spectrum = np.concatenate((rng.uniform(0.1, 1.0, dim - small), 10 ** rng.uniform(-16, -10, small)))
        else:
            spread = rng.choice([0.0, 1e-9]) * rng.standard_normal(dim)
            spectrum = np.repeat(rng.uniform(0.1, 1.0, 2), (dim - small, small)) + spread
        u = random_unitary(dim, rng)
        return DensityMatrix((u * (spectrum / spectrum.sum())) @ u.conj().T)
    r = 1 if kind == "pure" or dim == 1 else int(rng.integers(1, dim))
    z = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    w = z @ z.conj().T
    return DensityMatrix(w / w.trace().real)


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(2, 20),
    seed=st.integers(0, 2**32 - 1),
    short=st.booleans(),
    kind=st.sampled_from(["full", "deficient", "pure", "coherence", "clustered"]),
)
def test_minimizer_reaches_von_neumann_or_stops_at_its_budget(dim, seed, short, kind):
    # dims 2-20 draw both sweep orders (rows below the crossover, round-robin
    # rounds from it on) and odd dims, whose rounds give each index a bye;
    # a short budget ends inside the first few sweeps.  Rank-deficient and
    # pure inputs drive entries to subnormal sizes, where the round sweep
    # once took a NaN phase; a subnormal complex coherence once made the list
    # sweep's rotation non-unitary.  Clustered spectra put gaps of rounding
    # noise under the Newton step's gate.
    rng = np.random.default_rng(seed)
    rho = _density_of_kind(dim, kind, rng)
    budget = int(rng.integers(1, dim * dim)) if short else 200_000
    report = min_informational_over_unitaries(rho, budget=budget)
    assert report.iterations <= budget
    assert is_unitary(report.minimizer, 1e-10)
    rotated = evolve_unitary(rho, report.minimizer)
    assert abs(informational(rotated).value - report.min_value) <= 1e-9
    if report.budget_exhausted:
        assert report.iterations == budget
        assert report.min_value >= von_neumann(rho).value - 1e-12
    else:
        assert abs(report.residual_vs_von_neumann) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from([0, 1, 5, 30, 200_000]),
    kind=st.sampled_from(["full", "deficient", "pure", "coherence", "tiny", "clustered"]),
    base=st.sampled_from([BITS, NATS]),
)
def test_certified_gap_bounds_the_residual(dim, seed, budget, kind, base):
    # the certificate bounds the gap over the von Neumann entropy at every
    # point the search can stop at, converged or cut short by its budget
    rho = _density_of_kind(dim, kind, np.random.default_rng(seed))
    report = min_informational_over_unitaries(rho, base, budget=budget)
    assert report.certified_gap >= report.residual_vs_von_neumann - ROUNDING_TOL


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("base", [BITS, NATS])
def test_certified_gap_is_zero_on_diagonal_inputs(dim, base):
    diagonal = np.arange(dim, dtype=float) if dim > 1 else np.ones(1)  # a zero first entry, too
    rho = DensityMatrix(np.diag(diagonal / diagonal.sum()))
    assert min_informational_over_unitaries(rho, base).certified_gap == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_a_full_rank_qubit_stops_after_one_visit(seed):
    rho = random_density(2, np.random.default_rng(seed))
    report = min_informational_over_unitaries(rho)
    # the one pair step zeroes the coherence, and the certificate says so
    assert report.iterations == 1
    assert report.certified_gap <= SWEEP_TOL * (1.0 + report.min_value)


@pytest.mark.parametrize("dim", [3, 9])
def test_a_zero_diagonal_row_raises_no_warning(dim):
    # rho is a coherent qubit block next to an exactly zero row and column
    m = np.zeros((dim, dim), dtype=complex)
    m[:2, :2] = [[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = min_informational_over_unitaries(DensityMatrix(m))
        # a nonzero entry in a row whose diagonal entry is 0 is read against
        # the floor ROUNDING_TOL, so the bound stays finite
        work = report.minimizer @ m @ report.minimizer.conj().T
        work[2, 0] = work[0, 2] = 1e-20
        array_gap = entropy._certified_gap(work, work.diagonal().real, BITS)
        lists = work.tolist()
        list_gap = entropy._certified_gap(lists, [lists[k][k].real for k in range(dim)], BITS)
    tol = SWEEP_TOL * (1.0 + report.min_value)
    assert not report.budget_exhausted
    assert 0.0 <= report.certified_gap <= tol
    assert abs(report.residual_vs_von_neumann) <= 1e-12
    # the two forms round differently: square roots against fourth roots
    assert math.isclose(array_gap, list_gap, rel_tol=1e-12)
    assert 0.0 < array_gap <= tol


@pytest.mark.parametrize("dim", range(2, 25))
@pytest.mark.parametrize("base", [BITS, NATS])
def test_a_pure_input_stops_on_the_certificate_after_one_sweep(dim, base):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        psi = random_pure(dim, rng)
        report = min_informational_over_unitaries(density_of_pure(psi), base)
        # the sweep that converges ends the search: no sweep only confirms it
        assert report.iterations == dim * (dim - 1) // 2
        assert not report.budget_exhausted
        assert report.certified_gap <= SWEEP_TOL * (1.0 + report.min_value)


# Numeric flag values for the CLI fuzz.  Sizes stay small so each run is
# quick: trials and shots at most 50, step counts, key lengths and grid
# sizes at most 64, and step angles of zero or less, or of at least 0.01
# degrees (a positive step of theta degrees asks for 90 / theta steps).
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
_FLOAT = st.one_of(_SPECIAL, st.floats(-1e6, 1e6)).map(repr)
_STEP_DEG = st.one_of(_SPECIAL, st.floats(-400, 0), st.floats(0.01, 400)).map(repr)
_INT = st.one_of(st.integers(-3, 64).map(str), st.sampled_from(["nan", "1.5", "-inf"]))
_COUNT = st.integers(-3, 50).map(str)


def _flags(**strategies):
    # each flag is either left out or given a generated value
    pairs = [
        st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
        for flag, value in strategies.items()
    ]
    return st.tuples(*pairs).map(lambda parts: [item for part in parts for item in part])


_ARGV = st.one_of(
    st.tuples(_COUNT, _flags(**{"--n-steps": _INT, "--theta-deg": _STEP_DEG})).map(
        lambda t: ["zeno", "--trials", t[0]] + t[1]
    ),
    st.tuples(
        st.sampled_from(["rigid", "springy", "unknown"]),
        _flags(**{"--prior": _FLOAT, "--photons": _INT}),
    ).map(lambda t: ["mzi", "--arrangement", t[0]] + t[1]),
    st.tuples(_COUNT, _flags(**{"--n": _INT, "--key-angle-deg": _FLOAT})).map(
        lambda t: ["protocol", "attack", "--trials", t[0]] + t[1]
    ),
    st.tuples(
        _COUNT,
        st.sampled_from([[], ["--adaptive"]]),
        _flags(**{"--grid-n": _INT, "--theta-deg": _FLOAT, "--target-halfwidth-deg": _FLOAT}),
    ).map(lambda t: ["protocol", "estimate", "--shots", t[0]] + t[1] + t[2]),
    _FLOAT.map(lambda area: ["bound", "--", area]),
)


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV, seed=st.one_of(st.integers(-2, 2**40).map(str), st.just("nan")))
@example(argv=["protocol", "attack", "--n=-1", "--trials", "10"], seed="0")
@example(argv=["protocol", "attack", "--key-angle-deg", "nan", "--trials", "10"], seed="0")
@example(
    argv=["protocol", "estimate", "--adaptive", "--target-halfwidth-deg", "nan", "--shots", "10"],
    seed="0",
)
# sizes above the CLI's work limits: each escaped main or never returned
@example(argv=["zeno", "--n-steps", str(10**30)], seed="0")
@example(argv=["zeno", "--theta-deg", "1e-300"], seed="0")
@example(argv=["zeno", "--theta-deg", "1e-7"], seed="0")
@example(argv=["zeno", "--n-steps", "3", "--trials", str(10**30)], seed="0")
@example(argv=["protocol", "attack", "--n", str(10**30)], seed="0")
@example(argv=["protocol", "attack", "--trials", str(10**30)], seed="0")
@example(argv=["protocol", "estimate", "--grid-n", str(10**30)], seed="0")
@example(argv=["protocol", "estimate", "--shots", str(10**30)], seed="0")
@example(argv=["protocol", "estimate", "--adaptive", "--shots", str(10**30)], seed="0")
@example(argv=["mzi", "--arrangement", "rigid", "--photons", str(10**30)], seed="0")
def test_cli_numeric_flags_keep_the_exit_code_contract(argv, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--seed", seed, "--format", "csv"] + argv)
        except SystemExit as exc:  # argparse rejects a value by exiting with 2
            code = exc.code
    assert code in (0, 2, 3), (code, err.getvalue())
    if code:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
    else:
        assert out.getvalue()


# Valid JSON documents of every schema with 2 <= dim <= 4, mutated by the fuzz
# below: a key or list entry dropped (a wrong shape), an entry duplicated, or
# a value swapped for another type or for NaN, +-Inf, 1e400 or an integer too
# large for a float.
def _valid_documents():
    rng = np.random.default_rng(2024)
    docs = []
    for dim in (2, 3, 4):
        matrix = matrix_to_json(random_density(dim, rng).matrix)
        state = state_to_json(random_pure(dim, rng))
        docs += [matrix, state, {"probs": list(rng.dirichlet(np.ones(dim)))}]
        docs.append(
            {
                "pure_parts": [{"weight": 0.5, "state": state}],
                "mixed_part": {"weight": 0.5, "matrix": matrix},
            }
        )
    return docs


_VALID_DOCUMENTS = _valid_documents()
_WHICH = ("shannon", "von-neumann", "informational", "pure", "bound-check")
_DROP, _DUPLICATE, _BIG_LITERAL = object(), object(), "1e400 literal"
_REPLACEMENTS = st.one_of(
    st.sampled_from([_DROP, _DUPLICATE, _BIG_LITERAL, math.nan, math.inf, -math.inf, 10**400]),
    st.sampled_from([None, True, 0, -1, 2.5, "0.5", [], {}, [[0.5]], {"re": 1.0}]),
)


def _paths(doc, prefix=()):
    yield prefix
    entries = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in entries:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    # the document sits in a one-entry holder, so that it can be swapped too
    holder = [copy.deepcopy(draw(st.sampled_from(_VALID_DOCUMENTS)))]
    for _ in range(draw(st.integers(0, 3))):
        *path, key = draw(st.sampled_from(list(_paths(holder))[1:]))
        parent = holder
        for step in path:
            parent = parent[step]
        replacement = draw(_REPLACEMENTS)
        if replacement is _DROP or replacement is _DUPLICATE:
            if parent is holder:
                continue
            if replacement is _DROP:
                del parent[key]
            elif isinstance(parent, list):
                parent.append(copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(replacement)  # leaves the pool as it was
    return json.dumps(holder[0]).replace(json.dumps(_BIG_LITERAL), "1e400").encode()


@settings(max_examples=60, deadline=None)
@given(document=st.one_of(_mutated_documents(), st.binary(max_size=64)))
# each of these once escaped main with a traceback
@example(document=b'{"dim": 2, "re": "\xff\xfe"}')
@example(document=b"[" * 100_000 + b"]" * 100_000)
@example(document=b'{"probs": [' + b"1" * 4301 + b"]}")
@example(document=b'{"dim": 1e400, "re": [[1]], "im": [[0]]}')
@example(document=b'{"probs": [1' + b"0" * 400 + b"]}")
# each of these once passed a JSON bool or string as a matrix dim
@example(document=b'{"dim": true, "re": [[1]], "im": [[0]]}')
@example(document=b'{"dim": "2", "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}')
def test_cli_json_files_keep_the_exit_code_contract(document):
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "input.json")
        with open(path, "wb") as handle:
            handle.write(document)
        runs = [["entropy", path, "--which", which] for which in _WHICH] + [["unitary-min", path]]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--format", "csv"] + argv)
            assert code in (0, 2, 3), (argv, code, err.getvalue())
            if code:
                assert out.getvalue() == ""
                assert "error:" in err.getvalue()
            else:
                assert out.getvalue()
