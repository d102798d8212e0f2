"""Property tests of the paper's invariants over generated inputs."""

import contextlib
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qentro.cli import main
from qentro.entropy import informational, min_informational_over_unitaries, von_neumann
from qentro.linalg import is_unitary, random_unitary
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


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_unitary_evolution_keeps_spectrum_and_informational_bound(dim, seed):
    # Wishart density matrix and Haar unitary from the same seeded stream
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    evolved = evolve_unitary(rho, random_unitary(dim, rng))
    assert informational(evolved).value >= von_neumann(rho).value - 1e-12
    assert np.abs(evolved.eigenvalues() - rho.eigenvalues()).max() <= 1e-10


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


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(2, 20), seed=st.integers(0, 2**32 - 1), short=st.booleans())
def test_minimizer_reaches_von_neumann_or_stops_at_its_budget(dim, seed, short):
    # dims 2-20 draw both sweep orders (rows below the crossover, round-robin
    # rounds from it on) and odd dims, whose rounds give each index a bye;
    # a short budget ends inside the first few sweeps
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
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
