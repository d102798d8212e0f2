import argparse
import csv
import io
import json
import math
import shlex
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qentro import cli, entropy, interferometer, protocol, zeno
from qentro.cli import main
from qentro.entropy import von_neumann
from qentro.serialize import matrix_to_json
from qentro.states import DensityMatrix, random_density

EX_BLEND = {"dim": 2, "re": [[0.5, 0.25], [0.25, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.fixture
def blend_file(tmp_path):
    path = tmp_path / "blend.json"
    path.write_text(json.dumps(EX_BLEND))
    return str(path)


def run(capsys, *argv):
    """Exit code, stdout and stderr of one in-process call, argparse's own
    exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_entropy_informational(capsys, blend_file):
    rows = run_json(capsys, "entropy", blend_file, "--which", "informational")
    assert rows[0]["value"] == pytest.approx(1.0, abs=5e-4)
    assert rows[0]["base"] == "bits"


def test_entropy_von_neumann(capsys, blend_file):
    rows = run_json(capsys, "entropy", blend_file, "--which", "von-neumann")
    assert rows[0]["value"] == pytest.approx(0.811, abs=5e-4)


def test_entropy_nats_base(capsys, blend_file):
    rows = run_json(capsys, "--base", "nats", "entropy", blend_file, "--which", "von-neumann")
    assert rows[0]["value"] == pytest.approx(0.811278 * math.log(2), abs=1e-4)
    assert rows[0]["base"] == "nats"


def test_entropy_pure_state(capsys, tmp_path):
    path = tmp_path / "state.json"
    r = 1 / math.sqrt(2)
    path.write_text(json.dumps({"amplitudes": [{"re": r, "im": 0.0}, {"re": r, "im": 0.0}]}))
    rows = run_json(capsys, "entropy", str(path), "--which", "pure")
    assert rows[0]["value"] == pytest.approx(1.0, abs=1e-9)


def test_entropy_bound_check(capsys, tmp_path):
    r = 1 / math.sqrt(2)
    obj = {
        "pure_parts": [
            {"weight": 0.3, "state": {"amplitudes": [{"re": r, "im": 0.0}, {"re": r, "im": 0.0}]}}
        ],
        "mixed_part": {
            "weight": 0.7,
            "matrix": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        },
    }
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(obj))
    rows = run_json(capsys, "entropy", str(path), "--which", "bound-check")
    assert rows[0]["lhs"] == pytest.approx(0.8687, abs=1e-3)
    assert rows[0]["rhs"] == pytest.approx(0.805, abs=5e-4)
    assert rows[0]["holds"] is True


def test_entropy_bound_check_dimension_mismatch_exits_3(capsys, tmp_path):
    obj = {
        "pure_parts": [
            {"weight": 0.5, "state": {"amplitudes": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}}
        ],
        "mixed_part": {"weight": 0.5, "matrix": matrix_to_json(np.eye(3) / 3)},
    }
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "entropy", str(path), "--which", "bound-check")
    assert code == 3
    assert out == ""
    assert err == "error: domain: ensemble components differ in dimension: [2, 3]\n"


def test_entropy_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, "entropy", str(path), "--which", "informational")
    assert code == 2
    assert err.startswith("error: parse:")


def test_entropy_invariant_violation_exits_3(capsys, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"dim": 2, "re": [[0.9, 0.0], [0.0, 0.9]], "im": [[0, 0], [0, 0]]}))
    code, _, err = run(capsys, "entropy", str(path), "--which", "informational")
    assert code == 3
    assert err.startswith("error: domain:")
    assert "trace" in err  # names the violated invariant


def test_unitary_min_blend(capsys, blend_file):
    rows = run_json(capsys, "unitary-min", blend_file)
    assert abs(rows[0]["residual"]) <= 1e-6
    assert rows[0]["minimizer"]["dim"] == 2


def test_unitary_min_diagonal_identity(capsys, tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([0.75, 0.25]))))
    rows = run_json(capsys, "unitary-min", str(path))
    assert abs(rows[0]["residual"]) <= 1e-9
    minimizer = np.asarray(rows[0]["minimizer"]["re"]) + 1j * np.asarray(rows[0]["minimizer"]["im"])
    assert np.allclose(minimizer, np.eye(2))


def test_unitary_min_d16_pure_state_prints_a_finite_minimizer(capsys, tmp_path):
    # the round sweep once took the phase of a subnormal entry as b * (1 / |b|),
    # which overflowed: every minimizer entry was NaN and numpy warned on stderr
    v = np.exp(1j * np.arange(16))
    v /= np.linalg.norm(v)
    path = tmp_path / "pure16.json"
    path.write_text(json.dumps(matrix_to_json(np.outer(v, v.conj()))))
    code, out, err = run(capsys, "unitary-min", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    minimizer = json.loads(out)[0]["minimizer"]
    u = np.asarray(minimizer["re"]) + 1j * np.asarray(minimizer["im"])
    assert np.isfinite(u).all()
    assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-10


def test_unitary_min_random_4x4_fixture(capsys, tmp_path):
    rng = np.random.default_rng(77)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = z @ z.conj().T
    path = tmp_path / "rho4.json"
    path.write_text(json.dumps(matrix_to_json(w / w.trace().real)))
    rows = run_json(capsys, "unitary-min", str(path))
    assert abs(rows[0]["residual"]) <= 1e-4


def test_zeno_n90(capsys):
    rows = run_json(capsys, "zeno", "--n-steps", "90", "--trials", "2000")
    assert rows[0]["closed_form_prob"] == pytest.approx(0.973, abs=5e-4)


def test_zeno_theta_45(capsys):
    rows = run_json(capsys, "zeno", "--theta-deg", "45", "--trials", "2000")
    assert rows[0]["closed_form_prob"] == pytest.approx(0.25, abs=1e-12)
    assert rows[0]["n_steps"] == 2


def test_zeno_sweep_csv(capsys):
    code, out, err = run(capsys, "--format", "csv", "zeno", "--sweep", "1:100", "--trials", "200")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 101  # header + one row per step count
    closed = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b > a for a, b in zip(closed, closed[1:]))


def test_zeno_invalid_theta_exits_3(capsys):
    code, _, err = run(capsys, "zeno", "--theta-deg", "135")
    assert code == 3
    assert err.startswith("error: domain:")


def test_mzi_springy(capsys):
    rows = run_json(capsys, "mzi", "--arrangement", "springy")
    assert rows[0]["entropy_bits"] == pytest.approx(1.5, abs=1e-12)


def test_mzi_unknown(capsys):
    rows = run_json(capsys, "mzi", "--arrangement", "unknown", "--prior", "0.5")
    assert rows[0]["entropy_bits"] == pytest.approx(1.299, abs=5e-4)
    assert rows[0]["posterior_d2"] == 1.0
    assert rows[0]["posterior_d1"] == pytest.approx(0.2, abs=1e-12)


def test_mzi_rigid_all_photons_reach_d1(capsys):
    rows = run_json(capsys, "mzi", "--arrangement", "rigid", "--photons", "1000")
    assert rows[0]["count_d1"] == 1000
    assert rows[0]["count_absorbed"] == 0


def test_mzi_prior_out_of_range_exits_3(capsys):
    code, _, err = run(capsys, "mzi", "--arrangement", "unknown", "--prior", "1.5")
    assert code == 3


def test_protocol_attack(capsys):
    rows = run_json(capsys, "protocol", "attack", "--n", "10", "--trials", "200000")
    p = 2.0 ** -10
    sigma = math.sqrt(p * (1 - p) / 200000)
    assert abs(rows[0]["rate"] - p) <= 3 * sigma


def test_protocol_estimate_aligned(capsys):
    # hidden angle placed exactly on hypothesis 3 of an 8-level grid
    theta_deg = (3 + 0.5) * 90.0 / 8
    rows = run_json(
        capsys,
        "protocol", "estimate", "--grid-n", "8", "--shots", "10000",
        "--theta-deg", str(theta_deg),
    )
    assert rows[0]["error"] <= 1e-12
    assert rows[0]["copies_used"] == 80000


def test_protocol_estimate_adaptive(capsys):
    rows = run_json(
        capsys,
        "protocol", "estimate", "--adaptive", "--theta-deg", "0",
        "--shots", "200", "--target-halfwidth-deg", str(90.0 / 32),
    )
    assert rows[0]["error"] <= math.pi / 64 + 1e-9
    assert rows[0]["copies_used"] < 80000


def test_protocol_zero_shots_exits_3(capsys):
    code, _, err = run(capsys, "protocol", "estimate", "--shots", "0")
    assert code == 3


def test_bound(capsys):
    rows = run_json(capsys, "bound", "4")
    assert rows[0]["nats"] == pytest.approx(1.0)
    rows = run_json(capsys, "bound", str(4 * math.log(2)))
    assert rows[0]["bits"] == pytest.approx(1.0)
    rows = run_json(capsys, "bound", "0")
    assert rows[0]["nats"] == 0.0
    code, _, _ = run(capsys, "bound", "--", "-1")
    assert code == 3


def test_outputs_byte_identical_across_runs(capsys, tmp_path, blend_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "--seed", "5", "--format", "csv", "--out", str(out),
            "zeno", "--n-steps", "45", "--trials", "5000",
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (j1, j2):
        code, _, _ = run(
            capsys, "--seed", "5", "--format", "json", "--out", str(out),
            "protocol", "attack", "--n", "4", "--trials", "20000",
        )
        assert code == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("QENTRO_SEED", "123")
    rows = run_json(capsys, "zeno", "--n-steps", "10", "--trials", "1000")
    assert rows[0]["seed"] == 123


def test_repeated_main_calls_reuse_one_parser(capsys, monkeypatch, blend_file):
    rigid = ["mzi", "--arrangement", "rigid", "--format", "json"]

    def seed_of(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        return json.loads(out)[0]["seed"]

    # QENTRO_SEED is read on every call, and an explicit --seed is not kept
    monkeypatch.setenv("QENTRO_SEED", "7")
    assert seed_of(*rigid) == 7
    monkeypatch.setenv("QENTRO_SEED", "9")
    assert seed_of(*rigid) == 9
    assert seed_of("--seed", "5", *rigid) == 5
    assert seed_of(*rigid) == 9
    assert seed_of(*rigid, "--seed", "5") == 5
    monkeypatch.delenv("QENTRO_SEED")
    assert seed_of(*rigid) == 0

    probes = [
        ["zeno", "--n-steps", "20", "--trials", "1000", "--format", "csv"],
        ["entropy", blend_file, "--which", "informational", "--base", "nats"],
        ["protocol", "attack", "--n", "4", "--trials", "100", "--seed", "3"],
        ["bound", "4", "--format", "json"],
        ["bound", "x"],
        ["zeno", "--help"],
    ]
    mix = [
        ["--seed", "11", "--format", "json", "zeno", "--sweep", "1:3", "--trials", "10"],
        ["mzi", "--arrangement", "unknown", "--photons", "20", "--base", "nats"],
        ["protocol", "estimate", "--adaptive", "--format", "csv"],
        ["unitary-min", blend_file, "--budget", "1"],
        ["entropy", blend_file],
        ["nosuch"],
        ["--seed", "-1", "bound", "4"],
        ["zeno", "--sweep", "5:1"],
        ["bound", "4", "--seed", "abc"],
    ]
    # the same bytes whether a probe runs on a new parser or after the mix
    cli._parser.cache_clear()
    first = [run(capsys, *argv) for argv in probes]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 0]
    mixed = [run(capsys, *argv) for argv in mix]
    assert [code for code, _, _ in mixed] == [0, 0, 0, 0, 2, 2, 2, 2, 2]
    assert [run(capsys, *argv) for argv in probes] == first
    # a call that argparse rejects leaves the next valid call unchanged
    for rejected, probe, expected in zip(mix[4:], probes, first):
        run(capsys, *rejected)
        assert run(capsys, *probe) == expected

    # once built, the parser is reused: 30 more calls construct no parser
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (probes + mix) * 2:
        run(capsys, *argv)
    assert built == []


def test_table_output_shows_base_label(capsys, blend_file):
    code, out, _ = run(capsys, "entropy", blend_file, "--which", "von-neumann")
    assert code == 0
    assert "0.811278" in out
    assert "bits" in out


@pytest.mark.parametrize("area", ["nan", "inf"])
def test_bound_non_finite_exits_3(capsys, area):
    code, out, err = run(capsys, "bound", area)
    assert code == 3
    assert out == ""
    assert err.startswith("error: domain:")
    assert "finite" in err


@pytest.mark.filterwarnings("error")  # a numpy warning would print to stderr
@pytest.mark.parametrize(
    "which, obj",
    [
        ("informational", {"dim": 2, "re": [[math.nan, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}),
        ("pure", {"amplitudes": [{"re": math.nan, "im": 0.0}, {"re": 1.0, "im": 0.0}]}),
        ("shannon", {"probs": [math.nan, 1.0]}),
        ("informational", {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, math.inf], [0, 0]]}),
    ],
)
def test_nan_json_input_exits_3(capsys, tmp_path, which, obj):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # Python's json writes and reads NaN
    code, out, err = run(capsys, "entropy", str(path), "--which", which)
    assert code == 3
    assert out == ""
    assert err.startswith("error: domain:")
    assert "finite" in err


@pytest.mark.filterwarnings("error")  # a numpy warning would print to stderr
@pytest.mark.parametrize(
    "argv, obj, invariant",
    [
        (["entropy", "--which", "von-neumann"], matrix_to_json(np.diag([1e308, -1e308])), "semidefinite"),
        (["unitary-min"], {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]], "im": [[0, 0], [0, 0]]}, "semidefinite"),
        (["entropy", "--which", "von-neumann"], matrix_to_json(np.diag([1e308, -1e308, 1.0])), "semidefinite"),
        (["entropy", "--which", "pure"], {"amplitudes": [{"re": 1e200, "im": 0.0}, {"re": 1.0, "im": 0.0}]}, "norm"),
        (["entropy", "--which", "shannon"], {"probs": [1e308, 1e308]}, "probability 1e+308 is above 1"),
    ],
)
def test_huge_finite_json_input_exits_3(capsys, tmp_path, argv, obj, invariant):
    # these once printed 0 or a NaN minimizer and exited 0, ended in numpy's
    # LinAlgError, or warned of an overflow on stderr
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 3
    assert out == ""
    assert err.startswith("error: domain:")
    assert invariant in err


@pytest.mark.parametrize("sweep", ["0:3", "-4:-2"])
def test_zeno_sweep_below_one_step_exits_3(capsys, sweep):
    code, out, err = run(capsys, "zeno", f"--sweep={sweep}")
    assert code == 3
    assert out == ""
    assert err.startswith("error: domain: n_steps must be >= 1")


def test_zeno_sweep_reversed_exits_2(capsys):
    code, out, err = run(capsys, "zeno", "--sweep", "5:1", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert "N1 <= N2" in err


def test_out_into_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "bound.csv"
    code, out, err = run(capsys, "bound", "4", "--format", "csv", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert "--out" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "plan, message",
    [
        (["--sweep", "1-5"], "error: parse: --sweep expects N1:N2, got '1-5'"),
        (["--sweep", ""], "error: parse: --sweep expects N1:N2, got ''"),
        ([], "one of the arguments --theta-deg --n-steps --sweep is required"),
        (["--n-steps", "3", "--theta-deg", "10"], "argument --theta-deg: not allowed with argument --n-steps"),
        (["--n-steps", "3", "--sweep", "1:3"], "argument --sweep: not allowed with argument --n-steps"),
    ],
)
def test_zeno_takes_exactly_one_well_formed_plan(capsys, plan, message):
    # argparse rejects a missing or doubled plan by exiting with 2
    code, out, err = run(capsys, "zeno", *plan, "--trials", "10")
    assert code == 2
    assert out == ""
    assert message in err


def test_failed_command_creates_no_out_file(capsys, tmp_path):
    target = tmp_path / "bound.csv"
    code, out, err = run(capsys, "bound", "nan", "--format", "csv", "--out", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith("error: domain:")
    assert not target.exists()
    code, out, err = run(capsys, "--seed", "-1", "bound", "4", "--out", str(target))
    assert (code, out, err) == (2, "", "error: parse: --seed must be a nonnegative integer\n")
    assert not target.exists()


def test_zero_entropies_print_positive_zero(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"probs": [1, 0]}))
    shannon_value = run_json(capsys, "entropy", str(path), "--which", "shannon")[0]["value"]
    code, out, err = run(capsys, "mzi", "--arrangement", "rigid", "--format", "csv")
    assert code == 0, err
    header, row = out.splitlines()
    mzi_value = float(row.split(",")[header.split(",").index("entropy_bits")])
    vn_value = von_neumann([[1, 0], [0, 0]]).value
    for value in (shannon_value, mzi_value, vn_value):
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "argv, computed",
    [
        (["bound", "-0.0"], ["nats", "bits"]),
        (["mzi", "--arrangement", "unknown", "--prior", "-0.0"], ["p_absorbed", "p_d2", "posterior_d1"]),
    ],
)
def test_negative_zero_input_prints_positive_zero(capsys, argv, computed, fmt):
    # a column that echoes the input may keep the sign that was typed
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0, err
    row = parse_row(out, fmt)
    for key in computed:
        assert str(row[key]) in ("0", "0.0"), key


def test_mzi_negative_photons_exits_2(capsys):
    code, out, err = run(capsys, "mzi", "--arrangement", "rigid", "--photons", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert "--photons must be >= 0" in err


def test_unitary_min_negative_budget_exits_2(capsys, blend_file):
    code, out, err = run(capsys, "unitary-min", blend_file, "--budget", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert "--budget must be >= 0" in err
    rows = run_json(capsys, "unitary-min", blend_file, "--budget", "0")
    assert rows[0]["iterations"] == 0


_PURE_PART = b'"state": {"amplitudes": [{"re": 1, "im": 0}, {"re": 0, "im": 0}]}'

# JSON documents that once escaped main with a traceback, and documents with
# a bool, a string or null where a number belongs, or probs that are not a
# flat list, which once exited 0 or 3, and ensembles with a part missing or
# of the wrong type: each with the entropy it is read for and a part of the
# message it gets
BROKEN_JSON = {
    "not-utf8": ("informational", b'{"dim": 2, "re": "\xff\xfe"}', "malformed JSON"),
    "too-deep": ("informational", b"[" * 100_000 + b"]" * 100_000, "malformed JSON"),
    "int-past-digit-limit": ("informational", b'{"dim": ' + b"1" * 4301 + b"}", "malformed JSON"),
    "dim-overflows": ("informational", b'{"dim": 1e400, "re": [[1]], "im": [[0]]}', "whole number"),
    "probs-bools": ("shannon", b'{"probs": [true, false]}', "probs must be a number, got bool"),
    "probs-strings": ("shannon", b'{"probs": ["0.5", "0.5"]}', "probs must be a number, got str"),
    "probs-null": ("shannon", b'{"probs": [null, 1.0]}', "probs must be a number, got NoneType"),
    "probs-bare-number": ("shannon", b'{"probs": 1}', "probs must be a JSON list, got int"),
    "probs-nested": ("shannon", b'{"probs": [[0.5], [0.5]]}', "probs must be a number, got list"),
    "matrix-re-strings": (
        "informational",
        b'{"dim": 2, "re": [["0.5", 0], [0, "0.5"]], "im": [[0, 0], [0, 0]]}',
        "matrix entry must be a number, got str",
    ),
    "matrix-bools": (
        "von-neumann",
        b'{"dim": 1, "re": [[true]], "im": [[false]]}',
        "matrix entry must be a number, got bool",
    ),
    "amplitude-bools": (
        "pure",
        b'{"amplitudes": [{"re": true, "im": false}, {"re": 0, "im": 0}]}',
        "amplitude must be a number, got bool",
    ),
    "ensemble-weight-string": (
        "bound-check",
        b'{"pure_parts": [{"weight": "1", ' + _PURE_PART + b"}]}",
        "ensemble weight must be a number, got str",
    ),
    "ensemble-pure-parts-number": (
        "bound-check",
        b'{"pure_parts": 5}',
        "bad ensemble object: 'int' object is not iterable",
    ),
    "ensemble-pure-part-no-state": (
        "bound-check",
        b'{"pure_parts": [{"weight": 1}]}',
        "bad ensemble object: 'state'",
    ),
    "ensemble-mixed-part-number": (
        "bound-check",
        b'{"pure_parts": [{"weight": 1, ' + _PURE_PART + b'}], "mixed_part": 5}',
        "bad ensemble object: 'int' object is not subscriptable",
    ),
    "ensemble-mixed-part-no-matrix": (
        "bound-check",
        b'{"pure_parts": [{"weight": 0.5, ' + _PURE_PART + b'}], "mixed_part": {"weight": 0.5}}',
        "bad ensemble object: 'matrix'",
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_JSON))
def test_broken_json_file_exits_2(capsys, tmp_path, name):
    which, document, message = BROKEN_JSON[name]
    path = tmp_path / "broken.json"
    path.write_bytes(document)
    code, out, err = run(capsys, "entropy", str(path), "--which", which)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert message in err


@pytest.mark.parametrize("dim", ["2.7", "NaN", "-Infinity", "true", '"2"'])
def test_matrix_dim_that_is_not_a_whole_number_exits_2(capsys, tmp_path, dim):
    path = tmp_path / "dim.json"
    path.write_text(f'{{"dim": {dim}, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}}')
    code, out, err = run(capsys, "unitary-min", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert "dim" in err


def test_malformed_seed_env_var_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QENTRO_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["bound", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: invalid int value: 'abc'" in captured.err
    # an explicit --seed still overrides the environment
    rows = run_json(capsys, "--seed", "5", "mzi", "--arrangement", "rigid")
    assert rows[0]["seed"] == 5


def test_mzi_unknown_csv_fields_are_plain_numbers(capsys):
    argv = ["mzi", "--arrangement", "unknown", "--prior", "0.5", "--photons", "10"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    header, row = out.splitlines()
    for key, value in zip(header.split(","), row.split(",")):
        if key != "arrangement":
            float(value)  # "np.float64(0.25)" would raise


@pytest.mark.parametrize(
    "argv, invariant",
    [
        (["protocol", "attack", "--n=-1"], "at least one angle"),
        (["protocol", "attack", "--key-angle-deg", "nan"], "NaN"),
        (["protocol", "estimate", "--adaptive", "--target-halfwidth-deg", "nan"], "halfwidth"),
        (["protocol", "estimate", "--adaptive", "--shots", "0"], "confidence_shots must be >= 1"),
        (["protocol", "estimate", "--grid-n", "1"], "grid needs at least 2 levels, got 1"),
    ],
)
def test_protocol_invalid_numbers_exit_3(capsys, argv, invariant):
    # a small size of the mode's own first, so that a size in argv overrides it
    size = {"attack": ["--trials", "10"], "estimate": ["--shots", "10"]}[argv[1]]
    code, out, err = run(capsys, *argv[:2], *size, *argv[2:])
    assert code == 3
    assert out == ""
    assert err.startswith("error: domain:")
    assert invariant in err


# The CLI prints the rows the library builds: same columns, same order,
# same values for the same seed.
SEED = 11


def cli_items(capsys, *argv):
    return [list(row.items()) for row in run_json(capsys, "--seed", str(SEED), *argv)]


def lib_items(rows):
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize(
    "flag, value, plan",
    [
        ("--n-steps", "7", zeno.SteeringPlan.from_steps(7)),
        ("--theta-deg", "15", zeno.SteeringPlan(math.radians(15))),
    ],
)
def test_zeno_prints_steering_row(capsys, flag, value, plan):
    result = zeno.simulate_steering(plan, 500, np.random.default_rng(SEED))
    assert cli_items(capsys, "zeno", flag, value, "--trials", "500") == lib_items(
        [zeno.steering_row(plan, result, SEED)]
    )


@pytest.mark.parametrize("arrangement", ["rigid", "springy", "unknown"])
@pytest.mark.parametrize("photons", [0, 300])
def test_mzi_prints_arrangement_rows(capsys, arrangement, photons):
    argv = ["mzi", "--arrangement", arrangement, "--photons", str(photons)]
    if arrangement == "unknown":
        argv += ["--prior", "0.3"]
        mirror = interferometer.MirrorModel(arrangement, 0.3)
    else:
        mirror = interferometer.MirrorModel(arrangement)
    assert cli_items(capsys, *argv) == lib_items(
        interferometer.arrangement_rows(mirror, photons, SEED)
    )


@pytest.mark.parametrize("arrangement", ["rigid", "springy"])
def test_mzi_prior_on_a_known_mirror_exits_3(capsys, arrangement):
    code, out, err = run(capsys, "mzi", "--arrangement", arrangement, "--prior", "7")
    assert code == 3
    assert out == ""
    assert err == f"error: domain: a {arrangement} mirror takes no prior, got 7.0\n"


def test_mzi_unknown_defaults_to_an_even_prior(capsys):
    assert run_json(capsys, "mzi", "--arrangement", "unknown") == run_json(
        capsys, "mzi", "--arrangement", "unknown", "--prior", "0.5"
    )


def test_protocol_attack_prints_attack_row(capsys):
    key = protocol.SignatureKey.uniform(5, math.radians(30))
    result = protocol.eve_attack_success(key, protocol.REPLAY, 4000, np.random.default_rng(SEED))
    argv = ["protocol", "attack", "--n", "5", "--trials", "4000", "--strategy", "replay"]
    assert cli_items(capsys, *argv, "--key-angle-deg", "30") == lib_items(
        [protocol.attack_row(key, protocol.REPLAY, result, SEED)]
    )


def test_protocol_estimate_prints_estimation_row(capsys):
    theta = math.radians(20)
    grid = protocol.estimate_theta_bruteforce(
        protocol.HiddenQubitSource(theta, seed=SEED), protocol.QuantizationGrid(6), 300
    )
    argv = ["protocol", "estimate", "--theta-deg", "20", "--shots", "300"]
    assert cli_items(capsys, *argv, "--grid-n", "6") == lib_items(
        [protocol.estimation_row(6, 300, theta, grid, SEED)]
    )
    adaptive = protocol.estimate_theta_adaptive(
        protocol.HiddenQubitSource(theta, seed=SEED), math.radians(5.0), confidence_shots=300
    )
    assert cli_items(capsys, *argv, "--adaptive", "--target-halfwidth-deg", "5") == lib_items(
        [protocol.estimation_row(adaptive.rounds, 300, theta, adaptive, SEED)]
    )


def test_unitary_min_and_bound_print_library_rows(capsys, tmp_path):
    rho = DensityMatrix(random_density(9, np.random.default_rng(9)).matrix)
    # two whole d9 sweeps of 36 pair visits, and 28 visits that cover no step
    report = entropy.min_informational_over_unitaries(rho, budget=100)
    assert report.budget_exhausted and report.iterations == 72
    assert report.von_neumann == von_neumann(rho).value
    assert report.residual_vs_von_neumann == report.min_value - report.von_neumann
    assert cli_items(capsys, "unitary-min", wishart_file(tmp_path, 9), "--budget", "100") == lib_items(
        [entropy.minimization_row(report)]
    )
    assert cli_items(capsys, "bound", "3.5") == lib_items([entropy.bound_row(3.5)])


@pytest.mark.parametrize("mode, size", [("attack", ["--trials", "300"]), ("estimate", ["--shots", "200"])])
def test_protocol_takes_global_flags_before_between_and_after(capsys, mode, size):
    seed, fmt, base = ["--seed", "4"], ["--format", "csv"], ["--base", "nats"]
    placements = [
        (seed + fmt + base, [], []),  # before protocol
        ([], seed + fmt + base, []),  # between protocol and its mode
        ([], [], seed + fmt + base),  # after the mode
        (seed, fmt, base),
    ]
    outs = set()
    for before, between, after in placements:
        code, out, err = run(capsys, *before, "protocol", *between, mode, *size, *after)
        assert code == 0, err
        outs.add(out)
    (out,) = outs
    header, row = out.splitlines()
    assert header.endswith(",seed") and row.endswith(",4")


@pytest.mark.parametrize(
    "mode, flag",
    [
        ("attack", ["--grid-n", "4"]),
        ("attack", ["--shots", "-5"]),
        ("attack", ["--theta-deg", "400"]),
        ("attack", ["--adaptive"]),
        ("attack", ["--target-halfwidth-deg", "1"]),
        ("estimate", ["--n", "999"]),
        ("estimate", ["--trials", "-1"]),
        ("estimate", ["--strategy", "replay"]),
        ("estimate", ["--key-angle-deg", "30"]),
    ],
)
def test_protocol_flag_of_the_other_mode_exits_2(capsys, mode, flag):
    code, out, err = run(capsys, "protocol", mode, *flag)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 8
    for argv in lines:
        assert argv[0] == "qentro"
        parser.parse_args(argv[1:])


def parse_row(out, fmt):
    # the only row printed: strings for csv and table, JSON values for json
    if fmt == "json":
        (row,) = json.loads(out)
    elif fmt == "csv":
        (row,) = csv.DictReader(io.StringIO(out))
    else:
        row = dict(line.split(": ", 1) for line in out.splitlines())
    return row


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "prior, posteriors",
    [
        # at prior 0 the mirror is rigid: D2 and absorption cannot happen
        ("0", {"posterior_d1": 0.0, "posterior_d2": "", "posterior_absorbed": ""}),
        ("1", {"posterior_d1": 1.0, "posterior_d2": 1.0, "posterior_absorbed": 1.0}),
    ],
)
def test_mzi_unknown_at_a_certain_prior(capsys, prior, posteriors, fmt):
    argv = ["mzi", "--arrangement", "unknown", "--prior", prior, "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    row = parse_row(out, fmt)
    for key, expected in posteriors.items():
        assert (row[key] if expected == "" else float(row[key])) == expected, key


BIG = str(10**30)


class Started(Exception):
    """Raised where a command's work would start, after its limits are checked."""


@pytest.fixture
def stop_the_work(monkeypatch):
    # every kernel that the CLI hands work to raises Started instead of running,
    # so that a limit check that wrongly passes fails at once
    def stop(*args, **kwargs):
        raise Started

    for module, name in [
        (zeno, "simulate_steering"),
        (zeno, "steering_sweep_rows"),
        (protocol, "eve_attack_success"),
        (protocol, "estimate_theta_bruteforce"),
        (protocol, "estimate_theta_adaptive"),
        (interferometer, "arrangement_rows"),
    ]:
        monkeypatch.setattr(module, name, stop)


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["zeno", "--n-steps", BIG], "steps"),
        (["zeno", "--theta-deg", "1e-300"], "steps"),
        (["zeno", "--theta-deg", "1e-7"], "steps"),
        (["zeno", "--trials", BIG, "--n-steps", "3"], "trials"),
        (["zeno", "--sweep", "1:" + BIG], "steps"),
        (["zeno", "--sweep", "1:100000", "--trials", "10"], "steps"),
        (["zeno", "--sweep", f"{10**30 - 5}:{BIG}"], "steps"),
        (["protocol", "attack", "--n", BIG], "key angles"),
        (["protocol", "attack", "--trials", BIG], "trials"),
        (["protocol", "estimate", "--grid-n", BIG], "grid levels"),
        (["protocol", "estimate", "--shots", BIG], "shots"),
        (["protocol", "estimate", "--adaptive", "--shots", BIG], "shots"),
        (["mzi", "--arrangement", "rigid", "--photons", BIG], "photons"),
        (["zeno", "--sweep", "1:1414", "--trials", "1"], "steps"),
        # summed steps one above the limit: one step count, and two
        (["zeno", "--sweep", "1000001:1000001"], "steps"),
        (["zeno", "--sweep", "500000:500001"], "steps"),
    ],
)
def test_work_above_a_limit_exits_2(capsys, argv, limit, stop_the_work):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:")
    assert f"work limit of {cli.WORK_LIMITS[limit]} {limit}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "attack", "--n", "10", "--trials", "1000000"],
        ["zeno", "--sweep", "1:100"],
        ["zeno", "--n-steps", "90", "--trials", "100000"],
        ["mzi", "--arrangement", "unknown", "--photons", "100000"],
        ["zeno", "--sweep", "1:1413", "--trials", "1"],
    ],
)
def test_readme_work_is_within_the_limits(argv, stop_the_work):
    with pytest.raises(Started):
        main(argv)


@pytest.mark.parametrize("sweep", ["1000000:1000000", "7938:8062"])
def test_a_sweep_summed_to_the_steps_limit_exactly_passes_its_check(sweep, stop_the_work):
    # 7938 + ... + 8062 is 125 step counts that sum to 10**6
    assert cli.WORK_LIMITS["steps"] == 10**6
    with pytest.raises(Started):
        main(["zeno", "--sweep", sweep, "--trials", "1"])


def test_a_one_point_sweep_runs_its_one_step_count(capsys):
    code, out, err = run(capsys, "--format", "csv", "zeno", "--sweep", "4:4", "--trials", "50")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert row.startswith("4,")


def wishart_file(tmp_path, dim):
    path = tmp_path / f"wishart{dim}.json"
    path.write_text(json.dumps(matrix_to_json(random_density(dim, np.random.default_rng(dim)).matrix)))
    return str(path)


# stands for a file holding a Wishart matrix of the largest allowed dim
LARGEST_MATRIX = "<largest matrix>"


@pytest.mark.parametrize(
    "argv",
    [
        ["zeno", "--n-steps", "100", "--trials", "10000000"],
        ["protocol", "attack", "--n", "64", "--trials", "10000000", "--strategy", "guess-bits"],
        ["protocol", "attack", "--n", "64", "--trials", "10000000", "--strategy", "replay"],
        ["protocol", "attack", "--n", "64", "--trials", "10000000", "--strategy", "guess-angles"],
        ["zeno", "--n-steps", "100000", "--trials", "100000"],
        ["unitary-min", LARGEST_MATRIX],
    ],
)
def test_largest_allowed_request_finishes_within_budget(capsys, tmp_path, argv):
    # --trials, --n and the matrix dim sit at their limits, or trials x steps
    # is far past 10^9; the count-level samplers do not scale with the trial
    # count, and a default-budget unitary-min converges
    argv = [wishart_file(tmp_path, cli.WORK_LIMITS["dim"]) if arg == LARGEST_MATRIX else arg for arg in argv]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    if "--trials" in argv:
        assert f"trials: {argv[argv.index('--trials') + 1]}" in out
    else:
        assert "budget_exhausted: False" in out and err == ""
    assert elapsed <= 2.0


@pytest.mark.parametrize("which", ["unitary-min", "informational", "von-neumann"])
def test_matrix_dim_above_the_limit_exits_2(capsys, tmp_path, which):
    dim = cli.WORK_LIMITS["dim"] + 1
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"dim": dim}))
    # a whole matrix, or only its dim: the limit is checked before any entry is read
    for path in (wishart_file(tmp_path, dim), str(bare)):
        argv = ["unitary-min", path] if which == "unitary-min" else ["entropy", path, "--which", which]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: parse: matrix dim asks for more than the work limit of {dim - 1} dim\n"


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("excess", [0, 1])
def test_ensemble_dim_above_the_limit_exits_2(capsys, tmp_path, mixed, excess):
    # two pure parts, or a pure and a mixed part: the mixture is dim x dim either way
    dim = cli.WORK_LIMITS["dim"] + excess
    state = {"amplitudes": [{"re": 1.0, "im": 0.0}] + [{"re": 0.0, "im": 0.0}] * (dim - 1)}
    part = {"weight": 0.5, "state": state}
    if mixed:
        mixed_part = {"weight": 0.5, "matrix": matrix_to_json(np.eye(dim) / dim)}
        ensemble = {"pure_parts": [part], "mixed_part": mixed_part}
    else:
        ensemble = {"pure_parts": [part, part]}
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(ensemble))
    code, out, err = run(capsys, "entropy", str(path), "--which", "bound-check")
    if excess:
        assert code == 2
        assert out == ""
        assert err == f"error: parse: ensemble dim asks for more than the work limit of {dim - 1} dim\n"
    else:
        assert code == 0, err
    # a pure state's work is linear in its amplitudes: it has no dim limit
    path.write_text(json.dumps(state))
    code, out, err = run(capsys, "entropy", str(path), "--which", "pure")
    assert code == 0, err


def test_ensemble_mixed_part_dim_is_checked_before_its_entries(capsys, tmp_path):
    # the mixed part gives only its dim: reading an entry would fail otherwise
    dim = cli.WORK_LIMITS["dim"] + 1
    state = {"amplitudes": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}
    mixed_part = {"weight": 0.5, "matrix": {"dim": dim}}
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps({"pure_parts": [{"weight": 0.5, "state": state}], "mixed_part": mixed_part}))
    code, out, err = run(capsys, "entropy", str(path), "--which", "bound-check")
    assert code == 2
    assert out == ""
    assert err == f"error: parse: ensemble dim asks for more than the work limit of {dim - 1} dim\n"


def test_guess_angles_peak_memory_stays_bounded(capsys):
    # counts only, no per-trial arrays: a trials x key-length array of
    # float64 at these sizes would be 512 MB
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "protocol", "attack", "--n", "64", "--trials", "1000000", "--strategy", "guess-angles"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak <= 8 * 2**20
