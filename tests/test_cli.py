import json
import math

import numpy as np
import pytest

from qentro.cli import main
from qentro.serialize import matrix_to_json

EX_BLEND = {"dim": 2, "re": [[0.5, 0.25], [0.25, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.fixture
def blend_file(tmp_path):
    path = tmp_path / "blend.json"
    path.write_text(json.dumps(EX_BLEND))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
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


@pytest.mark.parametrize(
    "which, obj",
    [
        ("informational", {"dim": 2, "re": [[math.nan, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}),
        ("pure", {"amplitudes": [{"re": math.nan, "im": 0.0}, {"re": 1.0, "im": 0.0}]}),
        ("shannon", {"probs": [math.nan, 1.0]}),
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
