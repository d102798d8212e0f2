import io
import json
import math

import numpy as np
import pytest

from qentro.errors import ParseError, QentroError
from qentro.serialize import (
    ensemble_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    probs_from_json,
    state_from_json,
    write_csv,
)
from qentro.states import DensityMatrix, PureState, mix


def test_matrix_round_trip():
    m = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]])
    obj = matrix_to_json(m)
    assert obj["dim"] == 2
    assert np.allclose(matrix_from_json(obj), m)
    assert json.loads(json.dumps(obj)) == obj  # JSON-serializable as-is


def test_matrix_schema_field_names():
    obj = matrix_to_json(np.eye(2))
    assert set(obj) == {"dim", "re", "im"}


def test_matrix_from_json_errors():
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ParseError):
        matrix_from_json({"re": [[1]], "im": [[0]]})
    with pytest.raises(ParseError):
        matrix_from_json([1, 2, 3])


def test_state_round_trip():
    obj = {"amplitudes": [{"re": 0.6, "im": 0.0}, {"re": 0.0, "im": 0.8}]}
    back = state_from_json(json.loads(json.dumps(obj)))
    assert back.amplitudes.tobytes() == PureState([0.6, 0.8j]).amplitudes.tobytes()


def test_state_from_json_errors():
    with pytest.raises(ParseError):
        state_from_json({"amps": []})
    with pytest.raises(ParseError):
        state_from_json({"amplitudes": [{"re": 1.0}]})


def test_probs_from_json():
    assert np.allclose(probs_from_json({"probs": [0.5, 0.5]}), [0.5, 0.5])
    with pytest.raises(ParseError):
        probs_from_json({"p": [1.0]})


# One entry value in each decoder's documents: a probability, a matrix
# entry and an amplitude part
_NUMBER_DOCS = {
    "probs": (probs_from_json, lambda v: {"probs": [v, 0.5]}, "probs"),
    "matrix": (matrix_from_json, lambda v: {"dim": 2, "re": [[v, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}, "matrix entry"),
    "state": (state_from_json, lambda v: {"amplitudes": [{"re": v, "im": 0.0}, {"re": 0.0, "im": 0.8}]}, "amplitude"),
}


@pytest.mark.parametrize("schema", sorted(_NUMBER_DOCS))
def test_json_numbers_accept_float_subclasses(schema):
    # np.float64 subclasses float, so the number rule takes it as a JSON number
    decode, doc, _ = _NUMBER_DOCS[schema]
    got = decode(doc(np.float64(0.6)))
    want = decode(doc(0.6))
    got, want = (getattr(value, "amplitudes", value) for value in (got, want))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value, name", [(True, "bool"), (np.bool_(True), "bool"), (np.int64(1), "int64")])
@pytest.mark.parametrize("schema", sorted(_NUMBER_DOCS))
def test_json_numbers_reject_bools_and_numpy_ints(schema, value, name):
    # bool subclasses int and is no number here; np.int64 subclasses neither
    # int nor float, so it is rejected while np.float64 is accepted
    decode, doc, what = _NUMBER_DOCS[schema]
    with pytest.raises(ParseError, match=f"^{what} must be a number, got {name}$"):
        decode(doc(value))


def test_ensemble_from_json_matches_direct_mix():
    root2 = 1 / math.sqrt(2)
    obj = {
        "pure_parts": [
            {"weight": 0.3, "state": {"amplitudes": [{"re": root2, "im": 0.0},
                                                     {"re": root2, "im": 0.0}]}}
        ],
        "mixed_part": {
            "weight": 0.7,
            "matrix": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]], "im": [[0, 0], [0, 0]]},
        },
    }
    ens = ensemble_from_json(obj)
    assert np.allclose(mix(ens).matrix, [[0.71, 0.15], [0.15, 0.29]])
    obj_no_mixed = {"pure_parts": obj["pure_parts"] + [
        {"weight": 0.7, "state": {"amplitudes": [{"re": 1.0, "im": 0.0},
                                                 {"re": 0.0, "im": 0.0}]}}
    ], "mixed_part": None}
    assert ensemble_from_json(obj_no_mixed).mixed_part is None


def test_ensemble_domain_errors_are_not_parse_errors():
    # a well-formed object with an invalid matrix inside must surface the
    # domain error, not ParseError
    obj = {
        "pure_parts": [],
        "mixed_part": {
            "weight": 1.0,
            "matrix": {"dim": 2, "re": [[0.9, 0.0], [0.0, 0.9]], "im": [[0, 0], [0, 0]]},
        },
    }
    with pytest.raises(QentroError, match="trace 1.8 is not 1"):
        ensemble_from_json(obj)


def test_load_json_missing_and_malformed(tmp_path):
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(str(bad))


def test_write_csv_of_no_rows_writes_nothing():
    out = io.StringIO()
    write_csv([], out)
    assert out.getvalue() == ""


def test_write_csv_full_precision_and_determinism():
    rows = [{"n": 2, "value": 1 / 3, "label": "x"}]
    out1, out2 = io.StringIO(), io.StringIO()
    write_csv(rows, out1)
    write_csv(rows, out2)
    assert out1.getvalue() == out2.getvalue()
    assert repr(1 / 3) in out1.getvalue()  # full precision, not rounded
    assert out1.getvalue().splitlines()[0] == "n,value,label"


def test_write_csv_encodes_nested_cells_as_json():
    minimizer = matrix_to_json(np.eye(2))
    out = io.StringIO()
    write_csv([{"minimizer": minimizer, "levels": [1, 2], "value": 0.5}], out)
    header, row = out.getvalue().splitlines()
    assert header == "minimizer,levels,value"
    cell = json.dumps(minimizer).replace('"', '""')
    assert row == f'"{cell}","[1, 2]",0.5'
