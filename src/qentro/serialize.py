"""JSON interchange for matrices, pure states, probability vectors, and
ensembles, plus the CSV writer used by the command line.

Schemas (field names are fixed for interchange):

* matrix:      ``{"dim": n, "re": [[...]], "im": [[...]]}``
* pure state:  ``{"amplitudes": [{"re": x, "im": y}, ...]}``
* probability vector: ``{"probs": [p0, p1, ...]}``
* ensemble:    ``{"pure_parts": [{"weight": w, "state": <pure state>}, ...],
                 "mixed_part": {"weight": w, "matrix": <matrix>} | null}``

Schema violations raise ``ParseError``; the domain invariants of the
decoded objects are checked by their constructors, not here.
"""

import csv
import json

import numpy as np

from .errors import ParseError, QentroError
from .states import DensityMatrix, Ensemble, PureState


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix object must be a JSON object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        if isinstance(dim, float) and not dim.is_integer():  # also inf and NaN
            raise ParseError(f"matrix dim must be a whole number, got {dim!r}")
        dim = int(dim)
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(
            f"matrix parts must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    with np.errstate(invalid="ignore"):  # an infinite part is rejected downstream
        return re + 1j * im


def state_to_json(state: PureState) -> dict:
    return {
        "amplitudes": [
            {"re": float(a.real), "im": float(a.imag)} for a in state.amplitudes
        ]
    }


def state_from_json(obj) -> PureState:
    if not isinstance(obj, dict) or "amplitudes" not in obj:
        raise ParseError("pure state object must contain 'amplitudes'")
    try:
        amps = [complex(entry["re"], entry["im"]) for entry in obj["amplitudes"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad amplitude list: {exc}") from exc
    return PureState(amps)


def probs_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "probs" not in obj:
        raise ParseError("probability object must contain 'probs'")
    try:
        return np.asarray(obj["probs"], dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad probability list: {exc}") from exc


def ensemble_from_json(obj) -> Ensemble:
    if not isinstance(obj, dict) or "pure_parts" not in obj:
        raise ParseError("ensemble object must contain 'pure_parts'")
    try:
        pure_parts = [
            (float(part["weight"]), state_from_json(part["state"]))
            for part in obj["pure_parts"]
        ]
        mixed = obj.get("mixed_part")
        mixed_part = None
        if mixed is not None:
            mixed_part = (
                float(mixed["weight"]),
                DensityMatrix(matrix_from_json(mixed["matrix"])),
            )
    except (ParseError, QentroError):
        raise  # schema errors and domain invariant violations keep their kind
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad ensemble object: {exc}") from exc
    return Ensemble(pure_parts, mixed_part)


def load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad JSON, bytes that are not UTF-8 and integer literals
    # past Python's digit limit; RecursionError covers nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def write_csv(rows: list[dict], stream) -> None:
    """Write dict rows with a header; full-precision floats via repr so
    identical inputs produce byte-identical output.  Float subclasses such
    as numpy scalars are written as plain floats."""
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {k: (repr(float(v)) if isinstance(v, float) else v) for k, v in row.items()}
        )
