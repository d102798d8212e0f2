"""JSON interchange for matrices, pure states, probability vectors, and
ensembles, plus the row writers of the command line: one per output format
in ``FORMATS``, all behind ``write_rows``.

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
import itertools
import json

import numpy as np

from .errors import ParseError, QentroError
from .states import DensityMatrix, Ensemble, PureState


def _check_numbers(entries, what) -> None:
    # the one rule for a JSON number: an int or a float, but not a bool (an int
    # subclass), nor a string or null, however it would convert; each type among
    # the entries is checked once, by name, so that the message is deterministic
    for cls in sorted(set(map(type, entries)) - {int, float}, key=str):
        if not issubclass(cls, (int, float)) or issubclass(cls, bool):
            raise ParseError(f"{what} must be a number, got {cls.__name__}")


def _weight(part) -> float:
    _check_numbers((part["weight"],), "ensemble weight")
    return float(part["weight"])


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
        _check_numbers((dim,), "matrix dim")
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
    _check_numbers(itertools.chain(*obj["re"], *obj["im"]), "matrix entry")  # rows of dim entries
    # assign the parts, not re + 1j*im, so that every float (signed zeros too)
    # comes back exactly and an infinite part does not make a NaN
    m = np.empty((dim, dim), dtype=complex)
    m.real = re
    m.imag = im
    return m


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
        parts = [(entry["re"], entry["im"]) for entry in obj["amplitudes"]]
        _check_numbers(itertools.chain.from_iterable(parts), "amplitude")
        amps = [complex(re, im) for re, im in parts]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad amplitude list: {exc}") from exc
    return PureState(amps)


def probs_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "probs" not in obj:
        raise ParseError("probability object must contain 'probs'")
    try:
        probs = np.asarray(obj["probs"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad probability list: {exc}") from exc
    entries = (obj["probs"],)  # a number or lists of them, nested as deep as the array
    for _ in range(probs.ndim):
        entries = itertools.chain.from_iterable(entries)
    _check_numbers(entries, "probs")
    return probs.reshape(-1)


def ensemble_from_json(obj) -> Ensemble:
    if not isinstance(obj, dict) or "pure_parts" not in obj:
        raise ParseError("ensemble object must contain 'pure_parts'")
    try:
        pure_parts = [(_weight(part), state_from_json(part["state"])) for part in obj["pure_parts"]]
        mixed = obj.get("mixed_part")
        mixed_part = None
        if mixed is not None:
            mixed_part = (_weight(mixed), DensityMatrix(matrix_from_json(mixed["matrix"])))
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


FORMATS = ("table", "csv", "json")


def write_rows(rows: list[dict], fmt: str, stream) -> None:
    """Write dict rows in one of ``FORMATS``: ``table`` as ``key: value``
    lines with floats to 6 significant digits and a blank line between
    rows, ``csv`` by ``write_csv``, ``json`` as an indented array.
    Identical rows give identical bytes."""
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        write_csv(rows, stream)
    else:
        for i, row in enumerate(rows):
            if i:
                stream.write("\n")
            for key, value in row.items():
                stream.write(f"{key}: {_cell(value, _TABLE_FLOAT)}\n")


def write_csv(rows: list[dict], stream) -> None:
    """Write dict rows with a header; full-precision floats via repr so
    identical inputs produce byte-identical output.  Float subclasses such
    as numpy scalars are written as plain floats, and nested dicts and lists
    as JSON."""
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _cell(v, float.__repr__) for k, v in row.items()})


_TABLE_FLOAT = "{:.6g}".format


def _cell(value, float_text):
    # a text cell: floats by the format's rule, nested dicts and lists as JSON
    if isinstance(value, float):
        return float_text(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return value
