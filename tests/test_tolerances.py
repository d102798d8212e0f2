"""Every tolerance the package applies is written once, in the tolerance
table of ``qentro.linalg``; other modules read it from there."""

import tokenize
from pathlib import Path

import numpy as np
import pytest

from qentro import linalg
from qentro.entropy import NATS, differential_entropy, shannon
from qentro.errors import QentroError
from qentro.zeno import Hamiltonian

SRC = Path(linalg.__file__).parent
TABLE_START = "# Tolerance table"


def small_literals(path):
    # (line, text) of every number literal with a negative exponent, e.g. 1e-9;
    # docstrings and comments are not NUMBER tokens
    with tokenize.open(path) as handle:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(handle.readline)
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
        ]


def table_lines():
    # the table runs from its heading comment to the next blank line
    lines = (SRC / "linalg.py").read_text().splitlines()
    start = next(i for i, line in enumerate(lines, 1) if line.startswith(TABLE_START))
    end = next(i for i, line in enumerate(lines[start:], start + 1) if not line.strip())
    return range(start, end)


def test_tolerance_literals_appear_only_in_the_table():
    table = table_lines()
    stray = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in small_literals(path)
        if not (path.name == "linalg.py" and line in table)
    ]
    assert stray == []


def test_table_holds_every_tolerance_at_its_value():
    table = table_lines()
    in_table = [text for line, text in small_literals(SRC / "linalg.py") if line in table]
    assert len(in_table) == 7
    assert (
        linalg.DEFAULT_TOL,
        linalg.LOOSE_TOL,
        linalg.ROUNDING_TOL,
        linalg.GRID_TOL,
        linalg.INTEGRAL_TOL,
        linalg.SWEEP_TOL,
        linalg.RESIDUAL_WARN,
    ) == (1e-10, 1e-9, 1e-12, 1e-9, 1e-6, 1e-15, 1e-4)
    # the table's thresholds written without an exponent
    assert (linalg.STEP_KEEP, linalg.PART_LIMIT) == (0.25, 2.0)


# Each scaled tolerance, just inside and just outside its bound.


def test_shannon_reads_an_entry_above_one_against_size_times_the_tolerance():
    # three entries: an entry up to 3 DEFAULT_TOL above 1 is read as a sum off 1
    tol = linalg.DEFAULT_TOL
    with pytest.raises(QentroError, match="probabilities sum to"):
        shannon([1.0 + 2.5 * tol, 0.0, 0.0])
    with pytest.raises(QentroError, match="is above 1"):
        shannon([1.0 + 3.5 * tol, 0.0, 0.0])


def test_the_grid_rule_is_relative_to_the_step():
    # steps of 0.5, the second off by 0.9 or 1.1 times GRID_TOL of a step
    for share, accepted in ((0.9, True), (1.1, False)):
        grid = [0.0, 0.5, 1.0 + share * linalg.GRID_TOL * 0.5]
        if accepted:
            assert differential_entropy(grid, [1.0, 1.0, 1.0], NATS).value == pytest.approx(0.0, abs=1e-8)
        else:
            with pytest.raises(QentroError, match="grid must be uniformly spaced and increasing"):
                differential_entropy(grid, [1.0, 1.0, 1.0], NATS)


def test_the_hamiltonian_is_hermitian_within_the_tolerance():
    # an entry and its mirror differ by 0.9 or 1.1 DEFAULT_TOL
    tol = linalg.DEFAULT_TOL
    assert Hamiltonian(np.array([[0.0, 0.9 * tol], [0.0, 0.0]])).dim == 2
    with pytest.raises(QentroError, match="Hamiltonian must be Hermitian"):
        Hamiltonian(np.array([[0.0, 1.1 * tol], [0.0, 0.0]]))
