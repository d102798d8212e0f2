"""Every tolerance the package applies is written once, in the tolerance
table of ``qentro.linalg``; other modules read it from there."""

import tokenize
from pathlib import Path

from qentro import linalg

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
    assert (linalg.NEWTON_GATE, linalg.PART_LIMIT) == (0.1, 2.0)
