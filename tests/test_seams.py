"""Two rules have one owner each: ``serialize.write_rows`` turns rows into
the bytes of every output format, and ``montecarlo.seeded`` turns a seed
into a random stream.  The CLI parses, checks work limits and picks exit
codes, and reaches both rules only through those functions."""

import ast
import tokenize
from pathlib import Path

from qentro import cli

SRC = Path(cli.__file__).parent


def names(path):
    # every identifier in the code; docstrings and comments are not NAME tokens
    with tokenize.open(path) as handle:
        return {tok.string for tok in tokenize.generate_tokens(handle.readline) if tok.type == tokenize.NAME}


def imported_modules(path):
    tree = ast.parse(path.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_cli_imports_neither_json_nor_numpy():
    assert imported_modules(SRC / "cli.py") & {"json", "numpy"} == set()


def test_cli_writes_rows_only_through_serialize():
    cli_names = names(SRC / "cli.py")
    assert "write_rows" in cli_names
    # an emitter of its own would write to a stream or dump JSON
    assert cli_names & {"write", "writelines", "dump", "dumps", "write_csv"} == set()


def test_seeded_streams_are_built_only_in_montecarlo():
    builders = sorted(path.name for path in SRC.glob("*.py") if names(path) & {"default_rng", "SeedSequence"})
    assert builders == ["montecarlo.py"]
