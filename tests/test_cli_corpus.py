"""The CLI byte corpus, run in process: every subcommand and mode, all three
formats, both bases, ``--out``, ``QENTRO_SEED``, each work limit at and one
above its value, and each parse and domain rejection.

Each entry of ``cli_corpus.json`` holds an argv, the ``input.json`` it reads
(a JSON value, or a string written as the file's text), the environment it
sets, if any, and the first 16 hex digits of the sha256 of its exit code,
stdout and stderr, and of the file it writes with ``--out``.  The inputs
are literal numbers, so a change of a random stream cannot move them.

The seeded Monte Carlo commands (``zeno``, ``protocol attack`` and
``estimate``, ``mzi``) also run at ``--seed 8`` in all three formats, so a
change of a random stream or of an output format moves their digests.  The
digests pin this Python, numpy and OpenBLAS build.  A change that moves a
digest on purpose regenerates it with ``PYTHONPATH=src python
tests/test_cli_corpus.py``, which rewrites every digest and prints the argv
of each entry whose digest changed.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest

from qentro.cli import main

CORPUS_FILE = Path(__file__).with_name("cli_corpus.json")
CORPUS = json.loads(CORPUS_FILE.read_text())
# argparse wraps its usage lines to the terminal's width
BASE_ENV = {"COLUMNS": "80"}


def environment(entry) -> dict:
    return {**BASE_ENV, **entry.get("env", {})}


def run(entry) -> list:
    """Run ``entry`` in the working directory, in an environment without
    ``QENTRO_SEED`` unless the entry sets it, and return its exit code,
    stdout and stderr, and the text of its ``--out`` file, if it names one."""
    if "input" in entry:
        value = entry["input"]
        Path("input.json").write_text(value if isinstance(value, str) else json.dumps(value))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(entry["argv"])
        except SystemExit as exc:  # argparse's own rejections
            code = exc.code
    parts = [str(code), out.getvalue(), err.getvalue()]
    argv = entry["argv"]
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        parts.append(written.read_text() if written.exists() else "")
    return parts


def digest(parts) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def entry_id(entry) -> str:
    env = " ".join(f"{name}={value}" for name, value in entry.get("env", {}).items())
    return " ".join([env, *entry["argv"]]).strip()


@pytest.mark.parametrize("entry", CORPUS, ids=entry_id)
def test_cli_bytes_are_pinned(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QENTRO_SEED", raising=False)
    for name, value in environment(entry).items():
        monkeypatch.setenv(name, value)
    parts = run(entry)
    # a numpy scalar formatted with !r prints as np.float64(...), not as a number
    assert not any("np.float64(" in text for text in parts[1:3])
    assert digest(parts) == entry["digest"]


def regenerate() -> None:
    # as the test runs them: each entry in an empty directory of its own
    warnings.simplefilter("error", RuntimeWarning)
    cwd = os.getcwd()
    for entry in CORPUS:
        with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ):
            os.environ.pop("QENTRO_SEED", None)
            os.environ.update(environment(entry))
            os.chdir(directory)
            try:
                new = digest(run(entry))
            finally:
                os.chdir(cwd)
        if new != entry["digest"]:
            print(f"{entry['digest']} -> {new}: {entry_id(entry)}")
            entry["digest"] = new
    CORPUS_FILE.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in CORPUS) + "\n]\n")


if __name__ == "__main__":
    regenerate()
