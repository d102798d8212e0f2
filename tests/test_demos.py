"""Every demo script runs to completion, so a demo that falls out of step
with the library fails the suite instead of going stale."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, monkeypatch, tmp_path):
    # zeno_steering.py writes its CSV curve into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
