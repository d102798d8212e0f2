"""Tests of the benchmark itself: seeded inputs repeat, a wrong result is
counted as a failure, and the printed metrics match BENCHMARK.json.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cli_mix  # noqa: E402
import metrics  # noqa: E402
import minimize  # noqa: E402
import state_ops  # noqa: E402
import worker  # noqa: E402
from qentro import entropy  # noqa: E402
from qentro.entropy import EntropyResult  # noqa: E402

WORKLOADS = {"minimize": minimize, "state_ops": state_ops, "cli_mix": cli_mix}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_are_reproducible(name, tmp_path):
    build = WORKLOADS[name].build
    first = [op.key for op in build(5, tmp_path).ops]
    again = [op.key for op in build(5, tmp_path).ops]
    other = [op.key for op in build(6, tmp_path).ops]
    assert first == again
    assert first != other


def _one_cycle(module, tmp_path):
    workload = module.build(3, tmp_path)
    return worker.run_loop(workload, max_ops=workload.cycle_len)


def test_correct_cycles_fail_only_by_known_defects(tmp_path):
    for module in (state_ops, cli_mix):
        result = _one_cycle(module, tmp_path)
        assert result["attempted"] > 0
        assert set(result["kinds"]) <= module.KNOWN_DEFECTS


def test_wrong_entropy_is_counted_as_failure(tmp_path, monkeypatch):
    right = entropy.informational

    def off_by_a_little(rho, base="bits"):
        return EntropyResult(right(rho, base).value + 1e-6, base)

    monkeypatch.setattr(entropy, "informational", off_by_a_little)
    result = _one_cycle(state_ops, tmp_path)
    assert result["kinds"]["entropies.informational_mismatch"] == 20
    assert result["failed"] >= 20


def test_wrong_cli_output_is_counted_as_failure(tmp_path, monkeypatch):
    right = entropy.bekenstein_bound
    monkeypatch.setattr(entropy, "bekenstein_bound", lambda area, base: right(area * 1.001, base))
    result = _one_cycle(cli_mix, tmp_path)
    assert result["kinds"]["cli.bound.nats_mismatch"] == 3


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    summary = worker.latency_summary([float(i) for i in range(1, 1001)])
    assert summary["tail_percentile"] == 99.0
    assert summary["tail_beyond"] == 10
    assert summary["tail_s"] == 990.0
    assert summary["p50_s"] == 500.0


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    listed = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(listed)

    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "cli_mix", "--seed", "3"]
        + ["--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
