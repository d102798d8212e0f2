"""qentro benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload minimize|state_ops|cli_mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every operation's output is checked against a reference computed
during set-up.  Human-readable lines come first, then a ``detail:`` line
(environment, failure kinds, tail percentile), and the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
reference host by the workload's calibration kernel (calibration.py), which
cancels the speed swings of a shared machine; the detail line repeats them
as wall clock.  Set-up is repeated in seven fresh interpreters (six
set-up-only probes and the measured process) and ``setup_s`` is their
median.  ``--trace 1`` reports the per-layer metrics:
an untraced process runs for half the time (at most 20 000 operations),
then a traced process runs the same operations, and
``trace.overhead_share`` compares the two.

``correct`` is false when a check failed with a kind that is not among the
workload's known defects (failure kinds that existed when the benchmark was
introduced).  Known defects are still counted in ``failed`` and in
``error_rate``.  See bench/README.md for why each workload exists.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import COMPUTED, END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("minimize", "state_ops", "cli_mix")
SETUP_PROBES = 6
TRACE_OPS_CAP = 20_000  # bounds the spans kept in memory
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QENTRO_SEED", None)  # every CLI invocation passes --seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread: the workload is one closed-loop client
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, mode: str, seconds=None, ops=None) -> dict:
        """Run one worker process to completion; ``setup_s`` is the time from
        just before it was started until it was ready to time."""
        argv = [sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if seconds is not None:
            argv += ["--seconds", repr(seconds)]
        if ops is not None:
            argv += ["--ops", str(ops)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before all worker processes ran")
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker ({mode}) passed the time limit and was stopped") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["raw_setup_s"] = report["ready_mono"] - started
        report["setup_s"] = report["raw_setup_s"] * report["setup_scale"]
        return report


def unexpected(report: dict) -> list[str]:
    known = set(report["known_defects"])
    return sorted(kind for kind in report["kinds"] if kind not in known)


def end_to_end(runner: Runner, seconds: float):
    probes = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
    report = runner.spawn("run", seconds)
    probes.append(report)
    latency, raw = report["latency"], report["raw_latency"]
    metrics = {
        "ops_per_s": latency["samples"] / latency["busy_s"],
        "latency_p50_ms": latency["p50_s"] * 1e3,
        "latency_tail_ms": latency["tail_s"] * 1e3,
        "error_rate": report["failed"] / report["attempted"],
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": report["peak_rss_mib"],
    }
    detail = {
        "tail": {
            "percentile": latency["tail_percentile"],
            "samples": latency["samples"],
            "beyond": latency["tail_beyond"],
        },
        "wall_clock": {
            "ops_per_s": raw["samples"] / raw["busy_s"],
            "latency_p50_ms": raw["p50_s"] * 1e3,
            "latency_tail_ms": raw["tail_s"] * 1e3,
            "setup_s": statistics.median(p["raw_setup_s"] for p in probes),
        },
        "kernel_median_s": report["kernel_median_s"],
        "setup_samples_s": [p["setup_s"] for p in probes],
        "wall_s": report["wall_s"],
    }
    return report, metrics, detail


def per_layer(runner: Runner, seconds: float):
    reference = runner.spawn("run", seconds / 2.0, TRACE_OPS_CAP)
    report = runner.spawn("trace", ops=reference["attempted"])
    metrics = dict(report["layers"])
    metrics["setup.import_s"] = statistics.median([reference["import_s"], report["import_s"]])
    metrics["setup.inputs_s"] = statistics.median([reference["inputs_s"], report["inputs_s"]])
    metrics["trace.overhead_share"] = report["latency"]["busy_s"] / reference["latency"]["busy_s"] - 1.0
    detail = {
        "computed_not_measured": list(COMPUTED),
        "untraced_busy_s": reference["latency"]["busy_s"],
        "traced_busy_s": report["latency"]["busy_s"],
        "spans_file": f".bench_out/spans-{runner.workload}.tsv.gz",
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return report, metrics, detail, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qentro closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qentro" / "__init__.py").is_file():
        print(f"error: no qentro sources at {ROOT / 'src' / 'qentro'}; run from a source checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.monotonic() + TIME_LIMIT_S)
    try:
        if args.trace:
            report, metrics, detail, units = per_layer(runner, args.seconds)
        else:
            report, metrics, detail = end_to_end(runner, args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: metrics[name] for name in units}
    surprises = unexpected(report)
    known = set(report["known_defects"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"sha {git_sha()}  " + "  ".join(f"{k} {v}" for k, v in report["env"].items()))
    for name, value in metrics.items():
        note = " (computed, not measured)" if name in detail.get("computed_not_measured", ()) else ""
        print(f"  {name:<52} {value:>16.6g} {units[name]}{note}")
    if not args.trace:
        tail = detail["tail"]
        print(f"  latency_tail_ms is p{tail['percentile']:g} of {tail['samples']} samples ({tail['beyond']} beyond)")
        wall = "  ".join(f"{k} {v:.6g}" for k, v in detail["wall_clock"].items())
        print(f"  times above are scaled to the reference host; wall clock: {wall}")
    print(f"attempted {report['attempted']}  failed {report['failed']}")
    for kind, count in sorted(report["kinds"].items()):
        print(f"  {kind:<60} {count:>8}  {'known defect' if kind in known else 'UNEXPECTED'}")
    detail.update(
        workload=args.workload,
        seed=args.seed,
        git_sha=git_sha(),
        env=report["env"],
        failures=report["kinds"],
        unexpected=surprises,
        tracebacks=report["tracebacks"],
    )
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not surprises,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
