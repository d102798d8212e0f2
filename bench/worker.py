"""One workload process: set up, run the closed loop, print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --mode probe|run|trace
        [--seconds S] [--ops N]

``probe`` only sets up (import, input generation, warm-up) and reports when
it was ready; ``run`` measures whole cycles for S seconds, or N operations
if that comes first; ``trace`` installs the span tracer and runs exactly N
operations.  One client, one thread: the next operation starts only after
the previous one returned and was checked.  The workload's calibration
kernel runs between operations (see calibration.py).  run.py starts this
script; it is not meant to be called by hand.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("minimize", "state_ops", "cli_mix")
OUT_DIR = ROOT / ".bench_out"

# Ladder for the tail latency: the highest of these percentiles with at
# least ten samples beyond it.  It stops at p99: on a shared host the
# slowest 0.1 % of sub-millisecond operations are the ones the host
# preempted, and p99.9 swung by 2x between otherwise equal runs.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def latency_summary(latencies) -> dict:
    import numpy as np

    ordered = np.sort(np.asarray(latencies, dtype=float))
    n = len(ordered)

    def rank(q):  # nearest-rank percentile position, 1-based
        return max(math.ceil(q * n / 100.0), 1)

    tail = next((q for q in TAIL_LADDER if n - rank(q) >= TAIL_MIN_BEYOND), 50.0)
    return {
        "samples": n,
        "busy_s": float(ordered.sum()),
        "p50_s": float(ordered[rank(50.0) - 1]),
        "tail_percentile": tail,
        "tail_beyond": n - rank(tail),
        "tail_s": float(ordered[rank(tail) - 1]),
    }


def run_loop(workload, seconds=None, max_ops=None, tracer=None, workload_name=None) -> dict:
    """Closed loop over the operation pool.  It stops after the first whole
    cycle that ends ``seconds`` or more after the start, or after exactly
    ``max_ops`` operations, whichever comes first.  Checks run untimed
    after each operation.  With ``workload_name`` its calibration kernel
    runs between operations and the ``latency`` summary is scaled to the
    reference host; ``raw_latency`` is always wall time."""
    import calibration  # numpy; the worker imports it only after timing qentro's import

    ops, cycle_len = workload.ops, workload.cycle_len
    pool = len(ops) // cycle_len
    clock = time.perf_counter
    raw = array("d")  # compact, so peak memory barely grows with the count
    scaled = array("d")
    kernel_times = array("d")
    reference = calibration.REFERENCE_S[workload_name] if workload_name else None
    last_calibration = -math.inf
    kinds = Counter()
    first_traceback = {}
    failed = 0
    start = clock()
    cycle = 0
    while max_ops is None or len(raw) < max_ops:
        base = (cycle % pool) * cycle_len
        for op in ops[base : base + cycle_len]:
            if max_ops is not None and len(raw) >= max_ops:
                break
            if reference and clock() - last_calibration >= calibration.CAL_INTERVAL_S:
                kernel_times.append(calibration.timed(workload_name))
                last_calibration = clock()
            if tracer:
                tracer.begin_op(len(raw))
            t0 = clock()
            try:
                result, exc = op.call(), None
            except Exception as error:  # the check decides; the loop goes on
                result, exc = None, error
            t1 = clock()
            if tracer:
                tracer.end_op()
            raw.append(t1 - t0)
            scaled.append((t1 - t0) * reference / kernel_times[-1] if reference else t1 - t0)
            bad = op.check(result, exc)
            if bad:
                failed += 1
                kinds.update(bad)
                if exc is not None:
                    first_traceback.setdefault(bad[0], "".join(traceback.format_exception(exc)))
        cycle += 1
        if seconds is not None and clock() - start >= seconds:
            break
    wall = clock() - start
    late = workload.finish()
    kinds.update(late)
    return {
        "attempted": len(raw),
        "failed": failed + len(late),
        "kinds": dict(kinds),
        "tracebacks": first_traceback,
        "wall_s": wall,
        "latency": latency_summary(scaled),
        "raw_latency": latency_summary(raw),
        "kernel_median_s": statistics.median(kernel_times) if kernel_times else None,
    }


def environment(qentro, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "qentro": qentro.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np

    import qentro

    import_s = time.perf_counter() - t0
    import calibration

    if Path(qentro.__file__).resolve().parent != src / "qentro":
        print(f"error: imported qentro from {qentro.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    module = importlib.import_module(args.workload)

    tmpdir = OUT_DIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        workload = module.build(args.seed, tmpdir)
        inputs_s = time.perf_counter() - t0
        for warm in workload.warm_up:
            warm()
        ready = time.monotonic()
        kernel_s = statistics.median(calibration.timed(args.workload) for _ in range(5))
        report = {
            "ready_mono": ready,
            "setup_scale": calibration.REFERENCE_S[args.workload] / kernel_s,
            "import_s": import_s,
            "inputs_s": inputs_s,
            "known_defects": sorted(module.KNOWN_DEFECTS),
            "env": environment(qentro, np),
        }
        if args.mode != "probe":
            if tracer:
                tracer.reset()
            report.update(run_loop(workload, args.seconds, args.ops, tracer, args.workload))
            report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            report["layers"] = tracer.metrics()
            tracer.write(OUT_DIR / f"spans-{args.workload}.tsv.gz")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
