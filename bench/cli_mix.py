"""``cli_mix`` workload: ``qentro.cli.main`` called in process on a fixed
cycle of invocations that covers every subcommand and all three formats.

Why: it is the only workload that emits through ``serialize`` (CSV) and
the CLI's own JSON and table writers, where ``state_ops`` only decodes.
Light commands are dominated by CLI overhead (argument parser, dispatch,
emit), so the median latency tracks the ``cli`` layer; the Monte Carlo
commands at 1e5 trials are dominated by the ``zeno`` and ``protocol``
kernels, so the tail latency and the throughput track those.  A small share
of invalid invocations checks the exit-code contract: exit 2 or 3 with an
``error:`` message, never a traceback or exit 0.

Output is captured in memory, except for the invocations that pass
``--out``, which write under the run's temporary directory.  Every
repeated invocation must reproduce the bytes of its first occurrence.
"""

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from checks import (
    STRUCT_TOL,
    VALUE_TOL,
    Op,
    Workload,
    exception_kind,
    input_key,
    random_amplitudes,
    random_density,
    shannon_bits,
    unitarity_dev,
    within_5_sigma,
)
from qentro import cli

MC_TRIALS = 100_000
SWEEP_TRIALS = 20_000
ESTIMATE_SHOTS = 1000
ADAPTIVE_SHOTS = 2000
ADAPTIVE_HALFWIDTH_DEG = 2.8125

# Failure kinds present when the benchmark was introduced.
KNOWN_DEFECTS = frozenset(
    {
        "cli.bound_nan.exit0",
        "cli.zeno_sweep_reversed.exit0",
        "cli.nan_matrix.exception.ValueError",
        "cli.out_missing_dir.exception.FileNotFoundError",
    }
)

# closed-form acceptance rate per key position for each forgery strategy
# against an all-45-degree key
_PASS_PER_POSITION = {"guess-bits": 0.5, "guess-angles": 0.5 + 1.0 / math.pi, "replay": 0.5}

_SPRINGY = (0.5, 0.25, 0.25)  # absorbed, d1, d2
_RIGID = (0.0, 1.0, 0.0)


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a ``--format`` output, values as the format gives them."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    rows = []
    for block in text.strip("\n").split("\n\n"):
        rows.append(dict(line.split(": ", 1) for line in block.splitlines()))
    return rows


def _truth(value) -> bool:
    return value is True or value == "True"


class _Rows:
    """Comparison helpers bound to one output format: the table format
    prints six significant digits, the others full precision."""

    def __init__(self, fmt: str, case: str):
        self.rel = 1e-5 if fmt == "table" else 0.0
        self.case = case
        self.bad = []

    def close(self, value, reference, what, tol=VALUE_TOL):
        if not abs(float(value) - reference) <= tol + self.rel * abs(reference):
            self.bad.append(f"{self.case}.{what}_mismatch")

    def require(self, ok, what):
        if not ok:
            self.bad.append(f"{self.case}.{what}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects by exiting with 2
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _invocation(case, argv, verify, out_path=None) -> Op:
    """A valid invocation: exit 0, rows checked by ``verify(rows, checker)``."""
    fmt = argv[argv.index("--format") + 1]
    first = []

    def call():
        return _run(argv)

    def check(result, exc):
        if exc is not None:
            return [exception_kind(case, exc)]
        code, stdout, stderr = result
        text = stdout
        if out_path is not None:
            text = ""
            if os.path.exists(out_path):
                with open(out_path) as handle:
                    text = handle.read()
                os.remove(out_path)
            if stdout:
                return [f"{case}.stdout_with_out"]
        if code != 0:
            return [f"{case}.exit{code}"]
        checker = _Rows(fmt, case)
        try:
            rows = parse_rows(text, fmt)
        except (ValueError, KeyError) as error:
            return [f"{case}.unparsable.{type(error).__name__}"]
        try:
            verify(rows, checker)
        except (KeyError, ValueError, TypeError, IndexError):
            checker.bad.append(f"{case}.missing_field")
        fingerprint = (code, text, stderr)
        if not first:
            first.append(fingerprint)
        elif fingerprint != first[0]:
            checker.bad.append(f"{case}.nonreproducible")
        return checker.bad

    return Op(case, call, check, input_key(*argv))


def _rejection(case, argv) -> Op:
    """An invalid invocation: exit 2 or 3 with an ``error:`` message."""
    first = []

    def call():
        return _run(argv)

    def check(result, exc):
        if exc is not None:
            return [exception_kind(case, exc)]
        code, stdout, stderr = result
        bad = []
        if code not in (2, 3):
            bad.append(f"{case}.exit{code}")
        elif stdout or not stderr.startswith("error:"):
            bad.append(f"{case}.no_message")
        if not first:
            first.append(result)
        elif result != first[0]:
            bad.append(f"{case}.nonreproducible")
        return bad

    return Op(case, call, check, input_key(*argv))


def _write_json(path, obj):
    with open(path, "w") as handle:
        json.dump(obj, handle)
    return path


def _matrix_json(m):
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _state_json(amps):
    return {"amplitudes": [{"re": float(a.real), "im": float(a.imag)} for a in amps]}


def _entropy_ops(tmpdir, rng):
    probs = rng.dirichlet(np.ones(4))
    rho = random_density(2, rng)
    amps = random_amplitudes(2, rng)
    weights = rng.dirichlet(np.ones(3))
    parts = [random_amplitudes(2, rng) for _ in range(2)]
    mixed = random_density(2, rng)

    files = {
        "shannon": _write_json(os.path.join(tmpdir, "probs.json"), {"probs": probs.tolist()}),
        "von-neumann": _write_json(os.path.join(tmpdir, "rho.json"), _matrix_json(rho)),
        "pure": _write_json(
            os.path.join(tmpdir, "state.json"),
            _state_json(amps),
        ),
        "bound-check": _write_json(
            os.path.join(tmpdir, "ensemble.json"),
            {
                "pure_parts": [
                    {"weight": float(w), "state": _state_json(p)}
                    for w, p in zip(weights[:2], parts)
                ],
                "mixed_part": {"weight": float(weights[2]), "matrix": _matrix_json(mixed)},
            },
        ),
    }
    files["informational"] = files["von-neumann"]
    nats = math.log(2.0)
    values = {
        "shannon": shannon_bits(probs),
        "von-neumann": shannon_bits(np.linalg.eigvalsh(rho)),
        "informational": shannon_bits(np.diagonal(rho).real),
        "pure": shannon_bits(np.abs(amps) ** 2),
    }
    mix = sum(w * np.outer(p, p.conj()) for w, p in zip(weights[:2], parts)) + weights[2] * mixed
    mix = mix / mix.trace().real
    lhs = shannon_bits(np.diagonal(mix).real)
    rhs = sum(w * shannon_bits(np.abs(p) ** 2) for w, p in zip(weights[:2], parts))
    rhs += weights[2] * shannon_bits(np.linalg.eigvalsh(mixed))

    ops = []
    plan = (
        ("shannon", "table", "bits"),
        ("shannon", "json", "bits"),
        ("von-neumann", "csv", "bits"),
        ("von-neumann", "table", "nats"),
        ("informational", "json", "bits"),
        ("informational", "csv", "nats"),
        ("pure", "table", "bits"),
        ("pure", "json", "nats"),
        ("bound-check", "json", "bits"),
        ("bound-check", "csv", "bits"),
    )
    for which, fmt, base in plan:
        argv = ["entropy", files[which], "--which", which, "--format", fmt, "--base", base]
        scale = nats if base == "nats" else 1.0

        if which == "bound-check":
            def verify(rows, c, scale=scale):
                (row,) = rows
                c.close(row["lhs"], lhs * scale, "lhs")
                c.close(row["rhs"], rhs * scale, "rhs")
                c.require(_truth(row["holds"]), "bound_violated")
        else:
            def verify(rows, c, ref=values[which] * scale, base=base):
                (row,) = rows
                c.close(row["value"], ref, "value")
                c.require(row["base"] == base, "wrong_base")

        ops.append(_invocation(f"cli.entropy.{which}", argv, verify))
    return ops


def _unitary_min_ops(tmpdir, rng):
    ops = []
    for k, fmt in enumerate(("json", "table")):
        m = random_density(2, rng)
        path = _write_json(os.path.join(tmpdir, f"umin{k}.json"), _matrix_json(m))
        s_n = shannon_bits(np.linalg.eigvalsh(m))

        def verify(rows, c, s_n=s_n, fmt=fmt):
            (row,) = rows
            c.close(row["min_informational"], s_n, "min_value", tol=1e-7)
            c.close(row["von_neumann"], s_n, "von_neumann")
            c.require(not _truth(row["budget_exhausted"]), "budget_exhausted")
            if fmt == "json":
                u = np.array(row["minimizer"]["re"]) + 1j * np.array(row["minimizer"]["im"])
                c.require(unitarity_dev(u) <= STRUCT_TOL, "minimizer_not_unitary")

        argv = ["unitary-min", path, "--format", fmt, "--seed", str(int(rng.integers(2**31)))]
        ops.append(_invocation("cli.unitary-min", argv, verify))
    return ops


def _mzi_ops(rng):
    ops = []
    plan = (
        ("rigid", "table", 0),
        ("springy", "csv", MC_TRIALS),
        ("unknown", "json", MC_TRIALS),
        ("unknown", "table", 0),
        ("rigid", "json", 1000),
    )
    for arrangement, fmt, photons in plan:
        prior = float(rng.uniform(0.05, 0.95))
        if arrangement == "rigid":
            dist = _RIGID
        elif arrangement == "springy":
            dist = _SPRINGY
        else:
            dist = tuple(prior * s + (1 - prior) * r for s, r in zip(_SPRINGY, _RIGID))

        def verify(rows, c, dist=dist, photons=photons, prior=prior, arrangement=arrangement):
            (row,) = rows
            for key, p in zip(("p_absorbed", "p_d1", "p_d2"), dist):
                c.close(row[key], p, key)
            c.close(row["entropy_bits"], shannon_bits(dist), "entropy")
            if arrangement == "unknown":
                c.close(row["posterior_d1"], prior * 0.25 / dist[1], "posterior_d1")
                c.close(row["posterior_d2"], 1.0, "posterior_d2")
                c.close(row["posterior_absorbed"], 1.0, "posterior_absorbed")
            if photons:
                for key, p in zip(("count_absorbed", "count_d1", "count_d2"), dist):
                    c.require(within_5_sigma(float(row[key]), photons, p), "counts_outside_5_sigma")

        argv = ["mzi", "--arrangement", arrangement, "--format", fmt, "--seed", str(int(rng.integers(2**31)))]
        if arrangement == "unknown":
            argv += ["--prior", repr(prior)]
        if photons:
            argv += ["--photons", str(photons)]
        ops.append(_invocation("cli.mzi", argv, verify))
    return ops


def _bound_ops(tmpdir, rng):
    ops = []
    for k, (fmt, base, out) in enumerate((("table", "bits", False), ("csv", "bits", False), ("json", "nats", True))):
        area = float(rng.uniform(0.5, 1000.0))

        def verify(rows, c, area=area):
            (row,) = rows
            c.close(row["nats"], area / 4.0, "nats", tol=1e-12)
            c.close(row["bits"], area / 4.0 / math.log(2.0), "bits", tol=1e-12)

        argv = ["bound", repr(area), "--format", fmt, "--base", base]
        out_path = os.path.join(tmpdir, f"bound{k}.{fmt}") if out else None
        if out_path:
            argv += ["--out", out_path]
        ops.append(_invocation("cli.bound", argv, verify, out_path))
    return ops


def _steering_check(plans):
    """Rows must follow ``plans``, a list of (n_steps, step angle) pairs."""

    def verify(rows, c):
        c.require([int(float(r["n_steps"])) for r in rows] == [n for n, _ in plans], "wrong_rows")
        for row, (n, theta) in zip(rows, plans):
            closed = math.cos(theta) ** (2 * n)
            c.close(row["closed_form_prob"], closed, "closed_form", tol=1e-12)
            trials = int(float(row["trials"]))
            c.require(
                within_5_sigma(float(row["empirical_prob"]) * trials, trials, closed),
                "empirical_outside_5_sigma",
            )

    return verify


def _zeno_ops(tmpdir, rng):
    seed = str(int(rng.integers(2**31)))
    argv = ["zeno", "--n-steps", "30", "--trials", str(MC_TRIALS), "--format", "json", "--seed", seed]
    ops = [_invocation("cli.zeno", argv, _steering_check([(30, math.pi / 60)]))]

    # a step angle a little off 90/25 degrees still plans 25 steps
    theta_deg = 90.0 / 25 * float(rng.uniform(0.995, 1.005))
    out = os.path.join(tmpdir, "zeno.table")
    argv = ["zeno", "--theta-deg", repr(theta_deg), "--trials", str(MC_TRIALS)]
    argv += ["--format", "table", "--seed", seed, "--out", out]
    ops.append(_invocation("cli.zeno", argv, _steering_check([(25, math.radians(theta_deg))]), out))

    out = os.path.join(tmpdir, "sweep.csv")
    argv = ["zeno", "--sweep", "1:12", "--trials", str(SWEEP_TRIALS), "--format", "csv", "--seed", seed, "--out", out]
    sweep = [(n, math.pi / (2 * n)) for n in range(1, 13)]
    ops.append(_invocation("cli.zeno", argv, _steering_check(sweep), out))
    return ops


def _protocol_ops(tmpdir, rng):
    ops = []
    plan = (("guess-bits", 10, "csv", False), ("guess-angles", 6, "json", False), ("replay", 10, "table", True))
    for strategy, n, fmt, out in plan:
        p = _PASS_PER_POSITION[strategy] ** n

        def verify(rows, c, p=p):
            (row,) = rows
            trials = int(float(row["trials"]))
            c.require(within_5_sigma(float(row["successes"]), trials, p), "rate_outside_5_sigma")
            c.close(row["rate"], float(row["successes"]) / trials, "rate", tol=1e-12)

        argv = ["protocol", "attack", "--strategy", strategy, "--n", str(n), "--trials", str(MC_TRIALS)]
        argv += ["--format", fmt, "--seed", str(int(rng.integers(2**31)))]
        out_path = os.path.join(tmpdir, f"attack-{strategy}.{fmt}") if out else None
        if out_path:
            argv += ["--out", out_path]
        ops.append(_invocation("cli.protocol", argv, verify, out_path))

    # grid estimate with the hidden angle on a grid point: the aligned
    # hypothesis sees only 0 outcomes and wins with certainty
    for fmt in ("json", "table"):
        theta_deg = (int(rng.integers(8)) + 0.5) * 90.0 / 8

        def verify(rows, c, theta=math.radians(theta_deg)):
            (row,) = rows
            c.close(row["theta_hat"], theta, "theta_hat", tol=1e-12)
            c.close(row["copies_used"], 8 * ESTIMATE_SHOTS, "copies_used", tol=0.0)

        argv = ["protocol", "estimate", "--grid-n", "8", "--shots", str(ESTIMATE_SHOTS), "--theta-deg", repr(theta_deg)]
        argv += ["--format", fmt, "--seed", str(int(rng.integers(2**31)))]
        ops.append(_invocation("cli.protocol", argv, verify))

    # adaptive bisection: after n rounds the interval halfwidth is
    # (pi/4) / 2^n.  A wrong half is chosen only when the angle sits within
    # 5 sigma of a probe midpoint, which leaves it at most
    # 5*sqrt(2)/(4*sqrt(shots)) outside the final interval.
    theta_deg = float(rng.uniform(5.0, 85.0))
    target = math.radians(ADAPTIVE_HALFWIDTH_DEG)
    slack = 5.0 * math.sqrt(2.0) / (4.0 * math.sqrt(ADAPTIVE_SHOTS))

    def verify(rows, c, theta=math.radians(theta_deg)):
        (row,) = rows
        rounds = int(float(row["n"]))
        halfwidth = math.pi / 4 / 2**rounds
        # the loop compares float halfwidths, so a tie may take one more round
        c.require(halfwidth <= target * (1 + 1e-9) and 2 * halfwidth >= target * (1 - 1e-9), "wrong_round_count")
        c.require(abs(float(row["theta_hat"]) - theta) <= halfwidth + slack, "theta_hat_outside_interval")
        c.close(row["copies_used"], rounds * 2 * ADAPTIVE_SHOTS, "copies_used", tol=0.0)

    argv = ["protocol", "estimate", "--adaptive", "--shots", str(ADAPTIVE_SHOTS)]
    argv += ["--target-halfwidth-deg", repr(ADAPTIVE_HALFWIDTH_DEG), "--theta-deg", repr(theta_deg)]
    argv += ["--format", "csv", "--seed", str(int(rng.integers(2**31)))]
    ops.append(_invocation("cli.protocol", argv, verify))
    return ops


def _rejection_ops(tmpdir, rng):
    nan_path = _write_json(
        os.path.join(tmpdir, "nan.json"),
        {"dim": 2, "re": [[0.5, float("nan")], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    )
    bad_path = os.path.join(tmpdir, "malformed.json")
    with open(bad_path, "w") as handle:
        handle.write('{"dim": 2, "re": [[0.5, 0')
    missing = os.path.join(tmpdir, "missing", "bound.csv")
    return [
        _rejection("cli.bound_nan", ["bound", "nan"]),
        _rejection("cli.zeno_sweep_reversed", ["zeno", "--sweep", "5:1", "--format", "csv"]),
        _rejection("cli.nan_matrix", ["entropy", nan_path, "--which", "informational"]),
        _rejection("cli.out_missing_dir", ["bound", "4", "--format", "csv", "--out", missing]),
        _rejection("cli.malformed_json", ["entropy", bad_path, "--which", "von-neumann"]),
        _rejection("cli.zeno_theta_out_of_range", ["zeno", "--theta-deg", repr(float(rng.uniform(91.0, 180.0)))]),
    ]


def build(seed: int, tmpdir) -> Workload:
    rng = np.random.default_rng(seed)
    tmpdir = str(tmpdir)
    ops = (
        _entropy_ops(tmpdir, rng)
        + _unitary_min_ops(tmpdir, rng)
        + _mzi_ops(rng)
        + _bound_ops(tmpdir, rng)
        + _zeno_ops(tmpdir, rng)
        + _protocol_ops(tmpdir, rng)
        + _rejection_ops(tmpdir, rng)
    )
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm_argvs = (
        ["bound", "1"],
        ["mzi", "--arrangement", "rigid", "--format", "csv"],
        ["zeno", "--n-steps", "2", "--trials", "10", "--format", "json"],
    )
    warm = [lambda argv=argv: _run(argv) for argv in warm_argvs]
    return Workload(ops, len(ops), warm)
