"""Command-line interface.

One binary with subcommands (entropy, unitary-min, zeno, mzi, protocol,
bound), global flags for seed, log base, and output format, and JSON/CSV
emitters that are byte-identical for identical invocations.  Exit codes:
0 ok, 2 input parse error, 3 domain invariant violation.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import entropy as ent
from . import interferometer as mzi
from . import protocol, serialize, zeno
from .errors import ParseError, QentroError
from .linalg import RESIDUAL_WARN
from .states import DensityMatrix

FORMATS = ("table", "csv", "json")

# Work limits: the most that one invocation may ask for, checked before any
# simulation starts.  A request above a limit exits 2 and names the limit.
WORK_LIMITS = {
    "trials": 10**7,  # --trials of zeno and protocol attack
    # zeno steps: --n-steps, about 90 / --theta-deg, or the top of --sweep and
    # its steps summed
    "steps": 10**6,
    # the size of the request, trials x steps (summed over a sweep) or trials
    # x key length; the samplers make one draw per step or key position,
    # whatever the trial count, so the steps bound their time
    "draws": 10**9,
    "key angles": 64,  # protocol attack --n
    "grid levels": 1024,  # protocol estimate --grid-n
    "shots": 10**9,  # protocol estimate --shots
    "photons": 10**9,  # mzi --photons
}


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_default(value):
    # keep stray numpy scalars as JSON numbers, never strings
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _emit(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(rows, stream, indent=2, default=_json_default)
        stream.write("\n")
    elif fmt == "csv":
        serialize.write_csv(
            [
                {k: (json.dumps(v) if isinstance(v, (dict, list)) else v) for k, v in row.items()}
                for row in rows
            ],
            stream,
        )
    else:
        for i, row in enumerate(rows):
            if i:
                stream.write("\n")
            for key, value in row.items():
                if isinstance(value, (dict, list)):
                    value = json.dumps(value)
                    stream.write(f"{key}: {value}\n")
                else:
                    stream.write(f"{key}: {_fmt(value)}\n")


def _check_work(flag: str, amount, unit: str) -> None:
    if amount > WORK_LIMITS[unit]:
        raise ParseError(f"{flag} asks for more than the work limit of {WORK_LIMITS[unit]} {unit}")


def _cmd_entropy(args) -> list[dict]:
    obj = serialize.load_json(args.input)
    which = args.which
    if which == "shannon":
        result = ent.shannon(serialize.probs_from_json(obj), args.base)
    elif which == "von-neumann":
        result = ent.von_neumann(DensityMatrix(serialize.matrix_from_json(obj)), args.base)
    elif which == "informational":
        result = ent.informational(DensityMatrix(serialize.matrix_from_json(obj)), args.base)
    elif which == "pure":
        result = ent.pure_entropy(serialize.state_from_json(obj), args.base)
    else:  # bound-check
        check = ent.ensemble_bound_check(serialize.ensemble_from_json(obj), args.base)
        return [
            {
                "measure": "bound-check",
                "lhs": check.lhs,
                "rhs": check.rhs,
                "holds": check.holds,
                "base": check.base,
            }
        ]
    return [{"measure": which, "value": result.value, "base": result.base}]


def _cmd_unitary_min(args) -> list[dict]:
    if args.budget < 0:
        raise ParseError(f"--budget must be >= 0, got {args.budget}")
    rho = DensityMatrix(serialize.matrix_from_json(serialize.load_json(args.input)))
    report = ent.min_informational_over_unitaries(rho, args.base, budget=args.budget)
    if report.residual_vs_von_neumann > RESIDUAL_WARN:
        print(
            f"warning: residual {report.residual_vs_von_neumann:.3e} exceeds 1e-4",
            file=sys.stderr,
        )
    return [
        {
            "min_informational": report.min_value,
            "von_neumann": ent.von_neumann(rho, args.base).value,
            "residual": report.residual_vs_von_neumann,
            "iterations": report.iterations,
            "budget_exhausted": report.budget_exhausted,
            "base": report.base,
            "minimizer": serialize.matrix_to_json(report.minimizer),
        }
    ]


def _zeno_plan(args) -> zeno.SteeringPlan:
    if args.n_steps is not None:
        _check_work("--n-steps", args.n_steps, "steps")
        return zeno.SteeringPlan.from_steps(args.n_steps)
    if args.theta_deg is None:
        raise QentroError("give either --theta-deg or --n-steps")
    # a step of theta degrees plans about 90 / theta steps, maybe inf: check first
    if args.theta_deg > 0:
        _check_work("--theta-deg", 90.0 / args.theta_deg, "steps")
    return zeno.SteeringPlan(math.radians(args.theta_deg))


def _cmd_zeno(args) -> list[dict]:
    _check_work("--trials", args.trials, "trials")
    if args.sweep:
        try:
            lo, hi = (int(part) for part in args.sweep.split(":"))
        except ValueError as exc:
            raise ParseError(f"--sweep expects N1:N2, got {args.sweep!r}") from exc
        if lo > hi:
            raise ParseError(f"--sweep expects N1 <= N2, got {args.sweep!r}")
        _check_work("--sweep", hi, "steps")
        steps = sum(range(max(lo, 1), hi + 1))
        _check_work("--sweep with --trials", steps * args.trials, "draws")
        _check_work("--sweep summed over its step counts", steps, "steps")
        return zeno.steering_sweep_rows(range(lo, hi + 1), args.trials, args.seed)
    plan = _zeno_plan(args)
    _check_work("--trials with the planned steps", plan.n_steps * args.trials, "draws")
    result = zeno.simulate_steering(plan, args.trials, np.random.default_rng(args.seed))
    return [zeno.steering_row(plan, result, args.seed)]


def _cmd_mzi(args) -> list[dict]:
    if args.photons < 0:
        raise ParseError(f"--photons must be >= 0, got {args.photons}")
    _check_work("--photons", args.photons, "photons")
    if args.arrangement == "rigid":
        mirror = mzi.MirrorModel.rigid()
    elif args.arrangement == "springy":
        mirror = mzi.MirrorModel.springy()
    else:
        mirror = mzi.MirrorModel.unknown(args.prior)
    return mzi.arrangement_rows(mirror, args.photons, args.seed)


def _cmd_protocol(args) -> list[dict]:
    if args.mode == "attack":
        _check_work("--n", args.n, "key angles")
        _check_work("--trials", args.trials, "trials")
        _check_work("--trials with --n", args.n * args.trials, "draws")
        key = protocol.SignatureKey.uniform(args.n, math.radians(args.key_angle_deg))
        rng = np.random.default_rng(args.seed)
        result = protocol.eve_attack_success(key, args.strategy, args.trials, rng)
        return [protocol.attack_row(key, result, args.seed)]
    _check_work("--shots", args.shots, "shots")
    theta_true = math.radians(args.theta_deg)
    source = protocol.HiddenQubitSource(theta_true, seed=args.seed)
    if args.adaptive:
        estimate = protocol.estimate_theta_adaptive(
            source,
            math.radians(args.target_halfwidth_deg),
            confidence_shots=args.shots,
        )
        n = estimate.rounds
    else:
        _check_work("--grid-n", args.grid_n, "grid levels")
        grid = protocol.QuantizationGrid(args.grid_n)
        estimate = protocol.estimate_theta_bruteforce(source, grid, args.shots)
        n = args.grid_n
    return [protocol.estimation_row(n, args.shots, theta_true, estimate, args.seed)]


def _cmd_bound(args) -> list[dict]:
    nats = ent.bekenstein_bound(args.area, ent.NATS).value
    bits = ent.bekenstein_bound(args.area, ent.BITS).value
    return [{"area": args.area, "nats": nats, "bits": bits}]


def _add_global_args(parser, suppress: bool):
    # the same flags are accepted before or after the subcommand; the
    # per-subcommand copies use SUPPRESS so they never clobber values
    # already parsed at the top level
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--seed",
        type=int,
        # a string default is converted by type=int, so a malformed
        # QENTRO_SEED is reported as a parse error like a bad --seed
        default=default(os.environ.get("QENTRO_SEED", "0")),
        help="random seed (default: QENTRO_SEED env var or 0)",
    )
    parser.add_argument("--base", choices=(ent.BITS, ent.NATS), default=default(ent.BITS))
    parser.add_argument("--format", choices=FORMATS, default=default("table"))
    parser.add_argument("--out", default=default(None), help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qentro",
        description="Entropy measures and measurement-driven simulations for qubit states.",
    )
    _add_global_args(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_args(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", parents=[common], help="entropy measures of a serialized state or matrix")
    p.add_argument("input", help="JSON input file")
    p.add_argument(
        "--which",
        required=True,
        choices=("shannon", "von-neumann", "informational", "pure", "bound-check"),
    )
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("unitary-min", parents=[common], help="minimize informational entropy over unitaries")
    p.add_argument("input", help="JSON density matrix file")
    p.add_argument("--budget", type=int, default=200_000)
    p.set_defaults(handler=_cmd_unitary_min)

    p = sub.add_parser("zeno", parents=[common], help="measurement steering: closed form vs Monte Carlo")
    p.add_argument("--theta-deg", type=float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--sweep", default=None, metavar="N1:N2", help="sweep step counts")
    p.set_defaults(handler=_cmd_zeno)

    p = sub.add_parser("mzi", parents=[common], help="interferometer outcome distributions and posteriors")
    p.add_argument("--arrangement", required=True, choices=("rigid", "springy", "unknown"))
    p.add_argument("--prior", type=float, default=0.5)
    p.add_argument("--photons", type=int, default=0)
    p.set_defaults(handler=_cmd_mzi)

    p = sub.add_parser("protocol", parents=[common], help="angle estimation and signature forgery simulations")
    p.add_argument("mode", choices=("estimate", "attack"))
    p.add_argument("--n", type=int, default=8, help="key length (attack)")
    p.add_argument("--grid-n", type=int, default=8, help="quantization levels (estimate)")
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--theta-deg", type=float, default=30.0, help="hidden angle (estimate)")
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--target-halfwidth-deg", type=float, default=2.8125)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--strategy", choices=protocol.EVE_STRATEGIES, default=protocol.GUESS_BITS)
    p.add_argument("--key-angle-deg", type=float, default=45.0)
    p.set_defaults(handler=_cmd_protocol)

    p = sub.add_parser("bound", parents=[common], help="area entropy bound in nats and bits")
    p.add_argument("area", type=float)
    p.set_defaults(handler=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        print("error: parse: --seed must be a nonnegative integer", file=sys.stderr)
        return 2
    try:
        rows = args.handler(args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except QentroError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        _emit(rows, args.format, sys.stdout)
        return 0
    try:
        handle = open(args.out, "w", newline="")
    except OSError as exc:
        print(f"error: parse: cannot write --out {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
    with handle:
        _emit(rows, args.format, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
