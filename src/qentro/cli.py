"""Command-line interface.

One binary with subcommands (entropy, unitary-min, zeno, mzi, protocol
estimate, protocol attack, bound) and global flags for seed, log base, and
output format.  Each handler parses, calls the library and returns the rows
the library builds; ``serialize.write_rows`` writes them, so identical
invocations print identical bytes.  Exit codes: 0 ok, 2 input parse error,
3 domain invariant violation.

``main(argv)`` may be called any number of times in one process: it builds
the argument parser on its first call and reuses it, and reads the
``QENTRO_SEED`` default of ``--seed`` on every call.
"""

import argparse
import contextlib
import functools
import math
import os
import sys

from . import entropy as ent
from . import interferometer as mzi
from . import montecarlo, protocol, serialize, zeno
from .errors import ParseError, QentroError
from .linalg import RESIDUAL_WARN
from .states import DensityMatrix

# Work limits: the most that one invocation may ask for, checked before any
# simulation starts.  A request above a limit exits 2 and names the limit.
WORK_LIMITS = {
    "trials": 10**7,  # --trials of zeno and protocol attack
    # zeno steps: --n-steps, about 90 / --theta-deg, or summed over a --sweep;
    # the samplers make one draw per step or key position, whatever the trial
    # count, so the steps and key angles bound their time
    "steps": 10**6,
    "key angles": 64,  # protocol attack --n
    "grid levels": 1024,  # protocol estimate --grid-n
    "shots": 10**9,  # protocol estimate --shots
    "photons": 10**9,  # mzi --photons
    # the dim of a JSON matrix read by entropy or unitary-min, and of an
    # ensemble, whose mixture is dim x dim: a default-budget unitary-min spends
    # O(dim^2) per pair visit and takes ~0.06 s on a d64 Wishart matrix and
    # ~0.75 s at d128, in process, best of 3, on a shared 2-vCPU x86-64 VM
    # with one BLAS thread
    "dim": 64,
}


def _check_work(flag: str, amount, unit: str) -> None:
    if amount > WORK_LIMITS[unit]:
        raise ParseError(f"{flag} asks for more than the work limit of {WORK_LIMITS[unit]} {unit}")


def _matrix_from_json(obj):
    # the dim is checked against its limit before any entry is read
    _check_work("matrix dim", serialize.matrix_dim(obj), "dim")
    return serialize.matrix_from_json(obj)


def _ensemble_from_json(obj):
    # pure parts cost what their amplitudes do, but their mixture is dim x dim;
    # a mixed part's dim is checked before any of its entries is read
    try:
        matrix = obj["mixed_part"]["matrix"]
    except (KeyError, TypeError):
        pass  # no mixed part, or a malformed one, which the decoder names
    else:
        _check_work("ensemble dim", serialize.matrix_dim(matrix), "dim")
    ensemble = serialize.ensemble_from_json(obj)
    _check_work("ensemble dim", ensemble.dim, "dim")
    return ensemble


# entropy --which: the measure of each choice and the decoder of its JSON input
_MEASURES = {
    "shannon": (ent.shannon, serialize.probs_from_json),
    "von-neumann": (ent.von_neumann, _matrix_from_json),
    "informational": (ent.informational, _matrix_from_json),
    "pure": (ent.pure_entropy, serialize.state_from_json),
    "bound-check": (ent.ensemble_bound_check, _ensemble_from_json),
}


def _cmd_entropy(args) -> list[dict]:
    measure, decode = _MEASURES[args.which]
    result = measure(decode(serialize.load_json(args.input)), args.base)
    # the columns are the result dataclass's fields, in their order
    return [{"measure": args.which, **vars(result)}]


def _cmd_unitary_min(args) -> list[dict]:
    if args.budget < 0:
        raise ParseError(f"--budget must be >= 0, got {args.budget}")
    rho = DensityMatrix(_matrix_from_json(serialize.load_json(args.input)))
    report = ent.min_informational_over_unitaries(rho, args.base, budget=args.budget)
    if report.residual_vs_von_neumann > RESIDUAL_WARN:
        print(f"warning: residual {report.residual_vs_von_neumann:.3e} exceeds 1e-4", file=sys.stderr)
    return [ent.minimization_row(report)]


def _cmd_zeno(args) -> list[dict]:
    _check_work("--trials", args.trials, "trials")
    if args.sweep is not None:
        try:
            lo, hi = (int(part) for part in args.sweep.split(":"))
        except ValueError as exc:
            raise ParseError(f"--sweep expects N1:N2, got {args.sweep!r}") from exc
        if lo > hi:
            raise ParseError(f"--sweep expects N1 <= N2, got {args.sweep!r}")
        first = max(lo, 1)  # step counts below 1 are rejected by the plan
        steps = (hi * (hi + 1) - (first - 1) * first) // 2 if hi >= first else 0
        _check_work("--sweep summed over its step counts", steps, "steps")
        return zeno.steering_sweep_rows(range(lo, hi + 1), args.trials, args.seed)
    if args.n_steps is not None:
        _check_work("--n-steps", args.n_steps, "steps")
        plan = zeno.SteeringPlan.from_steps(args.n_steps)
    else:
        # a step of theta degrees plans about 90 / theta steps, maybe inf: check first
        if args.theta_deg > 0:
            _check_work("--theta-deg", 90.0 / args.theta_deg, "steps")
        plan = zeno.SteeringPlan(math.radians(args.theta_deg))
    result = zeno.simulate_steering(plan, args.trials, montecarlo.seeded(args.seed))
    return [zeno.steering_row(plan, result, args.seed)]


def _cmd_mzi(args) -> list[dict]:
    if args.photons < 0:
        raise ParseError(f"--photons must be >= 0, got {args.photons}")
    _check_work("--photons", args.photons, "photons")
    if args.prior is None and args.arrangement == mzi.UNKNOWN:
        mirror = mzi.MirrorModel.unknown()  # at its default prior
    else:
        # the model rejects a prior given to a rigid or springy mirror
        mirror = mzi.MirrorModel(args.arrangement, args.prior)
    return mzi.arrangement_rows(mirror, args.photons, args.seed)


def _cmd_estimate(args) -> list[dict]:
    _check_work("--shots", args.shots, "shots")
    theta_true = math.radians(args.theta_deg)
    source = protocol.HiddenQubitSource(theta_true, seed=args.seed)
    if args.adaptive:
        halfwidth = math.radians(args.target_halfwidth_deg)
        estimate = protocol.estimate_theta_adaptive(source, halfwidth, confidence_shots=args.shots)
        n = estimate.rounds
    else:
        _check_work("--grid-n", args.grid_n, "grid levels")
        grid = protocol.QuantizationGrid(args.grid_n)
        estimate = protocol.estimate_theta_bruteforce(source, grid, args.shots)
        n = args.grid_n
    return [protocol.estimation_row(n, args.shots, theta_true, estimate, args.seed)]


def _cmd_attack(args) -> list[dict]:
    _check_work("--n", args.n, "key angles")
    _check_work("--trials", args.trials, "trials")
    key = protocol.SignatureKey.uniform(args.n, math.radians(args.key_angle_deg))
    result = protocol.eve_attack_success(key, args.strategy, args.trials, montecarlo.seeded(args.seed))
    return [protocol.attack_row(key, result, args.seed)]


def _cmd_bound(args) -> list[dict]:
    return [ent.bound_row(args.area)]


def _add_global_args(parser, suppress: bool):
    # the same flags are accepted before or after the subcommand, and between
    # protocol and its mode; the per-subcommand copies use SUPPRESS so they
    # never clobber values already parsed at a level above
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--seed",
        type=int,
        default=default("0"),  # main replaces it with QENTRO_SEED on each call
        help="random seed (default: QENTRO_SEED env var or 0)",
    )
    parser.add_argument("--base", choices=(ent.BITS, ent.NATS), default=default(ent.BITS))
    parser.add_argument("--format", choices=serialize.FORMATS, default=default("table"))
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
    p.add_argument("--which", required=True, choices=tuple(_MEASURES))
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("unitary-min", parents=[common], help="minimize informational entropy over unitaries")
    p.add_argument("input", help="JSON density matrix file")
    p.add_argument("--budget", type=int, default=ent.DEFAULT_BUDGET)
    p.set_defaults(handler=_cmd_unitary_min)

    p = sub.add_parser("zeno", parents=[common], help="measurement steering: closed form vs Monte Carlo")
    plan = p.add_mutually_exclusive_group(required=True)
    plan.add_argument("--theta-deg", type=float)
    plan.add_argument("--n-steps", type=int)
    plan.add_argument("--sweep", metavar="N1:N2", help="sweep step counts")
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(handler=_cmd_zeno)

    p = sub.add_parser("mzi", parents=[common], help="interferometer outcome distributions and posteriors")
    p.add_argument("--arrangement", required=True, choices=("rigid", "springy", "unknown"))
    p.add_argument("--prior", type=float)
    p.add_argument("--photons", type=int, default=0)
    p.set_defaults(handler=_cmd_mzi)

    p = sub.add_parser("protocol", parents=[common], help="angle estimation and signature forgery simulations")
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("estimate", parents=[common], help="estimate a hidden angle from its copies")
    m.add_argument("--grid-n", type=int, default=8, help="quantization levels")
    m.add_argument("--shots", type=int, default=1000)
    m.add_argument("--theta-deg", type=float, default=30.0, help="hidden angle")
    m.add_argument("--adaptive", action="store_true")
    m.add_argument("--target-halfwidth-deg", type=float, default=2.8125)
    m.set_defaults(handler=_cmd_estimate)
    m = modes.add_parser("attack", parents=[common], help="forge signatures against a uniform key")
    m.add_argument("--n", type=int, default=8, help="key length")
    m.add_argument("--trials", type=int, default=100_000)
    m.add_argument("--strategy", choices=protocol.EVE_STRATEGIES, default=protocol.GUESS_BITS)
    m.add_argument("--key-angle-deg", type=float, default=45.0)
    m.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("bound", parents=[common], help="area entropy bound in nats and bits")
    p.add_argument("area", type=float)
    p.set_defaults(handler=_cmd_bound)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import, and kept for the process
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    # a string default is converted by type=int, so a malformed QENTRO_SEED
    # is reported as a parse error like a bad --seed
    parser.set_defaults(seed=os.environ.get("QENTRO_SEED", "0"))
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ParseError("--seed must be a nonnegative integer")
        rows = args.handler(args)
        # the --out file is opened only once the handler has rows to write
        try:
            out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
        except OSError as exc:
            raise ParseError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
        with out as stream:
            serialize.write_rows(rows, args.format, stream)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except QentroError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
