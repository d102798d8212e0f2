"""Span tracing for the traced run, and the per-layer metrics built from it.

Only the traced worker process installs the tracer.  It wraps, by module
attribute, every public function defined in a qentro layer module, and
rebinds every other name a layer module bound to the same function with
``from ... import`` (``shannon`` in ``interferometer``, for example).
``DensityMatrix`` is traced by wrapping its ``__init__``, so all its names
(``states``, ``serialize``, ``cli``) and ``isinstance`` keep working.
``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped too.

Each wrapper records a span ``[name, start, end, parent span, op id]`` in
memory; the benchmark loop opens one ``op`` span per operation.  A span's
self time is its duration minus the time its child spans cover.
"""

import functools
import gzip
import importlib
import inspect
import statistics
import time

import numpy as np

from checks import residual_target
from metrics import MIN_DIMS, CLI_SUBCOMMANDS

LAYERS = ("linalg", "states", "entropy", "zeno", "interferometer", "protocol", "serialize", "cli")

OP = "op"
MINIMIZE = "entropy.min_informational_over_unitaries"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _minimize_facts(args, kwargs, report, _):
    rho = _arg(args, kwargs, 0, "rho")
    dim = rho.dim if hasattr(rho, "dim") else len(rho)
    return {"dim": dim, "evaluations": report.iterations, "residual": report.residual_vs_von_neumann}


def _steering_facts(args, kwargs, result, _):
    # one uniform float64 draw per trial and step, compared into a bool
    # array, plus the bool survivor array
    n_steps = _arg(args, kwargs, 0, "plan").n_steps
    trials = _arg(args, kwargs, 1, "trials")
    return {"draws": trials * n_steps, "bytes": trials * n_steps * (8 + 1) + trials}


def _attack_facts(args, kwargs, result, _):
    # one preparation draw and one verification draw per trial and position
    key = _arg(args, kwargs, 0, "key")
    trials = _arg(args, kwargs, 2, "trials")
    return {"draws": 2 * trials * key.length}


def _csv_position(args, kwargs):
    return {"start": _arg(args, kwargs, 1, "stream").tell()}


def _csv_facts(args, kwargs, result, before):
    return {"bytes": _arg(args, kwargs, 1, "stream").tell() - before["start"]}


def _cli_subcommand(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return {"sub": next((a for a in argv if a in CLI_SUBCOMMANDS), "")}


# name -> (pre hook, post hook), either may be None; hooks run outside the
# span's timing.  A pre hook's facts are kept when the call raises, a post
# hook's replace them when it returns.
FACTS = {
    MINIMIZE: (None, _minimize_facts),
    "zeno.simulate_steering": (None, _steering_facts),
    "protocol.eve_attack_success": (None, _attack_facts),
    "serialize.write_csv": (_csv_position, _csv_facts),
    "cli.main": (_cli_subcommand, None),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.facts = {}
        self.stack = [-1]
        self.op = -1

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        spans, stack, facts = self.spans, self.stack, self.facts
        pre, post = FACTS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1], tracer.op]
            spans.append(rec)
            stack.append(idx)
            before = pre(args, kwargs) if pre else None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if before is not None:
                    facts[idx] = before
            if post:
                facts[idx] = post(args, kwargs, result, before)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap the layers for the rest of this process."""
        modules = [importlib.import_module(f"qentro.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and obj not in wrappers
                ):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
        for mod in modules + [importlib.import_module("qentro")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        density = importlib.import_module("qentro.states").DensityMatrix
        density.__init__ = self.wrap(density.__init__, "states.DensityMatrix")
        for attr in ("eigh", "eigvalsh"):
            setattr(np.linalg, attr, self.wrap(getattr(np.linalg, attr), f"numpy.{attr}"))

    def reset(self):
        del self.spans[:]
        self.facts.clear()

    def begin_op(self, op_id):
        self.op = op_id
        rec = [self._name_id(OP), 0.0, 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()

    def end_op(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_s\tend_s\tparent\top\n")
            for nid, start, end, parent, op in self.spans:
                out.write(f"{self.names[nid]}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded run (setup and overhead aside)."""
        spans, names = self.spans, self.names
        duration = [rec[2] - rec[1] for rec in spans]
        child = [0.0] * len(spans)
        for rec, d in zip(spans, duration):
            if rec[3] >= 0:
                child[rec[3]] += d
        calls, total, self_time, by_name = {}, {}, {}, {}
        for i, rec in enumerate(spans):
            name = names[rec[0]]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration[i]
            self_time[name] = self_time.get(name, 0.0) + duration[i] - child[i]
            by_name.setdefault(name, []).append(i)
        n_ops = max(calls.get(OP, 0), 1)

        def per_op(name):
            return calls.get(name, 0) / n_ops

        def mean_s(name):
            return total[name] / calls[name] if calls.get(name) else 0.0

        def layer_self(layer):
            return sum(t for name, t in self_time.items() if name.split(".")[0] == layer)

        def facts_of(name):
            return [(i, self.facts[i]) for i in by_name.get(name, []) if i in self.facts]

        m = {
            "linalg.as_matrix.calls_per_op": per_op("linalg.as_matrix"),
            "linalg.is_hermitian.calls_per_op": per_op("linalg.is_hermitian"),
            "linalg.is_unitary.calls_per_op": per_op("linalg.is_unitary"),
            "linalg.self_us_per_op": layer_self("linalg") / n_ops * 1e6,
            "states.DensityMatrix.calls_per_op": per_op("states.DensityMatrix"),
            "states.DensityMatrix.us_per_call": mean_s("states.DensityMatrix") * 1e6,
            "states.evolve_unitary.us_per_call": mean_s("states.evolve_unitary") * 1e6,
            "states.measure_collapse.us_per_call": mean_s("states.measure_collapse") * 1e6,
            "states.dephase.us_per_call": mean_s("states.dephase") * 1e6,
            "numpy.eigvalsh.calls_per_op": per_op("numpy.eigvalsh"),
            "numpy.eigh.calls_per_op": per_op("numpy.eigh"),
            "entropy.informational.us_per_call": mean_s("entropy.informational") * 1e6,
            "entropy.von_neumann.us_per_call": mean_s("entropy.von_neumann") * 1e6,
            "entropy.ensemble_bound_check.us_per_call": mean_s("entropy.ensemble_bound_check") * 1e6,
        }


        minimize = facts_of(MINIMIZE)
        for d in MIN_DIMS:
            at_dim = [(i, f) for i, f in minimize if f["dim"] == d]
            n = len(at_dim)
            m[f"entropy.min_informational.ms_per_call.d{d}"] = (
                sum(duration[i] for i, _ in at_dim) / n * 1e3 if n else 0.0
            )
            m[f"entropy.min_informational.evaluations.d{d}"] = (
                sum(f["evaluations"] for _, f in at_dim) / n if n else 0.0
            )
            m[f"entropy.min_informational.worst_residual.d{d}"] = max(
                (f["residual"] for _, f in at_dim), default=0.0
            )
            m[f"entropy.min_informational.failures.d{d}"] = (
                sum(f["residual"] > residual_target(d) for _, f in at_dim) / n if n else 0.0
            )
        m["entropy.min_informational.eig_calls_in_search"] = self._eig_calls_in_search()
        op_time = total.get(OP, 0.0)
        m["entropy.min_informational.share_of_op"] = total.get(MINIMIZE, 0.0) / op_time if op_time else 0.0

        for name in ("zeno.simulate_steering", "protocol.eve_attack_success"):
            facts = facts_of(name)
            draws = sum(f["draws"] for _, f in facts)
            busy = sum(duration[i] for i, _ in facts)
            m[f"{name}.draws"] = draws / len(facts) if facts else 0.0
            m[f"{name}.draws_per_s"] = draws / busy if busy else 0.0
        steering = facts_of("zeno.simulate_steering")
        m["zeno.simulate_steering.bytes_computed"] = (
            sum(f["bytes"] for _, f in steering) / len(steering) if steering else 0.0
        )
        m["protocol.estimate_theta_bruteforce.ms_per_call"] = mean_s("protocol.estimate_theta_bruteforce") * 1e3
        m["protocol.estimate_theta_adaptive.ms_per_call"] = mean_s("protocol.estimate_theta_adaptive") * 1e3
        m["interferometer.simulate_photons.us_per_call"] = mean_s("interferometer.simulate_photons") * 1e6
        m["interferometer.self_us_per_op"] = layer_self("interferometer") / n_ops * 1e6
        m["serialize.matrix_from_json.us_per_call"] = mean_s("serialize.matrix_from_json") * 1e6
        m["serialize.load_json.us_per_call"] = mean_s("serialize.load_json") * 1e6
        m["serialize.write_csv.us_per_call"] = mean_s("serialize.write_csv") * 1e6
        written = facts_of("serialize.write_csv")
        m["serialize.write_csv.bytes_per_call"] = (
            sum(f["bytes"] for _, f in written) / len(written) if written else 0.0
        )
        m["cli.build_parser.ms_per_call"] = mean_s("cli.build_parser") * 1e3
        mains = calls.get("cli.main", 0)
        m["cli.main.self_ms_per_call"] = self_time.get("cli.main", 0.0) / mains * 1e3 if mains else 0.0
        cli_calls = facts_of("cli.main")
        for sub in CLI_SUBCOMMANDS:
            times = [duration[i] for i, f in cli_calls if f["sub"] == sub]
            m[f"cli.{sub}.ms_p50"] = statistics.median(times) * 1e3 if times else 0.0
        return m

    def _eig_calls_in_search(self) -> int:
        """Eigensolver calls made inside the minimizer, other than by its
        von Neumann reference value."""
        names, spans = self.names, self.spans
        eig = {self._ids[n] for n in ("numpy.eigh", "numpy.eigvalsh") if n in self._ids}
        stop = self._ids.get("entropy.von_neumann")
        target = self._ids.get(MINIMIZE)
        count = 0
        for rec in spans:
            if rec[0] not in eig:
                continue
            parent = rec[3]
            while parent >= 0:
                nid = spans[parent][0]
                if nid == stop:
                    break
                if nid == target:
                    count += 1
                    break
                parent = spans[parent][3]
        return count
