"""Rules with one owner each: ``serialize.write_rows`` turns rows into the
bytes of every output format, ``montecarlo.seeded`` turns a seed into a
random stream, ``montecarlo.thin`` rejects a trial count below 1 and
``montecarlo.RateEstimate`` records each of its runs, and
``interferometer.MirrorModel`` turns an arrangement into
its joint table.  The CLI parses, checks work limits and picks exit codes,
each at one place, and writes rows only through ``serialize.write_rows``;
it hands the library an integer seed, builds no random stream and calls no
Monte Carlo kernel.  Its handlers return the rows the library builds, and
compute nothing the library has computed.  The minimizer's round-robin tournament is built only by
``entropy._schedule``, once per dimension, and only
``min_informational_over_unitaries`` reads its budget, which it spends in
whole steps.  Only the owners of a spectrum,
``states.DensityMatrix`` (``eigvalsh``) and ``zeno.Hamiltonian`` (``eigh``),
call an eigensolver.  No module calls ``np.linalg.norm`` or reads another
module's private name.
Every public function, class and method has a caller in the library, a demo
or the benchmark, every field of a public class has a reader there, and
every exception class has an ``except`` clause in the library."""

import ast
import collections
import tokenize
from pathlib import Path

from qentro import cli

SRC = Path(cli.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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


def test_cli_handlers_build_no_rows():
    # _cmd_entropy's one dict takes its columns from the result dataclass's fields
    def builds_a_dict(function):
        return any(
            isinstance(node, (ast.Dict, ast.DictComp))
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict")
            for node in ast.walk(function)
        )

    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name.startswith("_cmd_")]
    assert [handler.name for handler in handlers if builds_a_dict(handler)] == ["_cmd_entropy"]
    # the rows of unitary-min and bound carry these values already
    called = {getattr(node.func, "attr", None) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & {"von_neumann", "bekenstein_bound"} == set()


def test_cli_hands_the_library_an_integer_seed():
    # the row builders key their own streams, so the CLI neither builds a
    # stream nor runs a kernel on one
    assert names(SRC / "cli.py") & {"montecarlo", "seeded", "simulate_steering", "eve_attack_success"} == set()


def test_seeded_streams_are_built_only_in_montecarlo():
    builders = sorted(path.name for path in SRC.glob("*.py") if names(path) & {"default_rng", "SeedSequence"})
    assert builders == ["montecarlo.py"]


def test_eigensolvers_are_called_only_in_states_and_zeno():
    # entropy.py among the rest: the minimizer finds its floor without a spectrum
    solvers = {"eigh", "eigvalsh", "eig", "eigvals"}
    callers = sorted(path.name for path in SRC.glob("*.py") if names(path) & solvers)
    assert callers == ["states.py", "zeno.py"]
    # each spectrum has one owner: zeno reads H's eigenpairs only through
    # Hamiltonian.eigen(), and a state's eigenvalues come only from DensityMatrix
    assert readers("eigh") == {("zeno.py", "Hamiltonian")}
    assert readers("eigvalsh") == {("states.py", "DensityMatrix")}
    assert readers("eig") == readers("eigvals") == set()


def test_no_module_reads_the_norm_from_numpy_linalg():
    # every squared norm of an amplitude vector is the sum of (c * conj(c)).real,
    # the norm check's, the Born weight's and each renormalization's alike
    assert readers("norm") == set()


def test_the_trials_rule_is_stated_only_by_the_sampler():
    # montecarlo.thin rejects a trial count below 1 for every simulation that thins
    owners = sorted(path.name for path in SRC.glob("*.py") if "trials must be >= 1" in path.read_text())
    assert owners == ["montecarlo.py"]


def test_every_thinned_run_is_one_rate_estimate():
    # a second result class would restate the fields that stderr and z read
    annotating, subclassing = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            fields = {node.target.id for node in top.body if isinstance(node, ast.AnnAssign)}
            if "expected_rate" in fields:
                annotating.append(f"{path.stem}.{top.name}")
            if any(ast.unparse(base).split(".")[-1] == "RateEstimate" for base in top.bases):
                subclassing.append(f"{path.stem}.{top.name}")
    assert annotating == ["montecarlo.RateEstimate"]
    assert subclassing == []


def test_cli_prints_each_error_kind_at_one_site():
    text = (SRC / "cli.py").read_text()
    assert text.count("error: parse:") == 1
    assert text.count("error: domain:") == 1


def readers(name):
    # (module, top-level definition) of every load of the name, bare or as an attribute
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                loaded = isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                if loaded and getattr(node, "id", getattr(node, "attr", None)) == name:
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_the_mirror_model_reads_the_likelihood_table():
    assert readers("_LIKELIHOOD") == {("interferometer.py", "MirrorModel")}


def test_the_round_robin_is_built_only_by_the_cached_schedule():
    # a sweep that rebuilt the tournament would call _round_robin itself
    assert readers("_round_robin") == {("entropy.py", "_schedule")}
    tops = ast.parse((SRC / "entropy.py").read_text()).body
    schedule = next(top for top in tops if getattr(top, "name", None) == "_schedule")
    assert [ast.unparse(decorator) for decorator in schedule.decorator_list] == ["functools.cache"]


def test_only_the_minimizer_reads_its_budget():
    # the search spends the budget in whole steps, so neither sweep takes or checks it
    assert readers("budget") == {
        ("entropy.py", "min_informational_over_unitaries"),
        ("cli.py", "_cmd_unitary_min"),
    }


def own_names(path):
    # the names a file defines itself or imports from outside qentro: a use of
    # one of them reads that file's own object, not the library's
    own = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] != "qentro"):
            own.update(alias.asname or alias.name for alias in node.names)
    return own


def reads(path, own):
    # (bare names, attribute names) that the file reads; a definition, an
    # import or an assignment target is not a read
    bare, attrs = collections.Counter(), collections.Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in own:
            attrs[node.attr] += 1
    return bare, attrs


MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def caller_reads():
    # (bare names, attribute names) read in the library, a demo or the
    # benchmark; tests do not count
    callers = [(path, set()) for path in MODULES]
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        callers.append((path, own_names(path)))
    bare, attrs = collections.Counter(), collections.Counter()
    for path, own in callers:
        file_bare, file_attrs = reads(path, own)
        bare.update(file_bare)
        attrs.update(file_attrs)
    return bare, attrs


def test_every_public_name_has_a_caller():
    # a method or property is read only as an attribute, so a local
    # variable of the same name is not its caller
    bare, attrs = caller_reads()
    uncalled = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            if not bare[top.name] + attrs[top.name]:
                uncalled.append(top.name)
            if isinstance(top, ast.ClassDef):
                methods = [node.name for node in top.body if isinstance(node, ast.FunctionDef)]
                uncalled += [name for name in methods if not name.startswith("_") and not attrs[name]]
    assert not uncalled, f"no caller outside the tests: {uncalled}"


def test_every_result_field_has_a_reader():
    # a field of a public class, annotated in its body or stored on self, is
    # state that some caller reads.  Reads are matched by attribute name, so
    # any ``x.name`` counts for every field called ``name``: the fields this
    # flags are a lower bound on the unread ones, and each of them is certain
    _, attrs = caller_reads()
    unread = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            fields = {node.target.id for node in top.body if isinstance(node, ast.AnnAssign)}
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                ):
                    fields.add(node.attr)
            unread += [f"{top.name}.{name}" for name in sorted(fields) if not name.startswith("_") and not attrs[name]]
    assert not unread, f"no reader outside the tests: {unread}"


def test_no_module_reads_another_modules_private_name():
    # a private name is its module's own: a rule that another module needs
    # is public, or it is read through the public name that owns it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                found += [f"{path.stem}: from .{node.module or ''} import {name}" for name in private]
                if node.module is None:
                    aliases.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert not found, f"private names read from another module: {found}"


def test_every_exception_class_is_caught():
    # a class that no except clause names is one that no caller tells apart
    classes = {top.name for top in ast.parse((SRC / "errors.py").read_text()).body if isinstance(top, ast.ClassDef)}
    caught = set()
    for path in SRC.glob("*.py"):
        for handler in ast.walk(ast.parse(path.read_text())):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught.update(getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(handler.type))
    uncaught = sorted(classes - caught)
    assert not uncaught, f"no except clause under src/qentro names: {uncaught}"


def test_each_domain_message_is_raised_at_one_site():
    # a rule stated twice is a rule that can drift: one owner raises each message
    sites = collections.Counter()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == "QentroError" and node.exc.args:
                    sites[ast.unparse(node.exc.args[0])] += 1
    assert sites, "no QentroError raise was found"
    repeated = sorted(template for template, count in sites.items() if count > 1)
    assert not repeated, f"raised at more than one site: {repeated}"
