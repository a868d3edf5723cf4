"""Source hygiene of the package, checked with the standard-library ``ast``:
no unused import, no unreferenced module-level name, no defaulted parameter
that no call passes, a package ``__init__`` that imports nothing and binds
only ``__version__``, no definition that neither a command nor a listed
outside entry point reaches, no private name read across modules, one Rabi
law (``math.sin`` in ``qubit.py`` alone), one thermometer (``BETA_CAP`` and
``math.atanh`` in ``qubit.py`` alone), no stream key given as a list, a
table of command keys that matches what each command's handler reads, and
the names and parameters that the benchmark's tracer looks up; and, run in
fresh interpreters, every module importable alone and no command loading a
module it does not use.  Public names count as used when the package, its
tests or the benchmark harness read them; a defaulted parameter counts as
passed only when the package or the benchmark harness passes it, since a
knob that only tests turn is no option."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qfdr
from qfdr.config import COMMAND_KEYS, COMMANDS

SOURCES = {path.name: ast.parse(path.read_text()) for path in Path(qfdr.__file__).parent.glob("*.py")}
ROOT = Path(__file__).resolve().parents[1]


def _trees(*folders):
    return [ast.parse(path.read_text()) for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))]


TREES = _trees("src", "tests", "perfbench")
CALLERS = _trees("src", "perfbench")


def loaded_names(tree):
    """Names a module reads, as bare names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def module_level_names(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", node)]
        for target in targets:
            yield getattr(target, "name", getattr(target, "id", ""))


def imported(tree):
    """(bound name, module) of every import statement but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node


def test_every_import_is_used():
    for name, tree in SOURCES.items():
        used = loaded_names(tree)
        unused = sorted(bound for bound, _ in imported(tree) if bound not in used)
        assert not unused, f"{name} imports {unused} and never uses them"


def test_every_private_module_name_is_referenced():
    referenced = set()
    for tree in SOURCES.values():
        referenced |= loaded_names(tree)
        referenced |= {bound for bound, node in imported(tree) if getattr(node, "level", 0) > 0}
    for name, tree in SOURCES.items():
        for defined in module_level_names(tree):
            if defined.startswith("_") and not defined.startswith("__"):
                assert defined in referenced, f"{name} defines {defined} and nothing uses it"


def test_every_public_module_name_is_referenced():
    referenced = set().union(*map(loaded_names, TREES))
    unused = sorted(f"{name}: {defined}" for name, tree in SOURCES.items()
                    for defined in module_level_names(tree)
                    if defined and not defined.startswith("_") and defined not in referenced)
    assert not unused, f"defined but read nowhere: {unused}"


def _passes(call, parameter, position, method):
    """Whether ``call`` passes ``parameter``: by keyword, through an unpacked
    ``*args``/``**kwargs``, or by ``position``, which counts ``self``/``cls``
    when a method is called through an attribute."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    bound = method and isinstance(call.func, ast.Attribute)
    return position is not None and len(call.args) + bound > position


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = {}
    for node in (n for tree in CALLERS for n in ast.walk(tree) if isinstance(n, ast.Call)):
        calls.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)), []).append(node)
    never = []
    for name, tree in SOURCES.items():
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            positional = fn.args.posonlyargs + fn.args.args
            method = bool(positional) and positional[0].arg in ("self", "cls")
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(arg.arg, None) for arg, default in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            never += [f"{name}: {fn.name}({parameter}=)" for parameter, position in defaulted
                      if not any(_passes(c, parameter, position, method)
                                 for c in calls.get(fn.name, []))]
    assert not never, f"defaulted parameters that no call passes: {never}"


def test_rabi_law_lives_in_qubit_alone():
    """``math.sin`` is called in ``qubit.py`` alone, by ``flip_probability``:
    the step tables, the coherent closed form and the calibration all take
    a flip probability from that one Rabi law, so a change of the pulse
    area is one edit."""
    callers = {name for name, tree in SOURCES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "sin" and getattr(node.func.value, "id", None) == "math"}
    imports = {name for name, tree in SOURCES.items() for bound, node in imported(tree)
               if getattr(node, "module", None) == "math" and bound == "sin"}
    assert callers == {"qubit.py"} and not imports, \
        f"math.sin called in {sorted(callers)}, imported bare in {sorted(imports)}"


def test_thermometer_lives_in_qubit_alone():
    """``BETA_CAP`` and ``math.atanh`` are read in ``qubit.py`` alone: the occupation's
    inverse, ``population_to_beta``, clamps at the cap itself, so every refit of beta
    (``simulate``'s estimate and the bootstrap) takes one thermometer, and a change
    of the cap or of the clamp is one edit."""
    readers = {name for name, tree in SOURCES.items() for node in ast.walk(tree)
               if (isinstance(node, ast.Name) and node.id == "BETA_CAP")
               or (isinstance(node, ast.Attribute) and node.attr == "atanh"
                   and getattr(node.value, "id", None) == "math")}
    imports = {name for name, tree in SOURCES.items() for bound, node in imported(tree)
               if bound in ("BETA_CAP", "atanh")}
    assert readers == {"qubit.py"} and not imports, \
        f"BETA_CAP or math.atanh read in {sorted(readers)}, imported in {sorted(imports)}"


def test_every_stream_key_is_an_exact_integer():
    """No ``Philox(...)`` in the package takes ``key=`` as a list or tuple
    display: numpy builds such a key through an array, which is float64 once
    an entry reaches 2**63 and so rounds the seed, where an integer key is
    exact to 128 bits."""
    displays = [f"{name}:{node.lineno}" for name, tree in SOURCES.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Philox"
                for keyword in node.keywords
                if keyword.arg == "key" and isinstance(keyword.value, (ast.List, ast.Tuple))]
    assert not displays, f"Philox keys given as a list or tuple display: {displays}"


def test_command_keys_are_what_the_handlers_read():
    """``COMMAND_KEYS`` lists, for each command, the ``config.<key>`` reads of its
    ``run_<command>`` handler and of the ``cli`` helpers it passes ``config`` to
    (``_protocol_specs``, ``_spam_model``, ``_write_rows``, ``_output_path``),
    besides ``command`` and ``output``.  The one extra is ``format`` under
    ``simulate``: ``_output_path`` reads it for the default file suffix, but
    ``simulate`` writes CSV samples files only, so the key is not its own."""
    functions = {node.name: node for node in SOURCES["cli.py"].body
                 if isinstance(node, ast.FunctionDef)}

    def reads(function):
        keys = set()
        for node in ast.walk(functions[function]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config":
                keys.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions
                  and any(getattr(arg, "id", None) == "config" for arg in node.args)):
                keys |= reads(node.func.id)
        return keys

    listed = {command: COMMAND_KEYS[command] | {"command", "output"} for command in COMMANDS}
    listed["simulate"] = listed["simulate"] | {"format"}
    mismatched = {command: sorted(reads(f"run_{command.replace('-', '_')}") ^ keys)
                  for command, keys in listed.items()}
    assert not any(mismatched.values()), f"read by the handler or listed, not both: {mismatched}"


def test_package_binds_only_its_version():
    """Callers import each name from the module that defines it, so the
    package re-exports nothing."""
    tree = SOURCES["__init__.py"]
    assert not list(imported(tree)), "qfdr/__init__.py imports"
    assert {name for name in module_level_names(tree) if name} == {"__version__"}


@pytest.mark.parametrize("module", sorted(info.name for info in pkgutil.iter_modules(qfdr.__path__)))
def test_module_imports_alone(module):
    """Each module imports in a fresh interpreter, so none relies on another
    having been imported first."""
    env = {**os.environ, "PYTHONPATH": str(Path(qfdr.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", f"import qfdr.{module}"], env=env, check=True, timeout=60)


# Modules that only some commands need, loaded on first use, and numpy.ma, which none needs
LAZY_MODULES = ("numpy.random", "concurrent.futures", "json", "logging", "numpy.ma")

_LAZY_PROBE = """
import ast
import sys
from qfdr.cli import main
from qfdr.io import read_samples

def report():
    print("loaded:", *[name for name in sys.argv[1].split(",") if name in sys.modules])

report()
for argv in ast.literal_eval(sys.argv[2]):
    assert main(argv) == 0, argv
    report()
read_samples(sys.argv[3])
report()
"""


def test_commands_load_only_the_modules_they_use(tmp_path):
    """A fresh ``import qfdr.cli`` and the four table commands that draw no
    random numbers load none of ``LAZY_MODULES``; ``--format json`` loads
    ``json``, and ``simulate`` the random stack and the thread pool.  Neither
    ``simulate`` nor reading its samples file back loads ``numpy.ma``."""
    runs = [[command, *extra, "--output", str(tmp_path / f"{command}.csv")]
            for command, *extra in (["analytic"], ["sweep"], ["certify"],
                                    ["temperature-profile", "--n-steps", "2"])]
    runs += [["analytic", "--format", "json", "--output", str(tmp_path / "analytic.json")],
             ["simulate", "--n-steps", "2", "--runs", "100", "--resamples", "2",
              "--output", str(tmp_path / "samples.csv")]]
    env = {**os.environ, "PYTHONPATH": str(Path(qfdr.__file__).parents[1])}
    stdout = subprocess.run([sys.executable, "-c", _LAZY_PROBE, ",".join(LAZY_MODULES), repr(runs),
                             str(tmp_path / "samples.csv")],
                            env=env, check=True, timeout=60, capture_output=True, text=True).stdout
    loaded = [set(line.split()[1:]) for line in stdout.splitlines() if line.startswith("loaded:")]
    after_import, *after_tables, after_json, after_simulate, after_read = loaded
    assert len(after_tables) == 4
    assert after_import == set(), f"loaded by import qfdr.cli: {after_import}"
    assert after_tables == [set()] * 4, f"loaded by the table commands: {after_tables}"
    assert after_json == {"json"}
    assert {"numpy.random", "concurrent.futures"} <= after_simulate
    assert "numpy.ma" not in after_simulate | after_read


# Definitions that no command reaches but that code outside the package calls,
# each with what needs it.
ENTRY_POINTS = {
    "beta_error",          # perfbench/gates.py: the beta-refit term of the gate's sigma
    "read_samples",        # perfbench/child.py: the reanalyse operation
    "drift_scan",          # acceptance criterion 7
    "coherent_asymptote",  # acceptance criterion 3
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(label, name, nodes read once the name is reached) of every module-level
    function and class and every method.  A class brings its bases,
    decorators, class-level statements and dunder methods; its other methods
    are reached by their own name."""
    for module, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}: {node.name}", node.name, [node]
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body
                           if isinstance(n, ast.FunctionDef) and not _dunder(n.name)]
                own = [n for n in node.body if n not in methods]
                yield f"{module}: {node.name}", node.name, own + node.bases + node.decorator_list
                for method in methods:
                    yield f"{module}: {node.name}.{method.name}", method.name, [method]


DEFINITIONS = list(_definitions())


def _reach(roots):
    """Every name read, transitively, from ``roots`` through the definitions
    of that name.  Matching is by name alone, so the walk may keep dead code
    whose name a live one shares, but never misses live code."""
    reached, frontier = set(), set(roots)
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for _, defined, nodes in DEFINITIONS:
            if defined == name:
                frontier |= set().union(*map(loaded_names, nodes)) - reached
    return reached


def test_every_definition_is_reached_from_a_command():
    module_level = [node for tree in SOURCES.values() for node in tree.body
                    if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    roots = {"main"}.union(*map(loaded_names, module_level))
    from_commands = _reach(roots)
    defined = {name for _, name, _ in DEFINITIONS}
    assert ENTRY_POINTS <= defined, \
        f"entry points defined nowhere: {sorted(ENTRY_POINTS - defined)}"
    assert not ENTRY_POINTS & from_commands, \
        f"entry points a command reaches anyway: {sorted(ENTRY_POINTS & from_commands)}"
    reached = _reach(roots | ENTRY_POINTS)
    unreached = [label for label, name, _ in DEFINITIONS if name not in reached]
    assert not unreached, f"defined but reached by no command or entry point: {unreached}"


def test_no_private_name_crosses_modules():
    crossing = set()
    for name, tree in SOURCES.items():
        modules = {bound for bound, node in imported(tree) if isinstance(node, ast.Import)
                   or (getattr(node, "level", 0) > 0 and node.module is None)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                crossing |= {(name, alias.name) for alias in node.names
                             if alias.name.startswith("_") and not _dunder(alias.name)}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not _dunder(node.attr)):
                crossing.add((name, node.attr))
    assert not crossing, f"private names read across modules: {sorted(crossing)}"


def _argument_keys(fn):
    """Keys under which a counter (a lambda or a function) subscripts its
    first parameter, the call's bound arguments."""
    first = fn.args.args[0].arg
    return {node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == first and isinstance(node.slice, ast.Constant)}


def test_benchmark_tracing_contract_holds():
    """``perfbench/tracing.py`` wraps each ``LAYERS`` function, found by module
    and name, and its counters read the call's bound arguments by parameter
    name: a function or parameter renamed here would crash the benchmark's
    traced run, which tier-1 runs only in part."""
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    helpers = {node.name: node for node in tracing.body if isinstance(node, ast.FunctionDef)}
    layers = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    broken, read = [], set()
    for layer, counters in zip(layers.keys, layers.values):
        module, function = layer.value.split(".")
        defined = {node.name: node for node in SOURCES[f"{module}.py"].body
                   if isinstance(node, ast.FunctionDef)}
        if function not in defined:
            broken.append(f"{layer.value}: no such function")
            continue
        args = defined[function].args
        parameters = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
        for count, counter in zip(counters.keys, counters.values):
            if isinstance(counter, ast.Name):
                counter = helpers[counter.id]
            assert isinstance(counter, (ast.Lambda, ast.FunctionDef)), \
                f"{layer.value}.{count.value}: counter not read"
            keys = _argument_keys(counter)
            read |= keys
            broken += [f"{layer.value}.{count.value}: no parameter {key!r}"
                       for key in sorted(keys - parameters)]
    assert layers.keys and read, "LAYERS not read"
    assert not broken, f"tracing contract broken: {broken}"
