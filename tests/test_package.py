"""The package surface: what `import pellbisect` loads, what it exports, and
that lazily loaded names are the objects of their home modules.

Each check that depends on import order runs in a fresh interpreter, since
this test process has long since imported every module.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pellbisect

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_MODULES = ("pellbisect.solver", "pellbisect.rationalpell", "pellbisect.bisector", "pellbisect.oracle")

# every name the package exports, by home module (the set it exported when it imported
# all of its modules eagerly, plus XiEntryError and the library calls behind the CLI's
# solve, decompose, rational and case-II triples)
EXPORTS = {
    "bisector": ("BisectorTriple", "NoRationalBisector", "PairClassification", "TrivialPairError",
                 "bisect", "case1_generate", "case2_alphas", "case2_generate", "classify_pair",
                 "from_pell_points", "integral_generate", "integral_generate2", "verify_star"),
    "oracle": ("SearchBox", "brute_rational_pell", "brute_solutions", "brute_xi", "tangent_bisector_check"),
    "pellcore": ("CFExpansion", "PellContext", "class_number", "continued_fraction_sqrt", "make_context",
                 "neg_pell_rational", "pell_sequence", "splits", "Spectrum", "XiEntry", "XiEntryError", "in_s",
                 "spectrum", "xi"),
    "quadfield": ("FieldMismatchError", "InvariantError", "NotSquareFreeError", "QuadElem", "exact_div", "render"),
    "rationalpell": ("RationalPellPoint", "decompose_rational", "generate_rational", "rational_family"),
    "solver": ("CoreFactor", "ExistenceVerdict", "Representation", "XiPower", "decompose", "decompose_square",
               "decompose_strict", "evaluate_representation", "generate_strict", "solve", "strict_exists",
               "validate_representation"),
}


def fresh(code: str):
    """Run code in a new interpreter; it prints one JSON value last."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return json.loads(r.stdout.splitlines()[-1])


# subcommands that run together in one fresh interpreter, and the lazy modules they load
SUBCOMMAND_LOADS = [
    ([["context", "--d", "34"], ["xi", "--d", "34", "--p", "3"], ["spectrum", "--d", "34", "--pmax", "20"],
      ["table", "--pmax", "13"]], ()),
    ([["solve", "--d", "34", "--z", "9"], ["decompose", "--d", "34", "--x", "5", "--y", "1"]], ("solver",)),
    ([["rational", "--d", "34", "--pmax", "13"]], ("rationalpell", "solver")),
    ([["bisect", "--a", "3/4", "--b", "12/5"], ["figure", "--a", "3/4", "--b", "12/5"],
      ["triples", "--mode", "case1", "--range", "2"], ["triples", "--mode", "case2", "--d", "34", "--range", "1"],
      ["triples", "--mode", "integral", "--d", "2", "--range", "1"]], ("bisector",)),
    ([["oracle", "solutions", "--d", "34", "--z", "9", "--ymax", "10"],
      ["oracle", "xi", "--d", "34", "--p", "3", "--ymax", "10"],
      ["oracle", "rational", "--d", "2", "--r", "1", "--ymax", "10"],
      ["oracle", "tangent", "--a", "1", "--b", "7", "--c", "2"]], ("oracle",)),
]


def test_each_subcommand_loads_only_its_lazy_modules():
    for commands, modules in SUBCOMMAND_LOADS:
        after_import, after_run = fresh(
            "import contextlib, io, json, sys\n"
            "import pellbisect\n"
            "after_import = sorted(sys.modules)\n"
            "from pellbisect import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.main(argv) != 0:\n"
            "            sys.exit(f'{argv} failed')\n"
            "print(json.dumps([after_import, sorted(sys.modules)]))\n"
        )
        assert not set(LAZY_MODULES) & set(after_import)
        assert "pellbisect.pellcore" in after_run
        assert set(LAZY_MODULES) & set(after_run) == {f"pellbisect.{m}" for m in modules}, commands


def test_no_module_imports_inside_a_function():
    """Each module binds what it uses once, at its top; the package's lazy names are
    the one place that decides when solver, rationalpell, bisector and oracle load."""
    for path in sorted((SRC / "pellbisect").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nested = [node.lineno for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not nested, (path.name, nested)


def test_every_export_is_in_all_and_is_its_home_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"pellbisect.{module}")
        for name in names:
            assert name in pellbisect.__all__
            assert getattr(pellbisect, name) is getattr(home, name), name
    assert all(hasattr(pellbisect, name) for name in pellbisect.__all__)
    assert set(pellbisect.__all__) <= set(dir(pellbisect))


def test_lazy_name_loads_its_module_on_first_use():
    loaded = fresh(
        "import json, sys\n"
        "import pellbisect\n"
        "before = 'pellbisect.bisector' in sys.modules\n"
        "pellbisect.bisect\n"
        "print(json.dumps([before, 'pellbisect.bisector' in sys.modules, 'pellbisect.solver' in sys.modules]))\n"
    )
    assert loaded == [False, True, False]


def test_spectrum_stays_the_function_after_submodule_imports():
    kinds = fresh(
        "import json, pkgutil\n"
        "import pellbisect\n"
        "for m in pkgutil.iter_modules(pellbisect.__path__):\n"
        "    if m.name != '__main__':\n"
        "        __import__(f'pellbisect.{m.name}')\n"
        "f = pellbisect.spectrum\n"
        "try:\n"
        "    import pellbisect.spectrum\n"
        "    missing = None\n"
        "except ModuleNotFoundError as e:\n"
        "    missing = e.name\n"
        "print(json.dumps([callable(f), f.__module__, f.__name__, missing, pellbisect.spectrum is f]))\n"
    )
    assert kinds == [True, "pellbisect.pellcore", "spectrum", "pellbisect.spectrum", True]


def test_no_module_shares_a_name_with_an_export():
    """A submodule import binds the module as a package attribute, so a module
    named like an export would replace that export after the import."""
    stems = {path.stem for path in (SRC / "pellbisect").glob("*.py")}
    assert not stems & set(pellbisect.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pellbisect.no_such_name


def test_no_assert_is_left_in_the_package():
    """Self-checks raise typed errors, so they also run under python -O."""
    for path in sorted((SRC / "pellbisect").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        names = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "AssertionError"]
        assert not asserts and not names, (path.name, asserts, names)


def _private_reaches(tree):
    """Private names (an underscore first, not a dunder) that a module imports from the
    package or reads as attributes."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pellbisect")):
            yield from (a.name for a in node.names if private(a.name))
        elif isinstance(node, ast.Attribute) and private(node.attr):
            yield node.attr


def test_the_cli_only_parses_and_prints():
    """Every piece of maths the CLI runs sits behind a public name of the
    module that owns it, so the CLI reaches no private name of the package."""
    tree = ast.parse((SRC / "pellbisect" / "cli.py").read_text())
    assert list(_private_reaches(tree)) == []


def test_only_the_cli_calls_a_checking_entry_point():
    """Each input is checked once, where it enters: inside the package, a public function of
    solver or rationalpell, or pellcore.xi, is reached through its body, never called. spectrum()
    stays allowed, as rational_family's check of its context and pmax."""
    checking = {name for module in ("solver", "rationalpell") for name in EXPORTS[module]
                if inspect.isfunction(getattr(importlib.import_module(f"pellbisect.{module}"), name))} | {"xi"}
    calls = []
    for path in sorted((SRC / "pellbisect").glob("*.py")):
        if path.name != "cli.py":
            calls += [(path.name, node.lineno) for node in ast.walk(ast.parse(path.read_text(), str(path)))
                      if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in checking]
    assert calls == []


def test_every_cache_decorates_a_module_level_function():
    """A memo that a sweep over each module's cache_clear cannot reach (a
    method, a nested function, a cached_property) would keep warm state
    between rounds that are meant to run cold."""
    names = {"lru_cache", "cache"}
    for path in sorted((SRC / "pellbisect").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node)
            for top in tree.body if isinstance(top, ast.FunctionDef)
            for deco in top.decorator_list for node in ast.walk(deco)
        }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            assert name != "cached_property", (path.name, node.lineno)
            assert name not in names or id(node) in allowed, (path.name, node.lineno, name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "cached_property" not in {a.name for a in node.names}, (path.name, node.lineno)



def _walks_exponent_bits(node):
    """A for over bin(...) or format(...), or a while whose body shifts a name
    right or halves it in place: the loop of square-and-multiply."""
    if isinstance(node, ast.For):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("bin", "format")
                   for n in ast.walk(node.iter))
    return isinstance(node, ast.While) and any(
        isinstance(n, ast.AugAssign) and (isinstance(n.op, ast.RShift) or (
            isinstance(n.op, ast.FloorDiv) and isinstance(n.value, ast.Constant) and n.value.value == 2))
        for stmt in node.body for n in ast.walk(stmt))


def test_pow_scaled_holds_the_only_square_and_multiply_loop():
    """QuadElem.__pow__ and the solver's factors raise through one kernel, so
    the two cannot drift apart."""
    owners, callers = [], set()

    def visit(node, module, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if _walks_exponent_bits(node):
            owners.append((module, owner))
        if isinstance(node, ast.Name) and node.id == "_pow_scaled":
            callers.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted((SRC / "pellbisect").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    assert owners == [("quadfield", "_pow_scaled")]
    assert {("quadfield", "__pow__"), ("solver", "_xi_power"), ("solver", "_eta_power")} <= callers


def _repeated_parts(node):
    """What a loop runs on every pass: a for's body, a while's test and body, a
    comprehension's element and conditions; never the iterable it walks."""
    if isinstance(node, ast.For):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return elts + [cond for gen in node.generators for cond in gen.ifs]
    return []


def test_strict_hits_holds_the_only_isqrt_loop():
    """Every bounded y-scan goes through arith.strict_hits, so a speed-up or a fix
    of the scan reaches xi, spectrum and the solver's core window at once; the
    oracle keeps its own naive loops on purpose, as the reference."""
    owners = set()

    def visit(node, module, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if any(isinstance(n, ast.Name) and n.id == "isqrt" or isinstance(n, ast.Attribute) and n.attr == "isqrt"
               for part in _repeated_parts(node) for n in ast.walk(part)):
            owners.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted((SRC / "pellbisect").glob("*.py")):
        if path.stem != "oracle":
            visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    assert owners == {("arith", "strict_hits")}


def test_rational_holds_the_only_conversion_handler():
    """Every slope and coordinate that comes in is read by arith.rational, so what passes
    as a rational is decided once: no other handler in the package catches a failed
    conversion (TypeError, AttributeError, OverflowError, ZeroDivisionError) or raises a
    ValueError in its place."""
    owners = set()

    def visit(node, module, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.ExceptHandler):
            caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)} if node.type else set()
            raised = {n.exc.func.id for n in ast.walk(node) if isinstance(n, ast.Raise)
                      and isinstance(n.exc, ast.Call) and isinstance(n.exc.func, ast.Name)}
            if caught & {"TypeError", "AttributeError", "OverflowError", "ZeroDivisionError"} or "ValueError" in raised:
                owners.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted((SRC / "pellbisect").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    assert owners == {("arith", "rational")}


def test_factorize_holds_the_only_trial_division_loop():
    """Every factorization goes through arith.factorize, so its table of small primes
    (and any later splitting method) reaches bisect, the solver and the primality test at
    once; the oracle keeps its own naive loops on purpose, as the reference. A
    trial-division loop is an `n % p == 0` test on a name that an enclosing for binds."""
    owners = set()

    def visit(node, module, owner, bound):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, (ast.For, ast.comprehension)):
            bound = bound | {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mod)
                and isinstance(node.left.right, ast.Name) and node.left.right.id in bound
                and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 0):
            owners.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner, bound)

    for path in sorted((SRC / "pellbisect").glob("*.py")):
        if path.stem != "oracle":
            visit(ast.parse(path.read_text(), str(path)), path.stem, None, frozenset())
    assert owners == {("arith", "factorize")}
