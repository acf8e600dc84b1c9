"""Runtime checks are explicit raises, so they hold under python -O too."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import cuspidal
from cuspidal import cli, orderengine
from cuspidal.divisors import CuspDivisor, from_dict
from cuspidal.etalinalg import eta_qexpansion, ligozat_check
from cuspidal.intarith import exponent_tuple, factor
from cuspidal.orderengine import eta_certificate
from references import zero_divisor

PACKAGE = os.path.dirname(os.path.abspath(cuspidal.__file__))


def _package_trees():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def _load_spans():
    """perfbench/spans.py, the benchmark tracer, loaded by path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_no_bare_asserts_in_the_package():
    for name, tree in _package_trees().items():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{name}: assert on lines {lines}"


def test_no_unused_imports_in_the_package():
    for name, tree in _package_trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                    and node.module != "__future__" for alias in node.names]
        unused = [name for name in imported if name not in used]
        assert not unused, f"{name}: unused imports {unused}"


def test_functools_caches_are_made_only_at_module_level():
    """cache and lru_cache are never named inside the body of a function or
    a lambda, a nested decorator included: a cache made there is built again
    on every call and dropped with its caller.  The decorators of
    module-level functions and cached_property stay allowed."""
    names = {"cache", "lru_cache"}
    for name, tree in _package_trees().items():
        bodies = [stmt for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for stmt in node.body]
        bodies += [node.body for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
        lines = sorted({sub.lineno for body in bodies for sub in ast.walk(body)
                        if isinstance(sub, ast.Name) and sub.id in names
                        or isinstance(sub, ast.Attribute) and sub.attr in names})
        assert not lines, f"{name}: a functools cache made inside a function, lines {lines}"


def test_only_cli_main_writes_to_stderr():
    """Every CLI message reaches stderr through main's handlers, which
    prefix it with "error: "."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")

    def stderr_uses(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "stderr" for n in ast.walk(node))

    assert stderr_uses(main) == stderr_uses(tree) > 0


def _methods(cls):
    return [node for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_every_definition_is_referenced_in_the_package():
    """Every top-level function and class, and every method and property of
    a package class but the dunder methods, is named somewhere in the
    package outside its own body.  Names match across modules, so this is a
    lower bound on dead code.  The console entry point main and the names
    the benchmark tracer wraps are exempt."""
    trees = _package_trees()
    exempt = {"main"} | {fn for _, fn in _load_spans().TRACED}
    referenced = set()
    for tree in trees.values():
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [method for node in defs if isinstance(node, ast.ClassDef)
                 for method in _methods(node)]
        inside = {}  # id(node): the names of the definitions around it
        for node in defs:
            for sub in ast.walk(node):
                inside.setdefault(id(sub), set()).add(node.name)
        for sub in ast.walk(tree):
            ref = (sub.id if isinstance(sub, ast.Name) else
                   sub.attr if isinstance(sub, ast.Attribute) else None)
            if ref and ref not in inside.get(id(sub), ()):
                referenced.add(ref)
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced | exempt:
                unreferenced.append(f"{name[:-3]}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unreferenced += [f"{name[:-3]}.{node.name}.{m.name}" for m in _methods(node)
                                 if not m.name.startswith("__") and m.name not in referenced]
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def test_package_imports_are_made_only_at_module_level():
    """Every relative import, the package's way to import its own modules,
    is a statement of the module body: an import inside a function hides a
    dependency from the module's header and runs again on every call."""
    for name, tree in _package_trees().items():
        top = {id(node) for node in tree.body}
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top]
        assert not lines, f"{name}: package imports inside a function, lines {lines}"


def test_checks_hold_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), os.environ.get("PYTHONPATH")) if p))
    code = ("from cuspidal.divisors import from_dict\n"
            "from cuspidal.orderengine import eta_certificate\n"
            "try:\n"
            "    eta_certificate(from_dict(11, {1: 1}))\n"
            "except ValueError as e:\n"
            "    print('ValueError', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ValueError"), out.stdout


def test_bad_arguments_raise_value_error():
    with pytest.raises(ValueError):
        CuspDivisor(11, (1,))
    with pytest.raises(ValueError):
        from_dict(11, {1: 1}) + zero_divisor(12)
    with pytest.raises(ValueError):
        from_dict(11, {1: 1}) - zero_divisor(12)
    with pytest.raises(ValueError):
        ligozat_check(11, (1,))
    with pytest.raises(ValueError):
        eta_qexpansion(11, (1, 2, 3), 5)
    with pytest.raises(ValueError):
        exponent_tuple(factor(12), 5)
    with pytest.raises(ValueError):
        eta_certificate(from_dict(11, {1: 1}))


def test_failed_identities_raise_arithmetic_error(monkeypatch):
    C = from_dict(11, {1: 1, 11: -1})
    assert eta_certificate(C) == (5, (12, -12))
    # a profile that reports order 1: 24 * V / kappa(11) is not integral
    real = orderengine.profile
    monkeypatch.setattr(orderengine, "profile", lambda D: real(D)._replace(order=1))
    with pytest.raises(ArithmeticError, match="integral"):
        eta_certificate(C)
    monkeypatch.undo()
    monkeypatch.setattr(orderengine, "ligozat_check", lambda n, r: False)
    with pytest.raises(ArithmeticError):
        eta_certificate(C)
    monkeypatch.undo()
    monkeypatch.setattr(orderengine, "eta_divisor", lambda n, r: zero_divisor(n))
    with pytest.raises(ArithmeticError):
        eta_certificate(C)


def test_traced_names_resolve():
    """Every function the benchmark tracer wraps exists under that name."""
    for mod_name, fn_name in _load_spans().TRACED:
        module = importlib.import_module(f"cuspidal.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
