"""The benchmark under bench/ imports package names directly, calls them
and runs CLI argument lists; a change to src/ that deletes or renames one
of them, or changes a signature under a call, must fail here, not in a
bench run.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_modules_import(monkeypatch):
    # every bench run imports tracing, traced or not
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("tracing", "workloads"):
        importlib.import_module(name)


def test_names_the_bench_imports_from_the_package_exist():
    # workloads and worker import most package names inside functions
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("csdmd"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert not missing


def _package_names(nodes):
    """Local name -> object for every csdmd name imported in nodes."""
    names = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("csdmd"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _scoped_calls(tree):
    """(call, csdmd names in view) for every call in the module; a top-level
    function or class sees the module's imports and its own."""
    top = _package_names(tree.body)
    for stmt in tree.body:
        nodes = list(ast.walk(stmt))
        names = top
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = {**top, **_package_names(nodes)}
        yield from ((node, names) for node in nodes if isinstance(node, ast.Call))


def _resolve(expr, names):
    """The package object a call's target names (io.read_matrix, SnapshotPair),
    or None when the target is no package name."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, names)
        return None if owner is None else getattr(owner, expr.attr)
    return None


def test_calls_the_bench_makes_bind_to_the_package_signatures():
    # positional count and keyword names of every call, checked with
    # inspect.signature; calls with *args or **kwargs are not checkable
    unbound = []
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        for node, names in _scoped_calls(ast.parse(path.read_text())):
            where = f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
            try:
                target = _resolve(node.func, names)
            except AttributeError as exc:
                unbound.append(f"{where}: {exc}")
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            if target is None or starred or any(k.arg is None for k in node.keywords):
                continue
            try:
                signature = inspect.signature(target)
            except ValueError:
                continue  # exception classes: any arguments
            try:
                signature.bind(*node.args, **{k.arg: k for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{where}: {exc}")
            checked += 1
    assert not unbound
    assert checked > 20  # the walk found the bench's calls


def test_every_argv_the_bench_builds_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from csdmd.cli import build_parser
    from workloads import WORKLOADS, Paths, gen_argv, op_argv

    parser = build_parser()
    paths = Paths("work")
    argvs = []
    for wl in WORKLOADS.values():
        argvs.append(gen_argv(wl, 0, "out"))
        argvs += [
            op_argv(wl, tag, 0, paths, variant, 0)
            for tag in wl.pathways
            for variant in ("cli", "traced")
        ]
    for argv in argvs:
        parser.parse_args(argv)  # exits on an unknown or missing argument
