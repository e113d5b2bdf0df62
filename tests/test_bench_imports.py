"""The benchmark under bench/ imports package names directly and runs CLI
argument lists; a change to src/ that deletes or renames one of them must
fail here, not in a bench run.
"""

import ast
import importlib
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
