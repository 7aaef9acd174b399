"""Names other code reaches by string must exist: the functions the
benchmark tracer wraps, and the package's export list. Names a module
imports must be used."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_traced_functions_exist():
    # perfbench/run.py --trace 1 fails on a name its tracer cannot find, so
    # deleting or renaming a traced function must fail here first
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, functions in spans.TRACED.items():
        module = importlib.import_module(f"chipwidth.{module_name}")
        for fname in functions:
            assert callable(getattr(module, fname, None)), f"{module_name}.{fname}"


def test_exports_resolve():
    # `from chipwidth import *` fails on a name __all__ keeps after its
    # definition is deleted
    package = importlib.import_module("chipwidth")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, missing


def test_no_unused_imports():
    # __init__.py imports only to re-export, and __future__ imports are flags
    unused = []
    for path in sorted((ROOT / "src" / "chipwidth").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused, unused
