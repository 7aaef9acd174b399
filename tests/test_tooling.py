"""Names other code reaches by string must exist: the functions the
benchmark tracer wraps, and the package's export list. Names a module
or a test imports must be used, and so must a module's names that the
package does not export and the methods of its classes. A helper that
tests/oracles.py holds is defined nowhere else in the tests. The README's
python example and its command-line block must run, and every benchmark
record must parse."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import chipwidth.cli as cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


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
    # __init__.py imports only to re-export, and __future__ imports are flags;
    # the tests are checked too, so an import of a deleted name cannot linger
    unused = []
    paths = sorted((ROOT / "src" / "chipwidth").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
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


def names_read(path: Path) -> set[str]:
    """The names a module reads: names, attributes and imports; a definition
    or an assignment is none of these."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_private_names_used_in_src():
    # a module-level name that chipwidth does not export and no code in src/
    # reads is dead or serves only the tests; so is a method or property of
    # a class in src/ that neither src/ nor the benchmark reads
    exported = set(importlib.import_module("chipwidth").__all__)
    defined = []
    methods = []
    read = set()
    for path in sorted((ROOT / "src" / "chipwidth").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.name, name) for name in names
                        if not name.startswith("__") and name not in exported]
            if isinstance(node, ast.ClassDef):
                methods += [(path.name, node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
        read |= names_read(path)
    assert defined and methods
    unread = [f"{module}: {name}" for module, name in defined if name not in read]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= names_read(path)
    unread += [f"{module}: {cls}.{name}" for module, cls, name in methods if name not in read]
    assert not unread, unread


def top_level_definitions(path: Path) -> set[str]:
    """The functions and classes a module defines at its top level."""
    nodes = ast.parse(path.read_text()).body
    return {node.name for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_test_helpers_defined_once():
    # a helper or oracle that tests/oracles.py holds is imported from there;
    # a test file that defines it again holds a copy that can drift
    shared = top_level_definitions(ROOT / "tests" / "oracles.py")
    assert shared
    copies = [f"{path.name}: {name}" for path in sorted((ROOT / "tests").glob("test_*.py"))
              for name in sorted(top_level_definitions(path) & shared)]
    assert not copies, copies


def test_readme_quick_start_runs():
    # the quick start is the one python block in the README; an API change
    # that breaks it must fail here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # every command of the README's "Command line" block runs and exits 0,
    # in order and in one directory, so a documented command or option the
    # CLI lacks fails here
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [shlex.split(line) for line in block.group(1).splitlines()]
    assert commands and all(argv[0] == "chipwidth" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_bench_records_parse():
    # each speed claim rests on a BENCH_*.json record at the root; one that
    # does not parse, or lacks what it was measured against and how, proves
    # nothing
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        missing = [key for key in ("title", "parent_commit", "command", "method", "claim")
                   if key not in record]
        assert not missing, (path.name, missing)
