"""Source hygiene: every top-level import of a module or test file is used,
the package neither evaluates on a stacked mesh nor warns, every function,
class and method it defines is named elsewhere in the package, and every
config field is read by a study or the CLI.

No linter ships with the package, so these scans stand in for one.  The
package ``__init__`` is left out of the import scan: its imports are
re-exports.  The package holds what the studies and the CLI run: the
point-wise oracles, the node mesh and box membership among them, live in
``tests/oracles.py``, so a definition that only tests would call fails the
name scan, unless the benchmark traces it (``perfbench/spans.py``).  The
package evaluates on grids one axis at a time, and reports what it would
warn about as a note.
"""

import ast
import re
import runpy
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from mixapprox.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mixapprox").glob("*.py"))
FILES = sorted(
    p for p in [*SRC, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by the module's top-level imports and never referenced."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom json import dumps as d\nos.sep\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "d")]


def _banned_calls(tree: ast.Module) -> list:
    """Calls of ``.mesh()``, ``.contains_points()`` and ``warnings.warn``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in ("mesh", "contains_points"):
                found.append((node.lineno, func.attr))
            elif (func.attr == "warn" and isinstance(func.value, ast.Name)
                  and func.value.id == "warnings"):
                found.append((node.lineno, "warnings.warn"))
    return sorted(found)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_mesh_or_warning_in_the_package(path):
    calls = _banned_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not calls, f"{path.name}: " + ", ".join(
        f"{name}() (line {line})" for line, name in calls)


def test_scan_flags_a_mesh_and_a_warning():
    tree = ast.parse("g.mesh()\nbox.contains_points(x)\nwarnings.warn('w')\n"
                     "g.mesh\nwarn('w')\ndef mesh(self): pass\n")
    assert _banned_calls(tree) == [(1, "mesh"), (2, "contains_points"), (3, "warnings.warn")]


def _unnamed_definitions(trees: list, texts: list) -> list:
    """Function, class and method names defined in `trees` (dunders aside)
    that occur in `texts` no more often than they are defined."""
    defined = Counter(
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def _without_all(text: str) -> str:
    """A module's text without its ``__all__`` list."""
    lines = text.splitlines(keepends=True)
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "".join(lines)


def _traced_names() -> set:
    """The last part of each name the benchmark traces, e.g. ``covering_number``."""
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    return {name.rsplit(".", 1)[-1] for name in spans["TRACED"]}


def test_every_definition_is_named_elsewhere():
    # Only the package's own text counts, without its __all__ lists and its
    # __init__ re-exports: a name that tests alone call belongs in
    # tests/oracles.py.
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SRC]
    texts = [_without_all(p.read_text()) for p in SRC if p.name != "__init__.py"]
    unnamed = sorted(set(_unnamed_definitions(trees, texts)) - _traced_names())
    assert not unnamed, "defined under src/mixapprox/ and named nowhere else in it: " + \
        ", ".join(unnamed)


def test_scan_flags_an_unnamed_definition():
    src = ("class Used:\n    def method(self): pass\n    def __init__(self): pass\n"
           "def orphan(): pass\ndef twice(): pass\ndef twice(): pass\n")
    tree = ast.parse(src)
    assert _unnamed_definitions([tree], [src, "Used().method()\n"]) == ["orphan", "twice"]
    assert _unnamed_definitions([tree], [src, "Used().method()\ntwice()\n"]) == ["orphan"]


def test_scan_flags_a_check_only_definition():
    # A planted orphan that only __all__ names, beside one a study calls.
    src = ('__all__ = [\n    "oracle",\n    "study",\n]\n\n'
           "def oracle(): pass\ndef study(): pass\ndef run(): study()\n")
    assert "__all__" not in _without_all(src)
    assert _unnamed_definitions([ast.parse(src)], [_without_all(src)]) == ["oracle", "run"]
    assert {"covering_number", "component_log_pdf"} <= _traced_names()


def _unread_fields(names, trees: list) -> list:
    """Names in `names` never read as ``cfg.<name>`` in `trees`."""
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"}
    return sorted(set(names) - read)


def test_every_config_field_is_read():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SRC if p.name != "config.py"]
    unread = _unread_fields([f.name for f in fields(ExperimentConfig)], trees)
    assert not unread, "config fields with no effect: " + ", ".join(unread)


def test_scan_flags_an_unread_field():
    tree = ast.parse("def run(cfg, other):\n    return cfg.seed + other.tol + cfg.k\n")
    assert _unread_fields(["seed", "tol", "k"], [tree]) == ["tol"]
