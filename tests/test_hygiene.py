"""Source hygiene: every top-level import of a module or test file is used,
and the package neither evaluates on a stacked mesh nor warns.

No linter ships with the package, so these scans stand in for one.  The
package ``__init__`` is left out of the import scan: its imports are
re-exports.  ``TensorGrid.mesh`` and ``SupportBox.contains_points`` stay as
the tests' oracles; the package evaluates on grids one axis at a time, and
reports what it would warn about as a note.
"""

import ast
from pathlib import Path

import pytest

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
