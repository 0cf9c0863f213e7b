"""Source hygiene: every top-level import of a module or test file is used,
the package imports no scipy at any depth and calls nothing that loads
numpy.ma or numpy.polynomial, neither evaluates on a stacked mesh nor
warns, every function, class, method and data attribute it defines
is read by its own code, every config field is read by a study or the CLI,
and only the pinned mixing approximant calls ``convolve``.

No linter ships with the package, so these scans stand in for one.  The
package ``__init__`` is left out of the import scan: its imports are
re-exports.  The package holds what the studies and the CLI run: the
point-wise oracles, the node mesh and box membership among them, live in
``tests/oracles.py``, so a definition that only tests would read fails the
reference scan, unless the benchmark traces or reads it
(``perfbench/spans.py``).  The
package evaluates on grids one axis at a time, and reports what it would
warn about as a note.
"""

import ast
import runpy
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


def _scipy_imports(tree: ast.Module) -> list:
    """(line, module) of every import of scipy or a scipy submodule, at any
    depth: ``import``, ``from ... import`` and ``importlib.import_module`` or
    ``__import__`` of a literal name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            names = [node.args[0].value]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if isinstance(name, str) and name.split(".")[0] == "scipy"]
    return sorted(found)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_the_package_imports_no_scipy(path):
    # numpy is the one runtime dependency; scipy checks the package in tests.
    found = _scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: " + ", ".join(f"{name} (line {line})"
                                                   for line, name in found)


def test_scan_flags_a_scipy_import_at_any_depth():
    src = ("import numpy, scipy.special as sp\n"
           "def quad(f):\n    from scipy import integrate\n    return integrate\n"
           "class K:\n    def m(self):\n        import scipy\n"
           "lib = importlib.import_module('scipy.fft')\n__import__('scipy')\n"
           "from .scipy_like import x\nimport scipyx\nfrom numpy import scipy\n"
           "# import scipy\ns = 'import scipy'\n")
    assert _scipy_imports(ast.parse(src)) == [
        (1, "scipy.special"), (3, "scipy"), (7, "scipy"), (8, "scipy.fft"), (9, "scipy")]


# numpy functions that load numpy.ma when first called (numpy 2.4: the
# order statistics and unique; sort and partition do not).
_MA_LOADERS = {"quantile", "percentile", "median", "unique",
               "nanquantile", "nanpercentile", "nanmedian"}


def _loads_ma_or_polynomial(name: str) -> bool:
    """Whether a dotted name is numpy.ma, numpy.polynomial or inside either,
    or a numpy function that loads numpy.ma."""
    parts = name.split(".")
    return parts[0] == "numpy" and len(parts) > 1 and (
        parts[1] in ("ma", "polynomial") or len(parts) == 2 and parts[1] in _MA_LOADERS)


def _ma_or_polynomial_uses(tree: ast.Module) -> list:
    """(line, name) of every ``np.<x>`` or ``numpy.<x>`` read, and every
    import, of numpy.ma, numpy.polynomial or a function that loads numpy.ma."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and _loads_ma_or_polynomial(f"numpy.{node.attr}")):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if _loads_ma_or_polynomial(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if _loads_ma_or_polynomial(f"{node.module}.{a.name}")]
    return sorted(found)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_the_package_calls_nothing_that_loads_numpy_ma_or_polynomial(path):
    # Either submodule costs every run its import (numpy.ma about 15 ms);
    # sample quantiles and quadrature nodes are computed without them.
    found = _ma_or_polynomial_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: " + ", ".join(f"{name} (line {line})"
                                                   for line, name in found)


def test_scan_flags_what_loads_numpy_ma_or_polynomial():
    src = ("q = np.quantile(x, 0.5)\nm = numpy.median(x)\nnp.nanpercentile(x, 5)\n"
           "u = np.unique(x)\na = np.ma.masked_array(x)\n"
           "def f():\n    return np.polynomial.legendre.leggauss(12)\n"
           "import numpy.ma\nfrom numpy.polynomial import legendre\nfrom numpy import ma, median\n"
           "np.sort(x)\nnp.partition(x, 3)\nnp.matrix\nx.median()\nimport numpy.fft\n"
           "from numpy import sort\ns = 'np.quantile(x)'\n# np.median\n")
    assert _ma_or_polynomial_uses(ast.parse(src)) == [
        (1, "np.quantile"), (2, "np.median"), (3, "np.nanpercentile"), (4, "np.unique"),
        (5, "np.ma"), (7, "np.polynomial"), (8, "numpy.ma"), (9, "numpy.polynomial.legendre"),
        (10, "numpy.ma"), (10, "numpy.median")]


class _References(ast.NodeVisitor):
    """Definitions and references of a set of modules.

    Definitions: functions, classes, methods, and data attributes (names
    assigned in a class body or as ``self.<name>`` in its methods), each
    with its class.  References: every name and attribute read, except a
    ``self.<name>`` read inside class C, which refers only to the name's
    definitions in C, its bases and its subclasses, and a read of
    ``<x>.<name>`` inside an assignment to ``self.<name>``, which builds
    that attribute from others of the same name and reads nothing.
    """

    def __init__(self):
        self.defined = []           # (class or None, name)
        self.bases = {}             # class -> names of its bases
        self.read = set()
        self.self_read = set()      # (class, name)
        self._cls, self._own = None, set()

    def visit_ClassDef(self, node):
        self.defined.append((self._cls, node.name))
        self.bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
        outer, self._cls = self._cls, node.name
        for stmt in node.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            self.defined += [(node.name, t.id) for t in targets if isinstance(t, ast.Name)]
        self.generic_visit(node)
        self._cls = outer

    def visit_FunctionDef(self, node):
        self.defined.append((self._cls, node.name))
        self.generic_visit(node)

    def visit_Assign(self, node):
        own = {t.attr for t in node.targets if isinstance(t, ast.Attribute)
               and isinstance(t.value, ast.Name) and t.value.id == "self"}
        self.defined += [(self._cls, name) for name in own]
        outer, self._own = self._own, self._own | own
        self.generic_visit(node)
        self._own = outer

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.read.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._own:
            if isinstance(node.value, ast.Name) and node.value.id == "self" and self._cls:
                self.self_read.add((self._cls, node.attr))
            else:
                self.read.add(node.attr)
        self.generic_visit(node)

    def family(self, cls) -> set:
        """A class with its bases and its subclasses, transitively."""
        def up(c):
            out = set()
            for b in self.bases.get(c, ()):
                out |= {b} | up(b)
            return out
        return {cls} | up(cls) | {c for c in self.bases if cls in up(c)}


def _unreferenced_definitions(trees: list) -> list:
    """Definitions in `trees` (dunders aside) that no code in them reads, as
    ``name`` or ``Class.name``."""
    refs = _References()
    for tree in trees:
        refs.visit(tree)
    unread = set()
    for cls, name in refs.defined:
        if name.startswith("__") and name.endswith("__") or name in refs.read:
            continue
        if cls and any((c, name) in refs.self_read for c in refs.family(cls)):
            continue
        unread.add(f"{cls}.{name}" if cls else name)
    return sorted(unread)


def _benchmark_names() -> set:
    """The last part of each name the benchmark traces, e.g.
    ``covering_number``, and the attributes its counters read."""
    path = ROOT / "perfbench" / "spans.py"
    traced = {name.rsplit(".", 1)[-1] for name in runpy.run_path(str(path))["TRACED"]}
    return traced | {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute)}


def test_every_definition_is_named_elsewhere():
    # Only the package's own code counts, without its __init__ re-exports:
    # a definition that tests alone read belongs in tests/oracles.py.
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SRC if p.name != "__init__.py"]
    unread = [name for name in _unreferenced_definitions(trees)
              if name.rsplit(".", 1)[-1] not in _benchmark_names()]
    assert not unread, "defined under src/mixapprox/ and read nowhere else in it: " + \
        ", ".join(unread)


def test_scan_flags_an_unnamed_definition():
    src = ("class Used:\n    def method(self): pass\n    def __init__(self): pass\n"
           "def orphan(): pass\ndef twice(): pass\ndef twice(): pass\n")
    tree = ast.parse(src)
    assert _unreferenced_definitions([tree, ast.parse("Used().method()\n")]) == \
        ["orphan", "twice"]
    assert _unreferenced_definitions([tree, ast.parse("Used().method()\ntwice()\n")]) == \
        ["orphan"]


def test_scan_flags_a_check_only_definition():
    # A planted orphan that only __all__ names, beside one a study calls.
    src = ('__all__ = [\n    "oracle",\n    "study",\n]\n\n'
           "def oracle(): pass\ndef study(): pass\ndef run(): study()\n")
    assert _unreferenced_definitions([ast.parse(src)]) == ["oracle", "run"]
    assert {"covering_number", "component_log_pdf", "iterations"} <= _benchmark_names()


def test_scan_flags_a_method_named_only_in_words_or_another_class():
    # `cdf` occurs in a docstring, a string and a comment, and is called
    # through self in a class outside Kernel's family: all of that read it
    # as a word, none of it calls Kernel.cdf.  Sub.ppf's self.tail does
    # call the tail its base defines.
    src = (
        'class Kernel:\n    """Has a cdf."""\n    def cdf(self, x): return x\n'
        "    def tail(self): return 0\n"
        'class Sub(Kernel):\n    def ppf(self, u): return self.tail()  # not the cdf\n'
        'class Target:\n    def cdf(self, x): return "cdf"\n'
        "    def ppf(self, u): return self.cdf(u)\n"
        "Sub().ppf(Target().ppf(0))\n")
    assert _unreferenced_definitions([ast.parse(src)]) == ["Kernel.cdf"]


def test_scan_flags_an_unread_data_attribute():
    # slope is set in a class body and in __init__, and a composite builds
    # its own from its parts' slopes; nothing else reads it.  peak is read.
    src = ("class Flat:\n    slope = 0.0\n    peak = 1.0\n"
           "class Bump:\n    def __init__(self, s):\n        self.slope = s\n"
           "        self.peak = 2.0\n"
           "class Pair:\n    def __init__(self, parts):\n        self.parts = parts\n"
           "        self.slope = sum(c.slope for c in self.parts)\n"
           "def top(m): return m.peak\n"
           "top(Pair([Flat(), Bump(1.0)]))\n")
    assert _unreferenced_definitions([ast.parse(src)]) == \
        ["Bump.slope", "Flat.slope", "Pair.slope"]


def _convolve_calls(tree: ast.Module) -> list:
    """(line, innermost enclosing function or None) of every call of
    ``convolve`` or ``<x>.convolve``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "convolve":
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found)


def test_only_the_pinned_approximant_calls_convolve():
    # Every field a study smooths comes from grids.smooth.  The widened FFT
    # of convolve is kept for the bits that the dim > 1 approximant's greedy
    # fit is pinned to, and this check goes with the pin.
    callers = {(p.name, function) for p in SRC
               for _, function in _convolve_calls(ast.parse(p.read_text(), filename=str(p)))}
    assert callers == {("mixtures.py", "build_mixing_approximant")}


def test_scan_finds_each_convolve_call_and_its_function():
    src = ("from .grids import convolve\n"
           "def build_mixing_approximant(f):\n    return convolve(f, d)\n"
           "def run(f):\n    def inner():\n        return grids.convolve(f, d)\n"
           "    return inner, convolve, smooth(f, d)\n"
           "convolve(f, d)\n")
    assert _convolve_calls(ast.parse(src)) == [
        (3, "build_mixing_approximant"), (6, "inner"), (8, None)]


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
