"""Every ``__all__`` in the package names only what its module defines,
every name a module imports is used there or re-exported, and every exported
function has a consumer in the program or the benchmark."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import fastdiff_lab

MODULES = ["fastdiff_lab"] + [
    f"fastdiff_lab.{info.name}"
    for info in pkgutil.iter_modules(fastdiff_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    missing = [e for e in getattr(module, "__all__", ()) if e not in namespace]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    path = pathlib.Path(importlib.import_module(name).__file__)
    unused = _unused_imports(path)
    assert not unused, f"{name} imports unused {unused}"


ROOT = pathlib.Path(__file__).resolve().parents[1]

def _bindings(tree: ast.AST, module: str, package: str) -> dict[str, str]:
    """Dotted name of every name a module binds by import or by a top-level
    ``def``: ``from . import evolve`` binds ``evolve`` to
    ``fastdiff_lab.evolve``, ``from .evolve import energy`` binds ``energy``
    to ``fastdiff_lab.evolve.energy``, and ``def run`` in ``evolve`` binds
    ``run`` to ``fastdiff_lab.evolve.run``."""
    bound = {node.name: f"{module}.{node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    bound[a.asname] = a.name
                else:
                    top = a.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ([] if not node.level
                    else parts[:len(parts) - node.level + 1])
            if node.module:
                base.append(node.module)
            for a in node.names:
                bound[a.asname or a.name] = ".".join(base + [a.name])
    return bound


def _dotted(node: ast.AST, bound: dict[str, str]) -> str | None:
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def _references(path: pathlib.Path) -> set[str]:
    """Dotted names of the package's objects a file reads: a ``Name`` bound
    by a from-import or a top-level ``def``, or an ``Attribute`` qualified by
    an imported module (``evolve.energy``), except inside the ``def`` of the
    same name.  An attribute of some other object (``trace.energy``) is not
    a reference."""
    tree = ast.parse(path.read_text())
    package = path.parent.name
    module = package if path.stem == "__init__" else f"{package}.{path.stem}"
    bound = _bindings(tree, module, package)
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and \
                isinstance(node.ctx, ast.Load):
            dotted = _dotted(node, bound)
            if dotted and dotted.rsplit(".", 1)[-1] not in enclosing:
                found.add(dotted)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _resolve(dotted: str):
    """The package object a dotted name reads, or None."""
    module, _, attr = dotted.rpartition(".")
    if not module.startswith("fastdiff_lab"):
        return None
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def test_every_exported_function_has_a_consumer():
    referenced = set()
    for tree in ("src", "bench"):
        for path in sorted(ROOT.glob(f"{tree}/**/*.py")):
            referenced |= {id(obj) for obj in map(_resolve, _references(path))
                           if inspect.isfunction(obj)}
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            qualified = f"{name}.{export}"
            fn = getattr(module, export)
            if inspect.isfunction(fn) and id(fn) not in referenced:
                unused.append(qualified)
    assert not unused, f"exported functions without a consumer: {unused}"


# ---------------------------------------------------------------------------
# Cache lint: every cache in the program has a bound
# ---------------------------------------------------------------------------

_DICT_FACTORIES = {"dict", "collections.defaultdict", "collections.OrderedDict"}


def _finite_maxsize(call: ast.AST) -> bool:
    """Whether an ``lru_cache(...)`` call names an explicit integer maxsize."""
    if not isinstance(call, ast.Call):
        return False
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and \
        type(sizes[0].value) is int and sizes[0].value >= 0


def _unbounded_caches(source: str, name: str = "<source>") -> list[str]:
    """``functools.cache``, an ``lru_cache`` without an explicit finite
    integer maxsize, and a module-level dict that a function writes to
    (an unbounded cache), in one module's source."""
    tree = ast.parse(source)
    bound = _bindings(tree, "module", "package")
    bound.setdefault("dict", "dict")
    found = []
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Name, ast.Attribute)) or \
                not isinstance(node.ctx, ast.Load):
            continue
        dotted = _dotted(node, bound)
        if dotted == "functools.cache":
            found.append(f"{name}:{node.lineno}: functools.cache")
        elif dotted == "functools.lru_cache" and id(node) not in calls:
            found.append(f"{name}:{node.lineno}: lru_cache without maxsize")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                _dotted(node.func, bound) == "functools.lru_cache" and \
                not _finite_maxsize(node):
            found.append(f"{name}:{node.lineno}: lru_cache without a finite "
                         f"integer maxsize")
    dicts, defaults = set(), set()  # a defaultdict grows on every read
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) and stmt.value else []
        value = getattr(stmt, "value", None)
        if isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call)
                and _dotted(value.func, bound) in _DICT_FACTORIES):
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            dicts |= names
            if isinstance(value, ast.Call) and \
                    _dotted(value.func, bound) == "collections.defaultdict":
                defaults |= names
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            written = None
            if isinstance(node, ast.Subscript) and (
                    isinstance(node.ctx, ast.Store)
                    or getattr(node.value, "id", None) in defaults):
                written = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("setdefault", "update", "__setitem__"):
                written = node.func.value
            if isinstance(written, ast.Name) and written.id in dicts:
                found.append(f"{name}:{node.lineno}: module-level dict cache "
                             f"{written.id}")
    return found


def test_every_cache_is_bounded():
    found = []
    for path in sorted(ROOT.glob("src/**/*.py")):
        found += _unbounded_caches(path.read_text(), str(path.relative_to(ROOT)))
    assert not found, "unbounded caches:\n" + "\n".join(found)


def test_cache_lint_finds_unbounded_caches():
    bad = '''
import functools
from functools import cache, lru_cache as lru
import collections

_SEEN = {}
_BY_KEY: dict = dict()
_TABLE = collections.defaultdict(list)
LIMITS = {"a": 1}

@functools.cache
def a(x): return x

@lru
def b(x): return x

@lru(maxsize=None)
def c(x): return x

@functools.lru_cache()
def d(x): return x

@lru(64)
def ok(x): return LIMITS[x]

def e(x):
    _SEEN[x] = x
    _BY_KEY.setdefault(x, x)
    _TABLE[x].append(x)
    return cache(x)
'''
    found = [line.split(": ", 1)[1] for line in _unbounded_caches(bad)]
    assert found == [
        "functools.cache", "lru_cache without maxsize", "functools.cache",
        "lru_cache without a finite integer maxsize",
        "lru_cache without a finite integer maxsize",
        "module-level dict cache _SEEN", "module-level dict cache _BY_KEY",
        "module-level dict cache _TABLE"]
