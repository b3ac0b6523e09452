"""Every ``__all__`` in the package names only what its module defines, and
every name a module imports is used there or re-exported."""

import ast
import importlib
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
