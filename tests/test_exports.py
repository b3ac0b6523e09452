"""Every ``__all__`` in the package names only what its module defines."""

import importlib
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
