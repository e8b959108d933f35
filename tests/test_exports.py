"""Every name a module of the package exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import defosc

MODULES = ["defosc"] + [f"defosc.{m.name}" for m in pkgutil.iter_modules(defosc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
