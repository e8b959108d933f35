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


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from defosc import *", namespace)
    assert [n for n in defosc.__all__ if n not in namespace] == []


def test_dir_lists_every_public_name():
    assert set(defosc.__all__) <= set(dir(defosc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        defosc.no_such_name
