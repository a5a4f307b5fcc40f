"""Every name that the package or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import fracdual

MODULES = ["fracdual"] + [f"fracdual.{info.name}" for info in pkgutil.iter_modules(fracdual.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
