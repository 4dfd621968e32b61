"""Every export list names only what its module defines."""

import importlib
import pkgutil

import pytest

import hexreg

MODULES = ["hexreg"] + [f"hexreg.{m.name}" for m in pkgutil.iter_modules(hexreg.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)
