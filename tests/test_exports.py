"""Every export list names only what its module defines."""

import importlib
import inspect
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


@pytest.mark.parametrize("module", [m for m in MODULES if m != "hexreg"])
def test_submodules_export_only_their_own_definitions(module):
    """A submodule's functions and classes are exported by that submodule
    alone; the package re-exports them.  Constants carry no __module__ and
    are exempt."""
    mod = importlib.import_module(module)
    foreign = [name for name in getattr(mod, "__all__", [])
               if (inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name)))
               and getattr(mod, name).__module__ != module]
    assert foreign == []
