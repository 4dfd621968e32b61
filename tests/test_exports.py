"""Every export list names only what its module defines, and every
import is used or exported."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hexreg

MODULES = ["hexreg"] + [f"hexreg.{m.name}" for m in pkgutil.iter_modules(hexreg.__path__)]
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(path.name for path in TESTS.glob("*.py"))


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


@pytest.mark.parametrize("module", MODULES + TEST_FILES)
def test_no_unused_imports(module):
    """A module imports no name that it neither uses nor lists in __all__.
    The modules under tests/ are named by file and parsed the same way."""
    if module.endswith(".py"):
        source, exported = (TESTS / module).read_text(encoding="utf-8"), []
    else:
        mod = importlib.import_module(module)
        source, exported = inspect.getsource(mod), getattr(mod, "__all__", [])
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used - set(exported))
    assert [(name, imported[name]) for name in unused] == []
