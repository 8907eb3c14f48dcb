"""Every exported name resolves: each module's __all__ and the package's imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import freeprob

# __main__ runs the command line on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(freeprob.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"freeprob.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    # a name the package re-exports must exist and, where its module lists
    # an __all__, be listed there
    tree = ast.parse(Path(freeprob.__file__).read_text())
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imports
    for source, name in imports:
        module = importlib.import_module(f"freeprob.{source}")
        assert hasattr(freeprob, name), name
        assert name in getattr(module, "__all__", (name,)), f"{source}.{name}"
