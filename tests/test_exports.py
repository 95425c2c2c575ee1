"""Every exported name resolves, so a deleted function cannot leave a
stale entry in a module's `__all__` or in the package's imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import relucheck

MODULES = sorted(m.name for m in pkgutil.iter_modules(relucheck.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"relucheck.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"relucheck.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(relucheck.__file__).read_text())
    imported = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name, bound in imported:
        source = importlib.import_module(f"relucheck.{module}")
        assert hasattr(source, name) and hasattr(relucheck, bound), f"{module}.{name}"
