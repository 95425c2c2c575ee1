"""Every exported name resolves, so a deleted function cannot leave a
stale entry in a module's `__all__` or in the package's imports; every
exported name has a use outside the tests, and every field of a settings
class is set outside the tests, so no API or setting is kept for the
tests alone."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import relucheck
from relucheck import engine, intervals

MODULES = sorted(m.name for m in pkgutil.iter_modules(relucheck.__path__))
SRC = Path(relucheck.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _names_read(path: Path) -> set:
    """The names a Python file reads: bare names, attributes, and names
    imported from other modules. A def or class line reads no name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_all_used_outside_tests(name):
    # a use in the module itself, in another module (the package's
    # re-exports do not count), in the benchmark, or in the README
    readers = [SRC / f"{name}.py", *sorted((ROOT / "bench").glob("*.py"))]
    readers += [p for p in sorted(SRC.glob("*.py")) if p.stem not in (name, "__init__")]
    used = set().union(*map(_names_read, readers))
    readme = (ROOT / "README.md").read_text()
    module = importlib.import_module(f"relucheck.{name}")
    unused = [
        attr
        for attr in getattr(module, "__all__", ())
        if attr not in used and not re.search(rf"\b{re.escape(attr)}\b", readme)
    ]
    assert not unused, f"relucheck.{name}.__all__ names used only by tests: {unused}"


def _keywords_passed(cls_name: str, paths) -> set:
    """The keywords that calls of `cls_name` (bare or as an attribute) pass."""
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == cls_name:
                    passed.update(k.arg for k in node.keywords)
    return passed


@pytest.mark.parametrize("cls", [engine.Config], ids=lambda c: c.__name__)
def test_settings_are_set_outside_tests(cls):
    # a field that no caller outside the tests sets has one value in use,
    # and is a constant, not a setting
    callers = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    passed = _keywords_passed(cls.__name__, callers)
    unset = [f.name for f in dataclasses.fields(cls) if f.name not in passed]
    assert not unset, f"{cls.__name__} fields set only by tests: {unset}"
