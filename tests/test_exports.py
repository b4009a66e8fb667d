"""The package's exports stay consistent: every name a module lists in
``__all__`` exists, and the package re-exports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import prenexify


def _modules():
    return [
        importlib.import_module(f"prenexify.{info.name}")
        for info in pkgutil.iter_modules(prenexify.__path__)
    ]


def test_every_listed_name_exists():
    modules = _modules()
    assert len(modules) >= 9
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_the_package_reexports_only_listed_names():
    source = Path(prenexify.__file__).read_text()
    imported = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = importlib.import_module(f"prenexify.{node.module}").__all__
            for alias in node.names:
                assert alias.name in listed, f"prenexify.{node.module}.{alias.name}"
                assert hasattr(prenexify, alias.asname or alias.name)
                imported += 1
    assert imported > 0
