"""Every name a module of the package imports is read in that module.  A
deletion that leaves its imports behind shows here, which the scan for
unused definitions cannot see: an imported name is defined elsewhere,
and read there.  The package's ``__init__`` imports only to re-export,
so it is exempt.  A name counts as read when it is loaded anywhere in
the module, annotations included."""

import ast
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent


def unread(sources: dict[str, str]) -> set[str]:
    """``module.name`` for each name an import binds in the modules of
    ``sources`` (module name -> text) but ``__init__`` that the module
    never loads."""
    found = set()
    for module, text in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        found.add(f"{module}.{name}")
    return found


def test_the_scan_finds_unread_imports():
    sources = {
        "a": """
from __future__ import annotations
import os
import os.path as osp
import json
import xml.dom
from .formula import And, _Quant
from . import oracle

def f(x: And) -> None:
    from .parser import render
    return oracle.run(json.dumps(x), xml.dom)
""",
        "b": "from .formula import Or\nOr = None\n",
        "__init__": "from .formula import And\n",
    }
    assert unread(sources) == {"a.os", "a.osp", "a._Quant", "a.render", "b.Or"}


def test_every_import_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert len(sources) >= 10 and "__init__" in sources
    assert unread(sources) == set()
