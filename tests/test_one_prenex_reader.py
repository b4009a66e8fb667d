"""The prenex code is stated in one module.  Each node's ``_shape`` slot
holds the code that ``formula``'s constructors set and its readers
(``is_prenex``, ``prenex_level``, ``prenex_floors``) decode; every other
module asks those readers, so the code's format is stated once and no
other module touches the slot."""

import ast
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent


def breaches(sources: dict[str, str]) -> set[str]:
    """``module:line`` for each use of a ``_shape`` attribute in the
    modules of ``sources`` (module name -> text) but ``formula``."""
    return {
        f"{module}:{node.lineno}"
        for module, text in sources.items()
        if module != "formula"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and node.attr == "_shape"
    }


def test_the_scan_finds_each_use_of_the_code():
    sources = {
        "formula": "self._shape = 0\ncode = body._shape\nreturn phi._shape is not False\n",
        "hierarchy": "blocks = []\ncode = phi._shape\n",
        "rewrite": "if redex._shape is False:\n    pass\nnode._shape = 0\n",
        "normalizer": "level = prenex_level(phi)\nshape = classify_prenex(phi)\n",
    }
    assert breaches(sources) == {"hierarchy:2", "rewrite:1", "rewrite:3"}


def test_only_formula_touches_the_prenex_code():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "formula" in sources and "hierarchy" in sources
    assert breaches(sources) == set()
