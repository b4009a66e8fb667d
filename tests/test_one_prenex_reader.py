"""The prenex code is decoded in one module.  Each node's ``_shape`` slot
holds the code that ``hierarchy`` fills and reads (``is_prenex``,
``prenex_level``, ``prenex_floors``); every other module asks those
readers, so the code's format is stated once.  ``formula``'s constructors
store the code a new node starts with, 0 or ``None``, and no other
module touches the slot."""

import ast
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent


def _initial(value) -> bool:
    """Whether ``value`` is the literal 0 or ``None``, or a choice between
    such literals."""
    if isinstance(value, ast.IfExp):
        return _initial(value.body) and _initial(value.orelse)
    return isinstance(value, ast.Constant) and (
        value.value is None or (type(value.value) is int and value.value == 0)
    )


def breaches(sources: dict[str, str]) -> set[str]:
    """``module:line`` for each use of a ``_shape`` attribute in the
    modules of ``sources`` (module name -> text) but ``hierarchy``, except
    the stores of an initial code in ``formula``."""
    found = set()
    for module, text in sources.items():
        if module == "hierarchy":
            continue
        tree = ast.parse(text)
        allowed = {
            id(target)
            for node in ast.walk(tree)
            if module == "formula" and isinstance(node, ast.Assign) and _initial(node.value)
            for target in node.targets
        }
        found.update(
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_shape"
            and id(node) not in allowed
        )
    return found


def test_the_scan_finds_each_use_of_the_code():
    sources = {
        "hierarchy": "code = phi._shape\nif code is None:\n    phi._shape = code = 7\n",
        "formula": "\n".join([
            "self._shape = 0",
            "self._shape = None",
            "self._shape = 0 if self.is_qf else None",
            "self._free = self._shape = None",
            "self._shape = False",
            "self._shape = 2 if self.is_qf else None",
            "quantifier_free = self._shape == 0",
            '__slots__ = ("_free", "_shape")',
        ]),
        "rewrite": "if redex._shape is False:\n    pass\nnode._shape = 0\n",
        "normalizer": "level = prenex_level(phi)\nshape = classify_prenex(phi)\n",
    }
    assert breaches(sources) == {"formula:5", "formula:6", "formula:7", "rewrite:1", "rewrite:3"}


def test_only_hierarchy_reads_the_prenex_code():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "hierarchy" in sources and "formula" in sources
    assert breaches(sources) == set()
