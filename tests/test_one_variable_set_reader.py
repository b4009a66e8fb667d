"""The variable masks are stated in one module.  Each node's ``_free`` and
``_vars`` slots hold bit masks over the name table (``_bits``, ``_names``,
``_spare``) that ``formula`` sets, sweeps and decodes; every other module
asks its readers (``_free_mask``, ``_vars_mask``, ``_is_free``, ``_bit``,
``fresh_variable``, ``free``, ``vars``), so the masks' format and the rule
for holding one are stated once and no other module touches the slots or
the table."""

import ast
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent

SLOTS = {"_free", "_vars"}
TABLE = {"_bits", "_names", "_spare"}


def breaches(sources: dict[str, str]) -> set[str]:
    """``module:line`` for each use of a mask slot as an attribute, and each
    use of a name-table global as an attribute, a bare name or an imported
    name, in the modules of ``sources`` (module name -> text) but
    ``formula``."""
    found = set()
    for module, text in sources.items():
        if module == "formula":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                hit = node.attr in SLOTS | TABLE
            elif isinstance(node, ast.Name):
                hit = node.id in TABLE
            elif isinstance(node, ast.ImportFrom):
                hit = any(alias.name in TABLE for alias in node.names)
            else:
                continue
            if hit:
                found.add(f"{module}:{node.lineno}")
    return found


def test_the_scan_finds_each_use_of_the_masks_and_the_table():
    sources = {
        "formula": "mask = phi._free\n_bits[name] = 1\nnode._vars = 0\n",
        "rewrite": "if delta._free & bit:\n    pass\nfresh = fresh_variable((), mask)\n",
        "normalizer": "from .formula import _bits, _free_mask\nx = _free_mask(phi)\n",
        "selftest": "import prenexify.formula as f\nn = len(f._names)\nnode._vars = None\n",
        "oracle": "spare = _spare[0]\nfree = phi.free\nnames = phi.vars\n",
    }
    assert breaches(sources) == {
        "rewrite:1",
        "normalizer:1",
        "selftest:2",
        "selftest:3",
        "oracle:1",
    }


def test_only_formula_touches_the_masks_and_the_name_table():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "formula" in sources and "rewrite" in sources
    assert breaches(sources) == set()
