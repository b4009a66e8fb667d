"""The degree side conditions are stated once.  ``rewrite._side_condition``
decides the four of them, and the search, step replay and the normalizer
all reach them through ``rewrite``: no module but ``rewrite`` imports one
of its underscore names, and no function but ``_side_condition`` reads a
rule's condition flags, ``needs_xi_u`` and ``needs_delta_c``."""

import ast
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent
FLAGS = {"needs_xi_u", "needs_delta_c"}


def _nodes(module: str, tree):
    """Every node of ``tree``, less the body of ``rewrite._side_condition``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if module == "rewrite" and isinstance(node, ast.FunctionDef):
            if node.name == "_side_condition":
                continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _from_rewrite(node) -> bool:
    return isinstance(node, ast.ImportFrom) and (
        (node.level == 1 and node.module == "rewrite")
        or (node.level == 0 and node.module == "prenexify.rewrite")
    )


def breaches(sources: dict[str, str]) -> set[str]:
    """What the modules in ``sources`` (module name -> text) read of the
    side conditions outside ``rewrite._side_condition``."""
    found = set()
    for module, text in sources.items():
        for node in _nodes(module, ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in FLAGS:
                found.add(f"{module} reads {node.attr}")
            if module == "rewrite":
                continue
            if _from_rewrite(node):
                found |= {
                    f"{module} imports rewrite.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                }
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "rewrite"
                and node.attr.startswith("_")
            ):
                found.add(f"{module} reads rewrite.{node.attr}")
    return found


def test_the_scan_finds_each_breach():
    sources = {
        "rewrite": """
def _side_condition(rule): return rule.needs_xi_u or rule.needs_delta_c
def applicable_steps(rule): return rule.needs_delta_c
""",
        "normalizer": "from .rewrite import RULES, _kind\n",
        "oracle": "from prenexify.rewrite import _match\n",
        "selftest": "from . import rewrite\nrewrite._side_condition\n",
        "cli": "def f(rule): return rule.needs_xi_u\n",
        "fine": "from .rewrite import valid_hoists\nfrom .formula import _Quant\n",
    }
    assert breaches(sources) == {
        "rewrite reads needs_delta_c",
        "normalizer imports rewrite._kind",
        "oracle imports rewrite._match",
        "selftest reads rewrite._side_condition",
        "cli reads needs_xi_u",
    }


def test_only_side_condition_decides_the_side_conditions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "rewrite" in sources and "normalizer" in sources
    assert breaches(sources) == set()
