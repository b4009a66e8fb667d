"""The rules are stated once, in ``rewrite.RULES``.  Every other module
reads a rule's connective, operand side and output from that table, so
no module but ``rewrite`` has a string literal that names a rule: an
order of hoists or a choice of rule spelled out by name elsewhere would
restate the table."""

import ast
from pathlib import Path

import prenexify
from prenexify.rewrite import RULES

SRC = Path(prenexify.__file__).parent


def breaches(sources: dict[str, str]) -> set[str]:
    """``module names rule`` for each string literal in the modules of
    ``sources`` (module name -> text) but ``rewrite`` that is a rule's
    name."""
    return {
        f"{module} names {node.value}"
        for module, text in sources.items()
        if module != "rewrite"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in RULES
    }


def test_the_scan_finds_each_rule_name():
    sources = {
        "rewrite": 'RULES = {"ExistsAnd": 1}\n',
        "normalizer": 'ORDER = {"and": ("ForallAnd", "AndForall")}\n',
        "oracle": 'def f(step): return step.rule == "ExistsVar"\n',
        "selftest": 'def g(rule): return f"{rule}" + "OrExists"\n',
        "fine": '"""ExistsAnd moves a quantifier."""\nKIND = "Exists"\n',
    }
    assert breaches(sources) == {
        "normalizer names ForallAnd",
        "normalizer names AndForall",
        "oracle names ExistsVar",
        "selftest names OrExists",
    }


def test_only_rewrite_names_a_rule():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "rewrite" in sources and "normalizer" in sources
    assert breaches(sources) == set()
