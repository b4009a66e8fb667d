"""The degree side conditions are stated once.  ``rewrite._side_condition``
decides the four of them, and the search, step replay and the normalizer
all reach them through ``rewrite``: no module but ``rewrite`` imports one
of its underscore names, and no function but ``_side_condition`` reads a
rule's condition flags, ``needs_xi_u`` and ``needs_delta_c``.

The other checks of a connective step (match, strategy and the variable
conditions) are stated once too, in ``rewrite.hoist``: no other function
calls ``_match``, and none but the search's filter calls ``_strategy_ok``
or ``_side_condition``, so a replay's fast path cannot grow a copy."""

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


# The checks of a connective step are stated once, in ``rewrite.hoist``,
# the one function that applies a connective rule: the callers of each
# check and the raisers of the step errors, by qualified function name.
# The search filters redexes with the strategy and degree checks before it
# tries a rule, and ``rewrite_node`` raises for unknown rules, nodes that
# are no connective and the Var rules, which ``hoist`` does not apply.
CHECKS = {
    "_match": {"rewrite.hoist"},
    "_strategy_ok": {"rewrite.hoist", "rewrite.applicable_steps"},
    "_side_condition": {"rewrite.hoist", "rewrite.applicable_steps"},
    "RuleMismatchError": {"rewrite.hoist", "rewrite.rewrite_node"},
    "StrategyViolationError": {"rewrite.hoist", "rewrite.rewrite_node"},
    "SideConditionError": {"rewrite.hoist", "rewrite.rewrite_node"},
}


def _calls(module: str, tree):
    """``(function, name)`` for each call of a bare or dotted name in
    ``tree``, the function qualified by the module and its enclosing
    definitions."""
    stack = [(tree, module)]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield where, func.id
            elif isinstance(func, ast.Attribute):
                yield where, func.attr
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def stray_checks(sources: dict[str, str]) -> set[str]:
    """Each call of a step check, or construction of a step error, in the
    modules of ``sources`` (module name -> text) outside the functions
    ``CHECKS`` allows it in."""
    return {
        f"{where} calls {name}"
        for module, text in sources.items()
        for where, name in _calls(module, ast.parse(text))
        if name in CHECKS and where not in CHECKS[name]
    }


def test_the_scan_finds_each_stray_check():
    sources = {
        "rewrite": """
def hoist(rule, conn, left, right):
    if _match(rule, conn, left, right) is None or not _strategy_ok(left, right):
        raise RuleMismatchError("no")
    def inner():
        return _match(rule, conn, left, right)
    return _side_condition(rule, left, right, 0)
def applicable_steps(phi, n):
    return _strategy_ok(phi, phi) and _side_condition(None, phi, phi, n)
def rewrite_node(node, step, n):
    if _strategy_ok(node.left, node.right):
        raise StrategyViolationError("no")
def verify_trace(trace):
    if _match(None, None, None, None) is None:
        raise SideConditionError("fresh already appears")
""",
        "normalizer": "from . import rewrite\ndef merge(rule, q, d):\n    rewrite._side_condition(rule, q, d, 0)\n",
        "oracle": "raise RuleMismatchError('at import')\n",
    }
    assert stray_checks(sources) == {
        "rewrite.hoist.inner calls _match",
        "rewrite.rewrite_node calls _strategy_ok",
        "rewrite.verify_trace calls _match",
        "rewrite.verify_trace calls SideConditionError",
        "normalizer.merge calls _side_condition",
        "oracle calls RuleMismatchError",
    }


def test_only_hoist_makes_the_checks_of_a_connective_step():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "rewrite" in sources and "normalizer" in sources
    assert stray_checks(sources) == set()
    # hoist itself makes every check and raises every error
    calls = _calls("rewrite", ast.parse(sources["rewrite"]))
    assert set(CHECKS) <= {name for where, name in calls if where == "rewrite.hoist"}
