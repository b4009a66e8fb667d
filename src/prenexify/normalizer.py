"""Goal-driven prenex normalization.

Given a positive J/R classification, emit a prenex formula in the matching
cumulative class together with a degree-n trace that the rewrite engine
replays.  The normalizer follows the classifier's derivation one goal
``(phi, side, k)`` at a time (``Classifier.derive``, the step witnesses
are built from), so no clause choice is re-searched.  A ``lift`` goal has
the normal form of the goal at the foot of its lift chain, which is read
off the node's least levels (``Classifier.lift_root``) without walking
the chain, and a prenex formula in its class is its own normal form (its
least levels are its Sigma+ / Pi+ floors), recognised from its prenex
code, which each node is built with (``formula.is_prenex``).
Every other goal is normalized once per degree and kept in the
classifier's store (``Classifier.normal_forms``): normalize the operands,
then merge the two prenex results by hoisting their quantifier prefixes
through the connective.  An entry holds the prenex output, the merge's
own steps at positions relative to its node, and its operands' entries.
Fresh names come from the node alone (the hoisted binders and the node's
variables), so an entry is the same wherever its goal occurs.  The first
call for a goal turns the entries into absolute steps in one pass (the
left operand's, the right operand's, then the node's own) and keeps them
on the goal's entry as its finished trace; a later call for the goal, at
any level from its least one up, costs a few lookups and no ``derive``.
Both walks keep explicit stacks, so nesting depth is not bounded by the
recursion limit.

``prenex_form`` is that one path: a read of the node's least levels
(``Classifier.levels``), which decides membership, its prenex test, the
goal's root (``Classifier.lift_root``), a lookup in the store, and the
``(output, steps)`` pair of the entry, the same objects on every call for the
goal.  ``normalize_J`` / ``normalize_R`` wrap it: they check that the
output is in the target class with the input's free variables, and build
the ``Trace`` and the ``NormalizationResult``.  The selftest calls
``prenex_form`` directly and makes its own checks.

One hoist loop (``_hoist_prefixes``) merges every connective.  It tracks
the quantifier kind of the current block, from the goal's side (exists
for J, forall for R), and a level budget, the goal's level: a quantifier
of the other kind opens a new block and spends one level.  The loop only
orders the hoists, in an order read off the rule table (``_ORDER``): per
connective, the rules whose output continues the current block before
those that open a new one, the left operand's before the right's, after
a disjunction's operand ranks pick the operand (``_or_rank``).  While one
operand is quantifier-free, the order holds only the other operand's
rules (a one-sided ``_ORDER`` entry): no rule hoisting from the
quantifier-free one can match, so the first valid rule is the same.  Each
pass is one call into the rewrite engine (``rewrite.hoist``), which
applies the first rule of that order valid at the connective, with every
match, strategy, variable and degree-n side-condition check that step
replay (``rewrite_node``) makes, and checks no rule after it; so an
invalid schedule cannot survive unnoticed.  The loop holds the
connective as ``(conn, left, right)`` and the hoisted binders as a list,
and ``hoist`` returns the new operands without building a node: the
merge builds its final connective and its prefix once, when it ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import (
    And,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    _free_mask,
    _Quant,
    is_prenex,
    prenex_floors,
    prenex_level,
)
from .hierarchy import PI, SIGMA
from .parser import formula_to_dict, render
from .rewrite import RULES, RewriteError, RewriteStep, Trace, hoist, trace_to_json
from .semiclassical import J, R, Classifier, _check_levels

__all__ = [
    "NormalizationResult",
    "NotInClassError",
    "normalize_J",
    "normalize_R",
    "prenex_form",
    "RESULT_SCHEMA",
]

RESULT_SCHEMA = "prenexify.normalize/1"


class NotInClassError(Exception):
    """The formula is not in the requested class, so nothing to extract."""


@dataclass(frozen=True)
class NormalizationResult:
    input: Formula
    k: int
    n: int
    target: str  # "sigma" or "pi"
    output: Formula
    trace: Trace

    def to_json(self) -> dict:
        trace = trace_to_json(self.trace)
        # a result's trace starts at its input (``_result``): render it once
        text = trace["start"] if self.trace.start is self.input else render(self.input)
        return {
            "schema": RESULT_SCHEMA,
            "input": {"text": text, "ast": formula_to_dict(self.input)},
            "k": self.k,
            "n": self.n,
            "target": self.target,
            "output": {
                "text": render(self.output),
                "ast": formula_to_dict(self.output),
            },
            "trace": trace,
        }


def normalize_J(
    phi: Formula, k: int, n: int, checker: Optional[Classifier] = None
) -> NormalizationResult:
    """phi in J_k^n  ==>  a Sigma_k+ formula with a verifying ~>*_n trace."""
    return _result(phi, k, n, SIGMA, checker)


def normalize_R(
    phi: Formula, k: int, n: int, checker: Optional[Classifier] = None
) -> NormalizationResult:
    """phi in R_k^n  ==>  a Pi_k+ formula with a verifying ~>*_n trace."""
    return _result(phi, k, n, PI, checker)


def _result(
    phi: Formula, k: int, n: int, target: str, checker: Optional[Classifier]
) -> NormalizationResult:
    # filled first, so that every node the merges build over it is built
    # filled; phi stays alive, so its mask may be kept
    free = _free_mask(phi)
    # no process-global store: without a checker, nothing outlives the call
    output, steps = prenex_form(phi, k, n, target, checker or Classifier())
    if k < prenex_floors(output)[0 if target == SIGMA else 1]:
        raise AssertionError("normalizer output left the target class")
    if _free_mask(output) != free:
        raise AssertionError("free variables not preserved")
    return NormalizationResult(phi, k, n, target, output, Trace(phi, steps, n))


def prenex_form(
    phi: Formula, k: int, n: int, target: str, checker: Classifier
) -> tuple[Formula, tuple[RewriteStep, ...]]:
    """The normal form of ``phi`` in J_k^n (``target`` "sigma") or R_k^n
    ("pi"): its prenex output and the steps of its degree-``n`` trace.
    Each goal's entry is built once and kept in ``checker``'s store, so
    every call for one goal returns the same two objects.  Raises
    ``NotInClassError`` when ``phi`` is not in the class."""
    _check_levels(k, n)
    k_j, k_r = checker.levels(phi, n)
    side = J if target == SIGMA else R
    if k < (k_j if side == J else k_r):
        raise NotInClassError(f"{render(phi)} is not in {side}_{k}^{n}")
    if is_prenex(phi):  # in its class, so its own normal form
        return phi, ()
    root = checker.lift_root(phi, side, k, n)
    form = checker.normal_forms(n).get(root) or _build_entries(root, n, checker)
    if form.steps is None:
        form.steps = _absolute_steps(form)
    return form.output, form.steps


class _NormalForm:
    """The normal form of one goal whose node is not prenex: its prenex
    ``output``, the ``hoists`` of its own merge as ``(rule, fresh)``
    pairs, and, with their selectors, the entries of its operands that
    are not prenex either.  Each hoist slides the connective one body
    position down, so the i-th is the step at ``("b",) * i`` below the
    goal's node.  ``steps``, every step below the node in trace order, is
    filled in when the entry's own goal is first normalized."""

    __slots__ = ("output", "hoists", "children", "steps")

    def __init__(self, output: Formula, hoists: tuple, children: tuple):
        self.output = output
        self.hoists: tuple[tuple[str, Optional[str]], ...] = hoists
        self.children: tuple[tuple[str, _NormalForm], ...] = children
        self.steps: Optional[tuple[RewriteStep, ...]] = None


def _build_entries(root: tuple, n: int, checker: Classifier) -> _NormalForm:
    """Build and store the entry of ``root``, a goal at the foot of its
    lift chain whose node is not prenex, at degree ``n``, operands before
    their node, with every entry below it not yet stored.  Entries are
    keyed by such roots; a premise whose node is prenex is its own normal
    form and has no entry.  ``derive`` runs only for goals whose entries
    are built."""
    store = checker.normal_forms(n)
    # a frame: a goal and its operands' roots
    stack = [_frame(root, n, checker)]
    while stack:
        key, operands = stack[-1]
        pending = [g for g in operands if not is_prenex(g[0]) and g not in store]
        if pending:
            stack.extend(_frame(g, n, checker) for g in pending)
            continue
        stack.pop()
        if key not in store:  # a goal pending twice is built once
            forms = [store.get(g) for g in operands]
            store[key] = _build(key, forms, n)
    return store[root]


def _frame(root: tuple, n: int, checker: Classifier) -> tuple:
    """A root goal and the roots of its premises.  A root is not
    ``lift``, and its node is not prenex, so not ``qf`` either: its
    node's connective or quantifier fixes its clause."""
    _, premises = checker.derive(*root, n)
    return root, [checker.lift_root(*p, n) for p in premises]


def _build(goal: tuple, forms: list, n: int) -> _NormalForm:
    """The entry of a goal from its operands' entries, ``None`` for a
    prenex operand."""
    phi, side, k = goal
    if isinstance(phi, _Quant):
        (body,) = forms  # phi is not prenex, so neither is its body
        return _NormalForm(type(phi)(phi.var, body.output), (), (("b", body),))

    left, right = forms
    # phi is not prenex, so an operand is quantified and the loop hoists
    output, hoists = _hoist_prefixes(
        type(phi),
        phi.left if left is None else left.output,
        phi.right if right is None else right.output,
        _KIND[side],
        k,
        n,
    )
    children = tuple((sel, form) for sel, form in zip("lr", forms) if form is not None)
    return _NormalForm(output, tuple(hoists), children)


def _absolute_steps(form: _NormalForm) -> tuple[RewriteStep, ...]:
    """Every step below ``form``, at positions from its node, in trace
    order: per entry, its left operand's, its right operand's, its own."""
    steps: list[RewriteStep] = []
    stack = [(form, (), False)]
    while stack:
        form, pos, expanded = stack.pop()
        if expanded:
            for rule, fresh in form.hoists:
                steps.append(tuple.__new__(RewriteStep, (rule, pos, fresh)))
                pos += ("b",)
            continue
        stack.append((form, pos, True))
        for selector, child in reversed(form.children):
            stack.append((child, pos + (selector,), False))
    return tuple(steps)


_KIND = {J: Exists, R: Forall}

# (connective, block kind, side) -> the connective's rules in the order a
# merge tries them: those whose output continues a block of quantifier
# kind ``kind`` before those that open a new one, the left operand's first
# each time; ``side`` ("l" or "r") keeps the ones hoisting from it, ``None`` all
_ORDER = {
    (conn, kind, side): tuple(
        sorted(
            (r for r in RULES.values() if r.conn is conn and side in (None, r.qside)),
            key=lambda r: (r.out is not kind, r.qside == "r"),
        )
    )
    for conn in (And, Or, Imp)
    for kind in (Exists, Forall)
    for side in (None, "l", "r")
}


def _hoist_prefixes(
    conn: type, left: Formula, right: Formula, kind: type, budget: int, n: int
) -> tuple[Formula, list[tuple[str, Optional[str]]]]:
    """Hoist the quantifier prefixes of the operands of the connective
    ``conn(left, right)`` above it, after a block of kind ``kind`` and
    within ``budget`` new blocks; both operands stay prenex.  Each pass
    hoists the first valid rule of ``_ORDER`` at the connective, its
    redex, which moves one operand's head quantifier above it and slides
    the connective down one body position.  Returns the merged formula,
    the only nodes built, and the hoists' ``(rule, fresh)`` pairs."""
    kinds: list[type] = []
    # exactly the variables of the prefix over the connective: a name
    # renamed away must drop out, or the fresh names would change
    binders: list[str] = []
    hoists: list[tuple[str, Optional[str]]] = []
    while not (left.is_qf and right.is_qf):
        if left.is_qf or right.is_qf:
            # no rule hoists from a quantifier-free operand
            side = "r" if left.is_qf else "l"
        else:
            side = _or_rank(left, right, kind, n) if conn is Or else None
        try:
            rule, fresh, var, left, right = hoist(
                conn, left, right, n, _ORDER[conn, kind, side], avoid=binders
            )
        except RewriteError as exc:
            raise AssertionError("no valid hoist; merge preconditions broken") from exc
        hoists.append((rule.name, fresh))
        kinds.append(rule.out)
        binders.append(var)
        # A quantifier of the current kind continues its block; one of the
        # other kind opens a new block and spends one level.
        if rule.out is not kind:
            if budget < 1:
                raise AssertionError("merge level budget exhausted")
            kind = rule.out
            budget -= 1
    node = conn(left, right)
    for out, var in zip(reversed(kinds), reversed(binders)):
        node = out(var, node)
    return node, hoists


def _or_rank(left: Formula, right: Formula, kind: type, n: int) -> Optional[str]:
    """The operand of a disjunction that the ranks of its two quantified
    operands make hoist from next, "l" or "r", or None when they leave
    the choice to the rule order."""
    ll, rl = prenex_level(left), prenex_level(right)
    if ll is None or rl is None:
        raise AssertionError("merge operands must stay prenex")
    if kind is Exists:
        # an operand above the degree must shed its existential block
        # before any universal hoist can see it as delta
        if type(left) is Exists and ll > n:
            return "l"
        if type(right) is Exists and rl > n:
            return "r"
    if ll != rl:
        # bring the higher-ranked side down to the lower one
        return "l" if ll > rl else "r"
    return None
