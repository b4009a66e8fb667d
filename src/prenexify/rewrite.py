"""One-step prenex rewriting at positions, degree-n side conditions, and
replayable traces.

The fourteen rules move a quantifier over a connective (or rename a bound
variable).  Writing ``Qx xi`` for the quantified operand and ``delta`` for
the other one, with ``x`` not free in ``delta``:

    ExistsImp   (exists x xi) -> delta   ~>  forall x (xi -> delta)
    ForallImpN  (forall x xi) -> delta   ~>  exists x (xi -> delta)   [n != 0, xi in U_n+]
    ImpExistsN  delta -> exists x xi     ~>  exists x (delta -> xi)   [delta in C_n+]
    ImpForall   delta -> forall x xi     ~>  forall x (delta -> xi)
    ExistsAnd   (exists x xi) & delta    ~>  exists x (xi & delta)
    ForallAnd   (forall x xi) & delta    ~>  forall x (xi & delta)
    AndExists   delta & exists x xi      ~>  exists x (delta & xi)
    AndForall   delta & forall x xi      ~>  forall x (delta & xi)
    ExistsOr    (exists x xi) | delta    ~>  exists x (xi | delta)
    ForallOrN   (forall x xi) | delta    ~>  forall x (xi | delta)    [delta in C_n+]
    OrExists    delta | exists x xi      ~>  exists x (delta | xi)
    OrForallN   delta | forall x xi      ~>  forall x (delta | xi)    [delta in C_n+]
    ExistsVar   exists x xi              ~>  exists y xi[y/x]         [y not in xi]
    ForallVar   forall x xi              ~>  forall y xi[y/x]         [y not in xi]

ForallImpN's two conditions are one test: the whole operand ``forall x xi``
is in Pi_n+.  No universal formula is in Pi_0+, which excludes degree 0.

Every rule applies only at a redex whose proper subformulas are all in
prenex normal form; since every subformula of a prenex formula is prenex,
this is equivalent to both immediate children of the redex being prenex,
which is what the implementation checks.  So ``xi`` and ``delta`` are
prenex, and there ``U_n+`` (= R_n^n) is Pi_n+ and ``C_n+`` (= D_n^n) is
Sigma_n+ u Pi_n+: the side conditions read the prenex hierarchy, not the
classifier, so the rewrite search checks the classifier independently.
One function, ``_side_condition``, states the four degree conditions.
``applicable_steps`` (the search), ``rewrite_node`` (step replay) and
``hoist`` (the normalizer's hoist) all read them there.  ``rewrite_node``
and ``hoist`` apply a connective rule through one function, ``_apply``,
which renames, checks the variable condition and builds the result.

A step may carry a ``fresh`` variable.  For the two Var rules it is the
new bound name.  For the other rules it folds an implicit renaming of the
quantified operand's bound variable (a Var step at the child position)
into the application, which is how the ``x`` not free in ``delta`` side
condition is discharged when violated.  ``applicable_steps`` never
enumerates standalone Var steps; renaming alone does not terminate, and
folded renaming reaches the same formulas up to alpha-equivalence.

A trace is written as text, a ``degree:`` line, a ``start:`` line and a
line ``Rule@/path`` per step with an optional `` fresh=name``, or as
JSON.  A path is "/" followed by the selectors (``l``, ``r``, ``b``),
one after each further slash.  A step's rule is checked first, then its
fresh name, then its path.  The text reader reads a well-formed path by
slicing the step line; ``parse_position`` reads every other path, and
every JSON one, and words the error of a malformed one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .formula import (
    BODY,
    LEFT,
    RIGHT,
    And,
    Exists,
    Falsum,
    Forall,
    Formula,
    Imp,
    Or,
    Position,
    Prime,
    _Binary,
    _child,
    _dangling,
    _Quant,
    _rebuild,
    _with_child,
    fresh_variable,
    is_prenex,
    prenex_level,
    rename_bound,
    replace_at,
    subformula_at,
)
from .parser import is_variable, parse, render

__all__ = [
    "RULES",
    "RewriteStep",
    "Trace",
    "RewriteError",
    "RuleMismatchError",
    "StrategyViolationError",
    "SideConditionError",
    "TraceStepError",
    "applicable_steps",
    "hoist",
    "apply_step",
    "rewrite_node",
    "verify_trace",
    "measure",
    "trace_to_text",
    "trace_from_text",
    "trace_to_json",
    "trace_from_json",
    "format_position",
    "parse_position",
]

TRACE_SCHEMA = "prenexify.trace/1"


class RewriteError(Exception):
    """Base class for step application failures."""


class RuleMismatchError(RewriteError):
    """The node at the position does not match the rule's left-hand side."""


class StrategyViolationError(RewriteError):
    """A proper subformula of the redex is not in prenex normal form."""


class SideConditionError(RewriteError):
    """A variable or degree side condition is violated."""


class TraceStepError(RewriteError):
    """Step ``index`` of a trace failed; ``reason`` is the underlying error."""

    def __init__(self, index: int, reason: Exception):
        super().__init__(f"step {index} failed: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class _Rule:
    name: str
    conn: Optional[type]  # And / Or / Imp, None for the Var rules
    qside: Optional[str]  # "l" or "r"; None for the Var rules
    qkind: type  # Exists or Forall (kind matched on the LHS)
    out: type  # quantifier kind produced
    # the degree side conditions, read by ``_side_condition`` alone
    needs_delta_c: bool = False  # delta in C_n+
    needs_xi_u: bool = False  # xi in U_n+ and n != 0


RULES: dict[str, _Rule] = {
    r.name: r
    for r in [
        _Rule("ExistsImp", Imp, "l", Exists, Forall),
        _Rule("ForallImpN", Imp, "l", Forall, Exists, needs_xi_u=True),
        _Rule("ImpExistsN", Imp, "r", Exists, Exists, needs_delta_c=True),
        _Rule("ImpForall", Imp, "r", Forall, Forall),
        _Rule("ExistsAnd", And, "l", Exists, Exists),
        _Rule("ForallAnd", And, "l", Forall, Forall),
        _Rule("AndExists", And, "r", Exists, Exists),
        _Rule("AndForall", And, "r", Forall, Forall),
        _Rule("ExistsOr", Or, "l", Exists, Exists),
        _Rule("ForallOrN", Or, "l", Forall, Forall, needs_delta_c=True),
        _Rule("OrExists", Or, "r", Exists, Exists),
        _Rule("OrForallN", Or, "r", Forall, Forall, needs_delta_c=True),
        _Rule("ExistsVar", None, None, Exists, Exists),
        _Rule("ForallVar", None, None, Forall, Forall),
    ]
}

# (connective, left operand's type, right operand's type) -> the connective
# rules whose left-hand side has that shape, as (index in RULES, rule),
# in declaration order
_CANDIDATES: dict[tuple, tuple[tuple[int, _Rule], ...]] = {
    (conn, left, right): tuple(
        (index, rule)
        for index, rule in enumerate(RULES.values())
        if rule.conn is conn and rule.qkind is (left if rule.qside == "l" else right)
    )
    for conn in (And, Or, Imp)
    for left in (Falsum, Prime, And, Or, Imp, Exists, Forall)
    for right in (Falsum, Prime, And, Or, Imp, Exists, Forall)
}


class RewriteStep(NamedTuple):
    """A named rule at a position, with optional fresh-variable binding:
    an immutable tuple, equal and hashed as ``(rule, position, fresh)``."""

    rule: str
    position: Position
    fresh: Optional[str] = None


@dataclass(frozen=True)
class Trace:
    """An ordered, replayable witness for start ~>*_n result."""

    start: Formula
    steps: tuple[RewriteStep, ...]
    n: int


def _strategy_ok(redex: Formula) -> bool:
    # All proper subformulas of the redex are prenex iff its immediate
    # children are (subformulas of prenex formulas are prenex).
    if isinstance(redex, _Binary):
        # each reads the operand's prenex code, one slot set when it was
        # built: every step and hoist passes here
        return is_prenex(redex.left) and is_prenex(redex.right)
    # else a quantifier: the callers pass a connective or a redex ``_match`` accepted
    return is_prenex(redex.body)


def _match(rule: _Rule, node: Formula) -> Optional[tuple[_Quant, Formula]]:
    """Split the redex into (quantified operand, delta); None on mismatch."""
    if rule.conn is None:
        return (node, node) if isinstance(node, rule.qkind) else None
    if not isinstance(node, rule.conn):
        return None
    quant = node.left if rule.qside == "l" else node.right
    delta = node.right if rule.qside == "l" else node.left
    if not isinstance(quant, rule.qkind):
        return None
    return quant, delta


def _side_condition(rule: _Rule, quant: _Quant, delta: Formula, n: int) -> Optional[str]:
    """Why the degree-``n`` side condition of ``rule`` refuses the redex
    split into the prenex ``quant`` and ``delta``, or ``None`` when it
    allows it.  Both conditions bound an operand's prenex level by ``n``.
    ``xi`` in U_n+ with ``n != 0`` is ``forall x xi`` in Pi_n+: for n >= 1
    both have one Pi+ floor, or both floors are at most 1, and no
    universal formula is in Pi_0+; a universal formula's Pi+ floor is its
    level.  ``delta`` in C_n+ is ``delta`` in Sigma_n+ or in Pi_n+, the
    lesser of its two floors being its level."""
    if rule.needs_xi_u and prenex_level(quant) > n:
        return f"quantified operand body is not in U_{n}+"
    if rule.needs_delta_c and prenex_level(delta) > n:
        return f"other operand is not in C_{n}+"
    return None


def applicable_steps(phi: Formula, n: int) -> list[RewriteStep]:
    """All valid non-renaming steps on ``phi`` at degree ``n``.

    Steps are ordered by rule (declaration order), then by position,
    leftmost-innermost.  When the quantified variable occurs free in
    delta, the step carries a deterministic globally fresh rename.
    """
    found: list[tuple[int, RewriteStep]] = []
    avoid = None
    # a redex has a quantified child, so no quantifier-free node is one or
    # holds one
    stack: list[tuple[Position, Formula]] = [((), phi)]
    while stack:
        pos, node = stack.pop()
        if node.is_qf:
            continue
        if isinstance(node, _Quant):
            stack.append((pos + (BODY,), node.body))
            continue
        left, right = node.left, node.right
        stack.append((pos + (LEFT,), left))
        stack.append((pos + (RIGHT,), right))
        candidates = _CANDIDATES[type(node), type(left), type(right)]
        if not candidates or not _strategy_ok(node):
            continue
        for index, rule in candidates:  # each matches the redex
            quant, delta = (left, right) if rule.qside == "l" else (right, left)
            if _side_condition(rule, quant, delta, n) is not None:
                continue
            fresh = None
            if quant.var in delta.free:
                if avoid is None:
                    avoid = phi.vars
                fresh = fresh_variable(avoid)
            found.append((index, RewriteStep(rule.name, pos, fresh)))
    # a redex's operands are prenex and hold no redex, so the reverse of
    # the node-right-left walk is leftmost order: the stable sort keeps it
    return [step for _, step in sorted(reversed(found), key=lambda item: item[0])]


def hoist(node: Formula, n: int, order: tuple[_Rule, ...], avoid: list[str]) -> Optional[tuple]:
    """Apply at the connective ``node`` the first rule of ``order`` that
    ``rewrite_node`` would apply at degree ``n``, making each of its checks
    once: ``(rule, fresh, hoisted)``, or ``None`` when no rule is valid.  A
    bound variable free in the other operand is renamed to ``fresh``, the
    first name in neither ``avoid`` nor ``node``'s variables."""
    if not _strategy_ok(node):
        return None
    for rule in order:
        m = _match(rule, node)
        if m is None:
            continue
        quant, delta = m
        if _side_condition(rule, quant, delta, n) is None:
            fresh = fresh_variable([*avoid, *node.vars]) if quant.var in delta.free else None
            return rule, fresh, _apply(rule, quant, delta, fresh)
    return None


def _apply(rule: _Rule, quant: _Quant, delta: Formula, fresh: Optional[str]) -> Formula:
    """The connective redex split into ``quant`` and ``delta`` rewritten by
    ``rule``, ``quant`` renamed to ``fresh`` first when given.  Raises
    SideConditionError when a variable condition fails, not the degree one."""
    if fresh is not None:
        if fresh in quant.body.vars:
            raise SideConditionError(
                f"{rule.name}: fresh {fresh} already appears in the "
                "quantified operand"
            )
        quant = rename_bound(quant, fresh)
    if quant.var in delta.free:
        raise SideConditionError(
            f"{rule.name}: bound variable {quant.var} occurs free in the "
            "other operand (no or unusable fresh rename)"
        )
    left, right = (quant.body, delta) if rule.qside == "l" else (delta, quant.body)
    return rule.out(quant.var, rule.conn(left, right))


def rewrite_node(node: Formula, step: RewriteStep, n: int) -> Formula:
    """The redex ``node`` rewritten by ``step`` at degree ``n``.

    Every check of a step reads the redex alone, so ``step.position`` is
    not consulted: the caller has already descended to it.  Raises
    RuleMismatchError, StrategyViolationError or SideConditionError.
    """
    rule = RULES.get(step.rule)
    if rule is None:
        raise RuleMismatchError(f"unknown rule {step.rule!r}")
    m = _match(rule, node)
    if m is None:
        raise RuleMismatchError(f"{step.rule} does not match {node}")
    if not _strategy_ok(node):
        raise StrategyViolationError(
            f"{step.rule}: proper subformulas of {node} are not all prenex"
        )

    if rule.conn is None:
        # Standalone renaming.
        if step.fresh is None:
            raise SideConditionError(f"{step.rule} requires a fresh variable")
        if step.fresh in node.body.vars:
            raise SideConditionError(f"{step.rule}: {step.fresh} already appears in the body")
        return rename_bound(node, step.fresh)

    # the variable conditions are reported before the degree condition
    quant, delta = m
    hoisted = _apply(rule, quant, delta, step.fresh)
    reason = _side_condition(rule, quant, delta, n)
    if reason is not None:
        raise SideConditionError(f"{step.rule}: {reason}")
    return hoisted


def apply_step(phi: Formula, step: RewriteStep, n: int) -> Formula:
    """Apply ``step`` to ``phi`` at degree ``n``, validating everything.

    Raises RuleMismatchError, StrategyViolationError or SideConditionError
    (and PositionError for a dangling position), each distinguished.
    """
    node = subformula_at(phi, step.position)
    return replace_at(phi, step.position, rewrite_node(node, step, n))


def verify_trace(trace: Trace, checker=None) -> Formula:
    """Replay a trace, re-validating each step; returns the final formula.

    The replay keeps a cursor: the position of the last redex and the
    ancestors along it.  A step pops the cursor to the common prefix of
    its position, rebuilding only the ancestors it leaves, descends to its
    redex and rewrites it there; the rest of the spine is rebuilt once at
    the end.  The result, and the step index, type and message of any
    failure, are those of folding ``apply_step`` from the root.
    ``checker`` is ignored: the rules' side conditions read no classifier.
    """
    spine: list[Formula] = []  # the ancestors of the cursor, root first
    path: Position = ()  # the cursor's position
    node = trace.start  # the node at the cursor
    for index, step in enumerate(trace.steps):
        pos = step.position
        try:
            # one prefix test: a step at or below the cursor keeps its spine
            common = len(path)
            if pos[:common] != path:
                common = 0
                while common < len(pos) and pos[common] == path[common]:
                    common += 1
            while len(spine) > common:
                node = _with_child(spine.pop(), path[len(spine)], node)
            for sel in pos[common:]:
                child = _child(node, sel)
                if child is None:
                    raise _dangling(_rebuild(spine, pos, node), pos)
                spine.append(node)
                node = child
            path = pos
            node = rewrite_node(node, step, trace.n)
        except Exception as exc:  # noqa: BLE001 - rewrap with the step index
            raise TraceStepError(index, exc) from exc
    return _rebuild(spine, path, node)


def measure(phi: Formula) -> int:
    """Sum over quantifier occurrences of the number of connective nodes
    strictly above them.  Every non-renaming step decreases this by one."""
    total = 0
    stack = [(phi, 0)]
    while stack:
        node, above = stack.pop()
        if isinstance(node, _Binary):
            stack.append((node.left, above + 1))
            stack.append((node.right, above + 1))
        elif isinstance(node, _Quant):
            total += above
            stack.append((node.body, above))
    return total


# -- serialization ---------------------------------------------------------


def format_position(pos: Position) -> str:
    return "/" + "/".join(pos)


_SELECTORS = frozenset((LEFT, RIGHT, BODY))


def parse_position(text: str) -> Position:
    if not text.startswith("/"):
        raise ValueError(f"position must start with '/': {text!r}")
    body = text[1:]
    if not body:
        return ()
    parts = tuple(body.split("/"))
    if not _SELECTORS.issuperset(parts):
        bad = next(part for part in parts if part not in _SELECTORS)
        raise ValueError(f"bad position selector {bad!r} in {text!r}")
    return parts


# A step line, blanks and comment included.  The fresh name is checked by
# ``_step``, with the grammar's own rule.
_STEP_RE = re.compile(r"\s*([A-Za-z]+)@(/[lrb/]*)(?:\s+fresh=([^\s#]+))?\s*(?:#.*)?")


def _step(rule: str, path: str, fresh: Optional[str]) -> RewriteStep:
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if fresh is not None and not (isinstance(fresh, str) and is_variable(fresh)):
        raise ValueError(f"fresh name {fresh!r} is not a variable")
    return RewriteStep(rule, parse_position(path), fresh)


def trace_to_text(trace: Trace) -> str:
    lines = [f"degree: {trace.n}", f"start: {render(trace.start)}"]
    append = lines.append
    for rule, position, fresh in trace.steps:
        # ``format_position``, written out: no call per step
        line = f"{rule}@/{'/'.join(position)}"
        append(line if fresh is None else f"{line} fresh={fresh}")
    return "\n".join(lines) + "\n"


def _degree(value) -> int:
    """A JSON integer that is no ``bool``, at least 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"trace degree is not a natural number: {value!r}")
    return value


def trace_from_text(text: str) -> Trace:
    degree: Optional[int] = None
    start: Optional[Formula] = None
    steps: list[RewriteStep] = []
    append = steps.append
    for raw in text.splitlines():
        if (m := _STEP_RE.fullmatch(raw)) is not None:
            rule, path, fresh = m.groups()
            # ``path`` holds slashes and selectors; it is well formed, "/"
            # or one selector after each slash, when its odd characters are
            # selectors and its even ones slashes, and then they are its
            # selectors
            selectors = path[1::2]
            if (
                rule in RULES
                and (fresh is None or is_variable(fresh))
                and "/" not in selectors
                and path[::2] == "/" * max(len(selectors), 1)
            ):
                append(tuple.__new__(RewriteStep, (rule, tuple(selectors), fresh)))
            else:  # ``_step`` raises the error of the first failing check
                append(_step(rule, path, fresh))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree:"):
            if degree is not None:
                raise ValueError("trace has a second 'degree:' line")
            value = line.split(":", 1)[1].strip()
            # ASCII decimal digits only: no sign, no "_", no other script
            degree = _degree(int(value) if value.isascii() and value.isdigit() else value)
        elif line.startswith("start:"):
            if start is not None:
                raise ValueError("trace has a second 'start:' line")
            start = parse(line.split(":", 1)[1].strip())
        else:
            raise ValueError(f"malformed trace step {line!r}")
    if degree is None or start is None:
        raise ValueError("trace needs 'degree:' and 'start:' lines")
    return Trace(start, tuple(steps), degree)


def trace_to_json(trace: Trace) -> dict:
    return {
        "schema": TRACE_SCHEMA,
        "degree": trace.n,
        "start": render(trace.start),
        "steps": [
            {"rule": rule, "path": format_position(position), "fresh": fresh}
            for rule, position, fresh in trace.steps
        ],
    }


def trace_from_json(data: dict) -> Trace:
    if not isinstance(data, dict):
        raise ValueError("a JSON trace must be an object")
    if data.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {data.get('schema')!r}")
    if not isinstance(data.get("steps"), list):
        raise ValueError("trace needs a 'steps' list")
    try:
        steps = [_step(s["rule"], s["path"], s.get("fresh")) for s in data["steps"]]
        start = data["start"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed trace field: {exc}") from None
    if not isinstance(start, str):
        raise ValueError(f"trace start is not a string: {start!r}")
    return Trace(parse(start), tuple(steps), _degree(data.get("degree")))
