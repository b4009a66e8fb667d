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

``U_n+`` and ``C_n+`` are decided as R_n^n and D_n^n respectively.  Every
rule applies only at a redex whose proper subformulas are all in prenex
normal form; since every subformula of a prenex formula is prenex, this is
equivalent to both immediate children of the redex being prenex, which is
what the implementation checks.

A step may carry a ``fresh`` variable.  For the two Var rules it is the
new bound name.  For the other rules it folds an implicit renaming of the
quantified operand's bound variable (a Var step at the child position)
into the application, which is how the ``x`` not free in ``delta`` side
condition is discharged when violated.  ``applicable_steps`` never
enumerates standalone Var steps; renaming alone does not terminate, and
folded renaming reaches the same formulas up to alpha-equivalence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import semiclassical
from .formula import (
    And,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    Position,
    _Binary,
    _Quant,
    all_vars,
    fresh_variable,
    positions,
    rename_bound,
    replace_at,
    subformula_at,
)
from .hierarchy import is_prenex
from .parser import is_variable, parse, render

__all__ = [
    "RULES",
    "RULE_ORDER",
    "RewriteStep",
    "Trace",
    "RewriteError",
    "RuleMismatchError",
    "StrategyViolationError",
    "SideConditionError",
    "TraceStepError",
    "applicable_steps",
    "apply_step",
    "verify_trace",
    "lifts_to_degree",
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
    needs_delta_c: bool = False  # delta in C_n+ (= D_n^n)
    needs_xi_u: bool = False  # xi in U_n+ (= R_n^n), plus n != 0


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

RULE_ORDER = tuple(RULES)


@dataclass(frozen=True)
class RewriteStep:
    """A named rule at a position, with optional fresh-variable binding."""

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
        return is_prenex(redex.left) and is_prenex(redex.right)
    if isinstance(redex, _Quant):
        return is_prenex(redex.body)
    return True


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


def _degree_ok(rule: _Rule, quant: _Quant, delta: Formula, n: int,
               checker: semiclassical.Classifier) -> bool:
    if rule.needs_xi_u:
        if n == 0:
            return False
        if not checker.in_R(quant.body, n, n):
            return False
    if rule.needs_delta_c and not checker.in_D(delta, n, n):
        return False
    return True


def _position_key(pos: Position) -> tuple[int, ...]:
    # Leftmost-innermost: siblings compare left-to-right, and a position
    # sorts before every proper prefix of itself.
    return tuple(0 if sel in ("l", "b") else 1 for sel in pos) + (2,)


def applicable_steps(
    phi: Formula, n: int, checker: Optional[semiclassical.Classifier] = None
) -> list[RewriteStep]:
    """All valid non-renaming steps on ``phi`` at degree ``n``.

    Steps are ordered by rule (declaration order), then by position,
    leftmost-innermost.  When the quantified variable occurs free in
    delta, the step carries a deterministic globally fresh rename.
    """
    checker = checker or semiclassical._default
    found: list[tuple[int, tuple[int, ...], RewriteStep]] = []
    avoid = None
    for pos in positions(phi):
        node = subformula_at(phi, pos)
        if not isinstance(node, _Binary):
            continue
        if not _strategy_ok(node):
            continue
        for index, name in enumerate(RULE_ORDER):
            rule = RULES[name]
            if rule.conn is None:
                continue
            m = _match(rule, node)
            if m is None:
                continue
            quant, delta = m
            if not _degree_ok(rule, quant, delta, n, checker):
                continue
            fresh = None
            if quant.var in delta.free:
                if avoid is None:
                    avoid = all_vars(phi)
                fresh = fresh_variable(avoid)
            found.append((index, _position_key(pos), RewriteStep(name, pos, fresh)))
    found.sort(key=lambda item: (item[0], item[1]))
    return [step for _, _, step in found]


def apply_step(
    phi: Formula,
    step: RewriteStep,
    n: int,
    checker: Optional[semiclassical.Classifier] = None,
) -> Formula:
    """Apply ``step`` to ``phi`` at degree ``n``, validating everything.

    Raises RuleMismatchError, StrategyViolationError or SideConditionError
    (and PositionError for a dangling position), each distinguished.
    """
    checker = checker or semiclassical._default
    rule = RULES.get(step.rule)
    if rule is None:
        raise RuleMismatchError(f"unknown rule {step.rule!r}")
    node = subformula_at(phi, step.position)
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
        quant = node
        if step.fresh in quant.body.vars:
            raise SideConditionError(
                f"{step.rule}: {step.fresh} already appears in the body"
            )
        return replace_at(phi, step.position, rename_bound(quant, step.fresh))

    quant, delta = m
    if step.fresh is not None:
        if step.fresh in quant.body.vars:
            raise SideConditionError(
                f"{step.rule}: fresh {step.fresh} already appears in the "
                "quantified operand"
            )
        quant = rename_bound(quant, step.fresh)
    if quant.var in delta.free:
        raise SideConditionError(
            f"{step.rule}: bound variable {quant.var} occurs free in the "
            "other operand (no or unusable fresh rename)"
        )
    if rule.needs_xi_u:
        if n == 0:
            raise SideConditionError(f"{step.rule} is inapplicable at degree 0")
        if not checker.in_R(quant.body, n, n):
            raise SideConditionError(
                f"{step.rule}: quantified operand body is not in U_{n}+"
            )
    if rule.needs_delta_c and not checker.in_D(delta, n, n):
        raise SideConditionError(f"{step.rule}: other operand is not in C_{n}+")

    if rule.qside == "l":
        inner = rule.conn(quant.body, delta)
    else:
        inner = rule.conn(delta, quant.body)
    return replace_at(phi, step.position, rule.out(quant.var, inner))


def verify_trace(
    trace: Trace, checker: Optional[semiclassical.Classifier] = None
) -> Formula:
    """Replay a trace, re-validating each step; returns the final formula."""
    phi = trace.start
    for index, step in enumerate(trace.steps):
        try:
            phi = apply_step(phi, step, trace.n, checker)
        except Exception as exc:  # noqa: BLE001 - rewrap with the step index
            raise TraceStepError(index, exc) from exc
    return phi


def lifts_to_degree(trace: Trace, n_prime: int) -> bool:
    """Whether the trace is valid at degree ``n_prime`` (degrees only ever
    gain rules, so any n' >= trace.n works; replayed to make sure)."""
    if n_prime < trace.n:
        return False
    verify_trace(Trace(trace.start, trace.steps, n_prime))
    return True


def measure(phi: Formula) -> int:
    """Sum over quantifier occurrences of the number of connective nodes
    strictly above them.  Every non-renaming step decreases this by one."""

    def walk(node: Formula, above: int) -> int:
        if isinstance(node, _Binary):
            return walk(node.left, above + 1) + walk(node.right, above + 1)
        if isinstance(node, _Quant):
            return above + walk(node.body, above)
        return 0

    return walk(phi, 0)


# -- serialization ---------------------------------------------------------


def format_position(pos: Position) -> str:
    return "/" + "/".join(pos)


def parse_position(text: str) -> Position:
    if not text.startswith("/"):
        raise ValueError(f"position must start with '/': {text!r}")
    body = text[1:]
    if not body:
        return ()
    parts = tuple(body.split("/"))
    for part in parts:
        if part not in ("l", "r", "b"):
            raise ValueError(f"bad position selector {part!r} in {text!r}")
    return parts


def _format_step(step: RewriteStep) -> str:
    text = f"{step.rule}@{format_position(step.position)}"
    if step.fresh is not None:
        text += f" fresh={step.fresh}"
    return text


# The fresh name is checked by ``_step``, with the grammar's own rule.
_STEP_RE = re.compile(r"([A-Za-z]+)@(/[lrb/]*)(?:\s+fresh=(\S+))?\s*$")


def _step(rule: str, path: str, fresh: Optional[str]) -> RewriteStep:
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if fresh is not None and not (isinstance(fresh, str) and is_variable(fresh)):
        raise ValueError(f"fresh name {fresh!r} is not a variable")
    return RewriteStep(rule, parse_position(path), fresh)


def trace_to_text(trace: Trace) -> str:
    lines = [f"degree: {trace.n}", f"start: {render(trace.start)}"]
    lines.extend(_format_step(step) for step in trace.steps)
    return "\n".join(lines) + "\n"


def _degree(value) -> int:
    try:
        degree = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"trace degree is not an integer: {value!r}") from None
    if degree < 0:
        raise ValueError(f"trace degree must be a natural number, got {degree}")
    return degree


def trace_from_text(text: str) -> Trace:
    degree: Optional[int] = None
    start: Optional[Formula] = None
    steps: list[RewriteStep] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree:"):
            degree = _degree(line.split(":", 1)[1].strip())
        elif line.startswith("start:"):
            start = parse(line.split(":", 1)[1].strip())
        elif (m := _STEP_RE.match(line)) is not None:
            steps.append(_step(*m.groups()))
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
            {
                "rule": step.rule,
                "path": format_position(step.position),
                "fresh": step.fresh,
            }
            for step in trace.steps
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
