"""Witness-driven prenex normalization.

Given a positive J/R classification, emit a prenex formula in the matching
cumulative class together with a degree-n trace that the rewrite engine
replays.  The recursion follows the classifier's witness derivation, so
no clause choices are re-searched: normalize the operands, then merge the
two prenex results by hoisting their quantifier prefixes through the
connective.

The merge loops track a *contract* (target kind, level budget): hoisting a
quantifier whose output kind matches the target keeps the contract, while
an opposite-kind quantifier starts a new alternation block and decrements
the budget.  Move policies below pick, at each step, a hoist that is valid
under the degree-n side conditions and provably stays inside the contract;
they are transcriptions of the constructive merging arguments for
conjunction, disjunction (symmetric and asymmetric ranks) and implication.
Every step is checked by the rewrite engine at its redex as it is emitted
(``rewrite_node``, with every rule, strategy and side-condition check), so
an invalid schedule cannot survive unnoticed.  Steps carry absolute
positions from the start, and no ancestor of the redex is rebuilt: a
merge wraps its hoisted prefix around the connective once, when it ends.
"""

from __future__ import annotations

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
    free_vars,
    fresh_variable,
)
from .hierarchy import PI, SIGMA, classify_prenex, in_pi_plus, in_sigma_plus
from .parser import formula_to_dict, render
from .rewrite import RewriteStep, Trace, rewrite_node, trace_to_json
from .semiclassical import Classifier, Witness

__all__ = [
    "NormalizationResult",
    "NotInClassError",
    "normalize_J",
    "normalize_R",
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
        return {
            "schema": RESULT_SCHEMA,
            "input": {"text": render(self.input), "ast": formula_to_dict(self.input)},
            "k": self.k,
            "n": self.n,
            "target": self.target,
            "output": {
                "text": render(self.output),
                "ast": formula_to_dict(self.output),
            },
            "trace": trace_to_json(self.trace),
        }


def normalize_J(
    phi: Formula, k: int, n: int, checker: Optional[Classifier] = None
) -> NormalizationResult:
    """phi in J_k^n  ==>  a Sigma_k+ formula with a verifying ~>*_n trace."""
    return _normalize_entry(phi, k, n, SIGMA, checker)


def normalize_R(
    phi: Formula, k: int, n: int, checker: Optional[Classifier] = None
) -> NormalizationResult:
    """phi in R_k^n  ==>  a Pi_k+ formula with a verifying ~>*_n trace."""
    return _normalize_entry(phi, k, n, PI, checker)


def _normalize_entry(
    phi: Formula, k: int, n: int, target: str, checker: Optional[Classifier]
) -> NormalizationResult:
    checker = checker or semiclassical._default
    side = semiclassical.J if target == SIGMA else semiclassical.R
    witness = checker.witness(phi, k, n, side)
    if witness is None:
        raise NotInClassError(
            f"{render(phi)} is not in {'J' if side == 'J' else 'R'}_{k}^{n}"
        )
    steps: list[RewriteStep] = []
    output = _normalize(phi, witness, checker, (), steps)
    trace = Trace(phi, tuple(steps), n)

    member = in_sigma_plus if target == SIGMA else in_pi_plus
    assert member(output, k), "normalizer output left the target class"
    assert free_vars(output) == free_vars(phi), "free variables not preserved"
    return NormalizationResult(phi, k, n, target, output, trace)


def _normalize(
    phi: Formula, w: Witness, checker: Classifier, pos: Position,
    steps: list[RewriteStep],
) -> Formula:
    """Recursive extraction of ``phi``, sitting at ``pos`` of the input:
    returns its prenex form and appends the steps, at absolute positions,
    to ``steps``."""
    clause = w.clause
    if clause == "qf":
        return phi
    if clause == "lift":
        return _normalize(phi, w.children[0], checker, pos, steps)
    if clause == "exists":
        return Exists(phi.var, _normalize(phi.body, w.children[0], checker,
                                          pos + ("b",), steps))
    if clause == "forall":
        return Forall(phi.var, _normalize(phi.body, w.children[0], checker,
                                          pos + ("b",), steps))

    assert isinstance(phi, _Binary)
    lw, rw = w.children
    left = _normalize(phi.left, lw, checker, pos + ("l",), steps)
    right = _normalize(phi.right, rw, checker, pos + ("r",), steps)

    merger = _Merger(type(phi)(left, right), pos, w.n, checker, steps)
    target = SIGMA if w.side == semiclassical.J else PI
    if clause == "and":
        merger.merge_and(target, w.k)
    elif clause in ("or", "or-left", "or-right"):
        merger.merge_or(target, w.k)
    else:
        assert clause == "imp"
        merger.merge_imp(target, w.k)
    return merger.result()


def _flip(target: str) -> str:
    return PI if target == SIGMA else SIGMA


_KIND = {SIGMA: Exists, PI: Forall}

# (connective, side, quantifier) -> rule name
_HOIST_RULE = {
    (And, "l", Exists): "ExistsAnd",
    (And, "l", Forall): "ForallAnd",
    (And, "r", Exists): "AndExists",
    (And, "r", Forall): "AndForall",
    (Or, "l", Exists): "ExistsOr",
    (Or, "l", Forall): "ForallOrN",
    (Or, "r", Exists): "OrExists",
    (Or, "r", Forall): "OrForallN",
    (Imp, "l", Exists): "ExistsImp",
    (Imp, "l", Forall): "ForallImpN",
    (Imp, "r", Exists): "ImpExistsN",
    (Imp, "r", Forall): "ImpForall",
}


class _Merger:
    """Hoists the quantifier prefixes of the operands of one connective
    node, sitting at ``base`` of the input, above it; both operands stay
    prenex.  ``node`` is the connective as it stands, ``prefix`` the
    quantifiers hoisted so far, outermost first; each hoist is checked at
    the connective, and the prefix is wrapped around it once, at the end."""

    def __init__(self, node: _Binary, base: Position, n: int,
                 checker: Classifier, steps: list[RewriteStep]):
        self.node = node
        self.prefix: list[_Quant] = []
        self.base = base
        self.n = n
        self.checker = checker
        self.steps = steps

    # one hoist: move the head quantifier of the given operand above the
    # connective, which slides down one body position; returns the kind
    # of the hoisted quantifier.
    def _hoist(self, side: str) -> type:
        node = self.node
        quant = node.left if side == "l" else node.right
        delta = node.right if side == "l" else node.left
        assert isinstance(quant, _Quant), "hoisting a quantifier-free operand"
        rule = _HOIST_RULE[(type(node), side, type(quant))]
        fresh = None
        if quant.var in delta.free:
            # exactly the variables of the prefix over the node: a name
            # renamed away must drop out, or the fresh names would change
            fresh = fresh_variable([q.var for q in self.prefix] + list(node.vars))
        step = RewriteStep(rule, self.base + ("b",) * len(self.prefix), fresh)
        hoisted = rewrite_node(node, step, self.n, self.checker)
        self.steps.append(step)
        self.prefix.append(hoisted)
        self.node = hoisted.body
        return type(hoisted)

    def result(self) -> Formula:
        phi = self.node
        for quant in reversed(self.prefix):
            phi = type(quant)(quant.var, phi)
        return phi

    def _operands(self) -> tuple[Formula, Formula]:
        return self.node.left, self.node.right

    @staticmethod
    def _level(phi: Formula) -> int:
        shape = classify_prenex(phi)
        assert shape is not None, "merge operand must stay prenex"
        return shape.level

    def _update(self, target: str, budget: int, out: type) -> tuple[str, int]:
        # Emitting a target-kind quantifier keeps the contract; an
        # opposite-kind one opens a new block and spends one level.
        if _KIND[target] is out:
            return target, budget
        assert budget >= 1, "merge contract exhausted"
        return _flip(target), budget - 1

    # -- conjunction: alternate stages, left operand first per stage ------

    def merge_and(self, target: str, budget: int) -> None:
        while True:
            left, right = self._operands()
            lh = type(left) if isinstance(left, _Quant) else None
            rh = type(right) if isinstance(right, _Quant) else None
            if lh is None and rh is None:
                return
            want = _KIND[target]
            if lh is want:
                out = self._hoist("l")
            elif rh is want:
                out = self._hoist("r")
            elif lh is not None:
                out = self._hoist("l")
            else:
                out = self._hoist("r")
            target, budget = self._update(target, budget, out)

    # -- disjunction ------------------------------------------------------

    def merge_or(self, target: str, budget: int) -> None:
        n = self.n
        while True:
            left, right = self._operands()
            lh = type(left) if isinstance(left, _Quant) else None
            rh = type(right) if isinstance(right, _Quant) else None
            if lh is None and rh is None:
                return
            if lh is None:
                out = self._hoist("r")  # delta quantifier-free, always legal
            elif rh is None:
                out = self._hoist("l")
            elif target == SIGMA and lh is Exists and self._level(left) > n:
                # an operand above the degree must shed its existential
                # block before any universal hoist can see it as delta
                out = self._hoist("l")
            elif target == SIGMA and rh is Exists and self._level(right) > n:
                out = self._hoist("r")
            else:
                ll, rl = self._level(left), self._level(right)
                if ll != rl:
                    # bring the higher-ranked side down to the lower one
                    out = self._hoist("l" if ll > rl else "r")
                else:
                    want = _KIND[target]
                    if lh is want:
                        out = self._hoist("l")
                    elif rh is want:
                        out = self._hoist("r")
                    else:
                        out = self._hoist("l")
            target, budget = self._update(target, budget, out)

    # -- implication ------------------------------------------------------

    def merge_imp(self, target: str, budget: int) -> None:
        n = self.n
        checker = self.checker
        while True:
            ante, cons = self._operands()
            ah = type(ante) if isinstance(ante, _Quant) else None
            ch = type(cons) if isinstance(cons, _Quant) else None
            if ah is None and ch is None:
                return
            # moves: (operand side, head needed, validity test)
            a_forall = ah is Forall and n != 0 and checker.in_R(ante.body, n, n)
            a_exists = ah is Exists
            c_exists = ch is Exists and checker.in_D(ante, n, n)
            c_forall = ch is Forall
            if target == SIGMA:
                order = (
                    ("l", a_forall),
                    ("r", c_exists),
                    ("l", a_exists),
                    ("r", c_forall),
                )
            else:
                order = (
                    ("l", a_exists),
                    ("r", c_forall),
                    ("l", a_forall),
                    ("r", c_exists),
                )
            for side, valid in order:
                if valid:
                    out = self._hoist(side)
                    break
            else:
                raise AssertionError("no valid hoist; merge preconditions broken")
            target, budget = self._update(target, budget, out)
