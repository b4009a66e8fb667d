"""Brute-force cross-validation engine.

Reachability under one-step degree-n rewriting is explored breadth-first
over alpha-canonical states; renaming rules are folded into rule
application, and the measure-decrease of the remaining rules makes the
quotient graph finite, so searches on desk-scale formulas exhaust.

A closure reports its least floors: the least Sigma+ and the least Pi+
level among its members, ``inf`` for none, the pair the characterization
compares with the classifier's least levels.  Witness traces are
reconstructed concretely from the original start formula so that they
replay through the rewrite engine verbatim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    Prime,
    alpha_canonical,
    prenex_floors,
)
from .rewrite import RewriteStep, Trace, applicable_steps, apply_step

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "ReachableSet",
    "SearchResult",
    "Signature",
    "reachable_set",
    "can_reach",
    "enumerate_formulas",
]

DEFAULT_NODE_BUDGET = 100_000

# degree -> {canonical state -> (canonical successor, ...)}: one successor
# per step applicable to the state at that degree, in step order.  The
# steps themselves are not kept; ``can_reach`` rebuilds its trace's steps.
Transitions = dict[int, dict[Formula, tuple[Formula, ...]]]


@dataclass
class ReachableSet:
    """Closure of a start formula under degree-n rewriting, modulo alpha."""

    members: list[Formula]  # alpha-canonical, in BFS discovery order
    # member index -> its successors' member indices, one per applicable
    # step in step order; a member with none has no entry
    edges: dict[int, list[int]]
    exhausted: bool

    @property
    def floors(self) -> tuple:
        """``(sigma, pi)``: the least ``formula.prenex_floors`` of each
        side over the members, ``inf`` where no member is prenex."""
        return tuple(map(min, zip(*map(prenex_floors, self.members))))


def _closure(
    phi: Formula,
    n: int,
    node_budget: int,
    transitions: Transitions,
    goal: Optional[Callable[[Formula], bool]] = None,
) -> tuple[ReachableSet, bool]:
    """The one breadth-first search: the closure of ``phi`` under the
    steps applicable at degree n, cut at ``node_budget`` members, and
    stopped at the first member, the start included, that ``goal``
    accepts.  The flag says whether one did; it is then the last member.
    ``transitions[n]`` caches each state's successors at degree n."""
    start = alpha_canonical(phi)
    members = [start]
    index = {start: 0}
    edges: dict[int, list[int]] = {}
    exhausted = True
    found = goal is not None and goal(start)
    expanded = transitions.setdefault(n, {})
    head = 0
    while head < len(members) and not found:
        state = members[head]
        out = []
        successors = expanded.get(state)
        if successors is None:
            successors = expanded[state] = tuple(
                alpha_canonical(apply_step(state, step, n))
                for step in applicable_steps(state, n)
            )
        for succ in successors:
            dst = index.get(succ)
            if dst is None:
                if len(members) >= node_budget:
                    exhausted = False
                    continue
                dst = index[succ] = len(members)
                members.append(succ)
                found = goal is not None and goal(succ)
            out.append(dst)
            if found:
                break
        if out:
            edges[head] = out
        head += 1
    return ReachableSet(members, edges, exhausted), found


def reachable_set(
    phi: Formula,
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    checker=None,
    *,
    transitions: Optional[Transitions] = None,
) -> ReachableSet:
    """Breadth-first closure of ``phi`` under applicable steps at degree n.

    ``exhausted`` is False only when the budget cut exploration short.
    ``transitions`` caches each state's successors, per degree (see
    ``Transitions``); states recur across related start formulas, so a
    caller closing many passes its own dict to every call, at one degree
    or several.  ``checker`` is ignored.
    """
    return _closure(phi, n, node_budget, {} if transitions is None else transitions)[0]


@dataclass(frozen=True)
class SearchResult:
    status: str  # "yes" | "no" | "unknown"
    trace: Optional[Trace] = None


def can_reach(
    phi: Formula,
    n: int,
    predicate: Callable[[Formula], bool],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Search for a reachable formula satisfying an alpha-invariant test.

    Returns "yes" with a shortest witnessing trace (ties broken by rule
    then position order), "no" only when the closure is exhausted, and
    "unknown" when the node budget was hit first.  Every search step
    lowers ``rewrite.measure`` by exactly 1, so a member's depth is the
    drop of the measure from ``phi`` to it, and every trace to one member
    is as long.  For a prenex target every trace is as short as any, of
    ``measure(phi)`` steps: the ties decide which trace, not its length.
    """
    closure, found = _closure(phi, n, node_budget, {}, predicate)
    if not found:
        return SearchResult("no" if closure.exhausted else "unknown")

    # Canonical-state path along the edge that discovered each member (its
    # first edge in), rebuilt as a concrete trace from phi itself.
    parent: dict[int, int] = {}
    for src, out in closure.edges.items():
        for dst in out:
            parent.setdefault(dst, src)
    path = [len(closure.members) - 1]
    while path[-1]:
        path.append(parent[path[-1]])
    concrete = phi
    steps: list[RewriteStep] = []
    for member in reversed(path[:-1]):
        nxt = closure.members[member]
        for step in applicable_steps(concrete, n):
            result = apply_step(concrete, step, n)
            if alpha_canonical(result) is nxt:
                concrete = result
                steps.append(step)
                break
        else:
            raise AssertionError("path reconstruction lost the BFS route")
    return SearchResult("yes", Trace(phi, tuple(steps), n))


@dataclass(frozen=True)
class Signature:
    """Finite universe for enumeration: predicates, variables, size cap."""

    predicates: tuple[tuple[str, int], ...]
    variables: tuple[str, ...]
    size_bound: int

    @staticmethod
    def make(predicates: dict[str, int], variables, size_bound: int) -> "Signature":
        return Signature(
            tuple(sorted(predicates.items())), tuple(variables), size_bound
        )


def enumerate_formulas(sig: Signature) -> Iterator[Formula]:
    """Every formula over the signature up to the size bound, exactly once
    modulo alpha, in a fixed order.

    Sizes ascend; within one size the atoms come first (falsum, then
    predicates in sorted order with argument tuples in variable-pool
    order), then quantifications of the previous layer (exists before
    forall, binders in pool order, bodies in layer order), then binary
    combinations (and, or, imp; left size ascending; operands in layer
    order).  Every yielded formula is alpha-canonical.
    """
    seen: set[Formula] = set()
    layers: list[list[Formula]] = [[]]  # layers[s] = canonical formulas of size s

    def emit(candidate: Formula, layer: list[Formula]) -> None:
        canon = alpha_canonical(candidate)
        if canon not in seen:
            seen.add(canon)
            layer.append(canon)

    for size_now in range(1, sig.size_bound + 1):
        layer: list[Formula] = []
        if size_now == 1:
            emit(FALSUM, layer)
            for name, arity in sig.predicates:
                for args in itertools.product(sig.variables, repeat=arity):
                    emit(Prime(name, args), layer)
        else:
            for kind in (Exists, Forall):
                for var in sig.variables:
                    for body in layers[size_now - 1]:
                        emit(kind(var, body), layer)
            for left_size in range(1, size_now - 1):
                right_size = size_now - 1 - left_size
                for op in (And, Or, Imp):
                    for left in layers[left_size]:
                        for right in layers[right_size]:
                            emit(op(left, right), layer)
        layers.append(layer)
        yield from layer
