"""Classical prenex classes: a prenex formula's shape and the cumulative
classes Sigma_k+ / Pi_k+.

A formula is in prenex normal form when it is an alternation of non-empty
quantifier blocks over a quantifier-free matrix.  Sigma_0 = Pi_0 is the
class of quantifier-free formulas; Sigma_{k+1} prefixes a non-empty
existential block to a Pi_k formula, and dually for Pi, so a shape's kind
and level name its strict class.  The cumulative class adds every
strictly lower Sigma_i and Pi_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import Exists, Forall, Formula, _Quant

__all__ = [
    "SIGMA",
    "PI",
    "PrenexShape",
    "classify_prenex",
    "is_prenex",
    "in_sigma_plus",
    "in_pi_plus",
    "sigma_plus_floor",
    "pi_plus_floor",
]

SIGMA = "sigma"
PI = "pi"


@dataclass(frozen=True)
class PrenexShape:
    """Kind and maximal-block structure of a prenex formula.

    ``level`` equals ``len(blocks)``; blocks alternate quantifier kind
    starting existential for Sigma and universal for Pi.  Quantifier-free
    formulas are reported as Sigma level 0 with no blocks (Sigma_0 = Pi_0).
    """

    kind: str
    level: int
    blocks: tuple[int, ...]


_QF_SHAPE = PrenexShape(SIGMA, 0, ())


def classify_prenex(phi: Formula) -> Optional[PrenexShape]:
    """Minimal shape of ``phi`` if it is prenex, else ``None``.

    Blocks are maximal, so the reported level is the unique minimal one.
    """
    shape = phi._shape
    if shape is None:
        shape = _classify(phi)
        phi._shape = shape
    return shape if shape is not False else None


def _classify(phi: Formula):
    if phi.is_qf:
        return _QF_SHAPE
    blocks: list[int] = []
    current: Optional[type] = None
    node = phi
    while isinstance(node, _Quant):
        if type(node) is current:
            blocks[-1] += 1
        else:
            blocks.append(1)
            current = type(node)
        node = node.body
    if not node.is_qf:
        # no quantifier walked past is prenex either: cache the sentinel
        # on each, so a later test of one costs no walk
        while phi is not node:
            phi._shape = False
            phi = phi.body
        return False
    first = Exists if isinstance(phi, Exists) else Forall
    kind = SIGMA if first is Exists else PI
    return PrenexShape(kind, len(blocks), tuple(blocks))


def is_prenex(phi: Formula) -> bool:
    return classify_prenex(phi) is not None


def sigma_plus_floor(phi: Formula) -> Optional[int]:
    """Least k with ``phi`` in Sigma_k+, or ``None`` if not prenex."""
    shape = classify_prenex(phi)
    if shape is None:
        return None
    return shape.level if shape.kind == SIGMA else shape.level + 1


def pi_plus_floor(phi: Formula) -> Optional[int]:
    """Least k with ``phi`` in Pi_k+, or ``None`` if not prenex."""
    shape = classify_prenex(phi)
    if shape is None:
        return None
    if shape.level == 0:
        return 0
    return shape.level if shape.kind == PI else shape.level + 1


def in_sigma_plus(phi: Formula, k: int) -> bool:
    """Membership in Sigma_k+ = Sigma_k plus all Sigma_i, Pi_i with i < k."""
    floor = sigma_plus_floor(phi)
    return floor is not None and floor <= k


def in_pi_plus(phi: Formula, k: int) -> bool:
    floor = pi_plus_floor(phi)
    return floor is not None and floor <= k
