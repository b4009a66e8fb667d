"""Classical prenex classes: a prenex formula's shape.

A formula is in prenex normal form when it is an alternation of non-empty
quantifier blocks over a quantifier-free matrix.  Sigma_0 = Pi_0 is the
class of quantifier-free formulas; Sigma_{k+1} prefixes a non-empty
existential block to a Pi_k formula, and dually for Pi, so a shape's kind
and level name its strict class.  The cumulative class Sigma_k+ / Pi_k+
adds every strictly lower Sigma_i and Pi_i.  Whether a formula is prenex,
its level and its floors in the cumulative classes are read off the
prenex code each node is built with (``formula.is_prenex``,
``formula.prenex_level``, ``formula.prenex_floors``); this module names
the classes and spells out a prenex formula's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import Forall, Formula, _Quant

__all__ = [
    "SIGMA",
    "PI",
    "PrenexShape",
    "classify_prenex",
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


def classify_prenex(phi: Formula) -> Optional[PrenexShape]:
    """Minimal shape of ``phi`` if it is prenex, else ``None``.

    Blocks are maximal, so the reported level is the unique minimal one.
    The shape is built by walking the prefix and is not cached: the
    prenex code is what the other readers use.
    """
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
        return None
    kind = PI if isinstance(phi, Forall) else SIGMA
    return PrenexShape(kind, len(blocks), tuple(blocks))
