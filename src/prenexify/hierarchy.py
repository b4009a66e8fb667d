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

from .formula import Forall, Formula, _Quant, prenex_level

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
    """Minimal shape of ``phi`` if it is prenex, else ``None``: whether it
    is and its level are read off its prenex code, and the walk of its
    prefix only counts its blocks, maximal runs of one quantifier."""
    level = prenex_level(phi)
    if level is None:
        return None
    kind = PI if isinstance(phi, Forall) else SIGMA
    blocks, current = [], None
    while isinstance(phi, _Quant):
        if type(phi) is current:
            blocks[-1] += 1
        else:
            blocks.append(1)
            current = type(phi)
        phi = phi.body
    return PrenexShape(kind, level, tuple(blocks))
