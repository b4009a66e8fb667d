"""Classical prenex classes: a prenex formula's shape and its floors in
the cumulative classes Sigma_k+ / Pi_k+.

A formula is in prenex normal form when it is an alternation of non-empty
quantifier blocks over a quantifier-free matrix.  Sigma_0 = Pi_0 is the
class of quantifier-free formulas; Sigma_{k+1} prefixes a non-empty
existential block to a Pi_k formula, and dually for Pi, so a shape's kind
and level name its strict class.  The cumulative class adds every
strictly lower Sigma_i and Pi_i.  A formula's floors are one pair
(``prenex_floors``): the least k with it in Sigma_k+ and the least with
it in Pi_k+, ``inf`` for "in none", the encoding of the classifier's
least levels.  Membership is read off them: ``phi`` is in Sigma_k+
exactly when ``k >= prenex_floors(phi)[0]``, and in Pi_k+ when
``k >= prenex_floors(phi)[1]``.

Each node's ``_shape`` slot holds its *prenex code*, the one number the
hot readers (``is_prenex``, ``prenex_level`` and ``prenex_floors``) need:
``2 * level + 1`` for a prenex node whose first block is universal,
``2 * level`` for any other prenex node (so 0 for a quantifier-free one),
``False`` for a node that is not prenex and ``None`` until it is known.
A quantifier's code follows from its body's in O(1), so the walk that
fills a code stops at the first node below whose code is known and each
quantifier is walked at most once.  Since ``0 == False``, a reader tests
``is False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from .formula import Forall, Formula, _Quant

__all__ = [
    "SIGMA",
    "PI",
    "PrenexShape",
    "classify_prenex",
    "is_prenex",
    "prenex_level",
    "prenex_floors",
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
    prenex code in ``_shape`` is what the other readers use.
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


def _code(phi: Formula):
    """Fill and return the prenex code of ``phi``, whose ``_shape`` is
    ``None``: walk down the prefix to the first node whose code is known,
    then set the codes of the quantifiers passed, innermost first."""
    chain = []
    node = phi
    code = node._shape
    while code is None:
        if not isinstance(node, _Quant):
            # a connective over a quantifier: not prenex
            code = node._shape = False
            break
        chain.append(node)
        node = node.body
        code = node._shape
    if code is False:
        # no quantifier walked past is prenex either
        for quant in chain:
            quant._shape = False
        return False
    for quant in reversed(chain):
        is_forall = type(quant) is Forall
        if code == 0:
            code = 2 + is_forall
        elif (code & 1) != is_forall:  # opens a new block
            code = (code | 1) + 1 + is_forall
        quant._shape = code
    return code


def is_prenex(phi: Formula) -> bool:
    code = phi._shape
    if code is None:
        code = _code(phi)
    return code is not False


def prenex_level(phi: Formula) -> Optional[int]:
    """The number of quantifier blocks of ``phi``, or ``None`` if it is
    not prenex."""
    code = phi._shape
    if code is None:
        code = _code(phi)
    return None if code is False else code >> 1


def prenex_floors(phi: Formula) -> tuple:
    """``(sigma, pi)``: the least k with ``phi`` in Sigma_k+ and the least
    with ``phi`` in Pi_k+, both ``inf`` if ``phi`` is not prenex."""
    code = phi._shape
    if code is None:
        code = _code(phi)
    if code is False:
        return inf, inf
    level = code >> 1
    if code & 1:  # a Pi_k formula with k >= 1 first enters Sigma_{k+1}+
        return level + 1, level
    # and a Sigma_k one Pi_{k+1}+, but Sigma_0 = Pi_0
    return level, (level + 1 if code else level)
