"""Decision procedure for the semi-classical hierarchy classes J_k^n,
R_k^n and D_k^n = J_k^n u R_k^n.

Level 0 of every class is the set of quantifier-free formulas.  At level
k >= 1 a formula enters J/R either by already lying in D_{k-1}^n (the
``lift`` clause) or through one generation clause determined by its top
connective; which clauses exist depends on how k-1 compares to n:

    k-1 < n:  J: E&E', E|E', U->E, exists x E      R: U&U', U|U', E->U, forall x U
    k-1 = n:  J: E&E', E|E', D->E, exists x E      R: U&U', U|D, D|U, E->U, forall x U
    k-1 > n:  J: E&E', E|E1, E1|E, D->E, ex x E    R: U&U', U|D, D|U, E1->U, fa x U

with E, E' ranging over J_k^n, U, U' over R_k^n, D over D_n^n and E1
over J_{n+1}^n.  ``_CLAUSES`` is this table, and it alone drives the
least levels and each derivation step (``Classifier.derive``, which both
witnesses and the normalizer follow).

A ``Classifier`` is the only way in, and its caller owns it: the module
keeps no classifier state, so what a caller computes is freed with its
``Classifier``.  The cumulative classes E_k+ and U_k+ are J_k^k and
R_k^k, ``decide(phi, k, k)`` on any ``Classifier``.

Least levels.  The lift clause makes every class cumulative in k
(S_k^n is inside D_k^n, which is inside S_{k+1}^n), so membership of a
formula is fixed by its pair of least levels (k_J, k_R), with infinity
for "in no level": phi is in S_k^n exactly when k >= k_S.  Each
hash-consed node gets this pair once per degree, bottom-up from the
pairs of its operands, and ``decide`` is two comparisons.
``_least_levels`` computes the pair from its key, the node's connective
and its operands' pairs, once per key and degree; every other node with
the same key looks it up.

Why a few candidate levels suffice.  Take a formula with quantifiers,
so in no level 0.  Below the first level k0 >= 1 at which some
generation clause applies, the lift clause cannot apply either, so k0 is the lesser least level and the other side follows at
k0 or k0 + 1 by lift.  A clause predicate, as a function of k, reads
the operands' memberships at level k (true from an operand's own least
level on), at n or at n + 1 (constant in k), and switches case at
k = n + 1 and k = n + 2.  It is therefore constant between consecutive
points of {1, the operands' finite least levels, n + 1, n + 2}, and k0,
the start of the first interval on which it holds, is one of these
candidates.  If no candidate admits a clause, no level does.  At most
seven candidates are tried, so a node costs the same whatever n is.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .formula import And, Exists, Forall, Formula, Imp, Or, _Binary

__all__ = ["Witness", "Classifier"]

J = "J"
R = "R"
D = "D"  # either side: a premise in D_level^n

# premise levels: indices into (k, n, n + 1) of the clause's own k and n
K, N, N1 = 0, 1, 2

INF = math.inf
_QF = (0, 0)


def _every_case(*alternatives):
    return (alternatives,) * 3


# (connective, side) -> alternatives for k-1 < n, k-1 = n, k-1 > n.  An
# alternative is a clause name and one (side, level) premise per operand;
# they are tried in order, and a D premise is witnessed on J before R.
_CLAUSES = {
    (And, J): _every_case(("and", (J, K), (J, K))),
    (And, R): _every_case(("and", (R, K), (R, K))),
    (Or, J): (
        (("or", (J, K), (J, K)),),
        (("or", (J, K), (J, K)),),
        (("or-left", (J, K), (J, N1)), ("or-right", (J, N1), (J, K))),
    ),
    (Or, R): (
        (("or", (R, K), (R, K)),),
        (("or-left", (R, K), (D, N)), ("or-right", (D, N), (R, K))),
        (("or-left", (R, K), (D, N)), ("or-right", (D, N), (R, K))),
    ),
    (Imp, J): (
        (("imp", (R, K), (J, K)),),
        (("imp", (D, N), (J, K)),),
        (("imp", (D, N), (J, K)),),
    ),
    (Imp, R): (
        (("imp", (J, K), (R, K)),),
        (("imp", (J, K), (R, K)),),
        (("imp", (J, N1), (R, K)),),
    ),
    (Exists, J): _every_case(("exists", (J, K))),
    (Forall, R): _every_case(("forall", (R, K))),
}
_NO_CLAUSES = _every_case()


def _clause(conn: type, side: str, k: int, n: int, pairs: list) -> Optional[tuple]:
    """The first table alternative deriving a ``conn`` node on ``side`` at
    level ``k >= 1`` from operands with least-level ``pairs``, or ``None``."""
    at = (k, n, n + 1)
    case = 0 if k <= n else 1 if k == n + 1 else 2
    for alternative in _CLAUSES.get((conn, side), _NO_CLAUSES)[case]:
        for (s, level), (k_j, k_r) in zip(alternative[1:], pairs):
            if at[level] < (k_j if s == J else k_r if s == R else min(k_j, k_r)):
                break
        else:
            return alternative
    return None


def _least_levels(conn: type, n: int, pairs: list) -> tuple:
    """(k_J, k_R) of a ``conn`` node with a quantifier, from its operands'."""
    candidates = {1, n + 1, n + 2}
    candidates.update(level for pair in pairs for level in pair if 1 <= level < INF)
    for k in sorted(candidates):
        j = _clause(conn, J, k, n, pairs) is not None
        r = _clause(conn, R, k, n, pairs) is not None
        if j or r:
            return (k if j else k + 1, k if r else k + 1)
    return (INF, INF)


@dataclass(frozen=True)
class Witness:
    """One node of a derivation tree for a positive membership verdict.

    ``clause`` names the generation clause applied for ``phi`` at level
    ``k`` (degree ``n``) on side ``side``:

    - ``qf``: level-0 base case;
    - ``lift``: member of D_{k-1}^n, child is the lower-level witness;
    - ``and`` / ``imp`` / ``exists`` / ``forall``: structural clause with
      child witnesses in operand order;
    - ``or``: the symmetric disjunction clause (both children on the same
      side at level k);
    - ``or-left`` / ``or-right``: the asymmetric disjunction clauses; the
      named operand carries the level-k class and the other child the low
      side class required by the case.
    """

    side: str
    k: int
    n: int
    clause: str
    children: tuple["Witness", ...] = ()


def _check_levels(k: int, n: int) -> None:
    if k < 0:
        raise ValueError("level k must be a natural number")
    if n < 0:
        raise ValueError("degree n must be a natural number")


class Classifier:
    """Membership checker for J_k^n and R_k^n that caches, per degree n,
    the least levels (k_J, k_R) of every node it has seen."""

    def __init__(self):
        # n -> {non-quantifier-free node: (k_J, k_R)}
        self._levels: defaultdict[int, dict[Formula, tuple]] = defaultdict(dict)
        # n -> {(connective, *operands' pairs): (k_J, k_R)}; few keys recur
        self._by_pairs: defaultdict[int, dict[tuple, tuple]] = defaultdict(dict)
        # n -> {goal: normal form}, filled by the normalizer
        self._normal_forms: defaultdict[int, dict] = defaultdict(dict)

    def normal_forms(self, n: int) -> dict:
        """The normalizer's store for degree ``n``, keyed by the goals
        ``(phi, side, k)`` it has normalized that are not ``lift`` and
        whose node is not prenex; an entry also keeps its goal's finished
        trace steps once they are asked for.  It lives as long as the
        least levels it was derived from: as long as the ``Classifier``."""
        return self._normal_forms[n]

    def levels(self, phi: Formula, n: int) -> tuple:
        """(k_J, k_R) of ``phi`` at degree ``n``, ``INF`` for "in no
        level": ``phi`` is in J_k^n exactly when ``k >= k_J``, and in
        R_k^n when ``k >= k_R``.

        The pairs are computed bottom-up.  The walk peeks at the top of an
        explicit stack: it reads each operand's pair (``_QF``, or the
        cached one) and pushes the operands still missing; once none is,
        it pops the node and looks its pair up by its connective and its
        operands' pairs.  A node is visited at most twice per push.  A
        node pending under two parents may be pushed twice, and its second
        visit finds its operands cached, so the walk costs one visit per
        edge of the DAG, not one per path of the tree.
        """
        if n < 0:  # _check_levels' test, inline: the selftest reads here
            raise ValueError("degree n must be a natural number")
        if phi.is_qf:
            return _QF
        cache = self._levels[n]
        pair = cache.get(phi)
        if pair is not None:
            return pair
        by_pairs = self._by_pairs[n]
        stack = [phi]
        while stack:
            psi = stack[-1]
            if isinstance(psi, _Binary):
                left, right = psi.left, psi.right
                left_pair = _QF if left.is_qf else cache.get(left)
                right_pair = _QF if right.is_qf else cache.get(right)
                if left_pair is None or right_pair is None:
                    if left_pair is None:
                        stack.append(left)
                    if right_pair is None:
                        stack.append(right)
                    continue
                key = (type(psi), left_pair, right_pair)
            else:
                body = psi.body
                body_pair = _QF if body.is_qf else cache.get(body)
                if body_pair is None:
                    stack.append(body)
                    continue
                key = (type(psi), body_pair)
            stack.pop()
            pair = by_pairs.get(key)
            if pair is None:
                pair = by_pairs[key] = _least_levels(key[0], n, key[1:])
            cache[psi] = pair
        return pair

    def decide(self, phi: Formula, k: int, n: int) -> tuple[bool, bool]:
        """(in_J, in_R) for ``phi`` at level ``k``, degree ``n``."""
        _check_levels(k, n)
        k_j, k_r = self.levels(phi, n)
        return k >= k_j, k >= k_r

    # -- witnesses ---------------------------------------------------------

    def derive(self, psi: Formula, side: str, k: int, n: int) -> tuple[str, list]:
        """One derivation step: the clause that derives the goal ``psi`` in
        S_k^n (S = ``side``) and its premises, one ``(operand, side,
        level)`` goal each, with every D premise resolved to J or R.  The
        goal must hold, so the least levels of psi have been read."""
        levels = self._levels[n]
        k_j, k_r = levels.get(psi, _QF)
        if k > min(k_j, k_r):  # psi lies in D_{k-1}^n
            return "lift", [(psi, J if k > k_j else R, k - 1)]
        if k == 0:
            return "qf", []
        operands = (psi.left, psi.right) if isinstance(psi, _Binary) else (psi.body,)
        pairs = [levels.get(c, _QF) for c in operands]
        alternative = _clause(type(psi), side, k, n, pairs)
        at = (k, n, n + 1)
        premises = []
        for c, (p_side, level), pair in zip(operands, alternative[1:], pairs):
            if p_side == D:
                p_side = J if at[level] >= pair[0] else R
            premises.append((c, p_side, at[level]))
        return alternative[0], premises

    def lift_root(self, psi: Formula, side: str, k: int, n: int) -> tuple:
        """The goal at the foot of the lift chain ``derive`` follows from
        the goal ``(psi, side, k)``, found without walking it: the goal
        itself when its clause is not ``lift``.  The root's clause is
        ``qf`` exactly when its level is 0.  The goal must hold."""
        k_j, k_r = self._levels[n].get(psi, _QF)
        if k <= min(k_j, k_r):
            return (psi, side, k)
        # the lift clause fires while k > min(k_J, k_R), and its last step
        # lands on the side whose least level that is, J first
        return (psi, J, k_j) if k_j <= k_r else (psi, R, k_r)

    def witness(self, phi: Formula, k: int, n: int, side: str) -> Optional[Witness]:
        """Derivation tree for a positive verdict, or ``None``."""
        _check_levels(k, n)
        if k < self.levels(phi, n)[0 if side == J else 1]:
            return None
        # Plan the goals top-down in preorder, then build them in reverse:
        # each node finds its children's witnesses on top of ``values``.
        plans = []
        stack = [(phi, side, k)]
        while stack:
            psi, s, level = stack.pop()
            clause, premises = self.derive(psi, s, level, n)
            plans.append((s, level, clause, len(premises)))
            stack.extend(premises)
        values: list[Witness] = []
        for s, level, clause, arity in reversed(plans):
            if arity == 0:
                values.append(Witness(s, level, n, clause))
            elif arity == 1:
                values[-1] = Witness(s, level, n, clause, (values[-1],))
            else:
                right = values.pop()
                values[-1] = Witness(s, level, n, clause, (values[-1], right))
        return values[0]

    def min_levels(
        self, phi: Formula, n: int, k_max: Optional[int] = None
    ) -> tuple[Optional[int], Optional[int]]:
        """Least levels k admitting phi into J (resp. R) at degree n.

        The levels are exact; ``None`` means "in no level", or above
        ``k_max`` when one is given.
        """
        bound = INF if k_max is None else k_max + 1
        k_j, k_r = self.levels(phi, n)
        return (k_j if k_j < bound else None, k_r if k_r < bound else None)
