"""The derived expectations here are computed by an independent oracle: a
least-fixpoint iteration of the generating clauses over the subformula
universe, as opposed to the checker's clause table and per-node least
levels.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings

from prenexify.formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Imp,
    Or,
    Prime,
    _Binary,
    _Quant,
    subformulas,
)
from prenexify.oracle import enumerate_formulas
from prenexify.parser import parse
from prenexify.selftest import default_signature
from prenexify.semiclassical import Classifier, Witness, _least_levels
from test_classify_cache import random_formula
from test_formula import formulas, node_count


def naive_classes(phi, k_max, n):
    """Least fixpoint of the generating clauses, per level, over the
    subformulas of phi.  Returns (J, R): level -> set of subformulas."""
    universe = list({psi: None for psi in subformulas(phi)})
    J = {0: {psi for psi in universe if psi.is_qf}}
    R = {0: set(J[0])}
    for k in range(1, k_max + 1):
        kk = k - 1
        j = set(J[kk] | R[kk])
        r = set(j)
        changed = True
        while changed:
            changed = False
            for psi in universe:
                if psi not in j and _generates(psi, j, r, J, R, kk, n, "J"):
                    j.add(psi)
                    changed = True
                if psi not in r and _generates(psi, j, r, J, R, kk, n, "R"):
                    r.add(psi)
                    changed = True
        J[k], R[k] = j, r
    return J, R


def _generates(psi, j, r, J, R, kk, n, side):
    if side == "J":
        if isinstance(psi, And):
            return psi.left in j and psi.right in j
        if isinstance(psi, Or):
            if kk <= n:
                return psi.left in j and psi.right in j
            low = J[n + 1]
            return (psi.left in j and psi.right in low) or (
                psi.left in low and psi.right in j
            )
        if isinstance(psi, Imp):
            if kk < n:
                ante = psi.left in r
            elif kk == n:
                ante = psi.left in J[kk] or psi.left in R[kk]
            else:
                ante = psi.left in J[n] or psi.left in R[n]
            return ante and psi.right in j
        if isinstance(psi, Exists):
            return psi.body in j
        return False
    if isinstance(psi, And):
        return psi.left in r and psi.right in r
    if isinstance(psi, Or):
        if kk < n:
            return psi.left in r and psi.right in r
        low = J[n] | R[n]
        return (psi.left in r and psi.right in low) or (
            psi.left in low and psi.right in r
        )
    if isinstance(psi, Imp):
        if kk <= n:
            ante = psi.left in j
        else:
            ante = psi.left in J[n + 1]
        return ante and psi.right in r
    if isinstance(psi, Forall):
        return psi.body in r
    return False


def naive_in(phi, k, n, side):
    J, R = naive_classes(phi, k, n)
    return phi in (J if side == "J" else R)[k]


def witness_holds(phi, w):
    """Whether every node of the witness ``w`` for ``phi`` certifies a
    formula that the fixpoint oracle puts in the node's class, at the
    degree of the root, with one child per premise of its clause."""
    nodes = []
    stack = [(phi, w)]
    while stack:
        psi, node = stack.pop()
        nodes.append((psi, node))
        if node.clause == "qf":
            operands = ()
        elif node.clause == "lift":
            operands = (psi,)
        elif node.clause in ("exists", "forall"):
            operands = (psi.body,) if isinstance(psi, _Quant) else None
        else:
            operands = (psi.left, psi.right) if isinstance(psi, _Binary) else None
        if operands is None or node.n != w.n or len(node.children) != len(operands):
            return False
        stack.extend(zip(operands, node.children))
    J, R = naive_classes(phi, max(node.k for _, node in nodes), w.n)
    return all(psi in (J if node.side == "J" else R)[node.k] for psi, node in nodes)


def test_quantifier_free_base():
    checker = Classifier()
    for n in range(4):
        assert checker.decide(parse("P(x)"), 0, n)[0]
        assert checker.decide(parse("P(x) -> false"), 0, n)[1]
    assert not checker.decide(parse("exists x. P(x)"), 0, 0)[0]


def test_negated_universal_needs_degree_one():
    phi = parse("(forall x. P(x)) -> false")
    checker = Classifier()
    assert checker.decide(phi, 2, 1)[0]
    for k in range(6):
        assert not checker.decide(phi, k, 0)[0]
        assert not checker.decide(phi, k, 0)[1]
    assert naive_in(phi, 2, 1, "J")
    assert not naive_in(phi, 5, 0, "J")


def test_disjunction_of_quantifiers():
    phi = parse("(exists x. P(x)) | (forall y. Q(y))")
    checker = Classifier()
    assert checker.decide(phi, 2, 0)[0]
    assert naive_in(phi, 2, 0, "J")
    assert not checker.decide(phi, 1, 0)[0]


def test_existential_R_side():
    phi = parse("exists x. P(x)")
    checker = Classifier()
    assert not checker.decide(phi, 1, 0)[1]
    assert checker.decide(phi, 2, 0)[1]
    assert naive_in(phi, 2, 0, "R") and not naive_in(phi, 1, 0, "R")


def test_in_D():
    # D_k^n = J_k^n u R_k^n holds a formula from the lesser of its least
    # levels on
    checker = Classifier()
    for text, k, n, member in [
        ("P(x) -> false", 0, 3, True),
        ("exists x. P(x)", 1, 0, True),
        ("exists x. P(x)", 0, 0, False),
        ("(forall x. P(x)) -> false", 1, 0, False),
    ]:
        phi = parse(text)
        assert (min(checker.levels(phi, n)) <= k) is member
        assert any(checker.decide(phi, k, n)) is member


def test_min_levels():
    checker = Classifier()
    assert checker.min_levels(parse("P(x)"), 2) == (0, 0)
    assert checker.min_levels(parse("exists x. P(x)"), 0, 5) == (1, 2)
    assert checker.min_levels(parse("(forall x. P(x)) -> false"), 0, 6) == (None, None)


def test_min_levels_default_cutoff():
    phi = parse("(forall x. P(x)) -> false")
    k_j, k_r = Classifier().min_levels(phi, 0)  # no k_max: exact, and in no level
    assert (k_j, k_r) == (None, None)


def test_levels_are_min_levels_with_inf_for_none():
    checker = Classifier()
    for phi in enumerate_formulas(default_signature(4)):
        for n in range(3):
            least = checker.min_levels(phi, n)
            assert checker.levels(phi, n) == tuple(
                math.inf if k is None else k for k in least
            )
    with pytest.raises(ValueError, match="degree n"):
        checker.levels(parse("P(x)"), -1)


def test_cumulative_e_u_classes():
    # E_k+ is J_k^k and U_k+ is R_k^k
    checker = Classifier()
    assert checker.decide(parse("(exists x. P(x)) | (forall y. Q(y))"), 2, 2)[0]
    assert not checker.decide(parse("forall x. P(x)"), 1, 1)[0]
    assert checker.decide(parse("forall x. P(x)"), 1, 1)[1]
    assert checker.decide(parse("P(x)"), 0, 0)[0]


def test_verdict_and_witness_replay():
    phi = parse("(exists x. P(x)) | (forall y. Q(y))")
    checker = Classifier()
    assert checker.decide(phi, 2, 0) == (True, False)
    assert witness_holds(phi, checker.witness(phi, 2, 0, "J"))
    # the R-side disjunction clause at k > n needs a quantifier-free
    # disjunct, so the Pi side only opens up one level later
    assert checker.witness(phi, 2, 0, "R") is None
    assert checker.decide(phi, 3, 0)[1]
    assert witness_holds(phi, checker.witness(phi, 3, 0, "R"))
    negative = parse("(forall x. P(x)) -> false")
    assert not any(checker.decide(negative, 1, 0))
    assert checker.witness(negative, 1, 0, "J") is None
    assert checker.witness(negative, 1, 0, "R") is None


def test_witness_tracks_asymmetric_or():
    # k > n forces the or-left/or-right clause with a low-side operand
    phi = parse("(exists x. forall y. P(x)) | (exists x. Q(x))")
    checker = Classifier()
    assert checker.decide(phi, 2, 0)[0]
    w = checker.witness(phi, 2, 0, "J")
    assert w.clause in ("or-left", "or-right")
    assert witness_holds(phi, w)
    # at k - 1 = n both R-side disjunction clauses apply here; or-left is
    # tried first, and its D premise is witnessed on R as it is not in J
    both = parse("(exists x. P(x)) | (forall y. Q(y))")
    w = checker.witness(both, 2, 1, "R")
    assert w.clause == "or-left"
    assert [child.side for child in w.children] == ["R", "R"]


def test_invalid_levels_rejected():
    checker = Classifier()
    with pytest.raises(ValueError):
        checker.decide(parse("P(x)"), -1, 0)
    with pytest.raises(ValueError):
        checker.decide(parse("P(x)"), 0, -2)
    with pytest.raises(ValueError):
        checker.witness(parse("P(x)"), -1, 0, "J")
    with pytest.raises(ValueError):
        checker.witness(parse("P(x)"), 0, -1, "R")


def test_witness_with_child_at_another_degree_is_rejected():
    phi = parse("exists z. ((forall x. P(x)) -> false)")
    checker = Classifier()
    assert not checker.decide(phi, 2, 0)[0]
    child = checker.witness(phi.body, 2, 1, "J")
    assert child is not None
    forged = Witness("J", 2, 0, "exists", (child,))
    assert not witness_holds(phi, forged)
    assert witness_holds(phi, Witness("J", 2, 1, "exists", (child,)))


@settings(max_examples=150, deadline=None)
@given(formulas(max_leaves=4))
def test_checker_agrees_with_fixpoint_oracle(phi):
    checker = Classifier()
    for n in range(3):
        J, R = naive_classes(phi, 3, n)
        for k in range(4):
            assert checker.decide(phi, k, n) == (phi in J[k], phi in R[k])


@settings(max_examples=150, deadline=None)
@given(formulas(max_leaves=5))
def test_cumulativity_and_monotonicity(phi):
    checker = Classifier()
    for n in range(3):
        for k in range(4):
            j, r = checker.decide(phi, k, n)
            if j or r:
                assert checker.decide(phi, k + 1, n) == (True, True)
            if j:
                assert checker.decide(phi, k, n + 1)[0]
            if r:
                assert checker.decide(phi, k, n + 1)[1]


@settings(max_examples=150, deadline=None)
@given(formulas(max_leaves=5))
def test_stabilization_at_degree_k(phi):
    checker = Classifier()
    for k in range(3):
        base = checker.decide(phi, k, k)
        for n in (k + 1, k + 2):
            assert checker.decide(phi, k, n) == base


@settings(max_examples=150, deadline=None)
@given(formulas(max_leaves=5))
def test_subformula_closure(phi):
    checker = Classifier()
    for n in range(2):
        for k in range(4):
            if any(checker.decide(phi, k, n)):
                assert all(any(checker.decide(psi, k, n)) for psi in subformulas(phi))


@settings(max_examples=150, deadline=None)
@given(formulas(max_leaves=5))
def test_positive_witnesses_always_replay(phi):
    checker = Classifier()
    for n in range(2):
        for k in range(3):
            for side in ("J", "R"):
                w = checker.witness(phi, k, n, side)
                if w is not None:
                    assert witness_holds(phi, w)


@settings(max_examples=100, deadline=None)
@given(formulas(max_leaves=4))
def test_min_levels_are_exact(phi):
    for n in range(3):
        bound = n + node_count(phi) + 2
        J, R = naive_classes(phi, bound, n)
        least = tuple(
            next((k for k in range(bound + 1) if phi in side[k]), None)
            for side in (J, R)
        )
        assert Classifier().min_levels(phi, n) == least


def deep_alternation():
    """5,000 nested connectives, a negation and a forall in turn."""
    phi = Prime("P", ("x",))
    for depth in range(5000):
        phi = Forall("x", phi) if depth % 2 else Imp(phi, FALSUM)
    return phi


def reference_levels(corpus, n):
    """(k_J, k_R) of every non-quantifier-free subformula of ``corpus`` at
    degree ``n``: ``_least_levels`` folded over an explicit postorder list
    of the subformulas, each listed once, after its operands."""
    postorder, seen = [], set()
    stack = [(phi, False) for phi in reversed(corpus)]
    while stack:
        psi, operands_listed = stack.pop()
        if operands_listed:
            postorder.append(psi)
        elif not psi.is_qf and psi not in seen:
            seen.add(psi)
            stack.append((psi, True))
            if isinstance(psi, _Binary):
                stack += [(psi.right, False), (psi.left, False)]
            else:
                stack.append((psi.body, False))
    pairs = {}
    for psi in postorder:
        operands = (psi.left, psi.right) if isinstance(psi, _Binary) else (psi.body,)
        pairs[psi] = _least_levels(type(psi), n, [pairs.get(c, (0, 0)) for c in operands])
    return pairs


def random_corpus():
    rng = random.Random(18)
    return [random_formula(rng, rng.randint(10, 40)) for _ in range(300)]


WALK_CORPORA = {
    "size-5": lambda: list(enumerate_formulas(default_signature(5))),
    "random-300": random_corpus,
    "deep-alternation": lambda: [deep_alternation()],
}


@pytest.mark.parametrize("order", [(2, 0, 1, 3), (0, 1, 2, 3)], ids=["2-0-1-3", "0-1-2-3"])
@pytest.mark.parametrize("corpus", WALK_CORPORA.values(), ids=WALK_CORPORA)
def test_the_walk_stores_the_reference_pair_of_every_node(corpus, order):
    # one Classifier asked for every degree of one formula before the next
    corpus = corpus()
    checker = Classifier()
    answers = {n: [] for n in order}
    for phi in corpus:
        for n in order:
            answers[n].append(checker.levels(phi, n))
    for n in order:
        expected = reference_levels(corpus, n)
        assert checker._levels[n] == expected
        assert answers[n] == [expected.get(phi, (0, 0)) for phi in corpus]


def test_the_walk_visits_a_shared_node_once_per_parent():
    # phi_{i+1} = phi_i & exists x. phi_i has 2^i paths to phi_0 but only
    # 2i + 1 distinct nodes; a walk per path would not finish
    phi = Prime("P", ("x",))
    for _ in range(40):
        phi = And(phi, Exists("x", phi))
    expected = reference_levels([phi], 0)
    distinct = len(expected)
    assert distinct == 80

    class Bounded(dict):
        stores = 0

        def __setitem__(self, key, value):
            Bounded.stores += 1
            if Bounded.stores > 2 * distinct:
                raise AssertionError(f"{Bounded.stores} stores for {distinct} nodes")
            super().__setitem__(key, value)

    checker = Classifier()
    checker._levels[0] = Bounded()
    assert checker.levels(phi, 0) == expected[phi]
    assert checker._levels[0] == expected


def test_deep_alternation_needs_no_recursion():
    phi = deep_alternation()
    checker = Classifier()
    assert checker.decide(phi, 3, 0) == (False, False)
    assert checker.min_levels(phi, 0) == (None, None)
    # each forall/negation pair opens one more quantifier block
    assert checker.decide(phi, 2500, 10**9) == (False, True)
    assert checker.min_levels(phi, 10**9) == (2501, 2500)


def test_least_levels_by_pairs_are_per_classifier():
    # a node's least levels are looked up by its connective and its
    # operands' pairs, in a table of the Classifier's own
    corpus = list(enumerate_formulas(default_signature(5)))
    one, two = Classifier(), Classifier()
    for phi in corpus:
        one.decide(phi, 0, 1)
    nodes, keys = len(one._levels[1]), len(one._by_pairs[1])
    assert nodes == 5952 and 0 < keys <= nodes // 50
    assert not two._by_pairs
    assert all(two.min_levels(phi, 1) == one.min_levels(phi, 1) for phi in corpus)
    assert len(two._by_pairs[1]) == keys


# operand pairs with finite levels up to 7, and every key built from them
SHIFT_PAIRS = [(0, 0), (math.inf, math.inf)]
SHIFT_PAIRS += [(k, k) for k in range(1, 8)]
SHIFT_PAIRS += [pair for k in range(1, 7) for pair in ((k, k + 1), (k + 1, k))]
SHIFT_KEYS = [(q, (pair,)) for q in (Exists, Forall) for pair in SHIFT_PAIRS] + [
    (conn, operands)
    for conn in (And, Or, Imp)
    for operands in itertools.product(SHIFT_PAIRS, repeat=2)
]


def shift(pair):
    """``pair`` with each finite nonzero level one higher."""
    return tuple(level + 1 if 0 < level < math.inf else level for level in pair)


def test_least_levels_shift_with_the_degree():
    # a key's pair at n + 1 over shifted operands is its pair at n, shifted,
    # but for the keys over quantifier-free operands alone, whose pair
    # (1, 1), (1, 2) or (2, 1) does not move with the degree
    assert len(SHIFT_PAIRS) == 21 and len(SHIFT_KEYS) == 1365
    misses, checks = [], 0
    for n in range(6):
        for conn, operands in SHIFT_KEYS:
            checks += 1
            shifted = _least_levels(conn, n + 1, [shift(pair) for pair in operands])
            if shifted != shift(_least_levels(conn, n, operands)):
                misses.append((conn, operands, n))
    assert checks == 8190
    assert len(misses) == 30
    assert all(set(operands) == {(0, 0)} for _, operands, _ in misses)


@pytest.mark.parametrize("bound, checks, misses", [(2, 2525, 0), (1, 3770, 380)])
def test_least_levels_shift_with_the_operands_above_the_degree(bound, checks, misses):
    # at one degree n, shifting the operands shifts the pair once every
    # finite nonzero operand level is at least n + 2; n + 1 is not enough
    counted, missed = 0, 0
    for n in range(5):
        for conn, operands in SHIFT_KEYS:
            levels = [level for pair in operands for level in pair if 0 < level < math.inf]
            if set(operands) == {(0, 0)} or min(levels, default=math.inf) < n + bound:
                continue
            counted += 1
            shifted = _least_levels(conn, n, [shift(pair) for pair in operands])
            missed += shifted != shift(_least_levels(conn, n, operands))
    assert (counted, missed) == (checks, misses)


def test_alpha_variants_share_verdicts():
    one = parse("(exists x. P(x)) | (forall y. Q(y))")
    two = parse("(exists y. P(y)) | (forall x. Q(x))")
    checker = Classifier()
    for k in range(4):
        for n in range(3):
            assert checker.decide(one, k, n) == checker.decide(two, k, n)


def test_concurrent_queries_are_consistent():
    import threading

    checker = Classifier()
    phi = parse("((exists x. P(x)) | (forall y. Q(y))) -> (exists x. Q(x))")
    answers = [None] * 8

    def work(slot):
        grid = tuple(
            checker.decide(phi, k, n) for k in range(5) for n in range(3)
        )
        answers[slot] = grid

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(a == answers[0] for a in answers)
    fresh = Classifier()
    expected = tuple(fresh.decide(phi, k, n) for k in range(5) for n in range(3))
    assert answers[0] == expected
