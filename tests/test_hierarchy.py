import time
import tracemalloc
from math import inf

from hypothesis import given, settings

from prenexify.formula import And, Exists, Forall, Prime, is_prenex, prenex_floors, prenex_level
from prenexify.hierarchy import PI, SIGMA, classify_prenex
from prenexify.oracle import enumerate_formulas
from prenexify.parser import parse
from prenexify.selftest import default_signature
from test_formula import _postorder, _tagged, formulas


def test_classify_examples():
    shape = classify_prenex(parse("exists x. forall y. P(x, y)"))
    assert (shape.kind, shape.level, shape.blocks) == (SIGMA, 2, (1, 1))
    shape = classify_prenex(parse("exists x. exists y. P(x, y)"))
    assert (shape.kind, shape.level, shape.blocks) == (SIGMA, 1, (2,))
    shape = classify_prenex(parse("exists x. P(x) -> Q(x)"))
    assert (shape.kind, shape.level) == (SIGMA, 1)
    assert classify_prenex(parse("(exists x. P(x)) | Q(y)")) is None


def test_quantifier_free_is_sigma_zero():
    shape = classify_prenex(parse("P(x) -> false"))
    assert (shape.kind, shape.level, shape.blocks) == (SIGMA, 0, ())


def test_strict_membership():
    # a shape's kind and level name its strict class: this one is Pi_2
    shape = classify_prenex(parse("forall x. exists y. P(x, y)"))
    assert (shape.kind, shape.level, shape.blocks) == (PI, 2, (1, 1))
    # Sigma_0 = Pi_0, reported as Sigma level 0
    shape = classify_prenex(parse("P(x)"))
    assert (shape.kind, shape.level, shape.blocks) == (SIGMA, 0, ())
    # maximal blocks: two existentials form one block, not two levels
    shape = classify_prenex(parse("exists x. exists y. P(x, y)"))
    assert (shape.kind, shape.level, shape.blocks) == (SIGMA, 1, (2,))


def test_cumulative_membership():
    # phi is in Sigma_k+ exactly when k >= sigma, and in Pi_k+ when k >= pi
    assert prenex_floors(parse("forall x. P(x)")) == (2, 1)
    assert prenex_floors(parse("exists x. P(x)")) == (1, 2)
    assert prenex_floors(parse("P(x)")) == (0, 0)


@settings(max_examples=300)
@given(formulas())
def test_cumulative_classes_grow(phi):
    # a strict Sigma_k or Pi_k formula is in its own class from k on and in
    # the other from k + 1, except that Sigma_0 = Pi_0
    sigma, pi = prenex_floors(phi)
    shape = classify_prenex(phi)
    if shape is None:
        assert sigma == pi == inf
        return
    own, other = (sigma, pi) if shape.kind == SIGMA else (pi, sigma)
    assert own == shape.level
    assert other == (shape.level + 1 if shape.level else 0)


def _runs(phi):
    """The maximal runs ``[kind, count]`` of one quantifier kind in the
    prefix of ``phi``, and the node below the prefix: the formula is
    prenex when that node is quantifier-free."""
    runs, node = [], phi
    while isinstance(node, (Exists, Forall)):
        if runs and type(node) is runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([type(node), 1])
        node = node.body
    return runs, node


def _check_readers(phi):
    """``prenex_level``, ``is_prenex`` and the floors of ``phi`` agree
    with a walk of its prefix."""
    runs, node = _runs(phi)
    if not node.is_qf:
        assert not is_prenex(phi)
        assert prenex_level(phi) is None
        assert prenex_floors(phi) == (inf, inf)
        return
    level = len(runs)
    first = runs[0][0] if runs else None
    assert is_prenex(phi)
    assert prenex_level(phi) == level
    assert prenex_floors(phi) == (
        level + 1 if first is Forall else level,
        level + 1 if first is Exists else level,
    )


def test_the_readers_match_a_prefix_walk_on_the_size_5_corpus():
    # fresh nodes, so the roots' reads fill the codes their suffixes read
    corpus = _tagged(list(enumerate_formulas(default_signature(5))), "Code")
    for phi in corpus:
        _check_readers(phi)
    for phi in _postorder(corpus):
        _check_readers(phi)


@settings(max_examples=300)
@given(formulas(max_leaves=8))
def test_the_readers_match_a_prefix_walk_on_every_suffix(phi):
    suffixes = [phi]
    while isinstance(suffixes[-1], (Exists, Forall)):
        suffixes.append(suffixes[-1].body)
    for suffix in suffixes:
        _check_readers(suffix)


@settings(max_examples=300)
@given(formulas())
def test_strict_membership_matches_shape(phi):
    runs, node = _runs(phi)
    shape = classify_prenex(phi)
    assert is_prenex(phi) == (shape is not None) == node.is_qf
    if shape is not None:
        assert shape.blocks == tuple(count for _, count in runs)
        assert shape.level == len(runs)
        assert shape.kind == (PI if runs and runs[0][0] is Forall else SIGMA)


def test_every_quantifier_over_a_non_prenex_chain_is_built_non_prenex():
    phi = And(Exists("y", Prime("Mark", ("y",))), Exists("y", Prime("Marked", ("y",))))
    chain = []
    for _ in range(5000):
        phi = Exists("x", phi)
        chain.append(phi)
    assert not any(map(is_prenex, chain))
    assert all(prenex_level(q) is None for q in chain)
    assert all(prenex_floors(q) == (inf, inf) for q in chain)
    assert classify_prenex(phi) is None


def test_every_quantifier_of_a_prenex_chain_is_built_with_its_level():
    # blocks of three quantifiers each, so the levels climb every third
    phi = And(Prime("Coded", ("x",)), Prime("Coded", ("y",)))
    chain = []
    for i in range(5000):
        phi = (Exists if (i // 3) % 2 else Forall)("x", phi)
        chain.append(phi)
    assert all(map(is_prenex, chain))
    levels = [i // 3 + 1 for i in range(5000)]
    assert [prenex_level(q) for q in chain] == levels
    assert [prenex_floors(q) for q in chain] == [
        (level + 1, level) if type(q) is Forall else (level, level + 1)
        for q, level in zip(chain, levels)
    ]


def test_a_deep_alternating_chain_is_read_in_linear_time_and_space():
    # a shape kept per suffix would hold a blocks tuple per quantifier:
    # quadratic in the depth, and paid as the chain is built
    tracemalloc.start()
    try:
        start = time.perf_counter()
        phi = Prime("Deep", ("x",))
        for i in range(20000):
            phi = (Exists if i % 2 else Forall)("x", phi)
        level = prenex_level(phi)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level == 20000
    assert elapsed < 1.0
    assert peak < 10 * 2**20
