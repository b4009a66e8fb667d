from hypothesis import given, settings

from prenexify.formula import And, Exists, Forall, Prime
from prenexify.hierarchy import (
    PI,
    SIGMA,
    classify_prenex,
    in_pi_plus,
    in_sigma_plus,
    is_prenex,
)
from prenexify.parser import parse
from test_formula import formulas


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
    pi1 = parse("forall x. P(x)")
    assert in_sigma_plus(pi1, 2)
    assert not in_sigma_plus(pi1, 1)
    assert all(in_sigma_plus(parse("P(x)"), k) for k in range(5))
    assert in_pi_plus(pi1, 1)
    assert not in_pi_plus(parse("exists x. P(x)"), 1)
    assert in_pi_plus(parse("exists x. P(x)"), 2)


@settings(max_examples=300)
@given(formulas())
def test_cumulative_classes_grow(phi):
    for k in range(4):
        if in_sigma_plus(phi, k):
            assert in_sigma_plus(phi, k + 1)
        if in_pi_plus(phi, k):
            assert in_sigma_plus(phi, k + 1)
            assert in_pi_plus(phi, k + 1)


@settings(max_examples=300)
@given(formulas())
def test_strict_membership_matches_shape(phi):
    # the blocks are the maximal runs of one quantifier kind in the prefix,
    # and the formula is prenex when the prefix ends on its matrix
    runs, node = [], phi
    while isinstance(node, (Exists, Forall)):
        if runs and type(node) is runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([type(node), 1])
        node = node.body
    shape = classify_prenex(phi)
    assert is_prenex(phi) == (shape is not None) == node.is_qf
    if shape is not None:
        assert shape.blocks == tuple(count for _, count in runs)
        assert shape.level == len(runs)
        assert shape.kind == (PI if runs and runs[0][0] is Forall else SIGMA)


def test_one_test_of_a_non_prenex_chain_marks_every_quantifier():
    # later prenex tests of the chain's nodes then cost no walk
    phi = And(Exists("y", Prime("Mark", ("y",))), Exists("y", Prime("Marked", ("y",))))
    chain = []
    for _ in range(5000):
        phi = Exists("x", phi)
        chain.append(phi)
    assert all(q._shape is None for q in chain)
    assert classify_prenex(phi) is None
    assert all(q._shape is False for q in chain)
