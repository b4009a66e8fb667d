"""The exhaustive comparison of search and classifier sees every wrong
degree side condition.

``rewrite._side_condition`` is the one statement of the four degree-n
side conditions, and the rewrite search, step replay and the normalizer
all read it.  Each variant below replaces it; a variant is killed when, on
the size-5 corpus at some degree ``n <= 2``, the least Sigma+ / Pi+ levels
among the members of a formula's closure differ, as a pair, from the
formula's least levels ``Classifier.levels``.  The classifier reads its
clause table, not the rules, so it stays the reference.  Every variant
that decides some hoist differently must be killed; the equivalent
variants, which decide every hoist on prenex operands as the original
does, must survive.
"""

import pytest

from prenexify import normalizer, oracle, rewrite
from prenexify.hierarchy import in_pi_plus, in_sigma_plus
from prenexify.normalizer import normalize_J
from prenexify.parser import parse
from prenexify.rewrite import RewriteStep, SideConditionError, applicable_steps, apply_step
from prenexify.selftest import _floors, default_signature
from prenexify.semiclassical import INF, Classifier

CORPUS = list(oracle.enumerate_formulas(default_signature(5)))


def _variant(u=lambda quant, n: in_pi_plus(quant, n),
             c=lambda delta, n: in_sigma_plus(delta, n) or in_pi_plus(delta, n)):
    """A side-condition function with the tests ``u`` (for ForallImpN's
    quantified operand) and ``c`` (for the other operand of ImpExistsN,
    ForallOrN and OrForallN), and the original's reasons."""

    def side_condition(rule, quant, delta, n):
        if rule.needs_xi_u and not u(quant, n):
            return "U refused"
        if rule.needs_delta_c and not c(delta, n):
            return "C refused"
        return None

    return side_condition


KILLED = {
    "U at level n + 1": _variant(u=lambda q, n: in_pi_plus(q, n + 1)),
    "U at level n - 1": _variant(u=lambda q, n: in_pi_plus(q, n - 1)),
    "U read as Sigma_n+": _variant(u=lambda q, n: in_sigma_plus(q, n)),
    "U read as the body in Pi_n+": _variant(u=lambda q, n: in_pi_plus(q.body, n)),
    "U dropped": _variant(u=lambda q, n: True),
    "U always refused": _variant(u=lambda q, n: False),
    "C at level n + 1": _variant(
        c=lambda d, n: in_sigma_plus(d, n + 1) or in_pi_plus(d, n + 1)
    ),
    "C at level n - 1": _variant(
        c=lambda d, n: in_sigma_plus(d, n - 1) or in_pi_plus(d, n - 1)
    ),
    "C read as Sigma_n+ only": _variant(c=in_sigma_plus),
    "C read as Pi_n+ only": _variant(c=in_pi_plus),
    "C dropped": _variant(c=lambda d, n: True),
    "C always refused": _variant(c=lambda d, n: False),
    "always allowed": lambda rule, quant, delta, n: None,
    "always refused": _variant(u=lambda q, n: False, c=lambda d, n: False),
}

EQUIVALENT = {
    "the original": _variant(),
    # no universal formula is in Pi_0+
    "U with n != 0 stated": _variant(u=lambda q, n: n != 0 and in_pi_plus(q, n)),
    # the paper's statement, xi in U_n+ and n != 0, on a prenex xi
    "U as the body in Pi_n+ with n != 0": _variant(
        u=lambda q, n: n != 0 and in_pi_plus(q.body, n)
    ),
    # a universal formula's Sigma+ floor is above its Pi+ floor
    "U read as C_n+": _variant(u=lambda q, n: in_sigma_plus(q, n) or in_pi_plus(q, n)),
    "C with Sigma and Pi swapped": _variant(
        c=lambda d, n: in_pi_plus(d, n) or in_sigma_plus(d, n)
    ),
}


def _first_disagreement(side_condition, monkeypatch):
    """The first (formula, degree) whose closure's floors differ from its
    least levels with ``side_condition`` in place, or None."""
    monkeypatch.setattr(rewrite, "_side_condition", side_condition)
    try:
        for n in range(3):
            checker = Classifier()
            transitions: oracle.Transitions = {}
            for phi in CORPUS:
                closure = oracle.reachable_set(phi, n, transitions=transitions)
                assert closure.exhausted
                floors = tuple(INF if f is None else f for f in _floors(closure.members))
                if floors != checker.levels(phi, n):
                    return phi, n
        return None
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", list(KILLED))
def test_a_wrong_side_condition_is_killed(name, monkeypatch):
    assert _first_disagreement(KILLED[name], monkeypatch) is not None


@pytest.mark.parametrize("name", list(EQUIVALENT))
def test_an_equivalent_side_condition_survives(name, monkeypatch):
    assert _first_disagreement(EQUIVALENT[name], monkeypatch) is None


def test_the_search_replay_and_normalizer_read_the_one_function(monkeypatch):
    phi = parse("(exists x. P(x)) & Q(y)")
    assert [step.rule for step in applicable_steps(phi, 0)] == ["ExistsAnd"]
    monkeypatch.setattr(rewrite, "_side_condition", lambda rule, quant, delta, n: "refused")
    assert applicable_steps(phi, 0) == []
    with pytest.raises(SideConditionError, match="^ExistsAnd: refused$"):
        apply_step(phi, RewriteStep("ExistsAnd", ()), 0)
    with pytest.raises(AssertionError, match="no valid hoist"):
        normalize_J(phi, 1, 0)
    # the normalizer hoists through the rewrite engine, not a copy of it
    assert normalizer.valid_hoists is rewrite.valid_hoists
