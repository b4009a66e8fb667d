"""The exhaustive comparison of search and classifier sees every wrong
degree side condition, and every wrong premise of the clause table.

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

The clause table ``semiclassical._CLAUSES`` is mutated the other way
round: the search stays the reference, and each mutant changes one
``(side, level)`` premise of one alternative of one case to another.
The size-5 corpus reaches few keys of the least levels (a connective and
its operands' pairs), so a key layer joins it at each degree: every
connective over two, and every quantifier over ``x`` or ``y`` of one, of
the first corpus formulas with each pair of least levels.
"""

import pytest

from prenexify import normalizer, oracle, rewrite, semiclassical
from prenexify.formula import And, Exists, Forall, Imp, Or, prenex_floors
from prenexify.normalizer import normalize_J
from prenexify.parser import parse
from prenexify.rewrite import RewriteStep, SideConditionError, applicable_steps, apply_step
from prenexify.selftest import default_signature
from prenexify.semiclassical import D, J, K, N, N1, R, Classifier

CORPUS = list(oracle.enumerate_formulas(default_signature(5)))


def _variant(u=lambda quant, n: n >= prenex_floors(quant)[1],
             c=lambda delta, n: n >= prenex_floors(delta)[0] or n >= prenex_floors(delta)[1]):
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
    "U at level n + 1": _variant(u=lambda q, n: n + 1 >= prenex_floors(q)[1]),
    "U at level n - 1": _variant(u=lambda q, n: n - 1 >= prenex_floors(q)[1]),
    "U read as Sigma_n+": _variant(u=lambda q, n: n >= prenex_floors(q)[0]),
    "U read as the body in Pi_n+": _variant(u=lambda q, n: n >= prenex_floors(q.body)[1]),
    "U dropped": _variant(u=lambda q, n: True),
    "U always refused": _variant(u=lambda q, n: False),
    "C at level n + 1": _variant(
        c=lambda d, n: n + 1 >= prenex_floors(d)[0] or n + 1 >= prenex_floors(d)[1]
    ),
    "C at level n - 1": _variant(
        c=lambda d, n: n - 1 >= prenex_floors(d)[0] or n - 1 >= prenex_floors(d)[1]
    ),
    "C read as Sigma_n+ only": _variant(c=lambda d, n: n >= prenex_floors(d)[0]),
    "C read as Pi_n+ only": _variant(c=lambda d, n: n >= prenex_floors(d)[1]),
    "C dropped": _variant(c=lambda d, n: True),
    "C always refused": _variant(c=lambda d, n: False),
    "always allowed": lambda rule, quant, delta, n: None,
    "always refused": _variant(u=lambda q, n: False, c=lambda d, n: False),
}

EQUIVALENT = {
    "the original": _variant(),
    # no universal formula is in Pi_0+
    "U with n != 0 stated": _variant(u=lambda q, n: n != 0 and n >= prenex_floors(q)[1]),
    # the paper's statement, xi in U_n+ and n != 0, on a prenex xi
    "U as the body in Pi_n+ with n != 0": _variant(
        u=lambda q, n: n != 0 and n >= prenex_floors(q.body)[1]
    ),
    # a universal formula's Sigma+ floor is above its Pi+ floor
    "U read as C_n+": _variant(
        u=lambda q, n: n >= prenex_floors(q)[0] or n >= prenex_floors(q)[1]
    ),
    "C with Sigma and Pi swapped": _variant(
        c=lambda d, n: n >= prenex_floors(d)[1] or n >= prenex_floors(d)[0]
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
                if closure.floors != checker.levels(phi, n):
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
    assert normalizer.hoist is rewrite.hoist


_CASES = ("k-1<n", "k-1=n", "k-1>n")
_LEVELS = ("k", "n", "n+1")


def _premise(premise) -> str:
    side, level = premise
    return f"{side}_{_LEVELS[level]}"


def _clause_mutants():
    """(name, table) for each table that differs from ``_CLAUSES`` in one
    premise of one alternative of one case."""
    table = semiclassical._CLAUSES
    for (conn, side), cases in table.items():
        for c, alternatives in enumerate(cases):
            for a, alternative in enumerate(alternatives):
                for p, premise in enumerate(alternative[1:], 1):
                    for other in [(s, lv) for s in (J, R, D) for lv in (K, N, N1)]:
                        if other == premise:
                            continue
                        changed = alternative[:p] + (other,) + alternative[p + 1:]
                        case = alternatives[:a] + (changed,) + alternatives[a + 1:]
                        mutant = dict(table)
                        mutant[conn, side] = cases[:c] + (case,) + cases[c + 1:]
                        name = (
                            f"{conn.__name__}/{side} {_CASES[c]} {alternative[0]} "
                            f"premise {p}: {_premise(premise)} -> {_premise(other)}"
                        )
                        yield name, mutant


# at k - 1 = n the levels k and n + 1 coincide
EQUIVALENT_CLAUSE_MUTANTS = {
    "And/J k-1=n and premise 1: J_k -> J_n+1",
    "And/J k-1=n and premise 2: J_k -> J_n+1",
    "And/R k-1=n and premise 1: R_k -> R_n+1",
    "And/R k-1=n and premise 2: R_k -> R_n+1",
    "Or/J k-1=n or premise 1: J_k -> J_n+1",
    "Or/J k-1=n or premise 2: J_k -> J_n+1",
    "Or/R k-1=n or-left premise 1: R_k -> R_n+1",
    "Or/R k-1=n or-right premise 2: R_k -> R_n+1",
    "Imp/J k-1=n imp premise 2: J_k -> J_n+1",
    "Imp/R k-1=n imp premise 1: J_k -> J_n+1",
    "Imp/R k-1=n imp premise 2: R_k -> R_n+1",
    "Exists/J k-1=n exists premise 1: J_k -> J_n+1",
    "Forall/R k-1=n forall premise 1: R_k -> R_n+1",
}


def _with_key_layer(n: int) -> list:
    """The size-5 corpus and its key layer at degree ``n``, read with the
    unmutated table."""
    checker = Classifier()
    firsts: dict = {}
    for phi in CORPUS:
        firsts.setdefault(checker.levels(phi, n), phi)
    reps = list(firsts.values())
    layer = [conn(a, b) for conn in (And, Or, Imp) for a in reps for b in reps]
    layer += [quant(var, a) for quant in (Exists, Forall) for var in "xy" for a in reps]
    known = set(CORPUS)
    return CORPUS + [phi for phi in dict.fromkeys(layer) if phi not in known]


def _closure_floors(formulas: list, n: int) -> list:
    """Each formula's least Sigma+ / Pi+ levels over its degree-``n``
    closure, ``inf`` for none."""
    transitions: oracle.Transitions = {}
    floors = []
    for phi in formulas:
        closure = oracle.reachable_set(phi, n, transitions=transitions)
        assert closure.exhausted
        floors.append(closure.floors)
    return floors


def test_every_wrong_clause_premise_is_killed(monkeypatch):
    degrees = []
    for n in range(3):
        formulas = _with_key_layer(n)
        assert len(formulas) - len(CORPUS) == (380, 380, 313)[n]
        degrees.append((n, formulas, _closure_floors(formulas, n)))

    def agrees() -> bool:
        checker = Classifier()
        return all(
            checker.levels(phi, n) == floor
            for n, formulas, floors in degrees
            for phi, floor in zip(formulas, floors)
        )

    assert agrees()
    mutants = dict(_clause_mutants())
    assert len(mutants) == 384
    survivors = set()
    for name, table in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(semiclassical, "_CLAUSES", table)
            if agrees():
                survivors.add(name)
    assert survivors == EQUIVALENT_CLAUSE_MUTANTS
