import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prenexify import formula
from prenexify.formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Imp,
    Or,
    Prime,
    PositionError,
    alpha_canonical,
    alpha_equivalent,
    all_vars,
    free_vars,
    fresh_variable,
    is_quantifier_free,
    positions,
    rename_bound,
    replace_at,
    size,
    subformula_at,
)
from prenexify.oracle import enumerate_formulas
from prenexify.parser import parse, render
from prenexify.selftest import default_signature

Px = Prime("P", ("x",))
Py = Prime("P", ("y",))
Qx = Prime("Q", ("x",))
Qy = Prime("Q", ("y",))


def formulas(max_leaves=5):
    atoms = st.sampled_from([FALSUM, Px, Py, Qx, Qy])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub),
            st.builds(Exists, st.sampled_from(["x", "y"]), sub),
            st.builds(Forall, st.sampled_from(["x", "y"]), sub),
        ),
        max_leaves=max_leaves,
    )


def test_interning_makes_equality_identity():
    assert And(Px, Qy) is And(Px, Qy)
    assert Exists("x", Px) is Exists("x", Px)
    assert And(Px, Qy) is not And(Qy, Px)


def test_free_vars():
    assert free_vars(And(Px, Qy)) == ("x", "y")
    assert free_vars(Exists("x", Px)) == ()
    # the disjunct's x is free even though the left one is bound
    assert free_vars(Or(Exists("x", Prime("P", ("x", "y"))), Qx)) == ("x", "y")


def test_is_quantifier_free():
    assert is_quantifier_free(Imp(Px, FALSUM))
    assert not is_quantifier_free(Exists("x", Px))
    assert is_quantifier_free(Or(And(Px, Qx), FALSUM))


def test_subformula_at():
    phi = And(Exists("x", Px), Qy)
    assert subformula_at(phi, ("l",)) is Exists("x", Px)
    assert subformula_at(phi, ()) is phi
    phi = Forall("x", Imp(Px, Qx))
    assert subformula_at(phi, ("b", "r")) is Qx
    with pytest.raises(PositionError):
        subformula_at(phi, ("l",))


def test_replace_at():
    assert replace_at(And(Px, Qy), ("r",), FALSUM) is And(Px, FALSUM)
    assert replace_at(Px, (), Qy) is Qy
    # literal occurrence replacement: capture is permitted by design
    assert replace_at(Exists("x", Px), ("b",), Qx) is Exists("x", Qx)


def test_positions_cover_subformulas():
    phi = Forall("x", Imp(Px, And(Qx, FALSUM)))
    nodes = {subformula_at(phi, p) for p in positions(phi)}
    assert nodes == {phi, Imp(Px, And(Qx, FALSUM)), Px, And(Qx, FALSUM), Qx, FALSUM}


def test_fresh_variable():
    assert fresh_variable({"x", "y"}) == "v0"
    assert fresh_variable({"v0"}) == "v1"
    assert fresh_variable(set()) == "v0"


def test_rename_bound():
    assert rename_bound(Exists("x", Px), "v0") is Exists("v0", Prime("P", ("v0",)))
    with pytest.raises(ValueError):
        rename_bound(Exists("x", Px), "x")  # x appears in the body


def test_alpha_canonical_examples():
    assert alpha_canonical(Exists("x", Px)) is alpha_canonical(Exists("y", Py))
    assert alpha_canonical(Px) is Px
    # inner binder wins under shadowing
    shadowed = Forall("x", Exists("x", Px))
    canon = alpha_canonical(shadowed)
    assert canon is Forall("v0", Exists("v1", Prime("P", ("v1",))))


def test_alpha_canonical_avoids_free_names():
    phi = Exists("x", Prime("P", ("x", "v0")))
    canon = alpha_canonical(phi)
    assert canon is Exists("v1", Prime("P", ("v1", "v0")))
    assert alpha_canonical(canon) is canon


# independent oracle: nameless (de Bruijn) conversion
def debruijn(phi, env=()):
    if isinstance(phi, Prime):
        args = tuple(
            env.index(a) if a in env else ("free", a) for a in phi.args
        )
        return ("prime", phi.name, args)
    if phi is FALSUM:
        return ("falsum",)
    if isinstance(phi, (And, Or, Imp)):
        return (type(phi).__name__, debruijn(phi.left, env), debruijn(phi.right, env))
    return (type(phi).__name__, debruijn(phi.body, (phi.var,) + env))


@settings(max_examples=300)
@given(formulas(), formulas())
def test_alpha_equivalence_matches_de_bruijn_oracle(phi, psi):
    assert alpha_equivalent(phi, psi) == (debruijn(phi) == debruijn(psi))


@settings(max_examples=200)
@given(formulas())
def test_alpha_canonical_is_idempotent_and_preserves_structure(phi):
    canon = alpha_canonical(phi)
    assert alpha_canonical(canon) is canon
    assert free_vars(canon) == free_vars(phi)
    assert size(canon) == size(phi)
    assert debruijn(canon) == debruijn(phi)
    for p in positions(phi):
        subformula_at(canon, p)  # canonicalization preserves shape


@settings(max_examples=200)
@given(formulas())
def test_replace_roundtrip(phi):
    for p in positions(phi):
        assert replace_at(phi, p, subformula_at(phi, p)) is phi


@settings(max_examples=200)
@given(formulas())
def test_fresh_variable_not_in_formula(phi):
    assert fresh_variable(all_vars(phi)) not in all_vars(phi)


# The sweep tests call formula._sweep() themselves, so that what they check
# does not depend on when the table's growth triggers one.


def test_sweep_keeps_held_nodes_and_frees_the_rest_at_once():
    held = Forall("x", Imp(Prime("Held", ("x",)), Exists("y", Qy)))
    canon = alpha_canonical(Exists("z", Prime("Held", ("z",))))
    gc.disable()
    try:
        gc.collect()
        Imp(Prime("Dropped", ("x",)), FALSUM)
        formula._sweep()
        # no dropped node is left in a cycle (atoms refer to themselves)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert Forall("x", Imp(Prime("Held", ("x",)), Exists("y", Qy))) is held
    assert Exists("v0", Prime("Held", ("v0",))) is canon
    assert alpha_canonical(canon) is canon
    assert ("P", "Dropped", ("x",)) not in formula._interned
    assert (">", Prime("Dropped", ("x",)), FALSUM) not in formula._interned


def test_sweeps_bound_the_table_by_the_growth_factor():
    formula._sweep()
    live = len(formula._interned)
    peak = 0
    for i in range(100_000):
        Imp(Prime("T", (f"t{i}",)), FALSUM)
        peak = max(peak, len(formula._interned))
    formula._sweep()
    assert peak <= formula._GROWTH * max(live, formula._SWEEP_FLOOR)
    assert len(formula._interned) <= live


def test_one_sweep_frees_a_dropped_5000_deep_chain():
    formula._sweep()
    live = len(formula._interned)
    phi = Prime("Deep", ("x",))
    for _ in range(5000):
        phi = Exists("x", phi)
    assert len(formula._interned) == live + 5001
    del phi
    formula._sweep()
    assert len(formula._interned) <= live


def test_alpha_canonical_forms_survive_a_sweep():
    def canonical_forms():
        corpus = list(enumerate_formulas(default_signature(4)))
        return corpus, [alpha_canonical(phi) for phi in corpus]

    texts = [render(canon) for canon in canonical_forms()[1]]
    corpus, canons = canonical_forms()
    formula._sweep()
    assert [alpha_canonical(phi) for phi in corpus] == canons
    assert [parse(text) for text in texts] == canons
    del corpus, canons
    formula._sweep()
    assert [render(canon) for canon in canonical_forms()[1]] == texts
