import contextlib
import gc
import io
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prenexify import cli, formula
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
    fresh_variable,
    rename_bound,
    replace_at,
    subformula_at,
    subformulas,
)
from prenexify.normalizer import normalize_J, normalize_R
from prenexify.oracle import enumerate_formulas
from prenexify.parser import parse, render
from prenexify.rewrite import trace_from_text, trace_to_text, verify_trace
from prenexify.selftest import default_signature
from prenexify.semiclassical import INF, Classifier

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


def node_count(phi):
    """The number of nodes of ``phi`` as a tree, shared nodes counted at
    each occurrence."""
    return sum(1 for _ in subformulas(phi))


def positions(phi):
    """Every position of ``phi`` in preorder (root first, left before right
    before body), without recursion."""
    stack = [((), phi)]
    while stack:
        pos, node = stack.pop()
        yield pos
        if isinstance(node, (And, Or, Imp)):
            stack.append((pos + ("r",), node.right))
            stack.append((pos + ("l",), node.left))
        elif isinstance(node, (Exists, Forall)):
            stack.append((pos + ("b",), node.body))


def test_interning_makes_equality_identity():
    assert And(Px, Qy) is And(Px, Qy)
    assert Exists("x", Px) is Exists("x", Px)
    assert And(Px, Qy) is not And(Qy, Px)


def test_free_vars():
    assert And(Px, Qy).free == ("x", "y")
    assert Exists("x", Px).free == ()
    # the disjunct's x is free even though the left one is bound
    assert Or(Exists("x", Prime("P", ("x", "y"))), Qx).free == ("x", "y")


def test_is_quantifier_free():
    assert Imp(Px, FALSUM).is_qf
    assert not Exists("x", Px).is_qf
    assert Or(And(Px, Qx), FALSUM).is_qf


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


def test_canonical_binders_share_one_name_string():
    exists = alpha_canonical(parse("exists x. P(x)"))
    forall = alpha_canonical(parse("forall y. Q(y)"))
    assert exists.var is forall.var == "v0"


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
    same = alpha_canonical(phi) is alpha_canonical(psi)
    assert same == (debruijn(phi) == debruijn(psi))


@settings(max_examples=200)
@given(formulas())
def test_alpha_canonical_is_idempotent_and_preserves_structure(phi):
    canon = alpha_canonical(phi)
    assert alpha_canonical(canon) is canon
    assert canon.free == phi.free
    assert node_count(canon) == node_count(phi)
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
    assert fresh_variable(phi.vars) not in phi.vars


def test_the_mask_fresh_choice_is_fresh_variable():
    # seeded name sets, v-names among them, read back as a node's mask
    rng = random.Random(35)
    pool = [f"v{i}" for i in range(8)] + ["x", "y", "v10", "w0"]
    for draw in range(500):
        names = rng.sample(pool, rng.randrange(len(pool) + 1))
        phi = Prime(f"Fresh{draw}", tuple(names))
        expected = next(f"v{i}" for i in range(len(pool) + 1) if f"v{i}" not in names)
        assert fresh_variable(names) == expected
        assert fresh_variable((), formula._vars_mask(phi)) == expected
        assert fresh_variable(names[:2], formula._vars_mask(phi)) == expected


def test_repr_gives_a_small_formula_s_text_and_a_large_one_s_size():
    small = And(Prime("P", ("x",)), Exists("y", Prime("P", ("x",))))
    assert repr(small) == "<And P(x) & exists y. P(x)>"
    # the tree of a 40-level DAG has 3 * 2**40 - 2 nodes, and its text doubles
    # with each level; its repr reads each distinct node once
    phi = Prime("P", ("x",))
    for _ in range(40):
        phi = And(phi, Exists("x", phi))
    start = time.perf_counter()
    text = repr(phi)
    assert time.perf_counter() - start < 0.5
    assert text == f"<And of {3 * 2**40 - 2} nodes>"
    # the bound is on the tree's node count: one node more shows the size
    chain = Prime("P", ("x",))
    for _ in range(formula._REPR_NODES - 1):  # a tree of _REPR_NODES nodes
        chain = Exists("x", chain)
    assert repr(chain) == f"<Exists {chain}>"
    assert repr(Exists("x", chain)) == f"<Exists of {formula._REPR_NODES + 1} nodes>"


def test_the_canonical_form_of_a_5000_deep_distinct_binder_chain_reads_its_vars():
    # every binder gets its own canonical name, so the root has 5,002
    # variables; each node keeps two ints, not a tuple of its names
    phi = And(Exists("y", Prime("DeepP", ("y",))), Exists("y", Prime("DeepQ", ("y",))))
    for _ in range(5000):
        phi = Exists("x", phi)
    canon = alpha_canonical(phi)
    assert canon.vars == tuple(sorted(f"v{i}" for i in range(5002)))
    assert canon.free == ()
    nodes = _postorder([canon])
    assert len(nodes) == 5005
    assert all(type(node._vars) is int and type(node._free) is int for node in nodes)


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
        # no dropped node is left in a cycle (no node refers to itself)
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


def test_no_canonical_form_refers_to_itself():
    # _canon is a mark: True on a node that is its own canonical form, and
    # never a node, so it holds no reference, to itself or to another node
    canons = [alpha_canonical(phi) for phi in enumerate_formulas(default_signature(4))]
    assert all(canon._canon is True for canon in canons)
    assert all(alpha_canonical(canon) is canon for canon in canons)
    assert not [node for node in formula._interned.values() if node._canon is node]


# Every node gets its masks when it is built.  Each check below runs one
# way of building nodes with no sweep, and checks every node the run
# interned, and every node under what it returned, against an eager fold
# of the variable sets over the tree.


def _operands(node):
    if isinstance(node, (And, Or, Imp)):
        return (node.left, node.right)
    if isinstance(node, (Exists, Forall)):
        return (node.body,)
    return ()


def _postorder(roots):
    """Each distinct node under ``roots`` once, operands first."""
    order, seen, stack = [], set(), [(root, False) for root in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(_operands(node)))
    return order


def _tagged(roots, tag):
    """``roots`` rebuilt with ``tag`` appended to every predicate name."""
    copy = {}
    for node in _postorder(roots):
        if isinstance(node, Prime):
            copy[node] = Prime(node.name + tag, node.args)
        elif node is FALSUM:
            copy[node] = FALSUM
        elif isinstance(node, (Exists, Forall)):
            copy[node] = type(node)(node.var, copy[node.body])
        else:
            copy[node] = type(node)(copy[node.left], copy[node.right])
    return [copy[root] for root in roots]


def _reference_sets(order):
    """(free, vars) of every node of a postorder list, folded eagerly."""
    sets = {}
    for node in order:
        if isinstance(node, Prime):
            sets[node] = (set(node.args), set(node.args))
        elif node is FALSUM:
            sets[node] = (set(), set())
        elif isinstance(node, (Exists, Forall)):
            free, names = sets[node.body]
            sets[node] = (free - {node.var}, names | {node.var})
        else:
            (lf, lv), (rf, rv) = sets[node.left], sets[node.right]
            sets[node] = (lf | rf, lv | rv)
    return {node: (tuple(sorted(f)), tuple(sorted(v))) for node, (f, v) in sets.items()}


def _assert_masks_are_the_eager_fold(roots):
    """Every node under ``roots`` carries the masks of its free variables
    and of all its variables, as the eager fold reads them."""
    order = _postorder(roots)
    reference = _reference_sets(order)
    decoded = [(formula._decode(node._free), formula._decode(node._vars)) for node in order]
    # indices, not nodes: a deep node's text would swamp the failure report
    assert [i for i, node in enumerate(order) if decoded[i] != reference[node]] == []


def _interned_by(run, monkeypatch):
    """What ``run()`` returns, and the nodes it interned, with no sweep
    meanwhile."""
    monkeypatch.setattr(formula, "_sweep_at", sys.maxsize)
    before = set(formula._interned.values())
    roots = run()
    return roots, [node for node in formula._interned.values() if node not in before]


def test_masks_built_by_parse_and_classify_match_the_eager_fold(monkeypatch, tmp_path):
    # the corpus's text with predicate names of its own, so that the
    # classify command's parse builds every node
    lines = [
        render(phi).replace("P(", "ParsedP(").replace("Q(", "ParsedQ(")
        for phi in enumerate_formulas(default_signature(5))
    ]
    corpus = tmp_path / "parsed.txt"
    corpus.write_text("sig ParsedP/1 ParsedQ/1\n" + "\n".join(lines) + "\n")

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["classify", str(corpus), "--n", "0,1,2", "--k-max", "4"])
        assert code == 0 and out.getvalue().count("\n") == len(lines)
        return [parse(line) for line in lines]  # each an intern hit

    parsed, new = _interned_by(run, monkeypatch)
    assert len(new) > 5_000
    _assert_masks_are_the_eager_fold(parsed + new)


def _random_formula(rng, budget, tag):
    if budget <= 1:
        name, arity = rng.choice((("P", 1), ("Q", 1), ("R", 2), ("F", 0)))
        if arity == 0:
            return FALSUM
        return Prime(name + tag, tuple(rng.choice("xyz") for _ in range(arity)))
    shape = rng.randrange(5)
    if shape < 2:
        kind = (Exists, Forall)[shape]
        return kind(rng.choice("xyz"), _random_formula(rng, budget - 1, tag))
    left = rng.randrange(1, budget - 1) if budget > 2 else 1
    right = max(1, budget - 1 - left)
    return (And, Or, Imp)[shape - 2](
        _random_formula(rng, left, tag), _random_formula(rng, right, tag)
    )


def _corpus_and_random(tag):
    """The size-5 corpus and 300 random formulas, with predicate names of
    their own."""
    corpus = _tagged(list(enumerate_formulas(default_signature(5))), tag)
    rng = random.Random(37)
    return corpus + [_random_formula(rng, rng.randrange(1, 30), tag) for _ in range(300)]


def test_masks_set_while_normalizing_match_the_eager_fold(monkeypatch):
    # the merges, renamed bodies and replayed runs; the corpus binds v0,
    # v1, ..., the fresh names, so a renamed atom is new only in the
    # random formulas, over x, y and z
    corpus = _corpus_and_random("Normalized")

    def run():
        for n in range(3):
            checker = Classifier()
            for phi in corpus:
                for k, normalize in zip(checker.levels(phi, n), (normalize_J, normalize_R)):
                    if k == INF:
                        continue
                    result = normalize(phi, k, n, checker)
                    replayed = verify_trace(trace_from_text(trace_to_text(result.trace)))
                    assert replayed is result.output
        return corpus

    _, new = _interned_by(run, monkeypatch)
    assert len(new) > 2_000
    assert sum(isinstance(node, Prime) for node in new) > 50  # renamed atoms
    _assert_masks_are_the_eager_fold(corpus + new)


def test_masks_built_by_alpha_canonical_match_the_eager_fold(monkeypatch):
    corpus = _corpus_and_random("Canonical")
    canons, new = _interned_by(lambda: [alpha_canonical(phi) for phi in corpus], monkeypatch)
    assert len(new) > 2_000
    _assert_masks_are_the_eager_fold(canons + new)


def _chains(tag, depth):
    """Chains ``depth`` deep: a binder chain over two quantified atoms,
    quantifiers over implications whose atoms cycle through names, and a
    conjunction spine whose free names cycle."""
    exists = And(Exists("y", Prime("P" + tag, ("y",))), Exists("y", Prime("Q" + tag, ("y",))))
    alternation = Prime("R" + tag, ("x", "y"))
    spine = FALSUM
    for i in range(depth):
        exists = Exists("x", exists)
        var = f"u{i % 7}"
        alternation = (Exists, Forall)[i % 2](var, Imp(Prime("R" + tag, (var, "y")), alternation))
        spine = And(Prime("P" + tag, (f"w{i % 50}",)), spine)
    return [exists, alternation, spine]


def test_masks_built_on_5000_deep_chains_match_the_eager_fold(monkeypatch):
    chains, new = _interned_by(lambda: _chains("Chain", 5000), monkeypatch)
    assert len(new) > 3 * 5000
    _assert_masks_are_the_eager_fold(chains)


def test_a_100000_deep_chain_reads_its_sets():
    phi = Prime("Deep100k", ("x", "y"))
    for i in range(100_000):
        phi = (Exists, Forall)[i % 2]("x", phi)
    _assert_masks_are_the_eager_fold([phi])
    assert phi.free == ("y",)
    assert phi.vars == ("x", "y")
    assert phi.body.free == ("y",)
