import gc
import inspect
import os
import random
import subprocess
import sys

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
    # a node that is its own canonical form is marked True, so a sweep
    # reads its reference count as it is
    canons = [alpha_canonical(phi) for phi in enumerate_formulas(default_signature(4))]
    assert all(canon._canon is True for canon in canons)
    assert all(alpha_canonical(canon) is canon for canon in canons)
    assert not [node for node in formula._interned.values() if node._canon is node]


# Variable sets are filled on first read.  Each check below builds its own
# nodes, with predicate names no other test uses, so that no set is filled
# before it is read.


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


_READ_ORDERS = [
    (sets, nodes) for sets in ("free first", "vars first") for nodes in ("root first", "root last")
]


def _check_lazy_sets(build, label):
    """Build fresh copies of ``build(tag)`` and read their sets in each of
    the four orders, against the eager reference."""
    for i, (sets, nodes) in enumerate(_READ_ORDERS):
        roots = build(f"{label}{i}")
        order = _postorder(roots)
        # every atom carries the tag, so a compound node above one is new
        fresh = set()
        for node in order:
            if isinstance(node, Prime) or any(c in fresh for c in _operands(node)):
                fresh.add(node)
        compound = [node for node in fresh if _operands(node)]
        assert compound, label
        assert all(node._free is None and node._vars is None for node in compound)
        reference = _reference_sets(order)
        if nodes == "root first":
            order.reverse()
        for index in ((0, 1) if sets == "free first" else (1, 0)):
            for node in order:
                read = node.free if index == 0 else node.vars
                assert read == reference[node][index], (label, sets, nodes, node)


def test_lazy_sets_match_the_eager_fold_on_the_size_5_corpus():
    corpus = list(enumerate_formulas(default_signature(5)))
    _check_lazy_sets(lambda tag: _tagged(corpus, tag), "Corpus")


def test_masks_set_while_normalizing_match_the_eager_fold(monkeypatch):
    # the merges, renamed bodies and replayed runs are built over filled
    # operands, so over filled inputs every node they build comes filled;
    # no sweep may drop a node meanwhile
    monkeypatch.setattr(formula, "_sweep_at", sys.maxsize)
    # the corpus binds v0, v1, ..., the fresh names, so a renamed atom is
    # new only in the random formulas, over x, y and z
    before = set(formula._interned.values())
    corpus = _tagged(list(enumerate_formulas(default_signature(5))), "Normalized")
    rng = random.Random(37)
    corpus += [_random_formula(rng, rng.randrange(1, 30), "Normalized") for _ in range(300)]
    read = set(formula._interned.values()) - before
    for phi in corpus:  # so that an intern hit on an input node is filled
        formula._fill(phi)
    for n in range(3):
        checker = Classifier()
        for phi in corpus:
            for k, normalize in zip(checker.levels(phi, n), (normalize_J, normalize_R)):
                if k == INF:
                    continue
                result = normalize(phi, k, n, checker)
                assert verify_trace(trace_from_text(trace_to_text(result.trace))) is result.output
    new = [node for node in formula._interned.values() if node not in before]
    built = [node for node in new if node not in read]
    assert len(read) > 10_000 and len(built) > 2_000
    assert sum(isinstance(node, Prime) for node in built) > 50  # renamed atoms
    assert all(node._vars is not None for node in built)
    filled = [node for node in new if node._vars is not None]
    reference = _reference_sets(_postorder(filled))
    for node in filled:
        assert (formula._decode(node._free), formula._decode(node._vars)) == reference[node]


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


def test_lazy_sets_match_the_eager_fold_on_random_formulas():
    def build(tag):
        rng = random.Random(2020)
        return [_random_formula(rng, rng.randrange(1, 40), tag) for _ in range(300)]

    _check_lazy_sets(build, "Random")


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


def test_lazy_sets_match_the_eager_fold_on_5000_deep_chains():
    _check_lazy_sets(lambda tag: _chains(tag, 5000), "Chain")


def _fill_visits(read):
    """How many times the fill walk visits a node while ``read()`` runs:
    line events at the top of its loop."""
    code = formula._fill.__code__
    lines, first = inspect.getsourcelines(formula._fill)
    top = first + next(i for i, line in enumerate(lines) if "node = stack[-1]" in line)
    visits = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == top:
            visits[0] += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        read()
    finally:
        sys.settrace(None)
    return visits[0]


def test_a_shared_dag_fills_each_set_once_per_node():
    # 81 distinct nodes, 120 edges, 2**40 paths from the root to the atom
    phi = Prime("Dag", ("x", "y"))
    for _ in range(40):
        phi = And(phi, Exists("x", phi))
    order = _postorder([phi])
    edges = sum(len(_operands(node)) for node in order)
    # a node is pushed once per edge of the DAG at most, and visited once
    # when pushed and once when popped
    visits = _fill_visits(lambda: phi.free)
    assert len(order) < visits <= 2 * (edges + 1), "the fill walks paths, not nodes"
    assert phi.free == ("x", "y")
    # the one walk filled both masks
    assert _fill_visits(lambda: phi.vars) == 0
    assert phi.vars == ("x", "y")


def test_a_100000_deep_chain_reads_its_sets():
    phi = Prime("Deep100k", ("x", "y"))
    for i in range(100_000):
        phi = (Exists, Forall)[i % 2]("x", phi)
    assert phi.free == ("y",)
    assert phi.vars == ("x", "y")
    assert phi.body.free == ("y",)


def test_building_and_classifying_the_size_5_corpus_merges_nothing(tmp_path):
    # a fresh process, so that every node is built from the text: neither
    # fills a mask or assigns a name a bit
    corpus = tmp_path / "size5.txt"
    lines = [render(phi) for phi in enumerate_formulas(default_signature(5))]
    corpus.write_text("sig P/1 Q/1\n" + "\n".join(lines) + "\n")
    script = """
import contextlib, io, sys
from prenexify import cli, formula
from prenexify.parser import parse_corpus
fills = [0]
fill = formula._fill
def counting(phi):
    fills[0] += 1
    return fill(phi)
formula._fill = counting
def filled():
    return sum(node._vars is not None for node in formula._interned.values())
with open(sys.argv[1]) as f:
    _, formulas, errors = parse_corpus(f)
built = fills[0], len(formula._bits), filled()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["classify", sys.argv[1], "--n", "0,1,2", "--k-max", "4"])
print(len(formulas), len(errors), *built, code, out.getvalue().count("\\n"),
      fills[0], len(formula._bits), filled())
"""
    src = os.path.dirname(os.path.dirname(formula.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    # no node is filled, FALSUM included: it is filled on first read, so no
    # node built over it is built filled
    expected = [str(len(lines)), "0", "0", "0", "0", "0", str(len(lines)), "0", "0", "0"]
    assert proc.stdout.split() == expected
