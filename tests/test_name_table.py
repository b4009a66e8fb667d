"""The name table under sweeps.  A sweep may run at any node construction
and frees the bits that no live node's filled mask holds, so a mask kept
across a construction that is not such a mask would read another name's
bit.  These tests sweep at every construction and check that nothing
changes, and check that the table holds only the names of live nodes."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from test_classify_cache import random_formula

from prenexify import formula
from prenexify.formula import And, Exists, Forall, Imp, Or, Prime
from prenexify.normalizer import normalize_J, normalize_R
from prenexify.parser import render
from prenexify.rewrite import trace_from_text, trace_to_text, verify_trace
from prenexify.selftest import run_selftest
from prenexify.semiclassical import INF, Classifier

SRC = Path(formula.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent

# run_selftest(size=4)'s check counts per criterion, in its order
SIZE4_CHECKS = [26520, 18403, 14144, 47060, 24150, 16, 59290]


def wide_merge_digests() -> dict[str, str]:
    """The digests ``test_byte_identity`` pins for the three wide merges."""
    digests = {}
    for conn in (And, Or, Imp):
        operands = [
            (Exists, Forall)[i % 2]("xyz"[i % 3], Prime("P", ("xyz"[i % 3],)))
            for i in range(40)
        ]
        phi = operands.pop()
        while operands:
            phi = conn(operands.pop(), phi)
        checker = Classifier()
        digest = hashlib.sha256()
        for normalize in (normalize_J, normalize_R):
            digest.update(trace_to_text(normalize(phi, 2, 1, checker).trace).encode())
        digests[conn.__name__] = digest.hexdigest()
    return digests


def random_normalizations() -> str:
    """A digest of 200 seeded normalizations at their least levels, each
    with the output, its text trace read back and replayed to it."""
    rng = random.Random(35)
    digest = hashlib.sha256()
    count = 0
    while count < 200:
        phi = random_formula(rng, rng.randint(8, 30))
        n = rng.randrange(3)
        checker = Classifier()
        for k, normalize in zip(checker.levels(phi, n), (normalize_J, normalize_R)):
            if k == INF:
                continue
            result = normalize(phi, k, n, checker)
            text = trace_to_text(result.trace)
            again = trace_from_text(text)
            assert trace_to_text(again) == text
            assert verify_trace(again) is result.output
            digest.update(f"{render(result.output)}\n{text}".encode())
            count += 1
    return digest.hexdigest()


def under_a_sweep_per_construction() -> None:
    """Print, as JSON, the three checks' results with a sweep at every
    node construction: run in a fresh process, whose table is small."""
    formula._sweep()
    formula._SWEEP_FLOOR = 0
    formula._GROWTH = 1
    sweeps = [0]
    sweep = formula._sweep

    def counting():
        sweeps[0] += 1
        sweep()

    formula._sweep = counting
    formula._sweep_at = 0  # from here, each new node sweeps
    wide = wide_merge_digests()
    random_digest = random_normalizations()
    checks = [result.checks for result in run_selftest(size=4)]
    print(json.dumps([wide, random_digest, checks, sweeps[0]]))


def _in_a_fresh_process(function: str):
    """What ``function`` of this module prints last, as JSON, run in a new
    interpreter: its intern table holds only what it builds."""
    script = f"import test_name_table as t; t.{function}()"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_masks_survive_a_sweep_at_every_node_construction():
    # imported here: the fresh process must not hold its corpus
    from test_byte_identity import WIDE_TRACES_SHA256

    wide, random_digest, checks, sweeps = _in_a_fresh_process("under_a_sweep_per_construction")
    assert wide == {conn.__name__: digest for conn, digest in WIDE_TRACES_SHA256.items()}
    assert random_digest == random_normalizations()
    assert checks == SIZE4_CHECKS
    assert sweeps > 10_000


def _live_names() -> set[str]:
    """The names of the bits of every filled mask in the intern table."""
    live = 0
    for node in formula._interned.values():
        if node._vars:
            live |= node._vars
    return set(formula._decode(live))


def thirty_thousand_names() -> None:
    """Print, as JSON, what the name table holds while and after 3,000
    formulas, each a conjunction of ten quantified atoms over names no
    other formula uses, are normalized and replayed: run in a fresh
    process, so that the sweeps come as they do at its table's size."""
    formula._sweep()
    kept = None
    widest = 0
    for i in range(3000):
        names = [f"u{i}_{j}" for j in range(10)]
        phi = Prime("Bounded", (names[0],))
        for j, name in enumerate(names):
            phi = And((Exists, Forall)[j % 2](name, Prime("Bounded", (name,))), phi)
        result = normalize_J(phi, 11, 1)
        again = trace_from_text(trace_to_text(result.trace))
        assert verify_trace(again) is result.output
        widest = max(widest, len(formula._names))
        kept = result  # the last one stays alive
    formula._sweep()
    masks = [node._vars for node in formula._interned.values() if node._vars]
    print(json.dumps({
        "names": sorted(formula._bits),
        "live": sorted(_live_names()),
        "free": kept.output.free,
        "widest_table": widest,
        "widest_mask": max(mask.bit_length() for mask in masks),
    }))


def test_the_name_table_holds_the_names_of_live_nodes():
    table = _in_a_fresh_process("thirty_thousand_names")
    # the last formula stays alive, and the table holds its names alone
    assert table["names"] == table["live"]
    assert {f"u2999_{j}" for j in range(10)} <= set(table["names"])
    assert not any(name.startswith("u2998_") for name in table["names"])
    assert table["free"] == ["u2999_0"]
    # the table is as wide as the names the unswept nodes hold, not the
    # 30,000 the loop used
    assert table["widest_table"] < 3_000
    assert table["widest_mask"] < 3_000


def test_one_sweep_frees_every_dead_canonical_form():
    # a formula's _canon points at a node built after it, which a sweep
    # reads first; the one sweep must still free both
    run_selftest(size=4)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        formula._sweep()
        left = len(formula._interned)
        formula._sweep()
        assert len(formula._interned) == left
    finally:
        if enabled:
            gc.enable()


class _CountingTable(dict):
    """The intern table, counting the entries ``popitem`` pops."""

    pops = 0

    def popitem(self):
        self.pops += 1
        return super().popitem()


def _one_more_pass() -> int:
    """How many nodes a further pass of the table, as a sweep reads it,
    finds that only the table holds: the table's entries stay."""
    table = formula._interned
    keys, nodes = [], []
    dead = 0
    while table:
        key, node = table.popitem()
        dead += sys.getrefcount(node) <= formula._IDLE
        keys.append(key)
        nodes.append(node)
    table.update(zip(reversed(keys), reversed(nodes)))
    return dead


def sweeps_after_reachability_searches() -> None:
    """Print, as JSON, per sweep while ``reachable_set`` closes the size-5
    corpus at n <= 2 as criterion 1 does: the entries before it, the
    entries it popped, the entries left, and how many of those a further
    pass would drop.  Run in a fresh process: its table holds only what
    it builds, and the sweep settings it lowers are its own."""
    from prenexify.oracle import enumerate_formulas, reachable_set
    from prenexify.selftest import default_signature

    formula._interned = _CountingTable(formula._interned)
    records = []
    sweep = formula._sweep

    def recorded():
        table = formula._interned
        before, table.pops = len(table), 0
        sweep()
        records.append([before, table.pops, len(table), _one_more_pass()])

    formula._sweep = recorded
    corpus = list(enumerate_formulas(default_signature(5)))
    formula._sweep()
    formula._SWEEP_FLOOR = 0
    formula._GROWTH = 1.05  # so that sweeps come while the searches run
    formula._sweep_at = int(1.05 * len(formula._interned))
    for n in range(3):
        transitions = {}  # one per degree, as criterion 1 keeps them
        for phi in corpus:
            reachable_set(phi, n, transitions=transitions)
        del transitions
        formula._sweep()
    print(json.dumps(records))


def test_a_sweep_reads_the_table_once_and_frees_what_repeated_passes_free():
    # a dead successor's _canon holds its canonical form, built after it:
    # the sweep frees both without a second pass over the table
    records = _in_a_fresh_process("sweeps_after_reachability_searches")
    assert len(records) > 10
    assert sum(after < before for before, _, after, _ in records) > 5
    for before, pops, after, dead in records:
        assert pops == before  # every entry popped once
        assert dead == 0  # a further pass drops nothing: the live set is final
