"""Criteria 1 to 5 and 7 of the selftest: their check counts, the faults
they must catch, and the data criterion 7 draws; and the split of
``run_selftest`` between the calling process and two forked workers.

Criteria 1, 3, 4 and 5's faults are planted in ``semiclassical._least_levels``, the
one place the classifier computes a node's least levels (k_J, k_R) at a
degree, so every membership the criterion reads sees them.  Criterion
2's faults are planted in ``prenex_form`` as the selftest calls it, only
at levels above a formula's least one, where its normal form is the one
already checked at the least level.  Criterion 7's faults are planted
in the ``apply_step`` and ``trace_from_text`` it calls, and its seeded
data is pinned by a digest, so a change to how it is drawn shows.

The calling process runs criteria 1 and 5; every other task (criterion
7, criterion 2 at each degree, criteria 3 and 4, criterion 6) is taken
from a shared queue by two forked workers wherever ``os.fork`` exists.
The tests below check that the forked run and the in-process run agree,
that a fault planted before the call reaches the workers, that the
caller runs no queued task and makes one reachability search per
formula and degree, that the progress messages the benchmark slices on
keep their order, and that no worker outlives ``run_selftest``, whether
it returns or raises, or one worker fails while the other still works.
"""

import hashlib
import itertools
import math
import os
import time

import pytest

from prenexify import forked, oracle, selftest, semiclassical
from prenexify.formula import And, Exists, Forall, Or, fresh_variable
from prenexify.oracle import enumerate_formulas
from prenexify.parser import ParseError, parse, render
from prenexify.rewrite import RewriteStep, Trace, applicable_steps, apply_step
from prenexify.selftest import _check_monotonicity, default_signature, run_selftest

CORPUS = list(enumerate_formulas(default_signature(4)))
N_MAX = 2
K_MAX = 4

_least_levels = semiclassical._least_levels


def _n_monotonicity_broken(conn, n, pairs):
    # at n = 1 every node with a quantifier needs one level more, so it
    # leaves classes it was in at n = 0
    k_j, k_r = _least_levels(conn, n, pairs)
    return (k_j + 1, k_r + 1) if n == 1 else (k_j, k_r)


def _or_lowered(conn, n, pairs):
    k_j, k_r = _least_levels(conn, n, pairs)
    if conn is Or:
        return max(1, k_j - 1), max(1, k_r - 1)
    return k_j, k_r


def _exists_out_of_j_at_0(conn, n, pairs):
    k_j, k_r = _least_levels(conn, n, pairs)
    if conn is Exists and n == 0:
        return math.inf, k_r
    return k_j, k_r


# each fault with the first failure criterion 4 reports for it
FAULTS = {
    "n-monotonicity": (
        _n_monotonicity_broken,
        "n-monotonicity fails exists v0. false k=1 n=0",
    ),
    "or-lowered": (
        _or_lowered,
        "inversion fails for false | exists v0. false k=1 n=0",
    ),
    "exists-out-of-j": (
        _exists_out_of_j_at_0,
        "cumulativity fails exists v0. false k=2 n=0",
    ),
}


def _exists_in_no_class_at_0(conn, n, pairs):
    k_j, k_r = _least_levels(conn, n, pairs)
    return (math.inf, math.inf) if conn is Exists and n == 0 else (k_j, k_r)


def test_criterion_1_reports_each_level_and_side_of_a_planted_fault(monkeypatch):
    # exists v0. false reaches Sigma_1+ and Pi_2+: each level at which a
    # side's verdicts differ fails once, levels ascending, J before R
    monkeypatch.setattr(semiclassical, "_least_levels", _exists_in_no_class_at_0)
    c1 = selftest.CriterionResult("criterion-1 characterization", True, 0)
    c5 = selftest.CriterionResult("criterion-5 backward closure", True, 0)
    budget = oracle.DEFAULT_NODE_BUDGET
    for n in range(N_MAX + 1):
        selftest._check_degree(c1, c5, CORPUS, n, K_MAX, budget, None)
    assert c1.checks == 2 * len(CORPUS) * (N_MAX + 1) * (K_MAX + 1) == 26520
    assert c1.failures[:4] == [
        f"{side} mismatch exists v0. false k={k} n=0: classifier=False oracle=True"
        for side, k in (("J", 1), ("J", 2), ("R", 2), ("J", 3))
    ]


def test_criterion_4_passes_and_counts_each_distinct_check_once():
    result = _check_monotonicity(CORPUS, N_MAX, K_MAX, semiclassical.Classifier())
    assert result.passed, result.line()
    checker = semiclassical.Classifier()
    expected = 0
    for phi in CORPUS:
        expected += (N_MAX + 1) * (K_MAX + 1)  # cumulativity in k
        expected += N_MAX * (K_MAX + 1)  # monotonicity in n
        expected += K_MAX + 1  # the prenex inclusions
        for n in range(N_MAX + 1):
            for k in range(K_MAX + 1):
                if any(checker.decide(phi, k, n)):
                    expected += 1  # subformula closure of D
                    expected += k >= 1  # the inversion laws
    assert result.checks == expected == 47060


@pytest.mark.parametrize("fault, first", FAULTS.values(), ids=FAULTS)
def test_criterion_4_catches_a_planted_classifier_fault(monkeypatch, fault, first):
    monkeypatch.setattr(semiclassical, "_least_levels", fault)
    result = _check_monotonicity(CORPUS, N_MAX, K_MAX, semiclassical.Classifier())
    assert not result.passed
    assert result.failures[0] == first


def test_criterion_3_catches_a_planted_classifier_fault(monkeypatch):
    # at n = 1 every level is one too high, so J_1^1 differs from J_1^2
    monkeypatch.setattr(semiclassical, "_least_levels", FAULTS["n-monotonicity"][0])
    result = selftest._check_stabilization(CORPUS, K_MAX, semiclassical.Classifier())
    assert not result.passed
    assert result.failures[0] == "J/R not stable for exists v0. false k=1 n=2"


def test_criterion_4_catches_an_or_below_its_operand(monkeypatch):
    # the operand is in D_2 and no lower; the lowered Or is in D_1
    monkeypatch.setattr(semiclassical, "_least_levels", FAULTS["or-lowered"][0])
    phi = parse("false | exists x. forall y. P(x, y)")
    result = _check_monotonicity([phi], N_MAX, K_MAX, semiclassical.Classifier())
    assert not result.passed
    assert result.failures[0] == f"subformula closure fails {render(phi)} k=1 n=0"


def test_criterion_5_checks_each_cached_successor_once_at_its_own_degree():
    # each successor cached at a degree is checked at that degree alone;
    # the higher degrees' tables hold it again (see the test below)
    c1 = selftest.CriterionResult("criterion-1 characterization", True, 0)
    c5 = selftest.CriterionResult("criterion-5 backward closure", True, 0)
    budget = oracle.DEFAULT_NODE_BUDGET
    for n in range(N_MAX + 1):
        selftest._check_degree(c1, c5, CORPUS, n, K_MAX, budget, None)
    assert (c1.passed, c5.passed) == (True, True)
    assert c5.checks == 12250


def _is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(item in rest for item in short)


def test_each_degree_s_edges_are_edges_at_every_higher_degree(monkeypatch):
    # the lemma criterion 5 rests on: a degree-n step is a step at n + 1,
    # so each degree's table is within the next one's, and checking each
    # table at its own degree makes every check that checking it at each
    # higher degree made
    tables = {}
    check = selftest._check_backward_closure

    def recorded(result, expanded, n, k_max, checker):
        tables[n] = dict(expanded)
        check(result, expanded, n, k_max, checker)

    monkeypatch.setattr(selftest, "_check_backward_closure", recorded)
    c1 = selftest.CriterionResult("criterion-1 characterization", True, 0)
    c5 = selftest.CriterionResult("criterion-5 backward closure", True, 0)
    for n in range(N_MAX + 1):
        selftest._check_degree(c1, c5, CORPUS, n, K_MAX, oracle.DEFAULT_NODE_BUDGET, None)
    assert sorted(tables) == list(range(N_MAX + 1))
    for n, table in tables.items():
        for state in table:
            assert _is_subsequence(applicable_steps(state, n), applicable_steps(state, n + 1))
        if n < N_MAX:
            higher = tables[n + 1]
            assert all(_is_subsequence(table[s], higher.get(s, ())) for s in table)
            assert table.keys() <= higher.keys()
    checked = {(s, t, n) for n, table in tables.items() for s in table for t in table[s]}
    each_higher_degree = {
        (s, t, m)
        for n, table in tables.items()
        for s in table
        for t in table[s]
        for m in range(n, N_MAX + 1)
    }
    assert checked == each_higher_degree
    assert c5.checks == 2 * (K_MAX + 1) * len(checked) == 12250


def _and_in_no_class_at_0(conn, n, pairs):
    k_j, k_r = _least_levels(conn, n, pairs)
    return (math.inf, math.inf) if conn is And and n == 0 else (k_j, k_r)


def test_criterion_5_catches_a_planted_classifier_fault(monkeypatch):
    # a hoist out of the And reaches a quantifier, which keeps its classes
    monkeypatch.setattr(semiclassical, "_least_levels", _and_in_no_class_at_0)
    c1 = selftest.CriterionResult("criterion-1 characterization", True, 0)
    c5 = selftest.CriterionResult("criterion-5 backward closure", True, 0)
    selftest._check_degree(c1, c5, CORPUS, 0, K_MAX, oracle.DEFAULT_NODE_BUDGET, None)
    assert not c5.passed
    assert c5.failures[0] == (
        "J not backward closed: false & exists v0. false ~> exists v0. false & false k=1 n=0"
    )


def _and_in_no_class_at_1(conn, n, pairs):
    k_j, k_r = _least_levels(conn, n, pairs)
    return (math.inf, math.inf) if conn is And and n == 1 else (k_j, k_r)


def test_criterion_5_catches_a_fault_at_degree_1_alone(monkeypatch):
    # the degree-0 edge that shows the fault is checked at degree 1 from
    # degree 1's own table
    monkeypatch.setattr(semiclassical, "_least_levels", _and_in_no_class_at_1)
    c1 = selftest.CriterionResult("criterion-1 characterization", True, 0)
    c5 = selftest.CriterionResult("criterion-5 backward closure", True, 0)
    for n in range(N_MAX + 1):
        selftest._check_degree(c1, c5, CORPUS, n, K_MAX, oracle.DEFAULT_NODE_BUDGET, None)
    assert not c5.passed
    assert c5.failures[0] == (
        "J not backward closed: false & exists v0. false ~> exists v0. false & false k=1 n=1"
    )


def test_a_criterion_with_no_checks_fails():
    # no formula below size 4 has a rewrite edge, so criterion 5 checks none
    results = run_selftest(size=3)
    c5 = results[4]
    assert (c5.name, c5.passed, c5.checks) == ("criterion-5 backward closure", False, 0)
    assert c5.failures == ["no checks were made"]
    assert all(r.passed and r.checks for r in results if r is not c5), _outcomes(results)


def _last_step_dropped(phi, output, steps):
    return output, steps[:-1]


def _output_left_as_input(phi, output, steps):
    return phi, steps


def _last_step_repeated(phi, output, steps):
    return output, steps + (steps[-1],)


def _input_returned_with_no_steps(phi, output, steps):
    return phi, ()


def _root_var_rename_appended(phi, output, steps):
    # a replayable step that renames alone: only the trace's length is wrong
    rule = "ForallVar" if isinstance(output, Forall) else "ExistsVar"
    step = RewriteStep(rule, (), fresh_variable(output.vars))
    return apply_step(output, step, 0), steps + (step,)


NORMAL_FORM_FAULTS = {
    fault.__name__: (fault, first)
    for fault, first in [
        (_last_step_dropped, "replay diverges for false & exists v0. false k=2 n=0"),
        (_output_left_as_input, "replay diverges for false & exists v0. false k=2 n=0"),
        (
            _last_step_repeated,
            "trace replay failed for false & exists v0. false k=2 n=0: step 1 "
            "failed: AndExists does not match exists v0. false & false",
        ),
        (
            _input_returned_with_no_steps,
            "output false & exists v0. false not in target class (sigma 2) "
            "for false & exists v0. false n=0",
        ),
        (
            _root_var_rename_appended,
            "2 steps for a measure drop of 1: false & exists v0. false k=2 n=0",
        ),
    ]
}


def _above_the_least_level(fault, prenex_form):
    def faulty(phi, k, n, target, checker):
        output, steps = prenex_form(phi, k, n, target, checker)
        if k > checker.levels(phi, n)[0 if target == "sigma" else 1] and steps:
            return fault(phi, output, steps)
        return output, steps

    return faulty


def test_criterion_2_counts_one_check_per_positive_verdict():
    c2 = run_selftest(size=4)[1]
    assert c2.passed, c2.line()
    checker = semiclassical.Classifier()
    expected = sum(
        sum(checker.decide(phi, k, n))
        for phi in CORPUS
        for n in range(N_MAX + 1)
        for k in range(K_MAX + 1)
    )
    assert c2.checks == expected == 18403


@pytest.mark.parametrize("fault, first", NORMAL_FORM_FAULTS.values(), ids=NORMAL_FORM_FAULTS)
def test_criterion_2_catches_a_fault_above_the_least_level(monkeypatch, fault, first):
    monkeypatch.setattr(
        selftest, "prenex_form", _above_the_least_level(fault, selftest.prenex_form)
    )
    c2 = run_selftest(size=4)[1]
    assert not c2.passed and c2.checks == 18403
    assert c2.failures[0] == first


# SHA-256 of the first 2,000 formulas and degrees criterion 7 draws at the
# default seed, one ``render(phi)\tn`` line each
DRAWS_SHA256 = "1b25961f6cd27e28c6961e577304fe435fb3d976e0006b787b3f03e754625aba"


def test_criterion_7_draws_are_pinned():
    draws = itertools.islice(selftest._random_draws(selftest.DEFAULT_SEED), 2000)
    text = "".join(f"{render(phi)}\t{n}\n" for phi, n, _, _ in draws)
    assert hashlib.sha256(text.encode()).hexdigest() == DRAWS_SHA256


@pytest.mark.parametrize("seed, checks", [(selftest.DEFAULT_SEED, 59290), (1001, 58600)])
def test_criterion_7_counts(seed, checks):
    c7 = selftest._check_rewrite_conformance(seed)
    assert c7.passed, c7.line()
    assert c7.checks == checks


def test_criterion_7_catches_a_reader_that_drops_a_fresh_name(monkeypatch):
    read = selftest.trace_from_text

    def dropping(text):
        trace = read(text)
        return Trace(trace.start, tuple(s._replace(fresh=None) for s in trace.steps), trace.n)

    monkeypatch.setattr(selftest, "trace_from_text", dropping)
    c7 = selftest._check_rewrite_conformance(selftest.DEFAULT_SEED)
    assert not c7.passed and c7.checks == 59290
    assert c7.failures[0].startswith("trace text round-trip unstable for ")


def _two_steps(phi, step, n):
    # the hoisted quantifier goes on past the connective above it, where a
    # rule lets it: one step more than was asked for
    psi = apply_step(phi, step, n)
    above = step.position[:-1]
    for again in applicable_steps(psi, n) if step.position else ():
        if again.position == above:
            return apply_step(psi, again, n)
    return psi


def test_criterion_7_catches_a_step_that_moves_a_quantifier_past_two_connectives(monkeypatch):
    monkeypatch.setattr(selftest, "apply_step", _two_steps)
    c7 = selftest._check_rewrite_conformance(selftest.DEFAULT_SEED)
    assert not c7.passed and c7.checks == 59290
    assert c7.failures[0] == (
        "measure not decreased by 1: P(y) | (exists x. P(x)) -> Q(x) via OrExists"
    )


def _hoist_dropped(phi, step, n):
    return phi


def test_criterion_7_catches_a_dropped_hoist(monkeypatch):
    monkeypatch.setattr(selftest, "apply_step", _hoist_dropped)
    c7 = selftest._check_rewrite_conformance(selftest.DEFAULT_SEED)
    assert not c7.passed and c7.checks == 59290
    assert c7.failures[0] == (
        "measure not decreased by 1: (forall y. exists x. P(x) & false) & P(y) via ForallAnd"
    )


forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def _outcomes(results):
    return [(r.name, r.passed, r.checks, r.failures) for r in results]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
def test_forked_and_in_process_runs_agree(monkeypatch):
    forked = run_selftest(size=4)
    _assert_no_child_left()
    monkeypatch.setattr(selftest, "_FORKS", False)
    assert _outcomes(forked) == _outcomes(run_selftest(size=4))


@forks
@pytest.mark.parametrize("fault, first", FAULTS.values(), ids=FAULTS)
def test_a_fault_planted_before_the_call_reaches_the_child(monkeypatch, fault, first):
    monkeypatch.setattr(semiclassical, "_least_levels", fault)
    c4 = run_selftest(size=4)[3]
    assert not c4.passed
    alone = _check_monotonicity(CORPUS, N_MAX, K_MAX, semiclassical.Classifier())
    assert c4.failures[0] == first == alone.failures[0]


PHASE_ENDS = [
    "corpus: 884 alpha-distinct formulas up to size 4",
    "degree 0 done",
    "degree 1 done",
    "degree 2 done",
    "stabilization done",
    "monotonicity done",
    "pinned negatives done",
    "rewrite conformance done",
]


def _record_forks(monkeypatch) -> list[int]:
    """The pids of the children ``os.fork`` makes from here on."""
    children = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return children


@forks
def test_phase_ends_keep_their_order_and_follow_the_child(monkeypatch):
    children = _record_forks(monkeypatch)
    messages = []
    reaped = []

    def progress(message):
        messages.append(message)
        if message == "rewrite conformance done":
            for child in children:
                with pytest.raises(ChildProcessError):
                    os.waitpid(child, os.WNOHANG)
                reaped.append(True)

    run_selftest(size=4, progress=progress)
    assert [m for m in messages if not m.startswith(" ")] == PHASE_ENDS
    assert len(children) == 2 and reaped == [True, True]


QUEUED = [
    "_check_rewrite_conformance",
    "_check_normal_forms",
    "_check_levels_suites",
    "_check_pinned_negatives",
]


@forks
def test_the_caller_runs_no_queued_task(monkeypatch, tmp_path):
    children = _record_forks(monkeypatch)
    log = tmp_path / "tasks"

    def logged(name, check):
        def run(*args):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{name} {os.getpid()}\n")
            return check(*args)

        return run

    for name in QUEUED:
        monkeypatch.setattr(selftest, name, logged(name, getattr(selftest, name)))
    results = run_selftest(size=4)
    assert all(result.passed for result in results)
    runs = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert sorted(name for name, _ in runs) == sorted(QUEUED + ["_check_normal_forms"] * N_MAX)
    assert {int(pid) for _, pid in runs} <= set(children)
    assert len(children) == 2 and os.getpid() not in children


@forks
def test_the_caller_makes_one_search_per_formula_and_degree(monkeypatch):
    degrees = []
    search = oracle.reachable_set

    def counted(phi, n, *args, **kwargs):
        degrees.append(n)
        return search(phi, n, *args, **kwargs)

    monkeypatch.setattr(oracle, "reachable_set", counted)
    run_selftest(size=4)
    assert len(degrees) == len(CORPUS) * (N_MAX + 1)
    assert sorted(set(degrees)) == list(range(N_MAX + 1))


def _sleep(seed):
    time.sleep(120)


def _exit_3(budget):
    os._exit(3)


def _raise_value_error(budget):
    raise ValueError("planted")


@forks
@pytest.mark.parametrize(
    "failing, raised", [(_raise_value_error, ValueError), (_exit_3, RuntimeError)]
)
def test_a_failing_worker_ends_the_other(monkeypatch, failing, raised):
    # criterion 7, the first task, keeps one worker asleep; the other
    # takes the rest and fails at criterion 6, the last
    monkeypatch.setattr(selftest, "_check_rewrite_conformance", _sleep)
    monkeypatch.setattr(selftest, "_check_pinned_negatives", failing)
    start = time.monotonic()
    with pytest.raises(raised):
        run_selftest(size=4)
    assert time.monotonic() - start < 60
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [pytest.param(2, marks=forks), 0])
def test_the_queue_runs_each_task_once_past_256_tasks(workers):
    # a byte names the tasks b, b + 256, ... once there are more than 256
    tasks = [lambda index=index: index * index for index in range(600)]
    assert forked.run_tasks(tasks, workers, lambda: None) == [i * i for i in range(600)]
    _assert_no_child_left()


def _raise_planted(seed):
    raise ValueError("planted")


@forks
def test_an_exception_in_the_child_is_raised_by_the_caller(monkeypatch):
    monkeypatch.setattr(selftest, "_check_rewrite_conformance", _raise_planted)
    with pytest.raises(ValueError) as raised:
        run_selftest(size=4)
    assert type(raised.value) is ValueError and str(raised.value) == "planted"
    _assert_no_child_left()


def _raise_parse_error(seed):
    raise ParseError("planted", 1, 2)


@forks
def test_an_exception_pickle_cannot_rebuild_is_named_in_a_runtime_error(monkeypatch):
    # ParseError takes three arguments but keeps one in ``args``
    monkeypatch.setattr(selftest, "_check_rewrite_conformance", _raise_parse_error)
    with pytest.raises(RuntimeError) as raised:
        run_selftest(size=4)
    assert str(raised.value) == "ParseError: 1:2: planted"
    _assert_no_child_left()


@forks
@pytest.mark.parametrize("status", [3, 0])
def test_a_child_that_exits_without_a_result_is_an_error(monkeypatch, status):
    monkeypatch.setattr(selftest, "_check_pinned_negatives", lambda budget: os._exit(status))
    with pytest.raises(RuntimeError, match=f"status {status} "):
        run_selftest(size=4)
    _assert_no_child_left()


@forks
def test_the_child_is_killed_when_the_caller_raises(monkeypatch):
    def broken_degree(*args):
        raise KeyError("degree loop")

    monkeypatch.setattr(selftest, "_check_degree", broken_degree)
    with pytest.raises(KeyError):
        run_selftest(size=4)
    _assert_no_child_left()
