"""Full invariant suite at desk scale.

Seven checks, each over the exhaustively enumerated corpus (or seeded
random data for the rewrite-conformance check):

1. characterization: J/R membership agrees with exhaustive reachability
   into Sigma_k+/Pi_k+ for every corpus formula, degree and level: the
   classifier's least levels equal the closure's floors (``levels ==
   closure.floors``), and each level is read off the two pairs;
2. normalizer soundness on every positive classification;
3. stabilization of J_k^n / R_k^n for n >= k;
4. monotonicity suites: cumulativity in k and monotonicity in n at every
   degree, then, once per formula, the prenex inclusions, subformula
   closure of D at every degree and the five inversion laws;
5. backward closure of J/R along every rewrite edge explored in 1, each
   checked once, at the degree that explored it;
6. pinned negative witnesses;
7. rewrite-engine conformance on seeded random steps.

Every class is cumulative in k, so a formula's memberships at one degree
are fixed by its least levels (k_J, k_R).  Criteria 1, 3, 4, 5 and 6
read that pair once per formula and degree (``Classifier.levels``) and
compare each level against it; every check is still counted and reported
on its own.  The inversion laws read each operand's pair once per
degree as well, and compare it against the levels their hand-written
case split names, independently of the classifier's clause table.

Criterion 2 takes each positive verdict's normal form from
``normalizer.prenex_form``, the path ``normalize_J`` / ``normalize_R``
wrap, and checks it itself: the replay of its trace must be the output
itself, in the target class at the verdict's level, with the input's
free variables, and the trace must take ``measure(phi) -
measure(output)`` steps: every connective step lowers the measure by
one, and the normalizer makes no other step.  It reads a formula's
measure once per degree, and checks each distinct (steps, output) pair
of a formula at a degree once: its replay, its Sigma+ / Pi+ floors, its
free variables and its length.  Criteria 1 and 5 build one classifier
and one transition cache per degree and drop both when the degree ends;
criterion 2 builds its own classifier per degree, and criteria 3 and 4
share one.  Criterion 7 draws its data from ``getrandbits`` alone, and
compares the trace each step's text is read back to with the trace it
was written from: formulas are hash-consed, so equal traces start at
one node and have one text.

The calling process runs criteria 1 and 5, one degree at a time.  Every
other piece of work is a task in a fixed list: criterion 7, criterion 2
at each degree, criteria 3 and 4, and criterion 6.  Wherever ``os.fork``
exists, ``run_selftest`` forks two workers (``forked.run_tasks``) once
the corpus is built; they take the tasks from a shared queue, a pipe
holding one byte per task, until it ends.  Criterion 7 is most of the
workers' work at size 5 and criterion 2 at size 6, so no fixed split of
the tasks suits both.  The caller takes no task, so its own work, and
what a tracer installed in it counts, does not depend on timing.  Where
the platform does not fork, the caller takes the same tasks from the
same queue after its degree loop.  Results, counts, failures and the
progress messages are the same either way: each criterion's result is
merged in task order (criterion 2's degrees in degree order, its first
ten failures kept), and the phase ends of criteria 3, 4, 6 and 7 are
reported after every worker is reaped.  A worker that fails has its
error raised by the caller once the other is killed and reaped.  The
workers' memory is their own, so it is not in the caller's ``ru_maxrss``
(``RUSAGE_SELF``), only in ``RUSAGE_CHILDREN``.

The module is consumed both by ``prenexify selftest`` and by the
acceptance test suite, which asserts every criterion at full scale.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import oracle
from .formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    Prime,
    _free_mask,
    prenex_floors,
    subformulas,
)
from .hierarchy import PI, SIGMA
from .normalizer import prenex_form
from .oracle import Signature, enumerate_formulas
from .parser import parse, render
from .rewrite import (
    Trace,
    applicable_steps,
    apply_step,
    measure,
    trace_from_text,
    trace_to_text,
    verify_trace,
)
from .semiclassical import Classifier

__all__ = ["CriterionResult", "run_selftest", "default_signature", "DEFAULT_SEED"]

DEFAULT_SEED = 20240 + 5
RANDOM_STEP_COUNT = 10_000
# the queued criteria run in two forked workers wherever the platform forks
_FORKS = hasattr(os, "fork")
_WORKERS = 2


@dataclass
class CriterionResult:
    name: str
    passed: bool
    checks: int
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < 10:
            self.failures.append(message)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name} ({self.checks} checks)"
        if self.failures:
            text += "\n  " + "\n  ".join(self.failures)
        return text


def default_signature(size: int) -> Signature:
    return Signature.make({"P": 1, "Q": 1}, ("x", "y"), size)


def run_selftest(
    size: int = 6,
    n_max: int = 2,
    k_max: int = 4,
    seed: int = DEFAULT_SEED,
    budget: int = oracle.DEFAULT_NODE_BUDGET,
    progress: Optional[Callable[[str], None]] = None,
) -> list[CriterionResult]:
    say = progress or (lambda message: None)
    corpus = list(enumerate_formulas(default_signature(size)))
    say(f"corpus: {len(corpus)} alpha-distinct formulas up to size {size}")

    from .forked import run_tasks  # compiled only when a selftest runs

    c1 = CriterionResult("criterion-1 characterization", True, 0)
    c5 = CriterionResult("criterion-5 backward closure", True, 0)

    def degree_loop() -> None:
        for n in range(n_max + 1):
            _check_degree(c1, c5, corpus, n, k_max, budget, progress)
            say(f"degree {n} done")

    tasks = _queued_tasks(corpus, n_max, k_max, seed, budget)
    outputs = run_tasks(tasks, _WORKERS if _FORKS else 0, degree_loop)
    say("stabilization done")
    say("monotonicity done")
    say("pinned negatives done")
    say("rewrite conformance done")
    # one result per criterion; the names start "criterion-<digit> "
    parts = [c1, c5] + [result for output in outputs for result in output]
    return sorted(_merged(parts), key=lambda result: result.name)


def _queued_tasks(
    corpus: list[Formula], n_max: int, k_max: int, seed: int, budget: int
) -> list[Callable[[], list[CriterionResult]]]:
    """The work beside criteria 1 and 5, in the order it is taken:
    criterion 7, criterion 2 at each degree, criteria 3 and 4, and
    criterion 6.  Each task returns the results it made."""
    return [
        lambda: [_check_rewrite_conformance(seed)],
        *[lambda n=n: [_check_normal_forms(corpus, n, k_max)] for n in range(n_max + 1)],
        lambda: _check_levels_suites(corpus, n_max, k_max),
        lambda: [_check_pinned_negatives(budget)],
    ]


def _merged(parts: list[CriterionResult]) -> list[CriterionResult]:
    """One result per name: the checks summed, and the failures kept in
    the order of ``parts``, at most ten, as one sequential pass keeps
    them.  A criterion that made no checks fails: it showed nothing."""
    merged: dict[str, CriterionResult] = {}
    for part in parts:
        into = merged.setdefault(part.name, CriterionResult(part.name, True, 0))
        into.checks += part.checks
        into.passed = into.passed and part.passed
        for message in part.failures:
            into.fail(message)
    for result in merged.values():
        if not result.checks:
            result.fail("no checks were made")
    return list(merged.values())


def _check_degree(
    c1: CriterionResult,
    c5: CriterionResult,
    corpus: list[Formula],
    n: int,
    k_max: int,
    budget: int,
    progress: Optional[Callable[[str], None]],
) -> None:
    """Criteria 1 and 5 at degree ``n``.  The degree's classifier and
    transitions are freed when it returns."""
    checker = Classifier()
    transitions: oracle.Transitions = {}
    for count, phi in enumerate(corpus):
        if progress and count % 5000 == 0 and count:
            progress(f"  degree {n}: {count}/{len(corpus)}")
        rs = oracle.reachable_set(phi, n, budget, transitions=transitions)
        if not rs.exhausted:
            c1.fail(f"budget hit for {render(phi)} at n={n}")
            continue
        # every class is cumulative in k, so equal pairs agree at every k
        c1.checks += 2 * (k_max + 1)
        levels, floors = checker.levels(phi, n), rs.floors
        if levels == floors:
            continue
        for k in range(k_max + 1):
            for side, level, floor in zip("JR", levels, floors):
                if (k >= level) != (k >= floor):
                    c1.fail(
                        f"{side} mismatch {render(phi)} k={k} n={n}: "
                        f"classifier={k >= level} oracle={k >= floor}"
                    )
    _check_backward_closure(c5, transitions[n], n, k_max, checker)


def _check_normal_forms(corpus: list[Formula], n: int, k_max: int) -> CriterionResult:
    """Criterion 2 at degree ``n``: one check per positive verdict, with
    its own classifier."""
    result = CriterionResult("criterion-2 normalizer soundness", True, 0)
    checker = Classifier()
    for phi in corpus:
        k_j, k_r = checker.levels(phi, n)
        potential = measure(phi)
        replays: dict = {}  # phi's normal forms at degree n, see below
        for k in range(k_max + 1):
            if k >= k_j:
                _check_normal_form(result, phi, k, n, SIGMA, checker, potential, replays)
            if k >= k_r:
                _check_normal_form(result, phi, k, n, PI, checker, potential, replays)
    return result


def _check_normal_form(
    result: CriterionResult,
    phi: Formula,
    k: int,
    n: int,
    target: str,
    checker: Classifier,
    potential: int,
    replays: dict,
) -> None:
    """One normalization of ``phi`` at (k, n), checked against the replay
    of its trace.  What is checked of a normal form depends only on its
    steps and output, and ``replays`` serves one ``phi`` (whose measure
    is ``potential``) at one ``n``, so it keeps, per distinct ``(steps,
    output)`` pair keyed by identity, the replayed formula or the
    exception the replay raised, the output's Sigma+ and Pi+ floors,
    whether its free variables are ``phi``'s and the drop in measure
    from ``phi`` to it.  The pair is kept with them, so neither id can be
    reused while ``replays`` lives; an equal pair of other objects is
    checked again."""
    result.checks += 1
    try:
        output, steps = prenex_form(phi, k, n, target, checker)
    except Exception as exc:  # noqa: BLE001 - report any failure verbatim
        result.fail(f"normalize {target} failed for {render(phi)} k={k} n={n}: {exc}")
        return
    key = (id(steps), id(output))
    seen = replays.get(key)
    if seen is None:
        try:
            replayed = verify_trace(Trace(phi, steps, n))
        except Exception as exc:  # noqa: BLE001
            replayed = exc
        seen = replays[key] = (
            steps,
            output,
            replayed,
            prenex_floors(output),
            _free_mask(output) == _free_mask(phi),
            potential - measure(output),
        )
    _, _, replayed, floors, same_free, drop = seen
    if isinstance(replayed, Exception):
        result.fail(f"trace replay failed for {render(phi)} k={k} n={n}: {replayed}")
        return
    floor = floors[0 if target == SIGMA else 1]
    if replayed is not output:
        result.fail(f"replay diverges for {render(phi)} k={k} n={n}")
    elif floor > k:
        result.fail(
            f"output {render(output)} not in target class "
            f"({target} {k}) for {render(phi)} n={n}"
        )
    elif not same_free:
        result.fail(f"free variables changed for {render(phi)} k={k} n={n}")
    elif len(steps) != drop:
        result.fail(f"{len(steps)} steps for a measure drop of {drop}: {render(phi)} k={k} n={n}")


def _check_backward_closure(
    result: CriterionResult,
    expanded: dict[Formula, tuple[Formula, ...]],
    n: int,
    k_max: int,
    checker: Classifier,
) -> None:
    """Criterion 5 on degree ``n``'s table: each cached expansion is an
    edge source ~>_n successor, checked at ``n`` alone.  A degree-n step
    is a step at every higher degree, whose own table holds it."""
    for state, successors in expanded.items():
        state_levels = checker.levels(state, n)
        for succ in successors:
            succ_levels = checker.levels(succ, n)
            result.checks += 2 * (k_max + 1)
            for k in range(k_max + 1):
                for side, state_level, succ_level in zip("JR", state_levels, succ_levels):
                    if succ_level <= k < state_level:
                        result.fail(
                            f"{side} not backward closed: {render(state)} ~> "
                            f"{render(succ)} k={k} n={n}"
                        )


def _check_levels_suites(
    corpus: list[Formula], n_max: int, k_max: int
) -> list[CriterionResult]:
    """Criteria 3 and 4 over one classifier: criterion 4 reads the least
    levels at ``n <= n_max`` that criterion 3 has computed."""
    checker = Classifier()
    return [
        _check_stabilization(corpus, k_max, checker),
        _check_monotonicity(corpus, n_max, k_max, checker),
    ]


def _check_stabilization(
    corpus: list[Formula], k_max: int, checker: Classifier
) -> CriterionResult:
    result = CriterionResult("criterion-3 stabilization", True, 0)
    top = min(3, k_max)
    for phi in corpus:
        levels = [checker.levels(phi, n) for n in range(top + 3)]
        for k in range(top + 1):
            k_j, k_r = levels[k]
            for n in (k + 1, k + 2):
                n_j, n_r = levels[n]
                result.checks += 2
                if (k >= n_j, k >= n_r) != (k >= k_j, k >= k_r):
                    result.fail(f"J/R not stable for {render(phi)} k={k} n={n}")
    return result


def _check_monotonicity(
    corpus: list[Formula], n_max: int, k_max: int, checker: Classifier
) -> CriterionResult:
    result = CriterionResult("criterion-4 monotonicity suites", True, 0)
    for phi in corpus:
        levels = [checker.levels(phi, n) for n in range(n_max + 1)]
        for n, (k_j, k_r) in enumerate(levels):
            for k in range(k_max + 1):
                # in D_k^n but not in both J_{k+1}^n and R_{k+1}^n
                result.checks += 1
                if min(k_j, k_r) <= k < max(k_j, k_r) - 1:
                    result.fail(f"cumulativity fails {render(phi)} k={k} n={n}")
                if n < n_max:
                    up_j, up_r = levels[n + 1]
                    result.checks += 1
                    if k_j <= k < up_j or k_r <= k < up_r:
                        result.fail(f"n-monotonicity fails {render(phi)} k={k} n={n}")
        _check_prenex_inclusions(result, phi, levels[0], k_max)
        _check_subformula_closure(result, phi, levels, k_max, checker)
        _check_inversions(result, phi, levels, k_max, checker)
    return result


def _check_prenex_inclusions(
    result: CriterionResult, phi: Formula, levels_0: tuple, k_max: int
) -> None:
    """Sigma_k+ is within J_k^0 and Pi_k+ within R_k^0."""
    floor_s, floor_p = prenex_floors(phi)
    k_j, k_r = levels_0
    for k in range(k_max + 1):
        result.checks += 1
        if floor_s <= k < k_j:
            result.fail(f"Sigma_{k}+ not within J_{k}^0: {render(phi)}")
        if floor_p <= k < k_r:
            result.fail(f"Pi_{k}+ not within R_{k}^0: {render(phi)}")


def _check_subformula_closure(
    result: CriterionResult,
    phi: Formula,
    levels: list[tuple],
    k_max: int,
    checker: Classifier,
) -> None:
    """D_k^n is closed under subformulas: one check per (n, k) with phi in
    D_k^n, failing below the largest least D-level of a subformula."""
    subs = set(subformulas(phi))
    for n, pair in enumerate(levels):
        k_d = min(pair)
        if k_d > k_max:
            continue
        result.checks += k_max + 1 - k_d
        need = max(min(checker.levels(psi, n)) for psi in subs)
        for k in range(k_d, min(need, k_max + 1)):
            result.fail(f"subformula closure fails {render(phi)} k={k} n={n}")


def _check_inversions(
    result: CriterionResult,
    phi: Formula,
    levels: list[tuple],
    k_max: int,
    checker: Classifier,
) -> None:
    """The five inversion laws, with their case splits on level vs degree.
    Each operand's least levels are read once per degree; an operand is in
    J_k^n from its k_J on, in R_k^n from its k_R on, and in D_k^n from the
    lesser of the two on."""
    for n, (k_j, k_r) in enumerate(levels):
        if isinstance(phi, (And, Or, Imp)):
            l_j, l_r = checker.levels(phi.left, n)
            r_j, r_r = checker.levels(phi.right, n)
        elif isinstance(phi, (Exists, Forall)):
            b_j, b_r = checker.levels(phi.body, n)
        for k in range(1, k_max + 1):
            kk = k - 1
            j, r = k >= k_j, k >= k_r
            if not (j or r):
                continue
            result.checks += 1
            ok = True
            if isinstance(phi, And):
                if j:
                    ok &= k >= l_j and k >= r_j
                if r:
                    ok &= k >= l_r and k >= r_r
            elif isinstance(phi, Or):
                if j:
                    if kk <= n:
                        ok &= k >= l_j and k >= r_j
                    else:
                        ok &= (k >= l_j and n + 1 >= r_j) or (n + 1 >= l_j and k >= r_j)
                if r:
                    if kk < n:
                        ok &= k >= l_r and k >= r_r
                    elif kk == n:
                        ok &= (k >= l_r and kk >= min(r_j, r_r)) or (
                            kk >= min(l_j, l_r) and k >= r_r
                        )
                    else:
                        ok &= (k >= l_r and n + 1 >= r_j) or (n + 1 >= l_j and k >= r_r)
            elif isinstance(phi, Imp):
                if j:
                    if kk < n:
                        ok &= k >= l_r
                    elif kk == n:
                        ok &= kk >= min(l_j, l_r)
                    else:
                        ok &= n + 1 >= l_j
                    ok &= k >= r_j
                if r:
                    if kk <= n:
                        ok &= k >= l_j
                    else:
                        ok &= n + 1 >= l_j
                    ok &= k >= r_r
            elif isinstance(phi, Exists):
                if j:
                    ok &= k >= b_j
                if r:
                    ok &= kk > 0 and kk >= k_j
            elif isinstance(phi, Forall):
                if j:
                    ok &= kk > 0 and kk >= k_r
                if r:
                    ok &= k >= b_r
            if not ok:
                result.fail(f"inversion fails for {render(phi)} k={k} n={n}")


def _check_pinned_negatives(budget: int) -> CriterionResult:
    result = CriterionResult("criterion-6 pinned negatives", True, 0)
    checker = Classifier()

    neg = parse("(forall x. P(x)) -> false")
    k_j, k_r = checker.levels(neg, 0)
    for k in range(7):
        result.checks += 2
        if k >= k_j:
            result.fail(f"(forall x. P(x)) -> false entered J_{k}^0")
        if k >= k_r:
            result.fail(f"(forall x. P(x)) -> false entered R_{k}^0")
    result.checks += 1
    if 2 < checker.levels(neg, 1)[0]:
        result.fail("(forall x. P(x)) -> false missing from J_2^1")

    # semantically reducible at degree 1, yet syntactically out of reach
    gap = parse("((forall x. P(x)) | (exists y. Q(y))) -> R(x)")
    search = oracle.can_reach(gap, 1, lambda m: 2 >= prenex_floors(m)[0], budget)
    result.checks += 1
    if search.status != "no":
        result.fail(
            f"gap witness unexpectedly {search.status} for Sigma_2+ at degree 1"
        )
    return result


_RANDOM_LEAVES = (
    FALSUM, Prime("P", ("x",)), Prime("P", ("y",)), Prime("Q", ("x",)), Prime("Q", ("y",))
)


def _below(bits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``, from ``bits``, a
    ``getrandbits``: k-bit draws, k the bit length of ``n``, until one is
    below ``n``.  This is the draw ``random.Random.randrange(n)`` makes."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_formula(bits: Callable[[int], int], budget: int) -> Formula:
    if budget <= 1:
        return _RANDOM_LEAVES[_below(bits, len(_RANDOM_LEAVES))]
    shape = _below(bits, 6)
    if shape <= 1:
        kind = Exists if shape == 0 else Forall
        return kind(("x", "y")[_below(bits, 2)], _random_formula(bits, budget - 1))
    if shape == 5:
        return _random_formula(bits, 1)
    op = (And, Or, Imp)[shape - 2]
    left_budget = 1 + _below(bits, budget - 2) if budget > 2 else 1
    left = _random_formula(bits, left_budget)
    right = _random_formula(bits, budget - 1 - left_budget)
    return op(left, right)


def _random_draws(seed: int) -> Iterator[tuple]:
    """Criterion 7's data, without end: ``(phi, n, steps, step)`` with a
    random formula ``phi``, a degree ``n``, the rewrite steps applicable
    to ``phi`` at ``n`` and one of them drawn (``None`` when there are
    none)."""
    bits = random.Random(seed).getrandbits
    while True:
        phi = _random_formula(bits, 4 + _below(bits, 6))
        n = _below(bits, 3)
        steps = applicable_steps(phi, n)
        yield phi, n, steps, steps[_below(bits, len(steps))] if steps else None


def _check_rewrite_conformance(seed: int) -> CriterionResult:
    result = CriterionResult("criterion-7 rewrite conformance", True, 0)
    draws = _random_draws(seed)
    applied = 0
    while applied < RANDOM_STEP_COUNT:
        phi, n, steps, step = next(draws)
        # the steps at n are among those at n + 1; with none at n, that
        # holds without computing them, and is still counted
        result.checks += 1
        if not steps:
            continue
        if not set(steps) <= set(applicable_steps(phi, n + 1)):
            result.fail(f"degree monotonicity fails for {render(phi)} n={n}")
        psi = apply_step(phi, step, n)
        applied += 1
        result.checks += 3
        if _free_mask(psi) != _free_mask(phi):
            result.fail(f"free variables changed: {render(phi)} via {step.rule}")
        if measure(psi) != measure(phi) - 1:
            result.fail(f"measure not decreased by 1: {render(phi)} via {step.rule}")
        # formulas are hash-consed, so equal traces have one start node
        trace = Trace(phi, (step,), n)
        reparsed = trace_from_text(trace_to_text(trace))
        if reparsed != trace:
            result.fail(f"trace text round-trip unstable for {render(phi)}")
        elif verify_trace(reparsed) is not psi:
            result.fail(f"trace replay diverges for {render(phi)}")
    return result
