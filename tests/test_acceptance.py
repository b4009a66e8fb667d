"""Acceptance gate: every criterion at its stated scale and tolerance.

Corpus: all alpha-distinct formulas of AST size <= 6 over P/1, Q/1 with
variables x, y; degrees 0..2; levels 0..4; required agreement 100% with
zero unknowns; rewrite conformance over 10,000 seeded random steps.  One
pass/fail line is printed per criterion (run pytest with -s to see them).

The whole module runs the suite once; it took 10.4-13.3 s (three runs) on
a 2-CPU machine shared with other tenants, with Python 3.11.7.
"""

import pytest

from prenexify.selftest import run_selftest

SIZE = 6
N_MAX = 2
K_MAX = 4


@pytest.fixture(scope="module")
def suite():
    results = run_selftest(size=SIZE, n_max=N_MAX, k_max=K_MAX)
    return {result.name: result for result in results}


def _assert_criterion(suite, name):
    result = suite[name]
    print(result.line())
    assert result.passed, result.line()
    assert result.checks > 0


def test_criterion_1_characterization(suite):
    _assert_criterion(suite, "criterion-1 characterization")


def test_criterion_2_normalizer_soundness(suite):
    _assert_criterion(suite, "criterion-2 normalizer soundness")


def test_criterion_3_stabilization(suite):
    _assert_criterion(suite, "criterion-3 stabilization")


def test_criterion_4_monotonicity_suites(suite):
    _assert_criterion(suite, "criterion-4 monotonicity suites")


def test_criterion_5_backward_closure(suite):
    _assert_criterion(suite, "criterion-5 backward closure")


def test_criterion_6_pinned_negatives(suite):
    _assert_criterion(suite, "criterion-6 pinned negatives")


def test_criterion_7_rewrite_conformance(suite):
    _assert_criterion(suite, "criterion-7 rewrite conformance")
