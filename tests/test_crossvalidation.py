"""Seeded random cross-validation on a wider universe than the acceptance
corpus: three variable names and a binary predicate, so the merges face
real renaming pressure and the classifier sees shapes the exhaustive
corpus cannot express.  Also the agreement on prenex formulas that lets
the rewrite rules decide their degree conditions without the classifier."""

import random

from prenexify.formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Imp,
    Or,
    Prime,
    is_prenex,
    prenex_floors,
    subformulas,
)
from prenexify.normalizer import normalize_J, normalize_R
from prenexify.oracle import enumerate_formulas, reachable_set
from prenexify.rewrite import verify_trace
from prenexify.selftest import default_signature
from prenexify.semiclassical import Classifier

VARS = ("x", "y", "z")


def random_formula(rng, budget):
    if budget <= 1:
        return rng.choice(
            [
                FALSUM,
                Prime("P", (rng.choice(VARS),)),
                Prime("R", (rng.choice(VARS), rng.choice(VARS))),
            ]
        )
    choice = rng.randrange(6)
    if choice <= 1:
        kind = Exists if choice == 0 else Forall
        return kind(rng.choice(VARS), random_formula(rng, budget - 1))
    if choice == 5:
        return random_formula(rng, 1)
    op = (And, Or, Imp)[choice - 2]
    left_budget = rng.randrange(1, budget - 1) if budget > 2 else 1
    return op(
        random_formula(rng, left_budget),
        random_formula(rng, budget - 1 - left_budget),
    )


def test_classifier_matches_reachability_on_wide_universe():
    rng = random.Random(11)
    checker = Classifier()
    for _ in range(400):
        phi = random_formula(rng, rng.randrange(5, 10))
        for n in range(3):
            rs = reachable_set(phi, n, 100_000)
            assert rs.exhausted
            best_s, best_p = rs.floors
            for k in range(5):
                assert checker.decide(phi, k, n) == (k >= best_s, k >= best_p)


def test_normalizer_sound_on_wide_universe():
    rng = random.Random(7)
    checker = Classifier()
    done = 0
    for _ in range(400):
        phi = random_formula(rng, rng.randrange(5, 12))
        for n in range(3):
            for k in range(5):
                j, r = checker.decide(phi, k, n)
                if j:
                    res = normalize_J(phi, k, n, checker)
                    assert verify_trace(res.trace) is res.output
                    assert k >= prenex_floors(res.output)[0]
                    assert res.output.free == phi.free
                    done += 1
                if r:
                    res = normalize_R(phi, k, n, checker)
                    assert verify_trace(res.trace) is res.output
                    assert k >= prenex_floors(res.output)[1]
                    assert res.output.free == phi.free
                    done += 1
    assert done > 1000


def test_degree_classes_are_the_prenex_classes_on_prenex_formulas():
    # U_n+ = R_n^n and C_n+ = D_n^n, which the rules read as Pi_n+ and
    # Sigma_n+ u Pi_n+ on their prenex operands; and at every degree a
    # prenex formula's least levels are its Sigma+ / Pi+ floors, so the
    # normalizer returns it as its own normal form
    prenex = {
        psi
        for phi in enumerate_formulas(default_signature(5))
        for psi in subformulas(phi)
        if is_prenex(psi)
    }
    assert len(prenex) == 4390
    checker = Classifier()
    mismatches = []
    for psi in prenex:
        for n in range(6):
            j, r = checker.decide(psi, n, n)
            sigma, pi = (n >= floor for floor in prenex_floors(psi))
            if r != pi or (j or r) != (sigma or pi):
                mismatches.append((psi, n))
            if checker.levels(psi, n) != prenex_floors(psi):
                mismatches.append((psi, n))
    assert mismatches == []
