"""Seeded workload inputs.

Everything here is a function of the workload seed alone.  Formulas are
generated and printed with the benchmark's own model (``formulas``); the
program is consulted only to enumerate the size-6 corpus and to pick each
normalization's least level, both of which are inputs, not outputs under
test.
"""

from __future__ import annotations

import random

import formulas as fm

VARIABLES = ("x", "y", "z")
PREDICATES = (("P", 1), ("Q", 1), ("R", 2))
SIGNATURE_LINE = "sig " + " ".join(f"{p}/{a}" for p, a in PREDICATES)

# Every walker in the program recurses once per nesting level, and nesting
# a few hundred deep already raises RecursionError in the classifier.  The
# inputs stay far below that, so a workload measures speed, not that fault.
MAX_DEPTH = 64

SELFTEST_SIZE = 5
SELFTEST_N_MAX = 2
SELFTEST_K_MAX = 4

CLASSIFY_DEGREES = (0, 1, 2)
CLASSIFY_K_MAX = 4
CLASSIFY_SHARED = 2000  # sampled from the size-6 enumeration
CLASSIFY_UNSHARED = 1000  # random, size 10..40
CLASSIFY_UNSHARED_SIZES = (10, 40)
CLASSIFY_REACH_SAMPLE = 100  # shared lines whose verdicts are checked by search

NORMALIZE_RANDOM = 1000  # random, size 15..40
NORMALIZE_RANDOM_SIZES = (15, 40)
NORMALIZE_WIDTHS = tuple(range(4, 41, 4))  # wide families, per connective ...
NORMALIZE_WIDE_COPIES = 2  # ... this many: 60 items, so the slowest 1% are wide
WIDE_FAMILY_SEED = 0  # the wide families do not depend on the workload seed
# Each of this many processes normalizes an equal share of the items, so its
# intern table and garbage collections stay near what a short CLI session
# sees instead of growing over the whole workload.
NORMALIZE_PROCESSES = 5


def random_atom(rng: random.Random) -> tuple:
    if rng.random() < 0.1:
        return fm.FALSE
    name, arity = rng.choice(PREDICATES)
    return ("P", name, tuple(rng.choice(VARIABLES) for _ in range(arity)))


def random_formula(rng: random.Random, size: int) -> tuple:
    """A formula of exactly ``size`` nodes."""
    if size == 1:
        return random_atom(rng)
    if size == 2 or rng.random() < 0.3:
        return (rng.choice(fm.QUANT), rng.choice(VARIABLES), random_formula(rng, size - 1))
    left = rng.randint(1, size - 2)
    return (
        rng.choice(fm.BINARY),
        random_formula(rng, left),
        random_formula(rng, size - 1 - left),
    )


def wide_formula(rng: random.Random, width: int, conn: str) -> tuple:
    """``width`` quantified atoms, alternately existential and universal,
    joined right-associatively by ``conn``, with atoms drawn from ``rng``."""
    operands = []
    for i in range(width):
        var = rng.choice(VARIABLES)
        name, arity = rng.choice(PREDICATES)
        args = (var,) if arity == 1 else (var, rng.choice(VARIABLES))
        operands.append((fm.QUANT[i % 2], var, ("P", name, args)))
    phi = operands.pop()
    while operands:
        phi = (conn, operands.pop(), phi)
    return phi


def _bounded(phi: tuple) -> tuple:
    if fm.depth(phi) > MAX_DEPTH:
        raise ValueError("generated formula exceeds the nesting cap")
    return phi


def classify_corpus(seed: int) -> list[tuple]:
    """The corpus formulas, shared and unshared shuffled together."""
    from prenexify.oracle import enumerate_formulas
    from prenexify.selftest import default_signature

    rng = random.Random(seed)
    enumerated = list(enumerate_formulas(default_signature(6)))
    shared = [fm.from_program(phi) for phi in rng.sample(enumerated, CLASSIFY_SHARED)]
    unshared = [
        _bounded(random_formula(rng, rng.randint(*CLASSIFY_UNSHARED_SIZES)))
        for _ in range(CLASSIFY_UNSHARED)
    ]
    corpus = shared + unshared
    rng.shuffle(corpus)
    return corpus


def corpus_text(corpus: list[tuple]) -> str:
    lines = ["# classify workload corpus", SIGNATURE_LINE]
    return "\n".join(lines + [fm.to_text(phi) for phi in corpus]) + "\n"


def normalize_items(seed: int) -> list[dict]:
    """One dict per normalization: text, level k, degree n and target.

    Each formula is normalized at its least level for a seeded degree and
    side; formulas in no level of either side are redrawn.
    """
    from prenexify import parse
    from prenexify.semiclassical import Classifier

    rng = random.Random(seed)
    items: list[dict] = []

    def add(phi: tuple, degrees, pick) -> bool:
        """Add ``phi`` at the first degree where it is in some level."""
        text = fm.to_text(_bounded(phi))
        for n in degrees:
            k_j, k_r = Classifier().min_levels(parse(text), n)
            sides = [(t, k) for t, k in (("sigma", k_j), ("pi", k_r)) if k is not None]
            if sides:
                target, k = pick(sides)
                items.append({"text": text, "ast": phi, "k": k, "n": n, "target": target})
                return True
        return False

    while len(items) < NORMALIZE_RANDOM:
        size = rng.randint(*NORMALIZE_RANDOM_SIZES)
        add(random_formula(rng, size), [rng.randrange(3)], rng.choice)
    # The wide families are the slowest 1% of the items, and their cost
    # depends on their atoms as well as on their width.  They are the same
    # in every seed (atoms from a fixed generator, the first degree of a
    # fixed cycle, the sigma side when both exist), so that the 99th
    # percentile measures the same work whatever the seed.
    wide_rng = random.Random(WIDE_FAMILY_SEED)
    for index, width in enumerate(NORMALIZE_WIDTHS * NORMALIZE_WIDE_COPIES):
        for conn in fm.BINARY:
            cycle = [(index + j) % 3 for j in range(3)]
            if not add(wide_formula(wide_rng, width, conn), cycle, lambda sides: sides[0]):
                raise ValueError(f"wide family {conn} of width {width} is in no class")
    # Process p starts with the same wide families for every seed, so that
    # what the random items leave in the process cannot change their time.
    random_items, wide_items = items[:NORMALIZE_RANDOM], items[NORMALIZE_RANDOM:]
    share = NORMALIZE_RANDOM // NORMALIZE_PROCESSES
    items = []
    for p in range(NORMALIZE_PROCESSES):
        items += wide_items[p::NORMALIZE_PROCESSES] + random_items[p * share:(p + 1) * share]
    return items
