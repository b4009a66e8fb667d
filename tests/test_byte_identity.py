"""Output bytes pinned by SHA-256 digests of the size-4 corpus (884
formulas over P/1 Q/1 with variables x y), of three wide merges, of the
normal forms and rewrite steps on the size-5 corpus and of the parser's
answers on seeded random strings.  A change to the classifier's verdicts, least levels or
witness choices, to the normalizer's positions and fresh names, to the
order, positions or fresh names of the applicable rewrite steps, or to a
parse error's message, line or column, shows up here even when every
answer stays correct.
"""

import hashlib
import random

import pytest

from prenexify.cli import main
from prenexify.formula import And, Exists, Forall, Imp, Or, Prime
from prenexify.normalizer import normalize_J, normalize_R
from prenexify.oracle import enumerate_formulas
from prenexify.parser import ParseError, parse, render
from prenexify.rewrite import applicable_steps, trace_to_text
from prenexify.selftest import default_signature
from prenexify.semiclassical import Classifier

CORPUS = list(enumerate_formulas(default_signature(4)))

# `prenexify classify corpus --n 0,1,2 --k-max 4` on the corpus, rendered
# one formula per line
CLASSIFY_SHA256 = "9dc815524f31c0e6fd2dcd8824b032db999290f915abfde16ec50d0b0eb98bc1"
# the text traces of every positive normalization with k <= 4, n <= 2
TRACES_SHA256 = "9dd60b1fad6fe2ad527a3d264c1491c8c9f90967d1a7cbfbbd769b6f09579c94"
# the text traces of every positive normalization of the size-5 corpus
# with k <= 4, n <= 2.  They do not show the order ``_or_rank`` sets: with
# its first rule (an existential operand above the degree hoists first)
# deleted, this digest is unchanged, and only
# test_acceptance.py::test_criterion_2_normalizer_soundness and
# test_crossvalidation.py::test_normalizer_sound_on_wide_universe fail.  Nor
# does the corpus have a disjunction whose hoist side the unequal ranks
# alone decide (see
# test_normalizer.py::test_or_hoists_from_the_higher_ranked_operand_first)
SIZE5_TRACES_SHA256 = "3bdffc0717bea08f412b5c596501d38efdb534eba925bd66e494c3857f54c480"
# the repr of every positive witness with k <= 4, n <= 2, J before R
WITNESSES_SHA256 = "33d2eedf6e616d0b12b36a164f527e3ceeeec359099f448220f69e350934db16"
# the J then R text traces at k = 2, n = 1 of 40 quantified atoms,
# alternately existential and universal over x, y, z, joined
# right-associatively: long merges, with renames, at deep positions
WIDE_TRACES_SHA256 = {
    And: "5e011ea51078816f2bea160a44a434d3ad90311ee68e1f7244668c22859e0e70",
    Or: "60bd367c3f69ed7a87ab8b4831ad256be22cfc2f7920d2ff6df4239b24981478",
    Imp: "627ee2b5e4bf3044fad36e9c7c4562abfa0a05e5802156d0d53cc4b8896059cc",
}
# the repr of applicable_steps(phi, n) for every size-5 corpus formula and
# n = 0..3, one line each
STEPS_SHA256 = "912ef7b9289d597114f3662e66744368ae8f93309f67f67e0777d6f10420addf"
# (exception type, message, line, column), or the rendering on success, of
# 20,000 seeded random strings, each parsed without and with a signature
PARSE_SHA256 = "de054ced28a6fa61599d472e269dc6f8af1868b5bcd605a96f7bdda3a6ba485e"


def test_classify_output_is_byte_identical(tmp_path, capsys):
    assert len(CORPUS) == 884
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(render(phi) + "\n" for phi in CORPUS))
    code = main(["classify", str(corpus), "--n", "0,1,2", "--k-max", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256


def test_normalizer_traces_are_byte_identical():
    checker = Classifier()
    digest = hashlib.sha256()
    count = 0
    for phi in CORPUS:
        for n in range(3):
            for k in range(5):
                in_j, in_r = checker.decide(phi, k, n)
                for member, normalize in ((in_j, normalize_J), (in_r, normalize_R)):
                    if member:
                        trace = normalize(phi, k, n, checker).trace
                        digest.update(trace_to_text(trace).encode())
                        count += 1
    assert count == 18403
    assert digest.hexdigest() == TRACES_SHA256


def test_cold_normal_forms_give_the_same_traces():
    # a fresh Classifier per call builds every normal form anew
    checker = Classifier()
    digest = hashlib.sha256()
    count = 0
    for phi in CORPUS:
        for n in range(3):
            for k in range(5):
                in_j, in_r = checker.decide(phi, k, n)
                for member, normalize in ((in_j, normalize_J), (in_r, normalize_R)):
                    if member:
                        trace = normalize(phi, k, n, Classifier()).trace
                        digest.update(trace_to_text(trace).encode())
                        count += 1
    assert count == 18403
    assert digest.hexdigest() == TRACES_SHA256


def test_size5_normalizer_traces_are_byte_identical():
    corpus = list(enumerate_formulas(default_signature(5)))
    assert len(corpus) == 7014
    checker = Classifier()
    digest = hashlib.sha256()
    count = 0
    for phi in corpus:
        for n in range(3):
            k_j, k_r = checker.levels(phi, n)
            for k in range(5):
                for floor, normalize in ((k_j, normalize_J), (k_r, normalize_R)):
                    if k >= floor:
                        trace = normalize(phi, k, n, checker).trace
                        digest.update(trace_to_text(trace).encode())
                        count += 1
    assert count == 152600
    assert digest.hexdigest() == SIZE5_TRACES_SHA256


def test_witnesses_are_byte_identical():
    checker = Classifier()
    digest = hashlib.sha256()
    for phi in CORPUS:
        for n in range(3):
            for k in range(5):
                for side in ("J", "R"):
                    w = checker.witness(phi, k, n, side)
                    if w is not None:
                        digest.update(repr(w).encode())
    assert digest.hexdigest() == WITNESSES_SHA256


@pytest.mark.parametrize("conn", list(WIDE_TRACES_SHA256), ids=lambda c: c.__name__)
def test_wide_merge_traces_are_byte_identical(conn):
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
    assert digest.hexdigest() == WIDE_TRACES_SHA256[conn]


def test_applicable_steps_are_byte_identical():
    corpus = list(enumerate_formulas(default_signature(5)))
    assert len(corpus) == 7014
    digest = hashlib.sha256()
    count = 0
    for phi in corpus:
        for n in range(4):
            steps = applicable_steps(phi, n)
            digest.update(repr(steps).encode() + b"\n")
            count += len(steps)
    assert count == 15312
    assert digest.hexdigest() == STEPS_SHA256


# Operands and operators alternate, so many strings come close to a
# formula; a few pieces are noise, among them characters no token has.
_OPERANDS = ["P(x)", "Q(y)", "R(x, y)", "R(x,y)", "R(x)", "P", "false", "x",
             "~", "(", "exists x.", "forall y.", "exists", "forall"]
_OPERATORS = ["&", "|", "->", ")", "&", "|", "->", ")", ",", ".", "Q"]
_NOISE = ["-", "0", "\u00e9", "v0", "exists y", "Q(", ", x"]
_SPACES = ["", " ", " ", " ", "  ", "\t", "\n", " \n "]


def _random_text(rng):
    pieces = [rng.choice(_SPACES) if rng.random() < 0.2 else ""]
    for i in range(rng.randint(0, 12)):
        pool = _NOISE if rng.random() < 0.05 else (_OPERANDS, _OPERATORS)[i % 2]
        pieces.append(rng.choice(pool))
        pieces.append(rng.choice(_SPACES))
    return "".join(pieces)


def test_parse_errors_are_byte_identical():
    # trailing whitespace and newlines exercise the error positions
    rng = random.Random(8)
    digest = hashlib.sha256()
    for i in range(20000):
        text, line = _random_text(rng), 3 if i % 5 == 0 else 1
        for signature in (None, {"P": 1, "Q": 1, "R": 2}):
            try:
                out = render(parse(text, signature, line))
            except ParseError as exc:
                out = repr((type(exc).__name__, str(exc), exc.line, exc.column))
            digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == PARSE_SHA256
