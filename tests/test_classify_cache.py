"""``classify`` encodes each distinct record body once per call and splices
it after each formula's own text.  Every line must still be the record
``_classify_record`` builds for that formula, the builder must run once
per distinct body, and each formula's least levels must be read once per
degree and its prenex shape once, whatever the degrees, levels and
signature."""

import json
import random

import pytest

from prenexify import cli
from prenexify.formula import FALSUM, And, Exists, Forall, Imp, Or, Prime
from prenexify.hierarchy import classify_prenex
from prenexify.oracle import enumerate_formulas
from prenexify.parser import parse_corpus, render
from prenexify.selftest import default_signature
from prenexify.semiclassical import Classifier

VARS = ("x", "y", "z")


def random_formula(rng, size):
    """A formula of exactly ``size`` nodes over P/1 Q/1 R/2."""
    if size == 1:
        return rng.choice(
            [
                FALSUM,
                Prime("P", (rng.choice(VARS),)),
                Prime("Q", (rng.choice(VARS),)),
                Prime("R", (rng.choice(VARS), rng.choice(VARS))),
            ]
        )
    if size == 2 or rng.random() < 0.3:
        return rng.choice((Exists, Forall))(rng.choice(VARS), random_formula(rng, size - 1))
    left = rng.randrange(1, size - 1)
    return rng.choice((And, Or, Imp))(
        random_formula(rng, left), random_formula(rng, size - 1 - left)
    )


def corpus_text():
    rng = random.Random(17)
    formulas = list(enumerate_formulas(default_signature(4)))
    formulas += [random_formula(rng, rng.randint(10, 40)) for _ in range(300)]
    return "sig P/1 Q/1 R/2\n" + "".join(render(phi) + "\n" for phi in formulas)


RUNS = {
    "n-0-1-2": ("--n", "0,1,2"),
    "n-2-0": ("--n", "2,0"),
    "k-max-0": ("--k-max", "0"),
    "k-max-7": ("--k-max", "7"),
}


@pytest.mark.parametrize("sig", [None, "P/1 Q/1 R/2 S/3"], ids=["header", "sig-flag"])
@pytest.mark.parametrize("flags", RUNS.values(), ids=RUNS)
def test_each_line_is_its_record_and_each_body_is_built_once(
    tmp_path, capsys, monkeypatch, flags, sig
):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(corpus_text())
    argv = ["classify", str(corpus), *flags]
    if sig is not None:
        argv += ["--sig", sig]
    args = cli._build_parser().parse_args(argv)
    build = cli._classify_record
    min_levels = Classifier.min_levels
    calls = []
    reads = []
    walks = []

    def counted(*a):
        calls.append(a[0])
        return build(*a)

    def counted_reads(*a):
        reads.append(a[1])
        return min_levels(*a)

    def counted_walks(phi):
        walks.append(phi)
        return classify_prenex(phi)

    monkeypatch.setattr(cli, "_classify_record", counted)
    monkeypatch.setattr(Classifier, "min_levels", counted_reads)
    monkeypatch.setattr(cli, "classify_prenex", counted_walks)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    lines = capsys.readouterr().out.splitlines()

    _, formulas, errors = parse_corpus(corpus.read_text().split("\n"))
    assert not errors and len(lines) == len(formulas) == 884 + 300
    assert len(reads) == len(formulas) * len(args.n)
    assert len(walks) == len(formulas)
    checker = Classifier()
    bodies = set()
    for line, (_, phi) in zip(lines, formulas):
        levels = tuple(checker.min_levels(phi, n, args.k_max) for n in args.n)
        record = build(phi, args.n, args.k_max, (classify_prenex(phi), levels))
        assert line == json.dumps(record, sort_keys=True)
        prefix = json.dumps({"formula": render(phi)})[:-1]
        bodies.add(line[len(prefix):])
    assert len(calls) == len(bodies) < len(lines) // 10
