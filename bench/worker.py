"""One round of one workload, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/worker.py '<spec JSON>'`` with ``PYTHONPATH`` naming
the program's ``src`` directory.  The spec gives the workload, seed, input
file and the range of its items to run, whether to trace, whether to stop
after set-up, and the monotonic clock reading taken just before this
process was started.  The last line
of standard output is one JSON object describing the round.

A round is timed from its first call into the program to its last; its
outputs are checked after that, outside the timed phase.  Untraced rounds
scale every time to the reference speed (``calibrate``); traced rounds,
which give the per-layer times, report wall time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time

import calibrate
import checks
import formulas as fm
import inputs


class SelftestRound:
    """``run_selftest`` over the size-5 corpus: the acceptance gate."""

    def __init__(self, spec: dict):
        from prenexify.selftest import run_selftest

        self.run_selftest = run_selftest
        self.seed = spec["seed"]
        self.marks: list[tuple[float, str]] = []

    def run(self) -> dict:
        self.marks.append((time.perf_counter(), "start"))
        self.results = self.run_selftest(
            size=inputs.SELFTEST_SIZE,
            n_max=inputs.SELFTEST_N_MAX,
            k_max=inputs.SELFTEST_K_MAX,
            seed=self.seed,
            progress=lambda message: self.marks.append((time.perf_counter(), message)),
        )
        corpus = next(m for _, m in self.marks if m.startswith("corpus:"))
        self.corpus_size = int(corpus.split()[1])
        # slices end at the progress messages that close a phase: the
        # corpus, each degree of criteria 1, 2 and 5, then criteria 3, 4, 6, 7
        ends = [t for t, m in self.marks[1:] if not m.startswith("  ")]
        self.spans = list(zip([self.marks[0][0]] + ends, ends))
        return {"items": self.corpus_size, "failed": 0}

    @staticmethod
    def cuts(slices: list[float]) -> dict:
        degrees = inputs.SELFTEST_N_MAX + 1
        cuts = dict(zip(
            ["selftest.criterion_3_s", "selftest.criterion_4_s",
             "selftest.criterion_6_s", "selftest.criterion_7_s"], slices[1 + degrees:]))
        cuts["selftest.criteria_1_2_5_s"] = sum(slices[1:1 + degrees])
        return cuts

    def check(self, layers) -> list[str]:
        failures = checks.check_selftest(
            self.results, self.corpus_size, inputs.SELFTEST_N_MAX, inputs.SELFTEST_K_MAX)
        searches = self.corpus_size * (inputs.SELFTEST_N_MAX + 1)
        if layers and layers["oracle.reachable_set.calls"] != searches:
            failures.append(f"criterion 1 made {layers['oracle.reachable_set.calls']} "
                            f"reachability searches, expected {searches}")
        return failures


class ClassifyRound:
    """One in-process ``prenexify classify`` call, standard output captured."""

    def __init__(self, spec: dict):
        from prenexify import cli

        self.main = cli.main
        self.spec = spec
        degrees = ",".join(map(str, inputs.CLASSIFY_DEGREES))
        self.argv = ["classify", spec["input"] + ".txt", "--n", degrees,
                     "--k-max", str(inputs.CLASSIFY_K_MAX)]

    def run(self) -> dict:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            self.code = self.main(self.argv)
        self.spans = [(start, time.perf_counter())]
        self.lines = out.getvalue().splitlines()
        count = self.spec["items"]
        ok = self.code == 0 and len(self.lines) == count
        return {"items": count, "failed": 0 if ok else count}

    def check(self, layers) -> list[str]:
        from prenexify import parse
        from prenexify.oracle import reachable_set
        from prenexify.semiclassical import Classifier

        with open(self.spec["input"] + ".json", encoding="utf-8") as handle:
            self.corpus = [fm.freeze(phi) for phi in json.load(handle)]
        if self.code != 0 or len(self.lines) != len(self.corpus):
            return [f"exit {self.code}, {len(self.lines)} lines for {len(self.corpus)} formulas"]
        degrees, k_max = inputs.CLASSIFY_DEGREES, inputs.CLASSIFY_K_MAX
        records = [json.loads(line) for line in self.lines]
        failures = []
        for phi, record in zip(self.corpus, records):
            failures += checks.check_classify_record(phi, record, parse, degrees, k_max)
        shared = [i for i, phi in enumerate(self.corpus) if fm.size(phi) <= 6]
        sample = random.Random(self.spec["seed"]).sample(shared, inputs.CLASSIFY_REACH_SAMPLE)
        for i in sample:
            phi = parse(records[i]["formula"])
            checker = Classifier()

            def reach(n):
                closure = reachable_set(phi, n, checker=checker)
                return closure.members, closure.exhausted

            failures += checks.check_reachability(self.corpus[i], records[i], reach,
                                                  degrees, k_max)
        return failures


class NormalizeRound:
    """Normalizations at each formula's least level, as a CLI call makes
    them: fresh classifier, JSON result, text trace round trip, replay."""

    def __init__(self, spec: dict):
        with open(spec["input"] + ".json", encoding="utf-8") as handle:
            self.items = json.load(handle)[slice(*spec["chunk"])]

    @staticmethod
    def normalize(item: dict) -> dict:
        from prenexify import normalizer, parser, rewrite, semiclassical

        checker = semiclassical.Classifier()
        normalize = normalizer.normalize_J if item["target"] == "sigma" else normalizer.normalize_R
        result = normalize(parser.parse(item["text"]), item["k"], item["n"], checker)
        text = rewrite.trace_to_text(result.trace)
        again = rewrite.trace_from_text(text)
        return {
            "result": result,
            "json": json.dumps(result.to_json(), sort_keys=True),
            "text": text,
            "text_again": rewrite.trace_to_text(again),
            "replayed": rewrite.verify_trace(again, checker),
        }

    def run(self) -> dict:
        clock = time.perf_counter
        self.outcomes = []
        self.spans = []
        for item in self.items:
            # A CLI call's collections scan only its own formulas; freezing
            # what earlier items left (the intern table above all) keeps
            # this process's history out of the item's time.
            gc.freeze()
            start = clock()
            try:
                outcome = self.normalize(item)
                self.spans.append((start, clock()))
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                outcome = exc
                self.spans.append(None)
            self.outcomes.append((item, outcome))
        return {"items": len(self.spans), "failed": self.spans.count(None)}

    def check(self, layers) -> list[str]:
        failures = []
        for item, outcome in self.outcomes:
            if not isinstance(outcome, Exception):
                item = dict(item, ast=fm.freeze(item["ast"]))
                failures += checks.check_normalization(item, outcome)
        return failures


ROUNDS = {"selftest": SelftestRound, "classify": ClassifyRound, "normalize": NormalizeRound}


def main() -> None:
    spec = json.loads(sys.argv[1])
    import prenexify  # noqa: F401 - loads every module, for the tracer to wrap

    tracer = sampler = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work = ROUNDS[spec["workload"]](spec)
    setup_s = (time.monotonic_ns() - spec["spawned_ns"]) / 1e9
    if tracer is None:
        sampler = calibrate.Sampler()
        setup_s /= sampler.speed()  # from the samples taken just after set-up
    record = {"setup_s": setup_s}
    if not spec["setup_only"]:
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        record.update(work.run())
        record["wall_s"] = time.perf_counter() - start
        if sampler is not None:
            sampler.stop()
            span = sampler.scaled
        else:
            span = lambda lo, hi: hi - lo  # noqa: E731
        record["slices"] = [None if s is None else span(*s) for s in work.spans]
        if hasattr(work, "cuts"):
            record["cuts"] = work.cuts(record["slices"])
        record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall_gc()
            record["layers"] = tracer.report()
        failures = work.check(record.get("layers"))
        record["correct"] = not failures
        record["failures"] = failures[:5]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
