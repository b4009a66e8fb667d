"""Each output check must reject a planted wrong output, and scaled times
must leave out the reference samples and follow the machine's speed.

Run from the repository root: ``python3 -m unittest discover -s bench``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import formulas as fm  # noqa: E402
import worker  # noqa: E402
from prenexify import cli, parse  # noqa: E402
from prenexify.oracle import reachable_set  # noqa: E402
from prenexify.rewrite import trace_from_text, trace_to_text, verify_trace  # noqa: E402
from prenexify.selftest import CriterionResult  # noqa: E402
from prenexify.semiclassical import Classifier  # noqa: E402

DEGREES, K_MAX = (0, 1, 2), 4


def classify_record(text: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["classify", path, "--n", "0,1,2", "--k-max", str(K_MAX)])
    return json.loads(out.getvalue())


class ClassifyCheckTest(unittest.TestCase):
    TEXTS = ["(forall x. P(x)) -> false", "(exists x. P(x)) | (forall y. Q(y))",
             "forall x. exists y. R(x, y)"]

    def test_program_records_pass(self):
        for text in self.TEXTS:
            expected = fm.from_program(parse(text))
            record = classify_record(text)
            self.assertEqual(checks.check_classify_record(expected, record, parse, DEGREES,
                                                          K_MAX), [])

    def test_every_flipped_in_J_bit_fails(self):
        for text in self.TEXTS:
            expected = fm.from_program(parse(text))
            record = classify_record(text)
            for index in range(len(record["grid"])):
                planted = json.loads(json.dumps(record))
                planted["grid"][index]["in_J"] = not planted["grid"][index]["in_J"]
                self.assertNotEqual(
                    checks.check_classify_record(expected, planted, parse, DEGREES, K_MAX),
                    [], f"{text}: flipped cell {record['grid'][index]} passed")

    def test_verdict_against_reachability(self):
        text = "(forall x. P(x)) -> false"
        expected = fm.from_program(parse(text))
        record = classify_record(text)

        def reach(n):
            closure = reachable_set(parse(text), n, checker=Classifier())
            return closure.members, closure.exhausted

        self.assertEqual(checks.check_reachability(expected, record, reach, DEGREES, K_MAX), [])
        # J_2^1 holds (the closure reaches Sigma_2+); claim it fails
        planted = json.loads(json.dumps(record))
        for cell in planted["grid"]:
            if (cell["n"], cell["k"]) == (1, 2):
                cell["in_J"] = False
        self.assertNotEqual(checks.check_reachability(expected, planted, reach, DEGREES, K_MAX),
                            [])


class NormalizeCheckTest(unittest.TestCase):
    def setUp(self):
        phi = fm.from_program(parse("(exists x. P(x)) & ((forall y. Q(y)) | (exists z. P(z)))"))
        self.item = {"text": fm.to_text(phi), "ast": phi, "k": 2, "n": 1, "target": "sigma"}

    def test_program_outcome_passes(self):
        outcome = worker.NormalizeRound.normalize(self.item)
        self.assertEqual(checks.check_normalization(self.item, outcome), [])

    def test_trace_with_one_step_dropped_fails(self):
        result = worker.NormalizeRound.normalize(self.item)["result"]
        self.assertGreater(len(result.trace.steps), 1)
        trace = dataclasses.replace(result.trace, steps=result.trace.steps[:-1])
        planted = dataclasses.replace(result, trace=trace)
        text = trace_to_text(trace)
        outcome = {
            "result": planted,
            "json": json.dumps(planted.to_json(), sort_keys=True),
            "text": text,
            "text_again": trace_to_text(trace_from_text(text)),
            "replayed": verify_trace(trace_from_text(text)),
        }
        self.assertNotEqual(checks.check_normalization(self.item, outcome), [])


class SelftestCheckTest(unittest.TestCase):
    def results(self):
        grid = 2 * 7014 * 3 * 5
        return [CriterionResult(f"criterion-{i} name", True, grid if i == 1 else 10)
                for i in range(1, 8)]

    def test_passing_results_pass(self):
        self.assertEqual(checks.check_selftest(self.results(), 7014, 2, 4), [])

    def test_criterion_marked_fail_fails(self):
        results = self.results()
        results[3].fail("planted")
        self.assertNotEqual(checks.check_selftest(results, 7014, 2, 4), [])


class ScaledTimeTest(unittest.TestCase):
    def sampler(self, refs):
        """Samples at 0, 10, 20, ... each taking 1 time unit."""
        sampler = calibrate.Sampler.__new__(calibrate.Sampler)
        sampler.starts = [10.0 * i for i in range(len(refs))]
        sampler.ends = [start + 1.0 for start in sampler.starts]
        sampler.refs = [ref * calibrate.REFERENCE_S for ref in refs]
        return sampler

    def test_samples_are_left_out(self):
        sampler = self.sampler([1, 1, 1])
        self.assertAlmostEqual(sampler.scaled(0.0, 20.0), 18.0)
        self.assertAlmostEqual(sampler.scaled(2.0, 5.0), 3.0)

    def test_each_gap_scaled_by_the_samples_around_it(self):
        # gap 0 sees samples 0-2 (median 2), gap 1 samples 0-3 (2.5), gap 2 1-4 (3.5)
        sampler = self.sampler([1, 2, 3, 4, 9, 9])
        self.assertAlmostEqual(sampler.scaled(1.0, 31.0), 9.0 / 2 + 9.0 / 2.5 + 9.0 / 3.5)
        self.assertAlmostEqual(sampler.scaled(12.0, 15.0), 3.0 / 2.5)

    def test_one_slow_sample_is_outvoted(self):
        sampler = self.sampler([1, 1, 5, 1, 1])
        self.assertAlmostEqual(sampler.scaled(11.0, 20.0), 9.0)


if __name__ == "__main__":
    unittest.main()
