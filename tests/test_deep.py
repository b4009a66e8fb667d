"""The deep run: ``prenexify selftest --size 7`` and its check counts.

It took 99-126 s (two runs) on a 2-CPU machine with Python 3.11.7; the
calling process, which runs criteria 1 and 5, peaked at 461-468 MB of
resident memory, and the two forked workers that take the other criteria
from a shared queue at 675-676 and 607-618 MB (each counts the pages it
still shares with the caller).  So it is opt-in: set ``PRENEXIFY_DEEP=1`` to run it.
The default test run skips it.
"""

import os

import pytest

from prenexify.cli import main

pytestmark = pytest.mark.skipif(
    os.environ.get("PRENEXIFY_DEEP") != "1", reason="deep run: set PRENEXIFY_DEEP=1"
)

SIZE_7_CHECKS = {
    "criterion-1 characterization": 14_998_830,
    "criterion-2 normalizer soundness": 9_393_978,
    "criterion-3 stabilization": 7_999_376,
    "criterion-4 monotonicity suites": 25_198_611,
    "criterion-5 backward closure": 27_637_060,
    "criterion-6 pinned negatives": 16,
    "criterion-7 rewrite conformance": 59_290,
}


def test_selftest_size_7(capsys):
    assert main(["selftest", "--size", "7", "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"PASS {name} ({checks} checks)" for name, checks in SIZE_7_CHECKS.items()
    ]
