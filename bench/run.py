"""Benchmark of the three pipelines prenexify users run.

Usage, from the repository root::

    python3 bench/run.py --workload selftest|classify|normalize \\
        --seed N --seconds S --trace 0|1

Each round of a workload runs in a fresh interpreter (``worker.py``) with
``PYTHONHASHSEED`` fixed, because the program keeps process-global caches
(the intern table, the default classifier memo, the transition cache) that
would let one round warm the next.  ``--seconds`` sets how many rounds a
run makes, at a nominal round length per workload.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics, whose times are scaled to a fixed reference speed of the machine
(``calibrate.py``); with ``--trace 1``, untraced and traced rounds
alternate and the object holds the per-layer metrics.  Every round's outputs are checked;
the full record of the run goes to ``.bench_out/``.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))
HASH_SEED = "0"
SETUP_PROBES = 5  # extra set-up-only processes, so set-up has enough samples
DEADLINE_S = 170  # a round still running then is killed and the run fails
SLOW_FACTOR = 2  # no new round once a run has taken this many times --seconds

# Nominal length of one untraced round.  ``--seconds`` sets the number of
# rounds from it, not a clock, so that every run of a workload takes its
# medians over the same number of rounds.
NOMINAL_ROUND_S = {"selftest": 10.0, "classify": 3.0, "normalize": 6.0}
WORKLOADS = tuple(NOMINAL_ROUND_S)

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (key in the traced round's layer report, unit)
PER_LAYER = {
    "parser.parse.calls": ("parser.parse.calls", "count"),
    "parser.parse.self_s": ("parser.parse.self_s", "s"),
    "parser.parse.chars_per_s": (None, "chars/s"),
    "parser.render.calls": ("parser.render.calls", "count"),
    "parser.render.self_s": ("parser.render.self_s", "s"),
    "parser.formula_to_dict.self_s": ("parser.formula_to_dict.self_s", "s"),
    "formula.alpha_canonical.calls": ("formula.alpha_canonical.calls", "count"),
    "formula.alpha_canonical.self_s": ("formula.alpha_canonical.self_s", "s"),
    "formula.replace_at.calls": ("formula.replace_at.calls", "count"),
    "formula.replace_at.self_s": ("formula.replace_at.self_s", "s"),
    "formula.subformula_at.self_s": ("formula.subformula_at.self_s", "s"),
    "hierarchy.classify_prenex.self_s": ("hierarchy.classify_prenex.self_s", "s"),
    "semiclassical.decide.calls": ("semiclassical.decide.calls", "count"),
    "semiclassical.decide.self_s": ("semiclassical.decide.self_s", "s"),
    "semiclassical.min_levels.self_s": ("semiclassical.min_levels.self_s", "s"),
    "semiclassical.witness.calls": ("semiclassical.witness.calls", "count"),
    "semiclassical.witness.self_s": ("semiclassical.witness.self_s", "s"),
    "rewrite.applicable_steps.calls": ("rewrite.applicable_steps.calls", "count"),
    "rewrite.applicable_steps.self_s": ("rewrite.applicable_steps.self_s", "s"),
    "rewrite.apply_step.calls": ("rewrite.apply_step.calls", "count"),
    "rewrite.apply_step.self_s": ("rewrite.apply_step.self_s", "s"),
    "rewrite.verify_trace.self_s": ("rewrite.verify_trace.self_s", "s"),
    "rewrite.trace_text.self_s": ("rewrite.trace_text.self_s", "s"),
    "normalizer.normalize.calls": ("normalizer.normalize.calls", "count"),
    "normalizer.normalize.self_s": ("normalizer.normalize.self_s", "s"),
    "normalizer.steps": ("normalizer_steps", "count"),
    "oracle.reachable_set.calls": ("oracle.reachable_set.calls", "count"),
    "oracle.reachable_set.self_s": ("oracle.reachable_set.self_s", "s"),
    "oracle.states": ("oracle_states", "count"),
    "oracle.edges": ("oracle_edges", "count"),
    "oracle.enumerate_formulas_s": ("oracle.enumerate_formulas.total_s", "s"),
    "selftest.criteria_1_2_5_s": (None, "s"),
    "selftest.criterion_3_s": (None, "s"),
    "selftest.criterion_4_s": (None, "s"),
    "selftest.criterion_6_s": (None, "s"),
    "selftest.criterion_7_s": (None, "s"),
    "gc.pause_s": ("gc.pause_s", "s"),
    "gc.collections": ("gc.collections", "count"),
    "tracing.overhead_s": (None, "s"),
}


class RoundError(Exception):
    """A worker process failed or printed no result."""


def prepare(workload: str, seed: int) -> tuple[str, int]:
    """Write the workload's inputs under ``.bench_out``; return their stem
    and the number of items in them."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-{seed}"
    if workload == "classify":
        items = inputs.classify_corpus(seed)
        stem.with_suffix(".txt").write_text(inputs.corpus_text(items), encoding="utf-8")
    elif workload == "normalize":
        items = inputs.normalize_items(seed)
    else:
        return str(stem), 0
    stem.with_suffix(".json").write_text(json.dumps(items), encoding="utf-8")
    return str(stem), len(items)


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its record."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    spec = dict(spec, spawned_ns=time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{spec['workload']} round exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_round(spec: dict, deadline: float) -> dict:
    """One round: one worker, or for ``normalize`` one worker for each of
    ``inputs.NORMALIZE_PROCESSES`` equal shares of the items, merged."""
    if spec["workload"] != "normalize" or spec["setup_only"]:
        return spawn(spec, deadline)
    step = spec["items"] // inputs.NORMALIZE_PROCESSES
    parts = [spawn(dict(spec, chunk=[lo, lo + step]), deadline)
             for lo in range(0, spec["items"], step)]
    merged = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "items": sum(p["items"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "slices": [t for p in parts for t in p["slices"]],
        "wall_s": sum(p["wall_s"] for p in parts),
        "rss_mb": max(p["rss_mb"] for p in parts),
        "correct": all(p["correct"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
    }
    if "layers" in parts[0]:
        merged["layers"] = {key: sum(p["layers"][key] for p in parts) for key in parts[0]["layers"]}
    return merged


def repeat(make_round, count: int, seconds: float) -> list:
    """``count`` rounds, fewer (but at least one) on a machine so slow that
    they would take more than ``SLOW_FACTOR`` times ``seconds``."""
    start = time.monotonic()
    rounds = [make_round()]
    while len(rounds) < count:
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > SLOW_FACTOR * seconds:
            break
        rounds.append(make_round())
    return rounds


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(workload: str, probes: list[dict], rounds: list[dict]) -> dict:
    """End-to-end metrics from each slice's median time over the rounds.

    Every round repeats the same slices: one per normalization, one per
    selftest phase, one for the classify call.  Their times are scaled to
    the reference speed (``calibrate``), because the host's own speed
    swings by up to a factor of two in spells of seconds.
    """
    medians = [None if None in times else statistics.median(times)
               for times in zip(*(r["slices"] for r in rounds))]
    done = [t for t in medians if t is not None]
    if workload == "normalize":
        latencies = [t * 1000 for t in done]  # a user waits on one normalization
    else:
        latencies = [sum(done) * 1000]  # a user waits on the whole command
    values = {
        "throughput_per_s": (rounds[0]["items"] - rounds[0]["failed"]) / sum(done),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Per-layer metrics from (untraced, traced) round pairs.

    Times are medians over the traced rounds; counts must agree exactly
    between them.  The selftest criterion times are cut at the progress
    callbacks of the untraced rounds, so they carry no tracing cost.
    """
    traced = [t["layers"] for _, t in pairs]
    problems = []
    values = {}
    for name, (key, _) in PER_LAYER.items():
        if key is None:
            continue
        samples = [layers[key] for layers in traced]
        if isinstance(samples[0], int):
            if len(set(samples)) != 1:
                problems.append(f"{name} differs between traced rounds: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    parse_s = values["parser.parse.self_s"]
    chars = traced[0]["parse_chars"]
    values["parser.parse.chars_per_s"] = chars / parse_s if parse_s else 0.0
    for name in PER_LAYER:
        if name.startswith("selftest."):
            values[name] = statistics.median(u.get("cuts", {}).get(name, 0.0) for u, _ in pairs)
    values["tracing.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    return ({name: {"value": values[name], "unit": unit}
             for name, (_, unit) in PER_LAYER.items()}, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "prenexify" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'prenexify'}", file=sys.stderr)
        return 2
    stem, items = prepare(args.workload, args.seed)
    spec = {"workload": args.workload, "seed": args.seed, "input": stem, "items": items,
            "chunk": [0, items], "trace": False, "setup_only": False}
    try:
        nominal = NOMINAL_ROUND_S[args.workload]
        if args.trace:
            # a traced round takes about twice as long as an untraced one
            pairs = repeat(lambda: (run_round(spec, deadline),
                                    run_round(dict(spec, trace=True), deadline)),
                           max(1, round(args.seconds / (3 * nominal))), args.seconds)
            rounds = [r for pair in pairs for r in pair]
            metrics, problems = per_layer(pairs)
        else:
            probes = [spawn(dict(spec, setup_only=True), deadline) for _ in range(SETUP_PROBES)]
            rounds = repeat(lambda: run_round(spec, deadline),
                            max(2, round(args.seconds / nominal)), args.seconds)
            metrics, problems = end_to_end(args.workload, probes, rounds), []
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in rounds for f in r["failures"]] + problems
    summary = {
        "correct": all(r["correct"] for r in rounds) and not problems,
        "attempted": sum(r["items"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  python=sys.version.split()[0], cpus=os.cpu_count(),
                  failures=failures[:20], rounds=rounds)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
