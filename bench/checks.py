"""Output checks, computed apart from the code they check.

Prenex block structure, free variables and ``measure`` come from the
benchmark's own ``formulas`` module.  The program is used only to re-parse
its own text output (whose result is then compared with the benchmark's
model of the input) and, for a seeded sample, as the reachability oracle
that the classifier's verdicts must agree with.  Each check returns a list
of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json

import formulas as fm

SELFTEST_CRITERIA = 7
SELFTEST_CORPUS_SIZE = 7014  # alpha-distinct formulas of size <= 5 over P/1, Q/1, x, y
CLASSIFY_SCHEMA = "prenexify.classify/1"


def check_selftest(results, corpus_size: int, n_max: int, k_max: int) -> list[str]:
    """All seven criteria pass with nonzero counts over the full size-5 corpus."""
    failures = []
    if corpus_size != SELFTEST_CORPUS_SIZE:
        failures.append(f"corpus has {corpus_size} formulas, expected {SELFTEST_CORPUS_SIZE}")
    if len(results) != SELFTEST_CRITERIA:
        failures.append(f"{len(results)} criteria reported, expected {SELFTEST_CRITERIA}")
    for index, result in enumerate(results, start=1):
        if not result.name.startswith(f"criterion-{index} "):
            failures.append(f"criterion {index} is named {result.name!r}")
        if not result.passed:
            failures.append(f"{result.name} failed: {result.failures[:1]}")
        if result.checks <= 0:
            failures.append(f"{result.name} made no checks")
    # Criterion 1 compares both verdicts of every corpus formula at every
    # (n, k) with the oracle; a smaller count means formulas were skipped.
    grid = 2 * corpus_size * (n_max + 1) * (k_max + 1)
    if results and results[0].checks != grid:
        failures.append(f"criterion 1 made {results[0].checks} checks, expected {grid}")
    return failures


def _grid(record: dict) -> dict:
    return {(cell["n"], cell["k"]): (cell["in_J"], cell["in_R"]) for cell in record["grid"]}


def check_classify_record(expected: tuple, record: dict, parse, degrees, k_max: int) -> list[str]:
    """One ``classify`` line against the benchmark's model of its input.

    ``parse`` is the program's parser, used to read the record's own text.
    """
    failures = []
    text = record.get("formula")
    if record.get("schema") != CLASSIFY_SCHEMA:
        failures.append(f"schema {record.get('schema')!r}")
    if fm.from_program(parse(text)) != expected:
        failures.append(f"formula field {text!r} does not re-parse to its input")
    shape = fm.prenex_blocks(expected)
    want_prenex = None if shape is None else {
        "kind": shape[0], "level": len(shape[1]), "blocks": list(shape[1])}
    if record.get("prenex") != want_prenex:
        failures.append(f"{text}: prenex {record.get('prenex')} != {want_prenex}")
    floors = {"sigma_plus": fm.sigma_floor(expected), "pi_plus": fm.pi_floor(expected)}
    for key, floor in floors.items():
        want = [] if floor is None else list(range(floor, k_max + 1))
        if record.get(key) != want:
            failures.append(f"{text}: {key} {record.get(key)} != {want}")

    grid = _grid(record)
    cells = {(n, k) for n in degrees for k in range(k_max + 1)}
    if set(grid) != cells or len(record["grid"]) != len(cells):
        return failures + [f"{text}: grid cells {sorted(grid)} != {sorted(cells)}"]
    qf = fm.is_qf(expected)
    for n in degrees:
        if grid[n, 0] != (qf, qf):
            failures.append(f"{text}: level 0 at n={n} is {grid[n, 0]}, quantifier-free={qf}")
        for k in range(k_max):
            j, r = grid[n, k]
            j_up, r_up = grid[n, k + 1]
            if (j and not j_up) or (r and not r_up) or ((j or r) and not (j_up and r_up)):
                failures.append(f"{text}: not cumulative at n={n} k={k}")
        for k in range(k_max + 1):
            for m in degrees:
                if m <= n:
                    continue
                j, r = grid[n, k]
                j_m, r_m = grid[m, k]
                if (j and not j_m) or (r and not r_m):
                    failures.append(f"{text}: not monotone in n at k={k}, n={n}->{m}")
                if n >= k and grid[n, k] != grid[m, k]:
                    failures.append(f"{text}: not stable for n>=k at k={k}, n={n},{m}")
        least = {
            "k_J": next((k for k in range(k_max + 1) if grid[n, k][0]), None),
            "k_R": next((k for k in range(k_max + 1) if grid[n, k][1]), None),
        }
        if record.get("min_levels", {}).get(str(n)) != least:
            failures.append(f"{text}: min_levels at n={n} "
                            f"{record.get('min_levels', {}).get(str(n))} != {least}")
    if 0 in degrees:
        for k in range(k_max + 1):
            j, r = grid[0, k]
            if floors["sigma_plus"] is not None and floors["sigma_plus"] <= k and not j:
                failures.append(f"{text}: in Sigma_{k}+ but not in J_{k}^0")
            if floors["pi_plus"] is not None and floors["pi_plus"] <= k and not r:
                failures.append(f"{text}: in Pi_{k}+ but not in R_{k}^0")
    return failures


def check_reachability(expected: tuple, record: dict, reach, degrees, k_max: int) -> list[str]:
    """Verdicts equal reachability of Sigma_k+ / Pi_k+ at each degree.

    ``reach(n)`` returns the alpha-canonical members of the formula's
    closure under degree-n rewriting; their prenex floors are computed here.
    """
    failures = []
    grid = _grid(record)
    for n in degrees:
        members, exhausted = reach(n)
        if not exhausted:
            failures.append(f"{record['formula']}: closure at n={n} not exhausted")
            continue
        asts = [fm.from_program(m) for m in members]
        s_floors = [f for f in map(fm.sigma_floor, asts) if f is not None]
        p_floors = [f for f in map(fm.pi_floor, asts) if f is not None]
        for k in range(k_max + 1):
            want = (any(f <= k for f in s_floors), any(f <= k for f in p_floors))
            if grid[n, k] != want:
                failures.append(f"{record['formula']}: verdict {grid[n, k]} at n={n} "
                                f"k={k}, reachability says {want}")
    return failures


def _from_dict(data: dict) -> tuple:
    op = data["op"]
    if op == "falsum":
        return fm.FALSE
    if op == "prime":
        return ("P", data["name"], tuple(data["args"]))
    if op in ("exists", "forall"):
        return ("E" if op == "exists" else "A", data["var"], _from_dict(data["body"]))
    tag = {"and": "&", "or": "|", "imp": ">"}[op]
    return (tag, _from_dict(data["left"]), _from_dict(data["right"]))


def check_normalization(item: dict, outcome: dict) -> list[str]:
    """One normalization: class membership of the output, free variables,
    the trace's byte-identical text round trip and replay, and the step
    count against the drop in ``measure``.

    ``outcome`` holds ``result`` (the program's NormalizationResult),
    ``json`` (its serialized ``to_json()``), ``text`` and ``text_again``
    (the trace printed, re-read and printed again) and ``replayed`` (the
    formula the re-read trace replays to).
    """
    failures = []
    result = outcome["result"]
    source = fm.from_program(result.input)
    output = fm.from_program(result.output)
    label = item["text"][:60]
    if source != item["ast"]:
        failures.append(f"{label}: input was not read as generated")
    if (result.k, result.n, result.target) != (item["k"], item["n"], item["target"]):
        failures.append(f"{label}: answered for another class")
    floor = (fm.sigma_floor if item["target"] == "sigma" else fm.pi_floor)(output)
    if floor is None or floor > item["k"]:
        failures.append(f"{label}: output is not in {item['target']}_{item['k']}+")
    if fm.free_vars(output) != fm.free_vars(source):
        failures.append(f"{label}: free variables not preserved")
    if outcome["text_again"] != outcome["text"]:
        failures.append(f"{label}: text trace does not round-trip byte-identically")
    if outcome["replayed"] is not result.output:
        failures.append(f"{label}: trace does not replay to the output")
    drop = fm.measure(source) - fm.measure(output)
    if len(result.trace.steps) != drop:
        failures.append(f"{label}: {len(result.trace.steps)} steps, measure fell by {drop}")
    doc = json.loads(outcome["json"])
    if _from_dict(doc["output"]["ast"]) != output or len(doc["trace"]["steps"]) != drop:
        failures.append(f"{label}: JSON result disagrees with the result")
    return failures
