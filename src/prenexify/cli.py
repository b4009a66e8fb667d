"""Command-line front end.

Subcommands: parse | classify | normalize | verify | search | selftest.
Exit codes: 0 pass, 1 fail, 2 input error, 3 not-in-class (normalize),
4 budget exhausted without an answer (search).  The environment variable
``PRENEXIFY_BUDGET`` overrides the default search node budget; an
optional key=value config file can declare a signature and budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import oracle
from .formula import Formula
from .hierarchy import classify_prenex, in_pi_plus, in_sigma_plus
from .normalizer import NotInClassError, normalize_J, normalize_R
from .parser import ParseError, parse, parse_signature_line, render
from .rewrite import (
    RewriteError,
    trace_from_json,
    trace_from_text,
    trace_to_text,
    verify_trace,
)
from .selftest import DEFAULT_SEED, run_selftest
from .semiclassical import Classifier

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_IN_CLASS = 3
EXIT_UNKNOWN = 4

CLASSIFY_SCHEMA = "prenexify.classify/1"


def _default_budget() -> int:
    value = os.environ.get("PRENEXIFY_BUDGET")
    if value:
        try:
            return int(value)
        except ValueError:
            raise SystemExit(f"PRENEXIFY_BUDGET is not an integer: {value!r}")
    return oracle.DEFAULT_NODE_BUDGET


def _load_config(path: Optional[str]) -> dict:
    """key=value lines; recognized keys: sig, budget."""
    config: dict = {}
    if path is None:
        return config
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SystemExit(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key == "sig":
                    config["sig"] = parse_signature_line("sig " + value, lineno)
                elif key == "budget":
                    config["budget"] = int(value)
                else:
                    raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
    except OSError as exc:
        raise SystemExit(f"cannot read config {path}: {exc}")
    return config


def _signature_from(args) -> Optional[dict[str, int]]:
    config = _load_config(getattr(args, "config", None))
    if getattr(args, "sig", None):
        return parse_signature_line("sig " + args.sig)
    return config.get("sig")


def _budget_from(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    config = _load_config(getattr(args, "config", None))
    return config.get("budget", _default_budget())


def _parse_formula_arg(text: str, signature) -> Formula:
    try:
        return parse(text, signature)
    except ParseError as exc:
        raise SystemExit(EXIT_INPUT, f"parse error: {exc}") from exc


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return value


def _naturals(text: str) -> list[int]:
    return [_natural(part) for part in text.split(",") if part.strip() != ""]


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one line and exit code 2 through ``main``."""

    def error(self, message: str):
        raise SystemExit((EXIT_INPUT, f"{self.prog}: error: {message}"))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, tuple):
            code, message = exc.code
            print(message, file=sys.stderr)
            return code
        raise


def _build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="prenexify",
        description="Semi-classical prenex class checks, normalization and search",
    )
    top.add_argument("--config", help="key=value config file (sig, budget)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its rendering")
    p.add_argument("formula")
    p.add_argument("--sig", help="signature, e.g. 'P/1 Q/2'")
    p.add_argument("--json", action="store_true", help="print the AST as JSON")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("classify", help="classify a corpus file (JSON lines)")
    p.add_argument("input", help="corpus file, one formula per line")
    p.add_argument(
        "--n",
        type=_naturals,
        default="0,1,2",
        help="comma-separated degrees (default 0,1,2)",
    )
    p.add_argument("--k-max", type=_natural, default=4)
    p.add_argument("--sig", help="signature overriding the corpus header")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalize", help="extract a prenex form with trace")
    p.add_argument("formula")
    p.add_argument("-k", type=_natural, required=True)
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("--target", choices=("sigma", "pi"), default="sigma")
    p.add_argument("--sig")
    p.add_argument("--trace-out", help="write the trace (text format) here")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("verify", help="replay a trace file")
    p.add_argument("trace", help="trace file, text or JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive reachability query")
    p.add_argument("formula")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("--target", choices=("sigma", "pi", "j", "r"), required=True)
    p.add_argument("-k", type=_natural, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--sig")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return top


def cmd_parse(args) -> int:
    phi = _parse_formula_arg(args.formula, _signature_from(args))
    if args.json:
        from .parser import formula_to_dict

        print(json.dumps(formula_to_dict(phi), sort_keys=True))
    else:
        print(render(phi))
    return EXIT_OK


def _classify_record(phi: Formula, degrees, k_max: int, checker: Classifier) -> dict:
    shape = classify_prenex(phi)
    record = {
        "schema": CLASSIFY_SCHEMA,
        "formula": render(phi),
        "prenex": None
        if shape is None
        else {"kind": shape.kind, "level": shape.level, "blocks": list(shape.blocks)},
        "sigma_plus": [k for k in range(k_max + 1) if in_sigma_plus(phi, k)],
        "pi_plus": [k for k in range(k_max + 1) if in_pi_plus(phi, k)],
        "grid": [],
        "min_levels": {},
    }
    for n in degrees:
        for k in range(k_max + 1):
            j, r = checker.decide(phi, k, n)
            record["grid"].append({"n": n, "k": k, "in_J": j, "in_R": r})
        k_j, k_r = checker.min_levels(phi, n, k_max)
        record["min_levels"][str(n)] = {"k_J": k_j, "k_R": k_r}
    return record


def cmd_classify(args) -> int:
    signature = _signature_from(args)
    try:
        with open(args.input, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    formulas: list[tuple[int, Formula]] = []
    errors: list[str] = []
    header = signature
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if (text == "sig" or text.startswith("sig ")) and not formulas:
            if signature is None:
                try:
                    header = parse_signature_line(text, lineno)
                except ParseError as exc:
                    errors.append(str(exc))
            continue
        try:
            formulas.append((lineno, parse(text, header, lineno)))
        except ParseError as exc:
            errors.append(str(exc))
    for message in errors:
        print(f"{args.input}:{message}", file=sys.stderr)
    if errors:
        return EXIT_INPUT

    checker = Classifier()
    for _, phi in formulas:
        record = _classify_record(phi, args.n, args.k_max, checker)
        print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_normalize(args) -> int:
    phi = _parse_formula_arg(args.formula, _signature_from(args))
    try:
        result = (
            normalize_J(phi, args.k, args.n)
            if args.target == "sigma"
            else normalize_R(phi, args.k, args.n)
        )
    except NotInClassError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_IN_CLASS
    print(json.dumps(result.to_json(), sort_keys=True))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(trace_to_text(result.trace))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.trace, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        stripped = text.lstrip()
        if stripped.startswith("{"):
            trace = trace_from_json(json.loads(text))
        else:
            trace = trace_from_text(text)
    except (ValueError, ParseError) as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        final = verify_trace(trace)
    except RewriteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    print(render(final))
    return EXIT_OK


def cmd_search(args) -> int:
    phi = _parse_formula_arg(args.formula, _signature_from(args))
    budget = _budget_from(args)
    k, n = args.k, args.n
    checker = Classifier()
    predicate = {
        "sigma": lambda m: in_sigma_plus(m, k),
        "pi": lambda m: in_pi_plus(m, k),
        "j": lambda m: checker.in_J(m, k, n),
        "r": lambda m: checker.in_R(m, k, n),
    }[args.target]
    result = oracle.can_reach(phi, n, predicate, budget, checker)
    print(result.status)
    if result.status == "yes":
        text = trace_to_text(result.trace)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if result.status == "no":
        return EXIT_OK
    return EXIT_UNKNOWN


def cmd_selftest(args) -> int:
    budget = _budget_from(args)
    progress = None if args.quiet else lambda message: print(message, file=sys.stderr)
    results = run_selftest(
        size=args.size,
        n_max=args.n_max,
        k_max=args.k_max,
        seed=args.seed,
        budget=budget,
        progress=progress,
    )
    for criterion in results:
        print(criterion.line())
    return EXIT_OK if all(c.passed for c in results) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
