"""Command-line front end.

Subcommands: parse | classify | normalize | verify | search | selftest.
Exit codes: 0 pass, 1 fail (verify, selftest), 2 input error, 3 not in
the class (normalize), 4 budget exhausted without an answer (search).
Unusable outside input (argv, config, ``PRENEXIFY_BUDGET``, a file that
cannot be read, decoded or written) raises :class:`InputError`; ``main``
reports it, like a formula's ``ParseError``, as one stderr line and exit
2.  Signature and budget are resolved once, before dispatch: the flag,
then the ``--config`` file (``key=value`` lines: ``sig``, ``budget``;
read for every command), then ``PRENEXIFY_BUDGET``, then the default.
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
from .parser import (
    ParseError,
    formula_to_dict,
    parse,
    parse_corpus,
    parse_signature_line,
    render,
)
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


class InputError(argparse.ArgumentTypeError):
    """Unusable outside input.  As an ``ArgumentTypeError`` it is reported
    by argparse against the argument whose conversion raised it."""


class _HelpShown(Exception):
    """``--help`` has printed its text; ``main`` returns 0."""


class _ArgumentParser(argparse.ArgumentParser):
    """Ends through ``main``'s return value instead of exiting."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: error: {message}")

    def exit(self, status=0, message=None):
        raise _HelpShown


def _natural(text: str, where: str = "") -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise InputError(f"{where}expected a natural number, got {text!r}")
    return value


def _naturals(text: str) -> list[int]:
    return [_natural(part) for part in text.split(",") if part.strip() != ""]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_config(path: str) -> dict:
    """``key=value`` lines with ``#`` comments; the keys are sig and budget."""
    config: dict = {}
    for lineno, raw in enumerate(_read(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}: "
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise InputError(f"{where}expected key=value")
        if key == "sig":
            try:
                config["sig"] = parse_signature_line("sig " + value, lineno)
            except ParseError as exc:
                raise InputError(f"{path}:{exc}") from None
        elif key == "budget":
            config["budget"] = _natural(value, f"{where}budget: ")
        else:
            raise InputError(f"{where}unknown key {key!r}")
    return config


def _resolve_settings(args) -> None:
    """Set ``args.sig`` and ``args.budget``, where the command has them, in
    order of precedence: flag, config file, ``PRENEXIFY_BUDGET``, default."""
    config = _load_config(args.config) if args.config is not None else {}
    if hasattr(args, "sig"):
        flag = args.sig
        args.sig = parse_signature_line("sig " + flag) if flag else config.get("sig")
    if getattr(args, "budget", 0) is None:
        env = os.environ.get("PRENEXIFY_BUDGET")
        if "budget" in config:
            args.budget = config["budget"]
        elif env:
            args.budget = _natural(env, "PRENEXIFY_BUDGET: ")
        else:
            args.budget = oracle.DEFAULT_NODE_BUDGET


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _resolve_settings(args)
        return args.func(args)
    except _HelpShown:
        return EXIT_OK
    except InputError as exc:
        print(exc, file=sys.stderr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    return EXIT_INPUT


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
    p.add_argument("--budget", type=_natural)
    p.add_argument("--sig")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.add_argument("--size", type=_natural, default=6)
    p.add_argument("--n-max", type=_natural, default=2)
    p.add_argument("--k-max", type=_natural, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=_natural)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return top


def cmd_parse(args) -> int:
    phi = parse(args.formula, args.sig)
    out = json.dumps(formula_to_dict(phi), sort_keys=True) if args.json else render(phi)
    print(out)
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
    _, formulas, errors = parse_corpus(_read(args.input).split("\n"), args.sig)
    for exc in errors:
        print(f"{args.input}:{exc}", file=sys.stderr)
    if errors:
        return EXIT_INPUT
    checker = Classifier()
    for _, phi in formulas:
        record = _classify_record(phi, args.n, args.k_max, checker)
        print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_normalize(args) -> int:
    phi = parse(args.formula, args.sig)
    normalize = normalize_J if args.target == "sigma" else normalize_R
    try:
        result = normalize(phi, args.k, args.n)
    except NotInClassError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_IN_CLASS
    if args.trace_out:
        _write(args.trace_out, trace_to_text(result.trace))
    print(json.dumps(result.to_json(), sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    text = _read(args.trace)
    try:
        if text.lstrip().startswith("{"):
            trace = trace_from_json(json.loads(text))
        else:
            trace = trace_from_text(text)
    except (ValueError, ParseError) as exc:
        raise InputError(f"malformed trace: {exc}") from None
    try:
        final = verify_trace(trace)
    except RewriteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    print(render(final))
    return EXIT_OK


def cmd_search(args) -> int:
    phi = parse(args.formula, args.sig)
    k, n = args.k, args.n
    checker = Classifier()
    predicate = {
        "sigma": lambda m: in_sigma_plus(m, k),
        "pi": lambda m: in_pi_plus(m, k),
        "j": lambda m: checker.in_J(m, k, n),
        "r": lambda m: checker.in_R(m, k, n),
    }[args.target]
    result = oracle.can_reach(phi, n, predicate, args.budget, checker)
    text = trace_to_text(result.trace) if result.status == "yes" else ""
    if text and args.trace_out:
        _write(args.trace_out, text)
        text = ""
    print(result.status)
    sys.stdout.write(text)
    return EXIT_UNKNOWN if result.status == "unknown" else EXIT_OK


def cmd_selftest(args) -> int:
    progress = None if args.quiet else lambda message: print(message, file=sys.stderr)
    results = run_selftest(
        size=args.size,
        n_max=args.n_max,
        k_max=args.k_max,
        seed=args.seed,
        budget=args.budget,
        progress=progress,
    )
    for criterion in results:
        print(criterion.line())
    return EXIT_OK if all(c.passed for c in results) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
