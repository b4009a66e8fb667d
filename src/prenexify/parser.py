"""Text syntax for formulas.

Grammar (ASCII only)::

    formula  ::= imp
    imp      ::= or ('->' imp)?                  right associative
    or       ::= and ('|' or)?                   right associative
    and      ::= unary ('&' and)?                right associative
    unary    ::= '~' unary | quant | atom
    quant    ::= ('exists' | 'forall') VAR '.' formula
    atom     ::= 'false' | PRED ('(' VAR (',' VAR)* ')')? | '(' formula ')'

Precedence is ``~`` > ``&`` > ``|`` > ``->``.  A quantifier extends
maximally to the right, so ``exists x. P(x) & Q`` parses as
``exists x. (P(x) & Q)``; a quantified antecedent or operand must be
parenthesised, e.g. ``(exists x. P(x)) -> Q``.  ``~p`` desugars to
``p -> false`` and is never reintroduced by the renderer.

Predicates start with an uppercase letter, variables with a lowercase
letter.  ``render`` emits minimal parentheses and ``parse(render(phi))``
is structurally ``phi``.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .formula import (
    FALSUM,
    And,
    Exists,
    Falsum,
    Forall,
    Formula,
    Imp,
    Or,
    Prime,
    _Binary,
    _Quant,
)

__all__ = [
    "ParseError",
    "ArityError",
    "parse",
    "render",
    "parse_corpus",
    "is_variable",
    "parse_signature_line",
    "formula_to_dict",
    "formula_from_dict",
]

_KEYWORDS = {"exists", "forall", "false"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<punct>[()&|~.,])
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
""",
    re.VERBOSE,
)


class ParseError(Exception):
    """Syntax error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityError(ParseError):
    """A predicate was used with an arity conflicting with the signature."""


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str, line: int = 1) -> list[_Token]:
    tokens = []
    pos = 0
    column = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            if kind == "name":
                if tok in _KEYWORDS:
                    kind = tok
                elif tok[0].isupper():
                    kind = "pred"
                else:
                    kind = "var"
            else:
                kind = tok
            tokens.append(_Token(kind, tok, line, column))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            column = len(tok) - tok.rfind("\n")
        else:
            column += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], signature: Optional[dict[str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.seen_arities: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def parse_formula(self) -> Formula:
        return self.parse_imp()

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "->":
            self.advance()
            return Imp(left, self.parse_imp())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        if self.peek().kind == "|":
            self.advance()
            return Or(left, self.parse_or())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        if self.peek().kind == "&":
            self.advance()
            return And(left, self.parse_and())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.advance()
            return Imp(self.parse_unary(), FALSUM)
        if tok.kind in ("exists", "forall"):
            self.advance()
            var = self.expect("var").text
            self.expect(".")
            body = self.parse_formula()
            return Exists(var, body) if tok.kind == "exists" else Forall(var, body)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "false":
            self.advance()
            return FALSUM
        if tok.kind == "(":
            self.advance()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if tok.kind == "pred":
            self.advance()
            args: list[str] = []
            if self.peek().kind == "(":
                self.advance()
                args.append(self.expect("var").text)
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expect("var").text)
                self.expect(")")
            self.check_arity(tok, len(args))
            return Prime(tok.text, tuple(args))
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def check_arity(self, tok: _Token, arity: int) -> None:
        if self.signature is not None:
            declared = self.signature.get(tok.text)
            if declared is None:
                raise ArityError(
                    f"predicate {tok.text} not in signature", tok.line, tok.column
                )
            if declared != arity:
                raise ArityError(
                    f"predicate {tok.text} expects {declared} argument(s), got {arity}",
                    tok.line,
                    tok.column,
                )
        else:
            prev = self.seen_arities.setdefault(tok.text, arity)
            if prev != arity:
                raise ArityError(
                    f"predicate {tok.text} used with arities {prev} and {arity}",
                    tok.line,
                    tok.column,
                )


def parse(
    text: str, signature: Optional[dict[str, int]] = None, line: int = 1
) -> Formula:
    """Parse ``text`` into a formula.

    When ``signature`` maps predicate names to arities, uses are checked
    against it; without one, arities only need to be consistent within the
    formula.  ``line`` offsets error positions for multi-line inputs.
    """
    parser = _Parser(_tokenize(text, line), signature)
    result = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return result


def is_variable(text: str) -> bool:
    """Whether ``text`` is exactly one variable token of the grammar."""
    try:
        first, _eof = _tokenize(text)
    except (ParseError, ValueError):
        return False
    return first.kind == "var" and first.text == text


# Precedence levels used by the renderer; higher binds tighter.
_LEVEL_IMP = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_ATOM = 4


def render(phi: Formula) -> str:
    """Minimal-parentheses text for ``phi``; inverse of :func:`parse`."""
    return _render(phi, 0, True)


def _render(phi: Formula, context: int, tail: bool) -> str:
    # ``tail`` is true when nothing follows phi up to the end of the
    # enclosing scope, in which case a quantifier needs no parentheses
    # even though it extends maximally to the right.
    if isinstance(phi, Falsum):
        return "false"
    if isinstance(phi, Prime):
        if phi.args:
            return f"{phi.name}({', '.join(phi.args)})"
        return phi.name
    if isinstance(phi, _Quant):
        word = "exists" if isinstance(phi, Exists) else "forall"
        text = f"{word} {phi.var}. {_render(phi.body, 0, True)}"
        return text if tail else f"({text})"

    assert isinstance(phi, _Binary)
    if isinstance(phi, Imp):
        sym, level = "->", _LEVEL_IMP
    elif isinstance(phi, Or):
        sym, level = "|", _LEVEL_OR
    else:
        sym, level = "&", _LEVEL_AND
    parenthesize = context > level
    # Right-associative: the left operand needs strictly tighter binding.
    left = _render(phi.left, level + 1, False)
    right = _render(phi.right, level, True if parenthesize else tail)
    text = f"{left} {sym} {right}"
    return f"({text})" if parenthesize else text


# The JSON name of every connective and quantifier, and its inverse.
_OPS = {And: "and", Or: "or", Imp: "imp", Exists: "exists", Forall: "forall"}
_OP_CLASSES = {op: cls for cls, op in _OPS.items()}


def formula_to_dict(phi: Formula) -> dict:
    """JSON-friendly AST form; inverse of :func:`formula_from_dict`."""
    if isinstance(phi, Falsum):
        return {"op": "falsum"}
    if isinstance(phi, Prime):
        return {"op": "prime", "name": phi.name, "args": list(phi.args)}
    if isinstance(phi, _Quant):
        body = formula_to_dict(phi.body)
        return {"op": _OPS[type(phi)], "var": phi.var, "body": body}
    left, right = formula_to_dict(phi.left), formula_to_dict(phi.right)
    return {"op": _OPS[type(phi)], "left": left, "right": right}


def formula_from_dict(data: dict) -> Formula:
    op = data["op"]
    if op == "falsum":
        return FALSUM
    if op == "prime":
        return Prime(data["name"], tuple(data["args"]))
    cls = _OP_CLASSES.get(op)
    if cls is None:
        raise ValueError(f"unknown formula op {op!r}")
    if issubclass(cls, _Quant):
        return cls(data["var"], formula_from_dict(data["body"]))
    return cls(formula_from_dict(data["left"]), formula_from_dict(data["right"]))


def parse_signature_line(text: str, line: int = 1) -> dict[str, int]:
    """Parse a ``sig P/1 Q/2`` declaration into a name-to-arity map."""
    fields = text.split()
    if not fields or fields[0] != "sig":
        raise ParseError("signature line must start with 'sig'", line, 1)
    signature: dict[str, int] = {}
    for field in fields[1:]:
        m = re.fullmatch(r"([A-Z][A-Za-z0-9_]*)/(\d+)", field)
        if m is None:
            raise ParseError(f"malformed signature entry {field!r}", line, 1)
        name, arity = m.group(1), int(m.group(2))
        if signature.setdefault(name, arity) != arity:
            raise ParseError(f"conflicting arities for {name}", line, 1)
    return signature


def parse_corpus(
    lines: Iterable[str], signature: Optional[dict[str, int]] = None
) -> tuple[Optional[dict[str, int]], list[tuple[int, Formula]], list[ParseError]]:
    """Parse a corpus: ``#`` comments, an optional leading ``sig`` header,
    then one formula per line.  Returns the signature, the formulas with
    their 1-based line numbers, and every error, in line order.  A given
    ``signature`` replaces the header, which is then skipped unparsed.
    """
    formulas: list[tuple[int, Formula]] = []
    errors: list[ParseError] = []
    header = True
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            if header and (text == "sig" or text.startswith("sig ")):
                if signature is None:
                    signature = parse_signature_line(text, lineno)
            else:
                formulas.append((lineno, parse(text, signature, lineno)))
        except ParseError as exc:
            errors.append(exc)
        header = False
    return signature, formulas, errors
