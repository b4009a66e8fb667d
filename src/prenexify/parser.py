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
from typing import Iterable, NoReturn, Optional

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

# One token per match, after optional whitespace: the arrow, a punctuation
# character, a name, or any other character, which is an error.
_TOKEN_RE = re.compile(r"\s*(->|[()&|~.,]|[A-Za-z][A-Za-z0-9_]*|\S)")
_VARIABLE_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_KEYWORDS = ("exists", "forall", "false")

# The kind of each token that is its own kind; a name's kind is given by
# its first letter, and any other text is an unexpected character.
_FIXED = {t: t for t in ("->", "(", ")", "&", "|", "~", ".", ",", *_KEYWORDS)}
_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "pred")
_FIRST.update(dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "var"))

_PRECEDENCE = {"->": 1, "|": 2, "&": 3}
_CONNECTIVES = {"->": Imp, "|": Or, "&": And}


class ParseError(Exception):
    """Syntax error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityError(ParseError):
    """A predicate was used with an arity conflicting with the signature."""


class _Parser:
    """Precedence climbing over parallel lists of token kinds and texts,
    the last of them ``eof``.  It recurses once per nesting level; a
    token's line and column are found only for an error."""

    def __init__(self, text: str, line: int, signature: Optional[dict[str, int]]):
        self.text = text
        self.line = line
        self.texts = _TOKEN_RE.findall(text)
        self.kinds = [_FIXED.get(t) or _FIRST.get(t[0], "char") for t in self.texts]
        self.kinds.append("eof")
        self.texts.append("")
        self.pos = 0
        self.signature = signature
        self.seen_arities: dict[str, int] = {}
        if "char" in self.kinds:
            i = self.kinds.index("char")
            self.fail(f"unexpected character {self.texts[i]!r}", i)

    def fail(self, message: str, i: int, error: type = ParseError) -> NoReturn:
        """Raise ``error`` at the line and column of token ``i``."""
        offsets = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        offset = offsets[i] if i < len(offsets) else len(self.text)
        line = self.line + self.text.count("\n", 0, offset)
        raise error(message, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, kind: str) -> str:
        i = self.pos
        if self.kinds[i] != kind:
            found = self.texts[i] or "end of input"
            self.fail(f"expected {kind!r}, found {found!r}", i)
        self.pos = i + 1
        return self.texts[i]

    def expr(self, min_prec: int) -> Formula:
        """The longest formula whose connectives bind at least as tightly
        as ``min_prec``; each connective is right associative."""
        left = self.unary()
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            prec = _PRECEDENCE.get(op, 0)
            if prec < min_prec:
                return left
            self.pos += 1
            left = _CONNECTIVES[op](left, self.expr(prec))

    def unary(self) -> Formula:
        i = self.pos
        kind = self.kinds[i]
        self.pos = i + 1
        if kind == "~":
            return Imp(self.unary(), FALSUM)
        if kind == "exists" or kind == "forall":
            var = self.expect("var")
            self.expect(".")
            body = self.expr(1)
            return Exists(var, body) if kind == "exists" else Forall(var, body)
        if kind == "pred":
            args: list[str] = []
            if self.kinds[self.pos] == "(":
                self.pos += 1
                args.append(self.expect("var"))
                while self.kinds[self.pos] == ",":
                    self.pos += 1
                    args.append(self.expect("var"))
                self.expect(")")
            self.check_arity(i, len(args))
            return Prime(self.texts[i], tuple(args))
        if kind == "(":
            inner = self.expr(1)
            self.expect(")")
            return inner
        if kind == "false":
            return FALSUM
        found = self.texts[i] or "end of input"
        self.fail(f"expected a formula, found {found!r}", i)

    def check_arity(self, i: int, arity: int) -> None:
        name = self.texts[i]
        if self.signature is not None:
            declared = self.signature.get(name)
            if declared is None:
                self.fail(f"predicate {name} not in signature", i, ArityError)
            if declared != arity:
                message = f"predicate {name} expects {declared} argument(s), got {arity}"
                self.fail(message, i, ArityError)
        else:
            prev = self.seen_arities.setdefault(name, arity)
            if prev != arity:
                message = f"predicate {name} used with arities {prev} and {arity}"
                self.fail(message, i, ArityError)


def parse(
    text: str, signature: Optional[dict[str, int]] = None, line: int = 1
) -> Formula:
    """Parse ``text`` into a formula.

    When ``signature`` maps predicate names to arities, uses are checked
    against it; without one, arities only need to be consistent within the
    formula.  ``line`` offsets error positions for multi-line inputs.
    """
    parser = _Parser(text, line, signature)
    try:
        result = parser.expr(1)
    except RecursionError:
        depth = _nesting_depth(parser.kinds)
        message = f"formula nests too deeply (depth {depth})"
        raise ParseError(message, line, 1) from None
    i = parser.pos
    if parser.kinds[i] != "eof":
        parser.fail(f"unexpected trailing input {parser.texts[i]!r}", i)
    return result


def _nesting_depth(kinds: list[str]) -> int:
    """How many connectives, quantifiers and parentheses enclose the
    deepest atom the token kinds spell, found without recursion by operator
    precedence; it reads malformed input too, as best it can."""
    depths: list[int] = []  # of the operands read so far
    ops: list[str] = []  # "(", "~", "q" (a quantifier) and connectives

    def apply() -> None:
        op = ops.pop()
        arity = 2 if op in _PRECEDENCE else 1
        operands = [depths.pop() for _ in range(min(arity, len(depths)))]
        depths.append(max(operands, default=0) + 1)

    def operand_read() -> None:
        while ops and ops[-1] == "~":
            apply()

    i = 0
    while i < len(kinds):
        kind = kinds[i]
        if kind in ("pred", "false"):
            if kind == "pred" and kinds[i + 1] == "(":
                while kinds[i] not in (")", "eof"):
                    i += 1
            depths.append(0)
            operand_read()
        elif kind in ("exists", "forall"):
            ops.append("q")
        elif kind in ("~", "("):
            ops.append(kind)
        elif kind == ")":
            while ops and ops[-1] != "(":
                apply()
            if ops:
                ops.pop()
                depths.append(depths.pop() + 1 if depths else 1)
            operand_read()
        elif kind in _PRECEDENCE:
            while ops and _PRECEDENCE.get(ops[-1], 0) > _PRECEDENCE[kind]:
                apply()
            ops.append(kind)
        i += 1
    while ops:  # an unclosed "(" closes at the end
        if ops[-1] == "(":
            ops.pop()
            depths.append(depths.pop() + 1 if depths else 1)
        else:
            apply()
    return max(depths, default=0)


def is_variable(text: str) -> bool:
    """Whether ``text`` is exactly one variable token of the grammar."""
    return _VARIABLE_RE.fullmatch(text) is not None and text not in _KEYWORDS


# The text of each connective with its precedence level (higher binds
# tighter), and of each quantifier.
_SYMBOLS = {Imp: (" -> ", 1), Or: (" | ", 2), And: (" & ", 3)}
_WORDS = {Exists: "exists ", Forall: "forall "}


def render(phi: Formula) -> str:
    """Minimal-parentheses text for ``phi``; inverse of :func:`parse`.
    Iterative, so nesting depth is not bounded by the recursion limit."""
    out: list[str] = []
    emit = out.append
    # ``tail`` is true when nothing follows the formula up to the end of
    # the enclosing scope, in which case a quantifier needs no parentheses
    # even though it extends maximally to the right.  The walk descends
    # into the first child and stacks what follows it: text to emit, or a
    # (formula, context, tail) to render.
    stack: list = [(phi, 0, True)]
    push = stack.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            emit(item)
            continue
        phi, context, tail = item
        while True:
            cls = type(phi)
            if cls in _SYMBOLS:
                sym, level = _SYMBOLS[cls]
                parenthesize = context > level
                if parenthesize:
                    emit("(")
                    push(")")
                push((phi.right, level, parenthesize or tail))
                push(sym)
                # right-associative: the left operand binds strictly tighter
                phi, context, tail = phi.left, level + 1, False
            elif cls in _WORDS:
                if not tail:
                    emit("(")
                    push(")")
                emit(f"{_WORDS[cls]}{phi.var}. ")
                phi, context, tail = phi.body, 0, True
            elif cls is Prime:
                emit(f"{phi.name}({', '.join(phi.args)})" if phi.args else phi.name)
                break
            else:
                emit("false")
                break
    return "".join(out)


# The JSON name of every connective and quantifier, and its inverse.
_OPS = {And: "and", Or: "or", Imp: "imp", Exists: "exists", Forall: "forall"}
_OP_CLASSES = {op: cls for cls, op in _OPS.items()}


def formula_to_dict(phi: Formula) -> dict:
    """JSON-friendly AST form; inverse of :func:`formula_from_dict`.
    Iterative: each node's dict is made before its children's are filled."""
    root: dict = {}
    stack = [(phi, root)]
    while stack:
        phi, out = stack.pop()
        cls = type(phi)
        if cls is Falsum:
            out["op"] = "falsum"
        elif cls is Prime:
            out.update(op="prime", name=phi.name, args=list(phi.args))
        elif issubclass(cls, _Quant):
            out.update(op=_OPS[cls], var=phi.var, body={})
            stack.append((phi.body, out["body"]))
        else:
            out.update(op=_OPS[cls], left={}, right={})
            stack.append((phi.right, out["right"]))
            stack.append((phi.left, out["left"]))
    return root


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
