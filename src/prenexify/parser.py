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
is structurally ``phi`` at any nesting depth; nothing here recurses.

``_tokenize`` splits a line with string methods: it spaces out the
punctuation, splits at whitespace and reads each token's kind from one
table (``_KINDS``), which keeps the kinds of at most ``_KINDS_CAP``
names.  A line holding any token that is neither punctuation nor a name
is tokenized again by the pattern ``_TOKEN_RE``, which also places every
error at its line and column.
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
]

# One token per match, after optional whitespace: the arrow, a punctuation
# character, a name, or any other character, which is an error.  It
# splits only a line that holds a bad token (``_tokenize`` splits the
# others) and finds the offset of a token an error names.
_TOKEN_RE = re.compile(r"\s*(->|[()&|~.,]|[A-Za-z][A-Za-z0-9_]*|\S)")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_VARIABLE_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_KEYWORDS = ("exists", "forall", "false")

# The kind of each token that is its own kind.
_FIXED = {t: t for t in ("->", "(", ")", "&", "|", "~", ".", ",", *_KEYWORDS)}
# The most names the kind table holds; a name past it is classified anew.
_KINDS_CAP = 4096


class _KindTable(dict):
    """Token text -> kind: its own for ``_FIXED``, ``pred`` or ``var`` by a
    name's first letter, ``char`` for any other text, which is an error.
    A name is stored while the table holds fewer than ``_KINDS_CAP``."""

    def __missing__(self, token: str) -> str:
        if _NAME_RE.fullmatch(token) is None:
            return "char"
        kind = "pred" if token[0].isupper() else "var"
        if len(self) < _KINDS_CAP:
            self[token] = kind
        return kind


_KINDS = _KindTable(_FIXED)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The tokens of ``text`` and their kinds.  Spacing out the punctuation
    and splitting at whitespace gives ``_TOKEN_RE``'s tokens wherever every
    token is punctuation or a name; a line with any other token is
    tokenized again by the pattern, which splits it as errors are placed."""
    texts = (
        text.replace("->", " -> ")
        .replace("(", " ( ")
        .replace(")", " ) ")
        .replace("&", " & ")
        .replace("|", " | ")
        .replace("~", " ~ ")
        .replace(".", " . ")
        .replace(",", " , ")
        .split()
    )
    kinds = list(map(_KINDS.__getitem__, texts))
    if "char" in kinds:
        texts = _TOKEN_RE.findall(text)
        kinds = list(map(_KINDS.__getitem__, texts))
    return texts, kinds


# The text of each connective with its precedence level (higher binds
# tighter), and of each quantifier.
_SYMBOLS = {Imp: (" -> ", 1), Or: (" | ", 2), And: (" & ", 3)}
_WORDS = {Exists: "exists ", Forall: "forall "}
_PRECEDENCE = {symbol.strip(): level for symbol, level in _SYMBOLS.values()}
_CONNECTIVES = {level: cls for cls, (_, level) in _SYMBOLS.items()}
# The parser's other stack entries, each ranking below every connective.
_PAREN, _EXISTS, _FORALL, _NOT, _BOTTOM = 0, -1, -2, -3, -4


class ParseError(Exception):
    """Syntax error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityError(ParseError):
    """A predicate was used with an arity conflicting with the signature."""


class _Parser:
    """Operator precedence with explicit stacks over the token kinds and
    texts, ``eof`` last; a token's line and column are found only for an error."""

    def __init__(self, text: str, line: int, signature: Optional[dict[str, int]]):
        self.text = text
        self.line = line
        self.texts, self.kinds = _tokenize(text)
        self.kinds.append("eof")
        self.texts.append("")
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

    def expect(self, kind: str, i: int) -> str:
        """The text of token ``i``, which must be of ``kind``."""
        if self.kinds[i] != kind:
            found = self.texts[i] or "end of input"
            self.fail(f"expected {kind!r}, found {found!r}", i)
        return self.texts[i]

    def formula(self) -> Formula:
        """The formula the whole token list spells.  ``ops`` holds the open
        ``(``, quantifiers, ``~`` and connectives, ``lefts`` the variable or
        left operand of each open quantifier or connective.  Connectives apply
        before the ``(`` or quantifier below them closes, never across it."""
        kinds, texts = self.kinds, self.texts
        ops = [_BOTTOM]
        lefts: list = []
        pos = 0
        while True:
            # operand position: prefixes up to an atom
            kind = kinds[pos]
            if kind == "(":
                ops.append(_PAREN)
                pos += 1
                continue
            if kind == "pred":
                i = pos
                args: list[str] = []
                if kinds[pos + 1] == "(":
                    pos += 2
                    args.append(self.expect("var", pos))
                    while kinds[pos + 1] == ",":
                        pos += 2
                        args.append(self.expect("var", pos))
                    pos += 1
                    self.expect(")", pos)
                self.check_arity(i, len(args))
                phi = Prime(texts[i], tuple(args))
            elif kind == "exists" or kind == "forall":
                lefts.append(self.expect("var", pos + 1))
                self.expect(".", pos + 2)
                pos += 3
                ops.append(_EXISTS if kind == "exists" else _FORALL)
                continue
            elif kind == "~":
                ops.append(_NOT)
                pos += 1
                continue
            elif kind == "false":
                phi = FALSUM
            else:
                self.fail(f"expected a formula, found {texts[pos] or 'end of input'!r}", pos)
            pos += 1
            # operator position, after the operand ``phi``
            while True:
                top = ops[-1]
                while top == _NOT:  # a ~ applies once its operand is read
                    ops.pop()
                    phi = Imp(phi, FALSUM)
                    top = ops[-1]
                kind = kinds[pos]
                prec = _PRECEDENCE.get(kind)
                if prec is not None:
                    # right associative: apply only what binds tighter
                    while top > prec:
                        phi = _CONNECTIVES[ops.pop()](lefts.pop(), phi)
                        top = ops[-1]
                    ops.append(prec)
                    lefts.append(phi)
                    pos += 1
                    break
                while top > 0:
                    phi = _CONNECTIVES[ops.pop()](lefts.pop(), phi)
                    top = ops[-1]
                ops.pop()
                if top == _PAREN:
                    self.expect(")", pos)
                    pos += 1
                elif top == _EXISTS:
                    phi = Exists(lefts.pop(), phi)
                elif top == _FORALL:
                    phi = Forall(lefts.pop(), phi)
                elif kind != "eof":
                    self.fail(f"unexpected trailing input {texts[pos]!r}", pos)
                else:
                    return phi

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
    return _Parser(text, line, signature).formula()


def is_variable(text: str) -> bool:
    """Whether ``text`` is exactly one variable token of the grammar."""
    return _VARIABLE_RE.fullmatch(text) is not None and text not in _KEYWORDS


def render(phi: Formula) -> str:
    """Minimal-parentheses text for ``phi``; inverse of :func:`parse`."""
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


# The JSON name of every connective and quantifier.
_OPS = {And: "and", Or: "or", Imp: "imp", Exists: "exists", Forall: "forall"}


def formula_to_dict(phi: Formula) -> dict:
    """JSON-friendly AST form.  Iterative: each node's dict is made before
    its children's are filled."""
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


def parse_signature_line(text: str, line: int = 1) -> dict[str, int]:
    """Parse a ``sig P/1 Q/2`` declaration into a name-to-arity map."""
    fields = text.split()
    if not fields or fields[0] != "sig":
        raise ParseError("signature line must start with 'sig'", line, 1)
    signature: dict[str, int] = {}
    for field in fields[1:]:
        m = re.fullmatch(r"([A-Z][A-Za-z0-9_]*)/([0-9]+)", field)
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
            if header and text.split(maxsplit=1)[0] == "sig":
                if signature is None:
                    signature = parse_signature_line(text, lineno)
            else:
                formulas.append((lineno, parse(text, signature, lineno)))
        except ParseError as exc:
            errors.append(exc)
        header = False
    return signature, formulas, errors
