import pytest
from hypothesis import given, settings

from prenexify.formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Imp,
    Or,
    Prime,
)
from prenexify.parser import (
    ArityError,
    ParseError,
    formula_to_dict,
    is_variable,
    parse,
    parse_corpus,
    parse_signature_line,
    render,
)
from test_formula import formulas

Px = Prime("P", ("x",))
Qx = Prime("Q", ("x",))
Qy = Prime("Q", ("y",))

_CONNECTIVES = {"and": And, "or": Or, "imp": Imp}
_QUANTIFIERS = {"exists": Exists, "forall": Forall}


def from_dict(data):
    """The formula of a ``formula_to_dict`` result, decoded without
    recursion: the dicts are listed parents first, then built in reverse."""
    order, stack = [], [data]
    while stack:
        data = stack.pop()
        order.append(data)
        if data["op"] in _QUANTIFIERS:
            stack.append(data["body"])
        elif data["op"] in _CONNECTIVES:
            stack.extend((data["right"], data["left"]))
    built = []
    for data in reversed(order):
        op = data["op"]
        if op == "falsum":
            built.append(FALSUM)
        elif op == "prime":
            built.append(Prime(data["name"], tuple(data["args"])))
        elif op in _QUANTIFIERS:
            built.append(_QUANTIFIERS[op](data["var"], built.pop()))
        else:  # the left operand is on top
            built.append(_CONNECTIVES[op](built.pop(), built.pop()))
    return built.pop()


def test_quantifier_extends_right():
    assert parse("exists x. P(x) & Q(y)") is Exists("x", And(Px, Qy))


def test_negation_sugar():
    assert parse("~P(x)") is Imp(Px, FALSUM)
    assert parse("~~P(x)") is Imp(Imp(Px, FALSUM), FALSUM)


def test_imp_right_associative():
    assert parse("P(x) -> Q(x) -> false") is Imp(Px, Imp(Qx, FALSUM))


def test_precedence():
    assert parse("P(x) & Q(x) | P(x) -> false") is Imp(
        Or(And(Px, Qx), Px), FALSUM
    )


def test_parenthesised_quantifier():
    assert parse("(exists x. P(x)) -> Q(y)") is Imp(Exists("x", Px), Qy)


def test_render_examples():
    assert render(And(Px, Qy)) == "P(x) & Q(y)"
    assert render(Imp(FALSUM, FALSUM)) == "false -> false"
    assert render(Forall("x", Or(Px, Qy))) == "forall x. P(x) | Q(y)"


def test_render_parenthesises_non_tail_quantifier():
    phi = Imp(Or(Px, Exists("x", Qx)), FALSUM)
    text = render(phi)
    assert text == "P(x) | (exists x. Q(x)) -> false"
    assert parse(text) is phi


def test_syntax_error_positions():
    with pytest.raises(ParseError) as info:
        parse("P(x) &")
    assert info.value.line == 1
    assert info.value.column == 7
    with pytest.raises(ParseError):
        parse("exists P. Q(x)")  # binder must be a variable


def _nest(depth, make, phi):
    for _ in range(depth):
        phi = make(phi)
    return phi


def test_5000_deep_input_round_trips():
    # the parser keeps explicit stacks, like render and the dict form
    chains = [
        _nest(5000, lambda phi: Imp(phi, FALSUM), Px),  # ~ chain
        _nest(5000, lambda phi: Exists("x", phi), Px),
        _nest(5000, lambda phi: Imp(phi, Qx), Px),  # parenthesised antecedents
        _nest(5000, lambda phi: Imp(Exists("x", phi), Qx), Px),
        _nest(5000, lambda phi: And(Qx, phi), Px),
        _nest(5000, lambda phi: Imp(Qx, phi), Px),
    ]
    for phi in chains:
        assert parse(render(phi)) is phi
        assert from_dict(formula_to_dict(phi)) is phi
    assert parse("~" * 5000 + "P(x)") is chains[0]
    assert parse("(" * 5000 + "P(x)" + ")" * 5000) is Px
    assert render(chains[2]).startswith("(" * 4999 + "P(x) -> Q(x)) -> Q(x)")
    deeper = _nest(20000, lambda phi: Exists("x", phi), Px)
    assert parse("exists x. " * 20000 + "P(x)") is deeper
    with pytest.raises(ParseError, match=r"^1:5005: expected '\)', found 'end of input'$"):
        parse("(" * 5000 + "P(x)")


def test_arity_checking():
    with pytest.raises(ArityError):
        parse("P(x) & P(x, y)")  # inconsistent use within one formula
    with pytest.raises(ArityError):
        parse("P(x)", signature={"Q": 1})
    with pytest.raises(ArityError):
        parse("P(x, y)", signature={"P": 1})
    assert parse("P(x)", signature={"P": 1}) is Px


def test_zero_arity_predicate():
    phi = parse("A & B -> false")
    assert phi is Imp(And(Prime("A"), Prime("B")), FALSUM)
    assert parse(render(phi)) is phi


def test_parse_corpus():
    lines = [
        "# a comment",
        "sig P/1 Q/1",
        "",
        "P(x) & Q(y)  # trailing comment",
        "exists x. P(x)",
    ]
    signature, entries, errors = parse_corpus(lines)
    assert signature == {"P": 1, "Q": 1}
    assert [(lineno, render(phi)) for lineno, phi in entries] == [
        (4, "P(x) & Q(y)"),
        (5, "exists x. P(x)"),
    ]
    assert errors == []


def test_parse_corpus_checks_arities():
    _, entries, errors = parse_corpus(["sig P/2", "P(x)"])
    assert entries == []
    assert [type(exc) for exc in errors] == [ArityError]
    assert errors[0].line == 2


def test_parse_corpus_collects_every_error():
    lines = ["sig P/1", "sig Q/1", "P(x) &", "P(x)", "Q(y)"]
    signature, entries, errors = parse_corpus(lines)
    assert signature == {"P": 1}
    assert [lineno for lineno, _ in entries] == [4]
    # a second header is no header; Q is not in the signature
    assert [(exc.line, exc.column) for exc in errors] == [(2, 6), (3, 7), (5, 1)]
    assert isinstance(errors[2], ArityError)


def test_parse_corpus_given_signature_replaces_header():
    signature, entries, errors = parse_corpus(["sig P/x", "P(x, y)"], {"P": 2})
    assert signature == {"P": 2}
    assert [render(phi) for _, phi in entries] == ["P(x, y)"]
    assert errors == []


def test_is_variable():
    assert is_variable("x") and is_variable("v0") and is_variable("x_1")
    for text in ["Q", "false", "forall", "exists", "x y", " x", "x,", "", "0"]:
        assert not is_variable(text)


def test_formula_to_dict_shape():
    assert formula_to_dict(parse("forall x. P(x) | ~A")) == {
        "op": "forall",
        "var": "x",
        "body": {
            "op": "or",
            "left": {"op": "prime", "name": "P", "args": ["x"]},
            "right": {
                "op": "imp",
                "left": {"op": "prime", "name": "A", "args": []},
                "right": {"op": "falsum"},
            },
        },
    }


def test_parse_signature_line():
    assert parse_signature_line("sig P/1 Q/2") == {"P": 1, "Q": 2}
    with pytest.raises(ParseError):
        parse_signature_line("sig p/1")


@settings(max_examples=400)
@given(formulas(max_leaves=8))
def test_parse_render_roundtrip(phi):
    assert parse(render(phi)) is phi


@settings(max_examples=200)
@given(formulas())
def test_formula_dict_roundtrip(phi):
    assert from_dict(formula_to_dict(phi)) is phi


@settings(max_examples=100)
@given(formulas())
def test_render_is_deterministic(phi):
    assert render(phi) == render(phi)
