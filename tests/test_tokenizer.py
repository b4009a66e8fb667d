"""The parser's tokenizer against its reference.  ``parser._tokenize``
splits a line at whitespace once its punctuation is spaced out, and reads
each token's kind from a bounded table; the reference is one
``_TOKEN_RE`` match per token with the kind given by the token's own text
or its first letter.  Both must give the same tokens and kinds, and the
parser the same formula or the same error, on any text."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prenexify import parser
from prenexify.formula import Prime
from prenexify.parser import ParseError, parse, render
from test_formula import formulas

_FIRST = dict.fromkeys(string.ascii_uppercase, "pred")
_FIRST.update(dict.fromkeys(string.ascii_lowercase, "var"))


def reference(text):
    """The tokens of ``text`` and their kinds, one pattern match each."""
    texts = parser._TOKEN_RE.findall(text)
    return texts, [parser._FIXED.get(t) or _FIRST.get(t[0], "char") for t in texts]


_WHITESPACE = [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_PIECES = (
    ["->", "(", ")", "&", "|", "~", ".", ",", "exists", "forall", "false"]
    + ["P", "Q", "R", "x", "y", "z", "Ab", "v_1", "0", "7", "_", "-", ">", "#"]
    + ["\u00e9", "\u00c9", "P\u00e9", "x\u00b5"]
    + _WHITESPACE
)


def _respaced(phi, spaces):
    """``render(phi)`` with its spaces replaced, in turn, by ``spaces``."""
    parts = render(phi).split(" ")
    out = [parts[0]]
    for i, part in enumerate(parts[1:]):
        out += [spaces[i % len(spaces)], part]
    return "".join(out)


texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.builds(
        _respaced,
        formulas(max_leaves=6),
        st.lists(st.sampled_from(_WHITESPACE + ["", "  "]), min_size=1, max_size=4),
    ),
)

# Q(x) of ``formulas`` conflicts with it, and P(x, y) of the pieces
SIGNATURE = {"P": 1, "Q": 2, "R": 2}


def outcome(text, signature, line):
    """The formula ``parse`` gives, or its error's class, text and place."""
    try:
        return parse(text, signature, line)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@settings(max_examples=600, deadline=None)
@given(texts, st.sampled_from([None, SIGNATURE]), st.integers(1, 3))
def test_the_split_tokenizer_agrees_with_the_pattern(text, signature, line):
    expected = reference(text)
    with pytest.MonkeyPatch.context() as mp:
        if "char" not in expected[1]:
            # a line with no bad token is split without the pattern
            mp.setattr(parser, "_TOKEN_RE", None)
        assert parser._tokenize(text) == expected
    got = outcome(text, signature, line)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser, "_tokenize", reference)
        assert outcome(text, signature, line) == got


def test_the_split_reads_unicode_whitespace_as_the_pattern_does():
    text = "P(x)\x1c&\x85Q(y)\xa0-> R(x,\u3000y)"
    assert parser._tokenize(text) == reference(text)
    assert outcome(text, None, 1) == parse("P(x) & Q(y) -> R(x, y)")


def test_a_bad_token_is_placed_as_the_pattern_places_it():
    with pytest.raises(ParseError, match=r"^2:3: unexpected character '\u00e9'$"):
        parse("P(x) &\nQ(\u00e9)", line=1)
    with pytest.raises(ParseError, match=r"^1:2: unexpected character '-'$"):
        parse("P-Q")


def test_the_kind_table_stays_bounded():
    cap = parser._KINDS_CAP
    assert len(parser._KINDS) <= cap
    for i in range(10_000):
        assert parse(f"P{i}_t(x{i}_t)") is Prime(f"P{i}_t", (f"x{i}_t",))
        assert len(parser._KINDS) <= cap
    assert len(parser._KINDS) == cap
    # names the full table has never held still get their kinds
    assert parser._tokenize("Pnew_t(xnew_t) & exists ynew_t. Rnew_t") == (
        ["Pnew_t", "(", "xnew_t", ")", "&", "exists", "ynew_t", ".", "Rnew_t"],
        ["pred", "(", "var", ")", "&", "exists", "var", ".", "pred"],
    )
    assert "Pnew_t" not in parser._KINDS and "xnew_t" not in parser._KINDS
