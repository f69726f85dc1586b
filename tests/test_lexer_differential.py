"""The regex lexer against the character-at-a-time reference lexer.

Both must agree on every token's ``(kind, text, value, span)`` and on the
error list.  Text holding a numeric character that is not a decimal digit
(such as "²" or "½") is the one intended difference: the reference crashes
on it or splits it differently, so there only "does not raise" is checked.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_lexer
from conftest import FIXTURE_NAMES, fixture_text
from support import make_use_case
from ucdoc.lexer import OFFSET, TEXT, LineIndex, lex
from ucdoc.parser import serialize_canonical


def _tokens(result, fields=lambda t: (t.kind, t.text, t.value, t.span)):
    """``result``'s tokens and errors as plain values; ``fields`` reads a
    token's kind, text, value and span."""
    tokens, errors = result
    return (
        [(kind.name, text, value, (span.line, span.column, span.length))
         for kind, text, value, span in map(fields, tokens)],
        [(e.code, e.message, (e.span.line, e.span.column, e.span.length))
         for e in errors],
    )


def assert_same_as_reference(text: str) -> None:
    lines = LineIndex(text)
    ours = _tokens(lex(text), lambda t: (
        *t[:OFFSET], lines.span(t[OFFSET], len(t[TEXT]))))
    assert ours == _tokens(reference_lexer.lex(text)), repr(text)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures(name):
    assert_same_as_reference(fixture_text(name))


def test_seeded_corpus_and_truncations():
    rng = random.Random(20261018)
    for _ in range(60):
        text = serialize_canonical(make_use_case(rng))
        assert_same_as_reference(text)
        assert_same_as_reference(text[:rng.randint(0, len(text))])


# Where one token rule hands over to another.
@pytest.mark.parametrize("text", [
    "a-_b", "a-1", "a--b", "a.1", "a._b", "a..b", "a.-b", "a-.b", "a->b",
    "3_", "3a.b", "3a-b", "3->", "03", "٣٣", "é.ü-情", "_.x",
    '"\\', '"a\\"', '"a\\\n', '""""', '"""a""""', '"""a""', '"\\q\\"',
    "#c\nx", "\r\n\t x", "x # \" \n y",
])
def test_rule_boundaries(text):
    assert_same_as_reference(text)


_PIECES = ['"', '"""', "\\", "#", "->", ".", "-", "\t", "\r", "\n", " ",
           "é", "情", "٣", "a", "Z", "_", "0", "7", "3a",
           "x.y", "a-b", "{", "}", "[", "]", "(", ")", ":", ",", "=", "n"]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_generated_text(text):
    assert_same_as_reference(text)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(_PIECES + ["²", "½", "3²", "a.½"]),
                max_size=20).map("".join))
def test_numeric_non_digits_do_not_raise(text):
    lex(text)
