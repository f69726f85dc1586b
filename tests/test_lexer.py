from __future__ import annotations

import random

import pytest

from conftest import FIXTURE_NAMES, fixture_text
from ucdoc import parse_document
from ucdoc.lexer import (
    KIND, OFFSET, TEXT, VALUE, LineIndex, TokenKind, dedent_block,
    escape_string, file_text, lex, read_ucdl,
)


def kinds(source):
    tokens, errors = lex(source)
    assert errors == []
    return [kind for kind, _, _, _ in tokens]


NOT_UTF8 = 'usecase "T" { id: a }\n# r\udce9sum\n'


@pytest.mark.parametrize("source", [
    *map(fixture_text, FIXTURE_NAMES), "", NOT_UTF8,
], ids=[*FIXTURE_NAMES, "empty", "not-utf8"])
def test_tokens_are_plain_tuples(source):
    assert (KIND, TEXT, VALUE, OFFSET) == (0, 1, 2, 3)
    tokens, _ = lex(source)
    for tok in tokens:
        assert type(tok) is tuple and len(tok) == 4, tok
        kind, text, value, offset = tok
        assert type(kind) is TokenKind and type(offset) is int, tok
        assert source[offset:offset + len(text)] == text, tok
        if kind is TokenKind.INT:
            assert value == int(text), tok
        elif kind is TokenKind.STRING:
            assert type(value) is str, tok
        elif kind in (TokenKind.IDENT, TokenKind.BRANCH):
            assert value == text, tok
        else:
            assert value is None, tok
    eof = len(source) if source != NOT_UTF8 else source.index("\udce9")
    assert tokens[-1] == (TokenKind.EOF, "", None, eof)


def test_punctuation_and_words():
    tokens, errors = lex('usecase "T" { id: t-1 [x, 3a] (1) -> }')
    assert errors == []
    assert [kind for kind, _, _, _ in tokens] == [
        TokenKind.IDENT, TokenKind.STRING, TokenKind.LBRACE,
        TokenKind.IDENT, TokenKind.COLON, TokenKind.IDENT,
        TokenKind.LBRACKET, TokenKind.IDENT, TokenKind.COMMA,
        TokenKind.BRANCH, TokenKind.RBRACKET,
        TokenKind.LPAREN, TokenKind.INT, TokenKind.RPAREN,
        TokenKind.ARROW, TokenKind.RBRACE, TokenKind.EOF,
    ]


def test_comments_are_skipped():
    assert kinds("a # comment with " + '"' + " and { tokens\nb") == [
        TokenKind.IDENT, TokenKind.IDENT, TokenKind.EOF]


def test_arrow_survives_ident_rules():
    # '-' continues an identifier only when followed by alphanumerics,
    # so "a->b" must lex as ident, arrow, ident.
    tokens, errors = lex("a->b")
    assert errors == []
    assert [(kind, text) for kind, text, _, _ in tokens[:3]] == [
        (TokenKind.IDENT, "a"), (TokenKind.ARROW, "->"), (TokenKind.IDENT, "b")]


def test_dotted_idents():
    tokens, _ = lex("employment.monitor_performance")
    assert tokens[0][TEXT] == "employment.monitor_performance"
    # A trailing dot is not part of the identifier.
    tokens, errors = lex("abc.")
    assert tokens[0][TEXT] == "abc"
    assert errors and errors[0].code == "lex.invalid_char"


def test_int_vs_branch():
    tokens, _ = lex("12 3a 4a1")
    assert [(kind, text) for kind, text, _, _ in tokens[:3]] == [
        (TokenKind.INT, "12"), (TokenKind.BRANCH, "3a"),
        (TokenKind.BRANCH, "4a1")]
    assert tokens[0][VALUE] == 12


def test_string_escapes():
    tokens, errors = lex(r'"a\\b\"c\nd\te\rf"')
    assert errors == []
    assert tokens[0][VALUE] == 'a\\b"c\nd\te\rf'


def test_unknown_escape_is_reported():
    tokens, errors = lex(r'"a\qb"')
    assert [e.code for e in errors] == ["lex.bad_escape"]
    assert tokens[0][VALUE] == "aqb"


def test_unterminated_string():
    _, errors = lex('"abc\nnext')
    assert [e.code for e in errors] == ["lex.unterminated_string"]
    _, errors = lex('"abc')
    assert [e.code for e in errors] == ["lex.unterminated_string"]


def test_invalid_character():
    _, errors = lex("a = b")
    assert [e.code for e in errors] == ["lex.invalid_char"]
    assert errors[0].render() == (
        "1:3: error: [lex.invalid_char] unexpected character '='")


def test_non_decimal_digits_are_invalid_characters():
    # "²" is a digit to str.isdigit but not a decimal digit; int() rejects it.
    tokens, errors = lex("3² ²")
    assert [(kind, text) for kind, text, _, _ in tokens] == [
        (TokenKind.INT, "3"), (TokenKind.EOF, "")]
    assert [(e.code, e.span.column) for e in errors] == [
        ("lex.invalid_char", 2), ("lex.invalid_char", 4)]
    _, errors = parse_document('usecase "T" { id: a }\n²')
    assert "2:1: error: [lex.invalid_char] unexpected character '²'" in [
        e.render() for e in errors]


def test_number_beyond_int_string_limit_is_an_error():
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits.
    long = "1" * 5000
    tokens, errors = lex(f"{long} 2")
    assert [(kind, value) for kind, _, value, _ in tokens] == [
        (TokenKind.INT, 2), (TokenKind.EOF, None)]
    assert [(e.code, e.span.column, e.span.length) for e in errors] == [
        ("lex.number_too_long", 1, 5000)]
    assert lex(f"{long}a")[1] == []     # a branch label keeps its text
    _, errors = parse_document(f'usecase "T" {{ id: a }}\n{long}')
    assert "lex.number_too_long" in [e.code for e in errors]


def test_text_that_is_not_utf8_is_one_error():
    # "\udce9" is the byte 0xe9 as read with errors="surrogateescape".
    source = NOT_UTF8
    tokens, errors = lex(source)
    assert [kind for kind, _, _, _ in tokens] == [TokenKind.EOF]
    assert [(e.code, tuple(e.span)) for e in errors] == [
        ("lex.not_utf8", (2, 4, 1))]
    assert parse_document(source) == ([], errors)


BOM = b"\xef\xbb\xbf"


# Bytes of a file, and the text every reader reads them as.
@pytest.mark.parametrize("data, text", [
    (b"id: a\n", "id: a\n"),
    (BOM + b"id: a\n", "id: a\n"),
    (BOM + BOM + b"id: a\n", "\ufeffid: a\n"),
    (b"# c\rid: a\r", "# c\nid: a\n"),
    (b"# c\r\nid: a\r\n", "# c\nid: a\n"),
    (b'p: """\n  x\r  y\n"""\n', 'p: """\n  x\n  y\n"""\n'),
    (b"# \xff\n", "# \udcff\n"),
], ids=["plain", "byte-order-mark", "two-byte-order-marks", "cr", "crlf",
        "cr-in-triple-quotes", "not-utf8"])
def test_file_text_is_the_one_rule(tmp_path, data, text):
    path = tmp_path / "f.ucdl"
    path.write_bytes(data)
    assert read_ucdl(path) == text
    assert file_text(data) == text
    assert file_text(data.decode("utf-8", "surrogateescape")) == text


def test_decimal_digits_beyond_ascii():
    tokens, errors = lex("٣ ٣a")
    assert errors == []
    assert [(kind, value) for kind, _, value, _ in tokens[:2]] == [
        (TokenKind.INT, 3), (TokenKind.BRANCH, "٣a")]


def test_triple_quoted_raw():
    source = '"""\n    line one\n      indented\n\n    last\n    """'
    tokens, errors = lex(source)
    assert errors == []
    assert tokens[0][VALUE] == "line one\n  indented\n\nlast"


def test_triple_quoted_single_line():
    tokens, errors = lex('"""inline"""')
    assert errors == []
    assert tokens[0][VALUE] == "inline"


def test_triple_quoted_keeps_raw_backslashes():
    tokens, errors = lex('"""a\\nb"""')
    assert errors == []
    assert tokens[0][VALUE] == "a\\nb"


@pytest.mark.parametrize("content,expected", [
    ("x", "x"),
    ("\n  a\n  b\n  ", "a\nb"),
    ("\n  a\n\n  b\n", "a\n\nb"),
    ("a\nb", "a\nb"),
])
def test_dedent_block(content, expected):
    assert dedent_block(content) == expected


def test_escape_string_round_trip():
    rng = random.Random(20240817)
    alphabet = 'ab"\\\n\t\r #{}[]()->é情'
    for _ in range(300):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        tokens, errors = lex(escape_string(value))
        assert errors == []
        assert tokens[0][KIND] is TokenKind.STRING
        assert tokens[0][VALUE] == value


def test_positions():
    tokens, _ = lex("a\n  b")
    lines = LineIndex("a\n  b")
    spans = [lines.span(offset, len(text)) for _, text, _, offset in tokens]
    assert (spans[0].line, spans[0].column) == (1, 1)
    assert (spans[1].line, spans[1].column) == (2, 3)


@pytest.mark.parametrize("source, spans", [
    # CR is an ordinary character; only LF starts a line.
    ("a\r\nb", [(1, 1, 1), (2, 1, 1), (2, 2, 0)]),
    # A triple-quoted string spans lines; the token after it is on its last.
    ('x """a\nb\n""" y', [(1, 1, 1), (1, 3, 10), (3, 5, 1), (3, 6, 0)]),
    # EOF after a trailing newline is at column 1 of a line of its own.
    ("a\n", [(1, 1, 1), (2, 1, 0)]),
    ("", [(1, 1, 0)]),
])
def test_line_index_spans_of_tokens(source, spans):
    tokens, errors = lex(source)
    assert errors == []
    lines = LineIndex(source)
    assert [tuple(lines.span(offset, len(text)))
            for _, text, _, offset in tokens] == spans


def test_line_index_span_of_every_offset():
    source = 'a\r\n"""\n\n  x"""\n# c\n\n'
    lines = LineIndex(source)
    # Every offset, up to and including len(source), which is where EOF is.
    for offset in range(len(source) + 1):
        span = lines.span(offset, 0)
        assert span.line == source.count("\n", 0, offset) + 1
        assert span.column - 1 == offset - (source.rfind("\n", 0, offset) + 1)
    assert lines.span(len(source), 0) == (7, 1, 0)
    assert lex(source)[0][-1][OFFSET] == len(source)
