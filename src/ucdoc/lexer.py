"""Tokenizer for ``.ucdl`` use-case description files.

The language is line-oriented only for humans; the lexer itself is free-form.
The token grammar is one compiled regular expression, :data:`_TOKEN_RE`:

* ``#`` starts a comment that runs to the end of the line; spaces, tabs,
  CR and LF separate tokens.
* An identifier starts with a letter or ``_`` and goes on with letters,
  digits and ``_``.  ``.`` continues it when a letter or ``_`` follows
  (dotted area ids such as ``employment.monitor_performance``); ``-``
  continues it when a letter or digit follows (slugs such as
  ``smart-camera``).
* A number is a run of decimal digits (``str.isdecimal``, so ``٣`` counts
  and ``²`` does not: ``²`` is an invalid character).  A number longer
  than the interpreter's integer-string limit (4,300 digits by default) is
  reported as ``lex.number_too_long`` and dropped.  Digits followed
  directly by a letter or ``_`` and more letters, digits or ``_`` form a
  step-branch label such as ``3a``.
* ``->`` is a single arrow token; ``{ } [ ] ( ) : ,`` are punctuation.

Strings come in two forms:

* single-line, double-quoted, with ``\\\\  \\"  \\n  \\t  \\r`` escapes;
* triple-quoted (``\"\"\"``) raw blocks whose value is dedented: a leading
  blank line and a trailing whitespace-only line are dropped, then the
  common leading whitespace of the non-blank lines is stripped.

Lexing never raises; bad input is reported through :class:`Diagnostic`
records so a caller can show every problem in a file at once.  Text that
is not UTF-8 (see :func:`file_text`) yields no tokens and one
``lex.not_utf8`` error at its first bad byte.

A token is a plain ``(kind, text, value, offset)`` tuple, read by unpacking
or by the index names :data:`KIND`, :data:`TEXT`, :data:`VALUE` and
:data:`OFFSET`.  It carries its offset in the source, not its line and
column.  A problem the lexer or the parser finds is an offset too, until
:func:`_diagnostics`, the one maker of their findings, finds each one's
:class:`SourceSpan` with one :class:`LineIndex` per document.
"""

from __future__ import annotations

import io
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, NamedTuple, Optional


class TokenKind(Enum):
    IDENT = auto()
    BRANCH = auto()     # step-branch label: digits then letters, e.g. "3a"
    INT = auto()
    STRING = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    LPAREN = auto()
    RPAREN = auto()
    COLON = auto()
    COMMA = auto()
    ARROW = auto()
    EOF = auto()


# The kinds as module constants: on CPython 3.11 ``TokenKind.IDENT`` is an
# Enum attribute lookup that takes about ten times as long as a global.
(IDENT, BRANCH, INT, STRING, LBRACE, RBRACE, LBRACKET, RBRACKET, LPAREN,
 RPAREN, COLON, COMMA, ARROW, EOF) = TokenKind
_WORD_KINDS = (IDENT, BRANCH, INT)   # the tokens of a bare word


class SourceSpan(NamedTuple):
    """Position of a token or error: 1-based line/column plus length."""

    line: int
    column: int
    length: int = 1


class LineIndex:
    """The line starts of one source, found once, for turning offsets into
    spans by binary search.  Only LF ends a line; columns count characters."""

    def __init__(self, source: str):
        self.starts = [0, *(m.end() for m in re.finditer("\n", source))]

    def span(self, offset: int, length: int = 1) -> SourceSpan:
        line = bisect_right(self.starts, offset)
        return SourceSpan(line, offset - self.starts[line - 1] + 1, length)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of any stage, from the lexer to the catalogue.

    ``path`` is a field path such as ``main_scenario[2].actor``, ``span``
    a source position and ``file`` the input it is in; ``expected`` lists
    what a parser error wanted, also written out at the end of ``message``.
    """

    severity: Severity
    code: str
    message: str
    path: Optional[str] = None
    span: Optional[SourceSpan] = None
    file: Optional[str] = None
    expected: tuple[str, ...] = ()

    @property
    def location(self) -> Optional[str]:
        """``file:line:column:path``, without the parts that are None."""
        span = self.span and f"{self.span.line}:{self.span.column}"
        return ":".join(filter(None, (self.file, span, self.path))) or None

    def sort_key(self) -> tuple[str, str]:
        return (self.location or "", self.code)

    def render(self) -> str:
        """The report line ``location: severity: [code] message``."""
        where = f"{self.location}: " if self.location else ""
        return f"{where}{self.severity.value}: [{self.code}] {self.message}"


# A token of ``len(text)`` characters from ``offset`` (EOF: none); its
# ``value`` is an INT's int, a STRING's decoded text, a word's text or None.
# The index names say where each field is.
Token = tuple[TokenKind, str, object, int]
KIND, TEXT, VALUE, OFFSET = range(4)


_PUNCTUATION = {
    "{": LBRACE,
    "}": RBRACE,
    "[": LBRACKET,
    "]": RBRACKET,
    "(": LPAREN,
    ")": RPAREN,
    ":": COLON,
    ",": COMMA,
    "->": ARROW,
}

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_QUOTE = {ord(c): "\\" + e for e, c in _ESCAPES.items()}

# ``[^\W\d]`` stands for "letter or _" but also admits numeric non-letters
# such as "½"; :func:`_word_end` rejects those where a word or segment starts.
_NUMBER = r"(?P<digits>\d+)(?:[^\W\d]\w*)?"
_IDENT = r"[^\W\d]\w*(?:(?:\.[^\W\d]|-[^\W_])\w*)*"

# One ``match`` per token: blanks and comments are a prefix of the match,
# and the token starts at the empty group ``start``.  Each alternative ends
# in an empty group that names it, so ``lastindex`` tells which one matched
# (the ``\Z`` one matches once, after the last token); an alternative that
# starts with a character, not a group, is skipped at once when the next
# character cannot start it.  Each punctuation mark's group is named after
# its kind.
_TOKEN_RE = re.compile(rf"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?P<start>)
    (?: {"|".join(f"{re.escape(t)}(?P<{k.name}>)" for t, k in _PUNCTUATION.items())}
      | {_IDENT}(?P<ident>)
      | {_NUMBER}(?P<number>)
      | \"\"\"(?P<tbody>[^"]*(?:"(?!"")[^"]*)*)(?P<tclose>\"\"\")?(?P<triple>)
      | "[^"\\\n]*"(?P<plain>)
      | "(?P<body>[^"\\\n]*(?:\\[^\n][^"\\\n]*)*)(?P<dangle>\\)?(?P<close>")?
        (?P<string>)
      | .(?P<invalid>)
      | \Z(?P<end>)
    )
""", re.VERBOSE)

_IDENT_G, _NUMBER_G, _TRIPLE_G, _PLAIN_G, _STRING_G, _END_G = (
    _TOKEN_RE.groupindex[name]
    for name in ("ident", "number", "triple", "plain", "string", "end"))
# By group: punctuation is 2 to 10.
_PUNCT_KIND = (None, None, *_PUNCTUATION.values())
_PUNCT_TEXT = (None, None, *_PUNCTUATION)

_ESCAPE_RE = re.compile(r"\\(.)")


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _word_end(m: re.Match, start: int) -> int:
    """End of the IDENT, INT or BRANCH token that the non-ASCII ``m`` starts
    at ``start``.

    The token stops before a numeric non-letter that starts the word, a
    dotted segment or a branch suffix; an identifier that cannot start at
    all ends where it starts.  (ASCII matches need no check.)
    """
    end = m.end()
    source = m.string
    digits = m.end("digits")
    if digits >= 0:
        return end if digits == end or _is_ident_start(source[digits]) else digits
    if not _is_ident_start(source[start]):
        return start
    dot = source.find(".", start, end)
    while dot >= 0:
        if not _is_ident_start(source[dot + 1]):
            return dot
        dot = source.find(".", dot + 1, end)
    return end


def read_token(text: str) -> Optional[Token]:
    """The one token a UCDL file holding ``text`` lexes as (see
    :func:`file_text`); None when it lexes as no token, several, or with a
    problem."""
    tokens, problems = _scan(file_text(text))
    return tokens[0] if len(tokens) == 2 and not problems else None


def is_word(text: str) -> bool:
    """True when ``text`` reads back as one IDENT, INT or BRANCH token that
    is all of ``text``, so it may be written bare."""
    tok = read_token(text)
    return tok is not None and tok[KIND] in _WORD_KINDS and tok[TEXT] == text


def dedent_block(content: str) -> str:
    """Decode the raw text between triple quotes into the string value."""
    lines = content.split("\n")
    if len(lines) > 1 and lines[0].strip() == "":
        lines.pop(0)
    if len(lines) > 1 and lines[-1].strip() == "":
        lines.pop()
    nonblank = [ln for ln in lines if ln.strip()]
    if nonblank:
        indents = [ln[: len(ln) - len(ln.lstrip())] for ln in nonblank]
        width = len(os.path.commonprefix(indents))
        if width:
            lines = [ln[width:] for ln in lines]
    return "\n".join(lines)


# A problem the lexer or the parser found: (code, message, offset, length,
# expected).
_Problem = tuple[str, str, int, int, tuple[str, ...]]


def _string_value(m: re.Match, start: int, problems: list[_Problem]) -> str:
    """Value of the single-line string ``m`` that starts at ``start``."""
    def escape(e: re.Match) -> str:
        c = e[1]
        if c not in _ESCAPES:
            problems.append(("lex.bad_escape", f"unknown escape sequence '\\{c}'",
                             start + 1 + e.start(), 2, ()))
        return _ESCAPES.get(c, c)
    body = _ESCAPE_RE.sub(escape, m["body"])
    end = m.end()
    if m["dangle"] is not None:
        problems.append(("lex.bad_escape", "dangling backslash in string",
                         end - 1, 1, ()))
    if m["close"] is None:
        problems.append(("lex.unterminated_string", "unterminated string",
                         start, end - start, ()))
    return body


def _diagnostics(source: str, problems: list[_Problem]) -> list[Diagnostic]:
    """The errors of ``problems``, in order, at their spans in ``source``."""
    lines = problems and LineIndex(source)
    return [Diagnostic(Severity.ERROR, code, message,
                       span=lines.span(offset, length), expected=expected)
            for code, message, offset, length, expected in problems]


def _rare_token(m: re.Match, i: int, start: int, emit: Callable,
                problems: list[_Problem]) -> int:
    """Emit the token of the match ``m`` of group ``i`` that :func:`lex`
    leaves to this function, or report a problem; return where it ends."""
    end = m.end()
    text = m.string[start:end]
    if i <= _NUMBER_G and not text.isascii():
        end = _word_end(m, start)
        text = m.string[start:end]
        if not text:
            i, end, text = None, start + 1, m.string[start]
    if i == _IDENT_G:
        kind, value = IDENT, text
    elif i == _NUMBER_G:
        if not text.isdecimal():
            kind, value = BRANCH, text
        else:
            try:
                kind, value = INT, int(text)
            except ValueError:  # beyond sys.get_int_max_str_digits()
                problems.append(("lex.number_too_long",
                                 f"number of {len(text)} digits is too long",
                                 start, end - start, ()))
                return end
    elif i == _STRING_G:
        kind, value = STRING, _string_value(m, start, problems)
    elif i == _TRIPLE_G:
        if m["tclose"] is None:
            problems.append(("lex.unterminated_string",
                             "unterminated triple-quoted string", start, 3,
                             ()))
        kind, value = STRING, dedent_block(m["tbody"])
    else:
        problems.append(("lex.invalid_char", f"unexpected character {text!r}",
                         start, 1, ()))
        return end
    emit((kind, text, value, start))
    return end


def lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize ``source``; always ends with an EOF token."""
    tokens, problems = _scan(source)
    return tokens, _diagnostics(source, problems)


def _scan(source: str) -> tuple[list[Token], list[_Problem]]:
    """The tokens of ``source`` and the problems found in it."""
    try:
        source.encode("utf-8")
    except UnicodeEncodeError as exc:
        # No token of a text that was not decoded is trusted.
        return [(EOF, "", None, exc.start)], [
            ("lex.not_utf8", "text is not valid UTF-8", exc.start, 1, ())]
    tokens: list[Token] = []
    problems: list[_Problem] = []
    emit = tokens.append
    kinds, texts = _PUNCT_KIND, _PUNCT_TEXT
    ident_g, plain_g, end_g = _IDENT_G, _PLAIN_G, _END_G
    scan = _TOKEN_RE.scanner(source).match     # matches on from the last end
    while True:
        m = scan()
        i = m.lastindex
        start = m.end(1)
        if i < ident_g:                         # punctuation
            emit((kinds[i], texts[i], None, start))
            continue
        text = source[start:m.end()]
        if i == ident_g and text.isascii():
            emit((IDENT, text, text, start))
        elif i == plain_g:                      # a string without escapes
            emit((STRING, text, text[1:-1], start))
        elif i == end_g:
            break
        else:
            end = _rare_token(m, i, start, emit, problems)
            if end != m.end():      # a non-ASCII word stopped short
                scan = _TOKEN_RE.scanner(source, end).match
    emit((EOF, "", None, start))
    return tokens, problems


def read_ucdl(path: str | os.PathLike) -> str:
    """Text of a UCDL file, read by :func:`file_text`'s rule."""
    with open(path, "rb") as f:
        return file_text(f.read())


def file_text(data: bytes | str) -> str:
    """What a UCDL file holding ``data`` reads as, the one rule for UCDL
    text: bytes are decoded as UTF-8, keeping bytes that are not UTF-8 as
    surrogates for lex to report; one leading byte-order mark is dropped;
    CR LF and a lone CR read as LF."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", "surrogateescape")
    return io.StringIO(data.removeprefix("\ufeff"), newline=None).read()


def escape_string(value: str) -> str:
    """Render ``value`` as a single-line quoted UCDL string literal."""
    return '"' + value.translate(_QUOTE) + '"'
