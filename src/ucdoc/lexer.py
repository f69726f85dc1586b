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
is not UTF-8 (see :func:`read_ucdl`) yields no tokens and one
``lex.not_utf8`` error at its first bad byte.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import NamedTuple, Optional


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


class SourceSpan(NamedTuple):
    """Position of a token or error: 1-based line/column plus length."""

    line: int
    column: int
    length: int = 1


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


def _error(code: str, message: str, line: int, col: int,
           length: int) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message,
                      span=SourceSpan(line, col, length))


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object
    span: SourceSpan


_PUNCTUATION = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
}

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_QUOTE = {ord(c): "\\" + e for e, c in _ESCAPES.items()}

# ``[^\W\d]`` stands for "letter or _" but also admits numeric non-letters
# such as "½"; :func:`_word_end` rejects those where a word or segment starts.
_NUMBER = r"(?P<digits>\d+)(?:[^\W\d]\w*)?"
_IDENT = r"[^\W\d]\w*(?:(?:\.[^\W\d]|-[^\W_])\w*)*"

_TOKEN_RE = re.compile(rf"""
    (?P<ws>[ \t\r\n]+)
  | (?P<ident>{_IDENT})
  | (?P<punct>[{{}}\[\]():,])
  | (?P<triple>\"\"\"
        (?P<tbody>[^"]*(?:"(?!"")[^"]*)*)
        (?P<tclose>\"\"\")?)
  | (?P<string>"
        (?P<body>[^"\\\n]*(?:\\[^\n][^"\\\n]*)*)
        (?P<dangle>\\)?
        (?P<close>")?)
  | (?P<number>{_NUMBER})
  | (?P<arrow>->)
  | (?P<comment>\#[^\n]*)
  | (?P<invalid>.)
""", re.VERBOSE)

_WORD_RE = re.compile(f"{_NUMBER}|{_IDENT}")

_ESCAPE_RE = re.compile(r"\\(.)")


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _word_end(m: re.Match) -> int:
    """End of the IDENT, INT or BRANCH token that the non-ASCII ``m`` starts.

    The token stops before a numeric non-letter that starts the word, a
    dotted segment or a branch suffix; an identifier that cannot start at
    all ends where it starts.  (ASCII matches need no check.)
    """
    start, end = m.span()
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


def is_word(text: str) -> bool:
    """True when ``text`` lexes as exactly one IDENT, INT or BRANCH token."""
    m = _WORD_RE.fullmatch(text)
    return m is not None and (text.isascii() or _word_end(m) == len(text))


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


def _unescape(body: str, line: int, col: int,
              errors: list[Diagnostic]) -> str:
    """Decode the escapes of a string body that starts at ``line``, ``col``."""
    def escape(m: re.Match) -> str:
        c = m.group(1)
        if c in _ESCAPES:
            return _ESCAPES[c]
        errors.append(_error("lex.bad_escape",
                             f"unknown escape sequence '\\{c}'",
                             line, col + m.start(), 2))
        return c
    return _ESCAPE_RE.sub(escape, body)


def _string_value(m: re.Match, line: int, col: int,
                  errors: list[Diagnostic]) -> str:
    """Value of the single-line string ``m`` that starts at ``line``, ``col``."""
    body = m.group("body")
    if "\\" in body:
        body = _unescape(body, line, col + 1, errors)
    length = m.end() - m.start()
    if m.group("dangle") is not None:
        errors.append(_error("lex.bad_escape", "dangling backslash in string",
                             line, col + length - 1, 1))
    if m.group("close") is None:
        errors.append(_error("lex.unterminated_string", "unterminated string",
                             line, col, length))
    return body


# ``tuple.__new__`` skips the Python-level ``__new__`` that NamedTuple
# generates; building the two tuples of each token this way made ``lex``
# about 13% faster on CPython 3.11.
_new = tuple.__new__


def lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize ``source``; always ends with an EOF token."""
    try:
        source.encode("utf-8")
    except UnicodeEncodeError as exc:
        # No token of a text that was not decoded is trusted.
        line = source.count("\n", 0, exc.start) + 1
        col = exc.start - source.rfind("\n", 0, exc.start)
        return ([Token(TokenKind.EOF, "", None, SourceSpan(line, col, 0))],
                [_error("lex.not_utf8", "text is not valid UTF-8", line, col, 1)])
    tokens: list[Token] = []
    errors: list[Diagnostic] = []
    emit = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    line_start = 0      # offset of the first character of ``line``
    n = len(source)
    while pos < n:
        m = match(source, pos)
        group = m.lastgroup
        end = m.end()
        text = m.group()
        col = pos - line_start + 1
        if (group == "ident" or group == "number") and not text.isascii():
            end = _word_end(m)
            text = source[pos:end]
            if not text:
                group, end, text = "invalid", pos + 1, source[pos]
        if group == "ws" or group == "comment":
            kind = None
        elif group == "ident":
            kind, value = TokenKind.IDENT, text
        elif group == "punct":
            kind, value = _PUNCTUATION[text], None
        elif group == "string":
            kind, value = TokenKind.STRING, _string_value(m, line, col, errors)
        elif group == "number":
            if m.end("digits") != end:
                kind, value = TokenKind.BRANCH, text
            else:
                try:
                    kind, value = TokenKind.INT, int(text)
                except ValueError:  # beyond sys.get_int_max_str_digits()
                    kind = None
                    errors.append(_error(
                        "lex.number_too_long",
                        f"number of {len(text)} digits is too long",
                        line, col, end - pos))
        elif group == "arrow":
            kind, value = TokenKind.ARROW, None
        elif group == "triple":
            if m.group("tclose") is None:
                errors.append(_error("lex.unterminated_string",
                                     "unterminated triple-quoted string",
                                     line, col, 3))
            kind, value = TokenKind.STRING, dedent_block(m.group("tbody"))
        else:
            kind = None
            errors.append(_error("lex.invalid_char",
                                 f"unexpected character {text!r}",
                                 line, col, 1))
        if kind is not None:
            emit(_new(Token, (kind, text, value,
                              _new(SourceSpan, (line, col, end - pos)))))
        if "\n" in text:   # only whitespace and triple strings span lines
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        pos = end
    emit(Token(TokenKind.EOF, "", None,
               SourceSpan(line, pos - line_start + 1, 0)))
    return tokens, errors


def read_ucdl(path: str | os.PathLike) -> str:
    """Text of a UCDL file, without a leading UTF-8 byte-order mark.  Bytes
    that are not UTF-8 stay in it as surrogates (``errors="surrogateescape"``),
    for :func:`lex` to report."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        return f.read()


def escape_string(value: str) -> str:
    """Render ``value`` as a single-line quoted UCDL string literal."""
    return '"' + value.translate(_QUOTE) + '"'
