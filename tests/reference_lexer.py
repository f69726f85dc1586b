"""Reference lexer: the original character-at-a-time UCDL tokenizer.

Kept unchanged as the oracle for ``test_lexer_differential.py``, which
checks that ``ucdoc.lexer.lex`` produces the same tokens, values, spans and
errors.  The one intended difference is text holding a numeric character
that is not a decimal digit, such as "²": here "²" starts a number, which
``int()`` then rejects with ``ValueError``, where ``ucdoc.lexer`` reports
``lex.invalid_char``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum, auto


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


@dataclass(frozen=True)
class SourceSpan:
    """Position of a token or error: 1-based line/column plus length."""

    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str
    expected: tuple[str, ...] = ()
    code: str = "syntax"

    def render(self) -> str:
        suffix = ""
        if self.expected:
            suffix = " (expected " + " or ".join(self.expected) + ")"
        return f"{self.span}: {self.message}{suffix}"

    def sort_key(self) -> tuple[int, int]:
        return (self.span.line, self.span.column)


@dataclass(frozen=True)
class Token:
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


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


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


class _Lexer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.line_start = 0
        self.tokens: list[Token] = []
        self.errors: list[ParseError] = []

    # -- primitives ---------------------------------------------------

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def advance(self) -> str:
        c = self.source[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.line_start = self.pos
        return c

    def span_from(self, start: int, start_line: int, start_col: int) -> SourceSpan:
        return SourceSpan(start_line, start_col, self.pos - start)

    def here(self) -> tuple[int, int, int]:
        return self.pos, self.line, self.pos - self.line_start + 1

    def emit(self, kind: TokenKind, start: int, line: int, col: int,
             value: object = None) -> None:
        text = self.source[start:self.pos]
        self.tokens.append(Token(kind, text, value, self.span_from(start, line, col)))

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.errors.append(ParseError(span, message, code=code))

    # -- token scanners -----------------------------------------------

    def run(self) -> None:
        while self.pos < len(self.source):
            c = self.peek()
            if c in " \t\r\n":
                self.advance()
            elif c == "#":
                while self.pos < len(self.source) and self.peek() != "\n":
                    self.advance()
            elif c == '"':
                self.scan_string()
            elif c.isdigit():
                self.scan_number()
            elif _is_ident_start(c):
                self.scan_ident()
            elif c == "-" and self.peek(1) == ">":
                start, line, col = self.here()
                self.advance()
                self.advance()
                self.emit(TokenKind.ARROW, start, line, col)
            elif c in _PUNCTUATION:
                start, line, col = self.here()
                self.advance()
                self.emit(_PUNCTUATION[c], start, line, col)
            else:
                start, line, col = self.here()
                self.advance()
                self.error("lex.invalid_char",
                           f"unexpected character {c!r}",
                           self.span_from(start, line, col))
        start, line, col = self.here()
        self.tokens.append(Token(TokenKind.EOF, "", None,
                                 SourceSpan(line, col, 0)))

    def scan_ident(self) -> None:
        start, line, col = self.here()
        self.advance()
        while True:
            c = self.peek()
            if _is_ident_char(c):
                self.advance()
            elif c == "." and _is_ident_start(self.peek(1)):
                self.advance()
            elif c == "-" and self.peek(1).isalnum():
                self.advance()
            else:
                break
        text = self.source[start:self.pos]
        self.emit(TokenKind.IDENT, start, line, col, text)

    def scan_number(self) -> None:
        start, line, col = self.here()
        while self.peek().isdigit():
            self.advance()
        if _is_ident_start(self.peek()):
            # branch label such as "3a": digits immediately followed by
            # identifier characters
            while _is_ident_char(self.peek()):
                self.advance()
            self.emit(TokenKind.BRANCH, start, line, col,
                      self.source[start:self.pos])
        else:
            text = self.source[start:self.pos]
            self.emit(TokenKind.INT, start, line, col, int(text))

    def scan_string(self) -> None:
        if self.source.startswith('"""', self.pos):
            self.scan_triple_string()
        else:
            self.scan_single_string()

    def scan_triple_string(self) -> None:
        start, line, col = self.here()
        self.pos += 3
        end = self.source.find('"""', self.pos)
        if end < 0:
            content = self.source[self.pos:]
            self.error("lex.unterminated_string",
                       "unterminated triple-quoted string",
                       SourceSpan(line, col, 3))
            target = len(self.source)
        else:
            content = self.source[self.pos:end]
            target = end + 3
        while self.pos < target:
            self.advance()
        self.emit(TokenKind.STRING, start, line, col, dedent_block(content))

    def scan_single_string(self) -> None:
        start, line, col = self.here()
        self.advance()
        chars: list[str] = []
        while True:
            c = self.peek()
            if c == "" or c == "\n":
                self.error("lex.unterminated_string",
                           "unterminated string",
                           self.span_from(start, line, col))
                break
            if c == '"':
                self.advance()
                break
            if c == "\\":
                esc_start, esc_line, esc_col = self.here()
                self.advance()
                e = self.peek()
                if e in _ESCAPES:
                    chars.append(_ESCAPES[e])
                    self.advance()
                elif e == "" or e == "\n":
                    self.error("lex.bad_escape",
                               "dangling backslash in string",
                               self.span_from(esc_start, esc_line, esc_col))
                else:
                    self.advance()
                    self.error("lex.bad_escape",
                               f"unknown escape sequence '\\{e}'",
                               self.span_from(esc_start, esc_line, esc_col))
                    chars.append(e)
            else:
                chars.append(self.advance())
        self.emit(TokenKind.STRING, start, line, col, "".join(chars))


def lex(source: str) -> tuple[list[Token], list[ParseError]]:
    """Tokenize ``source``; always ends with an EOF token."""
    lexer = _Lexer(source)
    lexer.run()
    return lexer.tokens, lexer.errors

