"""Recursive-descent parser for ``.ucdl`` documents.

Grammar (EBNF; whitespace-insensitive between tokens, ``#`` line comments)::

    document    = { usecase } ;
    usecase     = "usecase" string record ;
    record      = "{" { key ":" ( item | list ) | key block } "}" ;
                  (a key at most once; "extension" and "misuse" again)
    name        = ident | integer | branch_id | string ;
    list        = "[" [ item { "," item } [ "," ] ] "]" ;
    item        = name | "other" "(" string ")"
                | name "->" name ;                      (associations only)
    block       = record                                (user, misuse)
                | "{" { "person" record } "}"           (target_persons,
                                                         secondary_actors)
                | "{" { fn_entry } "}"                  (functions)
                | "{" { step } "}"                      (scenario)
                | ( branch_id | ident ) string "{" { step } "}" ; (extension)
    fn_entry    = name ":" string { ( "includes" | "extends" ) ":" list } ;
    step        = integer name ":" string [ "->" name ] ;

Which keys a record takes, the value each key reads and how
:func:`serialize_canonical` writes it back (in canonical order, two-space
indents, ``""``, ``()`` and None left out) are one entry of the record tables
at the end of this module (``_USE_CASE``, ``_ACTOR``, ``_MISUSE``,
``_FUNCTION``).  A value is written bare, or multi-line prose as a
triple-quoted block, only when :func:`~ucdoc.lexer.read_token` reads that
back as the value, else as an escaped string; so parsing the output, in
memory or from a file, gives the use case back.  The use-case title is the
header string; every other element is a field.  A use case accepts and
ignores ``schema_version`` so documents can carry a format marker.  Parsing
never raises: every problem is reported as a
:class:`~ucdoc.lexer.Diagnostic`, the parser re-synchronizes at the next
top-level ``usecase`` keyword, and any use case whose block parsed without
errors is still returned.  Semantic checks (missing fields, dangling
references) are *not* parse errors; run
:func:`~ucdoc.model.validate_use_case` on the result for those.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Iterator, Optional

from .lexer import (
    ARROW, BRANCH, COLON, COMMA, EOF, IDENT, INT, KIND, LBRACE, LBRACKET,
    LPAREN, OFFSET, RBRACE, RBRACKET, RPAREN, STRING, TEXT, VALUE,
    _WORD_KINDS, Diagnostic, Token, TokenKind, _diagnostics, _Problem, _scan,
    escape_string, is_word, read_token, replace,
)
from .model import (
    Actor,
    ActorKind,
    ActorRole,
    ApplicationAreaRef,
    Association,
    Extension,
    GoalLevel,
    Misuse,
    OTHER_AREA,
    ScenarioStep,
    SystemFunction,
    UseCase,
    actor_ident,
    canonicalize,
)

_USECASE_KW = "usecase"
_PERSON_KW = "person"

_LEVELS = {lv.value: lv for lv in GoalLevel}
_BOOLS = {"true": True, "false": False}
_ACTOR_KINDS = {k.value: k for k in ActorKind}
_CLOSE = {LBRACE: RBRACE, LBRACKET: RBRACKET, LPAREN: RPAREN}


class _Panic(Exception):
    """Internal signal: abandon the current block and resynchronize."""


# The fields ``UseCase`` requires, at their empty values; any other field
# left out of a use case takes its ``UseCase`` default.
_REQUIRED_EMPTY = {
    "id": "",
    "intended_purpose": "",
    "user": Actor("", ActorKind.HUMAN, ActorRole.USER),
    "application_areas": (),
    "inputs": (),
    "outputs": (),
    "system_functions": (),
    "main_scenario": (),
}


def _describe(tok: Token) -> str:
    if tok[KIND] is EOF:
        return "end of input"
    if tok[KIND] is STRING:
        return "string"
    return repr(tok[TEXT])


class _Parser:
    def __init__(self, tokens: list[Token], lex_problems: list[_Problem] = ()):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[_Problem] = []
        self.lex_offsets = [offset for _, _, offset, _ in lex_problems]
        # per usecase block: its use case, or None when it holds a problem
        self.results: list[Optional[UseCase]] = []

    # -- token plumbing: each reads ``tokens[pos]`` itself, as the hot path

    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos][KIND] is kind

    def at_word(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[KIND] is IDENT and tok[TEXT] == text

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[KIND] is not EOF:
            self.pos += 1
        return tok

    def error(self, message: str, at: Optional[Token] = None,
              code: str = "syntax") -> None:
        """Report ``message`` at the token ``at``, by default the current one."""
        _, text, _, offset = at or self.tokens[self.pos]
        self.errors.append((code, message, offset, len(text)))

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[KIND] is kind:       # never EOF, so there is a next token
            self.pos += 1
            return tok
        self.error(f"expected {what}, found {_describe(tok)}")
        raise _Panic

    def skip_balanced(self) -> None:
        """Consume a balanced ``{ … }``, ``[ … ]`` or ``( … )`` region
        starting at the opener."""
        opener = self.advance()[KIND]
        close = _CLOSE[opener]
        depth = 1
        while depth and not self.at(EOF):
            kind = self.advance()[KIND]
            if kind is opener:
                depth += 1
            elif kind is close:
                depth -= 1

    def skip_value(self) -> None:
        """Consume one field value of any shape (for ignored and unknown
        keys): a ``{ … }`` or ``[ … ]`` group, or a word or string, perhaps
        followed by a ``( … )`` group or by ``-> word``."""
        if self.at(LBRACKET) or self.at(LBRACE):
            self.skip_balanced()
        elif self.cur()[KIND] in _WORD_KINDS or self.at(STRING):
            self.advance()
            if self.at(LPAREN):
                self.skip_balanced()
            elif self.at(ARROW):
                self.advance()
                if self.cur()[KIND] in _WORD_KINDS:
                    self.advance()
        else:
            self.error(f"expected a value, found {_describe(self.cur())}")
            raise _Panic

    # -- document structure ---------------------------------------------

    def starts_field(self, table: Container[str]) -> bool:
        """True when the current token, never EOF, is a key of ``table`` that
        starts a field here: followed by ':' or '{', or, for ``extension``,
        by the branch id that :meth:`parse_extension` reads."""
        key, after = self.tokens[self.pos], self.tokens[self.pos + 1][KIND]
        return key[KIND] is IDENT and key[TEXT] in table and (
            after in (COLON, LBRACE)
            or key[TEXT] == "extension" and after in (BRANCH, IDENT))

    def run(self) -> None:
        while not self.at(EOF):
            if self.at_word(_USECASE_KW):
                self.parse_usecase()
                continue
            if self.results and self.starts_field(_USE_CASE):
                # Right after a use case: the '}' before it closed it early.
                self.error(f"extra '}}' closes the use case before "
                           f"{self.cur()[TEXT]!r}", self.tokens[self.pos - 1])
                self.results[-1] = None
            else:
                self.error(
                    f"expected '{_USECASE_KW}', found {_describe(self.cur())}")
            self.sync_to_usecase()

    def sync_to_usecase(self) -> None:
        while not self.at(EOF) and not self.at_word(_USECASE_KW):
            self.advance()

    def parse_usecase(self) -> None:
        """Read a usecase block into ``results``: None if it has a problem."""
        first_error = len(self.errors)
        start = self.advance()[OFFSET]
        try:
            title = self.parse_string("use case title string")
            fields = {**_REQUIRED_EMPTY, **self.record("use case", _USE_CASE)}
            end = self.tokens[self.pos - 1][OFFSET]     # the closing '}'
        except _Panic:
            self.sync_to_usecase()
            end = self.cur()[OFFSET]
        clean = len(self.errors) == first_error and not any(
            start <= at <= end for at in self.lex_offsets)
        self.results.append(UseCase(title=title, **fields) if clean else None)

    # -- value shapes ------------------------------------------------------

    def parse_word_or_string(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok[KIND] is STRING:
            self.pos += 1
            return tok[VALUE]
        if tok[KIND] in _WORD_KINDS:
            self.pos += 1
            return tok[TEXT]
        self.error(f"expected {what}, found {_describe(tok)}")
        raise _Panic

    def parse_string(self, what: str) -> str:
        return self.expect(STRING, what)[VALUE]

    def parse_choice(self, table: dict[str, object], key: str) -> object:
        """One word of ``table``; None, after a ``field.value`` error at the
        token, for anything else."""
        tok = self.cur()
        if tok[KIND] is IDENT and tok[TEXT] in table:
            self.advance()
            return table[tok[TEXT]]
        self.error(f"expected one of {sorted(table)} for {key!r}, "
                   f"found {_describe(tok)}", tok, code="field.value")
        self.skip_value()
        return None

    def parse_list(self, item_parser: Callable[[], object]) -> tuple:
        self.expect(LBRACKET, "'['")
        items = []
        while self.tokens[self.pos][KIND] is not RBRACKET:
            items.append(item_parser())
            if self.tokens[self.pos][KIND] is not COMMA:
                break
            self.pos += 1           # a comma, perhaps a trailing one
        self.expect(RBRACKET, "']'")
        return tuple(items)

    def parse_words(self, what: str) -> tuple[str, ...]:
        return self.parse_list(lambda: self.parse_word_or_string(what))

    def parse_area_item(self) -> ApplicationAreaRef:
        kind, text, value, _ = tok = self.cur()
        if kind is IDENT and text == OTHER_AREA:
            self.advance()
            self.expect(LPAREN, "'('")
            label = self.parse_string("free-text area label")
            self.expect(RPAREN, "')'")
            return ApplicationAreaRef(OTHER_AREA, label)
        if kind is IDENT:
            self.advance()
            return ApplicationAreaRef(text)
        if kind is STRING:
            self.advance()
            return ApplicationAreaRef(value)
        self.error(f'expected an area id or {OTHER_AREA}("…"), '
                   f"found {_describe(tok)}")
        raise _Panic

    def parse_association_item(self) -> Association:
        actor = self.parse_word_or_string("actor identifier")
        self.expect(ARROW, "'->'")
        function = self.parse_word_or_string("function id")
        return Association(actor_ident(actor), function)

    # -- blocks -----------------------------------------------------------

    def block(self, what: str) -> Iterator[None]:
        """The one ``{ … }`` loop: yield once per item, then consume ``}``."""
        self.expect(LBRACE, "'{'")
        while (kind := self.tokens[self.pos][KIND]) is not RBRACE:
            if kind is EOF:
                self.error(f"unclosed {what} block (expected }})")
                raise _Panic
            yield
        self.advance()

    def record(self, what: str, table: dict[str, _Field],
               parent: Container[str] = ()) -> dict[str, object]:
        """Read ``{ … }`` fields into a dict by attribute, each as its entry in
        ``table`` says: ``key: value``, or ``key { … }`` for a block.  A key
        comes once, in any order, or not at all, but an ``_EACH`` block adds
        an item each time; a repeated key's value is read and dropped.  A
        key of the enclosing record, ``parent``, that starts a field there
        means this one lost its ``}``: a ``syntax`` error, not an unknown
        field."""
        values: dict[str, object] = {}
        seen: set[str] = set()
        for _ in self.block(what):
            key = self.tokens[self.pos]
            if key[KIND] is not IDENT:
                self.error(
                    f"expected a field name or }}, found {_describe(key)}")
                raise _Panic
            name = key[TEXT]
            attr, read, _, shape = table.get(name, _NO_FIELD)
            after = self.tokens[self.pos + 1]   # an IDENT is never the last
            if read is None and self.starts_field(parent):
                self.error(
                    f"unclosed {what} block before {name!r} (expected }})", key)
                raise _Panic
            if after[KIND] is COLON:
                self.pos += 2
            elif shape or (read is None and after[KIND] is LBRACE):
                self.pos += 1
            else:
                self.error(f"expected ':', found {_describe(after)}", after)
                raise _Panic
            if read is None:
                self.error(f"unknown field {name!r} in {what} block", key,
                           code="field.unknown")
                self.skip_value()
            elif shape and after[KIND] is COLON:
                self.error(f"field {name!r} takes a block, not a ':' value",
                           key, code="field.value")
                self.skip_value()
            elif shape == _EACH:
                values[attr] = values.get(attr, ()) + (read(self, name),)
            elif name in seen:
                self.error(f"duplicate field {name!r}", key,
                           code="field.duplicate")
                read(self, name)
            else:
                seen.add(name)
                value = read(self, name)
                if attr is not None:
                    values[attr] = value
        return values

    def parse_actor_body(self, role: ActorRole) -> Actor:
        """Parse ``{ name: "…" kind: ident }`` (either order, both optional)."""
        fields = self.record("actor", _ACTOR, _USE_CASE)
        return Actor(fields.get("name", ""), fields.get("kind", ActorKind.HUMAN),
                     role)

    def parse_persons(self, key: str, role: ActorRole) -> tuple[Actor, ...]:
        actors: list[Actor] = []
        for _ in self.block(key):
            person = self.expect(IDENT, f"'{_PERSON_KW}'")
            if person[TEXT] != _PERSON_KW:
                self.error(f"expected '{_PERSON_KW}' block, found "
                           f"{person[TEXT]!r}", person)
                raise _Panic
            actors.append(self.parse_actor_body(role))
        return tuple(actors)

    def parse_functions(self, key: str) -> tuple[SystemFunction, ...]:
        functions: list[SystemFunction] = []
        for _ in self.block(key):
            name = self.cur()
            fn_id = self.parse_word_or_string("function id")
            self.expect(COLON, "':'")
            if name[KIND] is IDENT and fn_id in _FUNCTION:
                attr, read, _, _ = _FUNCTION[fn_id]
                refs = read(self, fn_id)
                if not functions:
                    self.error(
                        f"{fn_id!r} annotation with no preceding function",
                        name)
                elif getattr(functions[-1], attr):
                    self.error(
                        f"duplicate {fn_id!r} annotation on "
                        f"function {functions[-1].id!r}",
                        name, code="field.duplicate")
                else:
                    functions[-1] = replace(functions[-1], **{attr: refs})
            else:
                functions.append(SystemFunction(
                    fn_id, self.parse_string("function label string")))
        return tuple(functions)

    def parse_step(self) -> ScenarioStep:
        index = self.expect(INT, "step index")[VALUE]
        kind, text, value, _ = actor = self.cur()
        if kind is not STRING and kind not in _WORD_KINDS:
            self.error(
                f"expected an actor identifier, found {_describe(actor)}")
            raise _Panic
        self.pos += 1
        self.expect(COLON, "':'")
        action = self.parse_string("step action string")
        function: Optional[str] = None
        if self.at(ARROW):
            self.pos += 1
            function = self.parse_word_or_string("function id")
        ident = actor_ident(value if kind is STRING else text)
        return ScenarioStep(index, ident, action, function)

    def parse_steps(self, key: str) -> tuple[ScenarioStep, ...]:
        return tuple([self.parse_step() for _ in self.block(key)])

    def parse_extension(self, key: str) -> Extension:
        branch = self.cur()
        if branch[KIND] not in (BRANCH, IDENT):
            self.error(f"expected a branch id such as '3a', "
                       f"found {_describe(branch)}")
            raise _Panic
        self.pos += 1
        condition = self.parse_string("extension condition string")
        return Extension(branch[TEXT], condition, self.parse_steps(key))

    def parse_misuse(self, key: str) -> Misuse:
        return Misuse(**{"description": "",
                         **self.record(key, _MISUSE, _USE_CASE)})


# -- the records -----------------------------------------------------------
#
# One table per UCDL record, in canonical order: key -> (attribute, reader,
# writer, shape).  A reader is called with the parser and the key, after the
# key (and its ':'); a writer with the value and the indent of the key, and
# returns the text after the key.

_VALUE, _BLOCK, _EACH = range(3)    # key: value, key { … }, and a block that
                                    # may come again, each adding an item
_Field = tuple[Optional[str], Callable, Optional[Callable], int]
_NO_FIELD = (None, None, None, _VALUE)
_INDENT = "  "


def _write_record(table: dict[str, _Field], obj: object, pad: str) -> str:
    """The fields of ``obj`` in ``table`` order, one per line at indent
    ``pad``; an entry with no writer, and a value of ``""``, ``()`` or None,
    is left out."""
    lines = []
    for key, (attr, _, write, shape) in table.items():
        value = None if write is None else getattr(obj, attr)
        if value in ("", (), None):
            continue
        sep = " " if shape else ": "
        for item in value if shape == _EACH else (value,):
            lines.append(f"{pad}{key}{sep}{write(item, pad)}\n")
    return "".join(lines)


def _word(text: str) -> str:
    return text if is_word(text) else escape_string(text)


def _prose(value: str, pad: str) -> str:
    """A triple-quoted block when multi-line and the block reads back as
    ``value``, else an escaped string."""
    if "\n" in value:
        body = "".join(f"{pad}{_INDENT}{ln}\n" for ln in value.split("\n"))
        block = f'"""\n{body}{pad}"""'
        tok = read_token(block)
        if tok is not None and tok[VALUE] == value:
            return block
    return escape_string(value)


def _block(body: str, pad: str) -> str:
    return "{\n" + body + pad + "}"


def _nested(table: dict[str, _Field]) -> Callable:
    return lambda obj, pad: _block(_write_record(table, obj, pad + _INDENT), pad)


def _list(write_item: Callable[[object], str]) -> Callable:
    return lambda items, pad: "[" + ", ".join(map(write_item, items)) + "]"


def _area(ref: ApplicationAreaRef) -> str:
    if ref.is_other:
        return f"{OTHER_AREA}({escape_string(ref.free_label or '')})"
    return ref.area_id


def _write_steps(steps: tuple[ScenarioStep, ...], pad: str) -> str:
    return _block("".join(
        f"{pad}{_INDENT}{s.index} {_word(s.actor)}: {escape_string(s.action)}"
        + ("" if s.function is None else f" -> {_word(s.function)}") + "\n"
        for s in steps), pad)


def _choice(table: dict[str, object]) -> tuple:
    names = {value: name for name, value in table.items()}
    return (lambda p, key: p.parse_choice(table, key),
            lambda value, pad: names[value], _VALUE)


_PROSE = (lambda p, key: p.parse_string(f"string value for {key!r}"), _prose,
          _VALUE)
_TEXTS = (lambda p, key: p.parse_words(f"string in {key!r} list"),
          _list(escape_string), _VALUE)
_REFS = (lambda p, key: p.parse_words("function id"), _list(_word), _VALUE)

_ACTOR: dict[str, _Field] = {
    "name": ("name", lambda p, key: p.parse_string("actor name string"),
             lambda name, pad: escape_string(name), _VALUE),
    "kind": ("kind", *_choice(_ACTOR_KINDS)),
}
_MISUSE: dict[str, _Field] = {
    "description": ("description",
                    lambda p, key: p.parse_string("misuse description string"),
                    _prose, _VALUE),
    "area": ("area_ref", lambda p, key: p.parse_area_item(),
             lambda ref, pad: _area(ref), _VALUE),
}
# The annotations that may follow a function's ``id: "label"`` line.
_FUNCTION: dict[str, _Field] = {
    "includes": ("includes", *_REFS),
    "extends": ("extends", *_REFS),
}
_write_actor = _nested(_ACTOR)


def _persons(role: ActorRole) -> tuple:
    def write(actors: tuple[Actor, ...], pad: str) -> str:
        inner = pad + _INDENT
        return _block("".join(f"{inner}{_PERSON_KW} {_write_actor(a, inner)}\n"
                              for a in actors), pad)
    return lambda p, key: p.parse_persons(key, role), write, _BLOCK


def _write_functions(functions: tuple[SystemFunction, ...], pad: str) -> str:
    inner = pad + _INDENT
    return _block("".join(
        f"{inner}{_word(fn.id)}: {escape_string(fn.label)}\n"
        + _write_record(_FUNCTION, fn, inner) for fn in functions), pad)


_USE_CASE: dict[str, _Field] = {
    "schema_version": (None, lambda p, key: p.skip_value(), None, _VALUE),
    "id": ("id", lambda p, key: p.parse_word_or_string("use case id"),
           lambda uc_id, pad: _word(uc_id), _VALUE),
    "intended_purpose": ("intended_purpose", *_PROSE),
    "level": ("level", *_choice(_LEVELS)),
    "safety_component": ("safety_component", *_choice(_BOOLS)),
    "affective_capabilities": (
        "affective_capabilities",
        lambda p, key: p.parse_words("capability tag"), _list(_word), _VALUE),
    "user": ("user", lambda p, key: p.parse_actor_body(ActorRole.USER),
             _write_actor, _BLOCK),
    "target_persons": ("target_persons", *_persons(ActorRole.TARGET_PERSON)),
    "secondary_actors": ("secondary_actors", *_persons(ActorRole.SECONDARY)),
    "context_of_use": ("context_of_use", *_PROSE),
    "application_areas": (
        "application_areas", lambda p, key: p.parse_list(p.parse_area_item),
        _list(_area), _VALUE),
    "inputs": ("inputs", *_TEXTS),
    "outputs": ("outputs", *_TEXTS),
    "preconditions": ("preconditions", *_TEXTS),
    "trigger": ("trigger", *_PROSE),
    "success_guarantee": ("success_guarantee", *_PROSE),
    "minimal_guarantee": ("minimal_guarantee", *_PROSE),
    "functions": ("system_functions", _Parser.parse_functions,
                  _write_functions, _BLOCK),
    "associations": (
        "associations", lambda p, key: p.parse_list(p.parse_association_item),
        _list(lambda a: f"{_word(a.actor)} -> {_word(a.function)}"), _VALUE),
    "scenario": ("main_scenario", _Parser.parse_steps, _write_steps, _BLOCK),
    "extension": ("extensions", _Parser.parse_extension,
                  lambda ext, pad: f"{ext.branch_id} {escape_string(ext.condition)} "
                  + _write_steps(ext.steps, pad), _EACH),
    "misuse": ("misuses", _Parser.parse_misuse, _nested(_MISUSE), _EACH),
}


def serialize_canonical(uc: UseCase) -> str:
    """The canonical UCDL text of a valid use case: its header, then its
    fields as ``_USE_CASE`` says.  Raises
    :class:`~ucdoc.model.ValidationFailedError` on invalid input."""
    uc = canonicalize(uc)
    body = _block(_write_record(_USE_CASE, uc, _INDENT), "")
    return f"{_USECASE_KW} {escape_string(uc.title)} {body}\n"


def serialize_document(use_cases: Iterable[UseCase]) -> str:
    """Serialize several use cases, blank-line separated."""
    return "\n".join(serialize_canonical(uc) for uc in use_cases)


def parse_document(source: str) -> tuple[list[UseCase], list[Diagnostic]]:
    """Parse UCDL text into use cases plus every error found.

    Use cases from blocks containing any error (including tokenizer errors)
    are dropped; the rest are returned in document order.  The error list is
    sorted by source position.
    """
    tokens, lex_problems = _scan(source)
    parser = _Parser(tokens, lex_problems)
    parser.run()
    # By offset; on a tie the parser's problem stays first (a stable sort).
    problems = sorted(parser.errors + lex_problems, key=lambda p: p[2])
    return ([uc for uc in parser.results if uc is not None],
            _diagnostics(source, problems))
