"""Recursive-descent parser for ``.ucdl`` documents.

Grammar (EBNF; whitespace-insensitive between tokens, ``#`` line comments)::

    document    = { usecase } ;
    usecase     = "usecase" string "{" { field } "}" ;
    field       = scalar | list_field | actor_blk | persons_blk
                | functions_blk | scenario_blk | extension_blk | misuse_blk ;
    scalar      = key ":" ( string | bool | ident ) ;
    list_field  = key ":" "[" [ item { "," item } ] "]" ;
    item        = ident | "other" "(" string ")" | string
                | ident "->" ident ;                    (associations only)
    actor_blk   = "user" "{" "name" ":" string "kind" ":" ident "}" ;
    persons_blk = ( "target_persons" | "secondary_actors" )
                  "{" { "person" "{" "name" ":" string "kind" ":" ident "}" } "}" ;
    functions_blk = "functions" "{" { fn_entry } "}" ;
    fn_entry    = ident ":" string [ "includes" ":" ident_list ]
                  [ "extends" ":" ident_list ] ;
    scenario_blk  = "scenario" "{" { step } "}" ;
    step        = integer ident ":" string [ "->" ident ] ;
    extension_blk = "extension" branch_id string "{" { step } "}" ;
    misuse_blk  = "misuse" "{" "description" ":" string
                  [ "area" ":" item ] "}" ;

The use-case title is the header string; every other element is a field.
``schema_version`` is accepted and ignored so documents can carry a format
marker.  Parsing never raises: every problem is collected as a
:class:`~ucdoc.lexer.Diagnostic`, the parser re-synchronizes at the next
top-level ``usecase`` keyword, and any use case whose block parsed without
errors is still returned.  Semantic checks (missing fields, dangling
references) are *not* parse errors; run
:func:`~ucdoc.model.validate_use_case` on the result for those.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Optional

from .lexer import Diagnostic, Severity, SourceSpan, Token, TokenKind, lex
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
)

_USECASE_KW = "usecase"

_PROSE_KEYS = {
    "intended_purpose", "context_of_use", "trigger", "success_guarantee",
    "minimal_guarantee",
}
_STRING_LIST_KEYS = {"inputs", "outputs", "preconditions"}
_BLOCK_KEYS = {
    "user", "target_persons", "secondary_actors", "functions", "scenario",
    "extension", "misuse",
}
_LEVELS = {lv.value: lv for lv in GoalLevel}
_BOOLS = {"true": True, "false": False}
_ACTOR_KINDS = {k.value: k for k in ActorKind}

_WORD_KINDS = (TokenKind.IDENT, TokenKind.BRANCH, TokenKind.INT)

# The readers of each ``{ key: value … }`` record, called with the parser.
_ACTOR_FIELDS = {
    "name": lambda p: p.parse_string("actor name string"),
    "kind": lambda p: p.parse_choice(_ACTOR_KINDS, "kind"),
}
_MISUSE_FIELDS = {
    "description": lambda p: p.parse_string("misuse description string"),
    "area": lambda p: p.parse_area_item(),
}


class _Panic(Exception):
    """Internal signal: abandon the current block and resynchronize."""


# The fields ``UseCase`` requires, at their empty values; every other field
# left out of a block takes its default from ``UseCase`` itself.
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


class _State:
    """Mutable collection bucket for one ``usecase`` block: ``UseCase``
    keyword arguments, plus the two blocks that may repeat."""

    def __init__(self, title: str):
        self.seen: set[str] = set()
        self.fields: dict[str, object] = dict(_REQUIRED_EMPTY, title=title)
        self.extensions: list[Extension] = []
        self.misuses: list[Misuse] = []

    def build(self) -> UseCase:
        return UseCase(**self.fields, extensions=tuple(self.extensions),
                       misuses=tuple(self.misuses))


def _describe(tok: Token) -> str:
    if tok.kind is TokenKind.EOF:
        return "end of input"
    if tok.kind is TokenKind.STRING:
        return "string"
    return repr(tok.text)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[Diagnostic] = []
        # (use case or None, block start, block end) per usecase block,
        # positions as (line, column) so lexer errors can be attributed
        self.results: list[tuple[Optional[UseCase], tuple[int, int], tuple[int, int]]] = []

    # -- token plumbing -------------------------------------------------

    def cur(self) -> Token:
        return self.tokens[self.pos]

    def next_kind(self) -> TokenKind:
        i = min(self.pos + 1, len(self.tokens) - 1)
        return self.tokens[i].kind

    def at(self, kind: TokenKind) -> bool:
        return self.cur().kind is kind

    def at_word(self, text: str) -> bool:
        tok = self.cur()
        return tok.kind is TokenKind.IDENT and tok.text == text

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def error(self, message: str, span: Optional[SourceSpan] = None,
              expected: tuple[str, ...] = (), code: str = "syntax") -> None:
        if expected:
            message += f" (expected {' or '.join(expected)})"
        self.errors.append(Diagnostic(Severity.ERROR, code, message,
                                      span=span or self.cur().span,
                                      expected=expected))

    def expect(self, kind: TokenKind, what: str) -> Token:
        if self.at(kind):
            return self.advance()
        self.error(f"expected {what}, found {_describe(self.cur())}",
                   expected=(what,))
        raise _Panic

    def skip_balanced(self) -> None:
        """Consume a brace/bracket-balanced region starting at the opener."""
        opener = self.advance()
        close = {TokenKind.LBRACE: TokenKind.RBRACE,
                 TokenKind.LBRACKET: TokenKind.RBRACKET}[opener.kind]
        depth = 1
        while depth and not self.at(TokenKind.EOF):
            tok = self.advance()
            if tok.kind is opener.kind:
                depth += 1
            elif tok.kind is close:
                depth -= 1

    def skip_value(self) -> None:
        """Consume one field value of any shape (for unknown/duplicate keys)."""
        if self.at(TokenKind.LBRACKET) or self.at(TokenKind.LBRACE):
            self.skip_balanced()
            return
        if self.cur().kind in _WORD_KINDS or self.at(TokenKind.STRING):
            self.advance()
            if self.at(TokenKind.ARROW):
                self.advance()
                if self.cur().kind in _WORD_KINDS:
                    self.advance()
            return
        self.error(f"expected a value, found {_describe(self.cur())}")
        raise _Panic

    # -- document structure ---------------------------------------------

    def run(self) -> None:
        while not self.at(TokenKind.EOF):
            if self.at_word(_USECASE_KW):
                self.parse_usecase()
            else:
                self.error(
                    f"expected '{_USECASE_KW}', found {_describe(self.cur())}",
                    expected=(_USECASE_KW,))
                self.sync_to_usecase()

    def sync_to_usecase(self) -> None:
        while not self.at(TokenKind.EOF) and not self.at_word(_USECASE_KW):
            self.advance()

    def parse_usecase(self) -> None:
        first_error = len(self.errors)
        kw = self.advance()
        start = (kw.span.line, kw.span.column)
        state: Optional[_State] = None
        try:
            state = _State(self.parse_string("use case title string"))
            for _ in self.block("use case"):
                self.parse_field(state)
            tok = self.tokens[self.pos - 1]     # the closing '}'
        except _Panic:
            self.sync_to_usecase()
            tok = self.cur()
        clean = len(self.errors) == first_error
        uc = state.build() if (state is not None and clean) else None
        self.results.append((uc, start, (tok.span.line, tok.span.column)))

    # -- fields ----------------------------------------------------------

    def parse_field(self, state: _State) -> None:
        tok = self.cur()
        if tok.kind is TokenKind.IDENT and tok.text in _BLOCK_KEYS:
            if self.next_kind() is TokenKind.COLON:
                self.error(
                    f"field {tok.text!r} takes a block, not a ':' value",
                    tok.span, code="field.value")
                self.advance()
                self.advance()
                self.skip_value()
                return
            handler = {
                "user": self.parse_user,
                "target_persons": self.parse_persons,
                "secondary_actors": self.parse_persons,
                "functions": self.parse_functions,
                "scenario": self.parse_scenario,
                "extension": self.parse_extension,
                "misuse": self.parse_misuse,
            }[tok.text]
            handler(state)
            return
        if tok.kind is TokenKind.IDENT and self.next_kind() is TokenKind.COLON:
            self.advance()
            self.advance()
            self.parse_keyed_value(tok, state)
            return
        if tok.kind is TokenKind.IDENT and self.next_kind() is TokenKind.LBRACE:
            self.error(f"unknown block {tok.text!r}", tok.span,
                       code="field.unknown")
            self.advance()
            self.skip_balanced()
            return
        self.error(f"expected a field, found {_describe(tok)}",
                   expected=("field name", "}"))
        raise _Panic

    def mark_seen(self, key_tok: Token, state: _State) -> bool:
        """Record a key occurrence; False (and an error) on duplicates."""
        if key_tok.text in state.seen:
            self.error(f"duplicate field {key_tok.text!r}", key_tok.span,
                       code="field.duplicate")
            return False
        state.seen.add(key_tok.text)
        return True

    def parse_keyed_value(self, key_tok: Token, state: _State) -> None:
        key = key_tok.text
        fresh = self.mark_seen(key_tok, state)
        if key == "id":
            value = self.parse_word_or_string("use case id")
        elif key in _PROSE_KEYS:
            value = self.parse_string(f"string value for {key!r}")
        elif key == "safety_component":
            value = self.parse_choice(_BOOLS, key)
        elif key == "level":
            value = self.parse_choice(_LEVELS, key)
        elif key == "application_areas":
            value = self.parse_list(self.parse_area_item)
        elif key == "affective_capabilities":
            value = self.parse_list(
                lambda: self.parse_word_or_string("capability tag"))
        elif key in _STRING_LIST_KEYS:
            value = self.parse_list(
                lambda: self.parse_word_or_string(f"string in {key!r} list"))
        elif key == "associations":
            value = self.parse_list(self.parse_association_item)
        else:
            if key != "schema_version":
                self.error(f"unknown field {key!r}", key_tok.span,
                           code="field.unknown")
            self.skip_value()
            return
        if fresh:
            state.fields[key] = value

    # -- value shapes ------------------------------------------------------

    def parse_word_or_string(self, what: str) -> str:
        tok = self.cur()
        if tok.kind in _WORD_KINDS:
            self.advance()
            return tok.text
        if tok.kind is TokenKind.STRING:
            self.advance()
            return str(tok.value)
        self.error(f"expected {what}, found {_describe(tok)}",
                   expected=(what,))
        raise _Panic

    def parse_string(self, what: str) -> str:
        return str(self.expect(TokenKind.STRING, what).value)

    def parse_choice(self, table: dict[str, object], key: str) -> object:
        """One word of ``table``; None, after a ``field.value`` error at the
        token, for anything else."""
        tok = self.cur()
        if tok.kind is TokenKind.IDENT and tok.text in table:
            self.advance()
            return table[tok.text]
        self.error(f"expected one of {sorted(table)} for {key!r}, "
                   f"found {_describe(tok)}", tok.span, code="field.value")
        self.skip_value()
        return None

    def parse_list(self, item_parser: Callable[[], object]) -> tuple:
        self.expect(TokenKind.LBRACKET, "'['")
        items = []
        if not self.at(TokenKind.RBRACKET):
            items.append(item_parser())
            while self.at(TokenKind.COMMA):
                self.advance()
                if self.at(TokenKind.RBRACKET):
                    break           # tolerate a trailing comma
                items.append(item_parser())
        self.expect(TokenKind.RBRACKET, "']'")
        return tuple(items)

    def parse_area_item(self) -> ApplicationAreaRef:
        tok = self.cur()
        if tok.kind is TokenKind.IDENT and tok.text == OTHER_AREA:
            self.advance()
            self.expect(TokenKind.LPAREN, "'('")
            label = self.parse_string("free-text area label")
            self.expect(TokenKind.RPAREN, "')'")
            return ApplicationAreaRef(OTHER_AREA, label)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return ApplicationAreaRef(tok.text)
        if tok.kind is TokenKind.STRING:
            self.advance()
            return ApplicationAreaRef(str(tok.value))
        self.error(f"expected application area, found {_describe(tok)}",
                   expected=("area id", "other(\"…\")"))
        raise _Panic

    def parse_association_item(self) -> Association:
        actor = self.parse_word_or_string("actor identifier")
        self.expect(TokenKind.ARROW, "'->'")
        function = self.parse_word_or_string("function id")
        return Association(actor_ident(actor), function)

    # -- blocks -----------------------------------------------------------

    def block(self, what: str) -> Iterator[None]:
        """The one ``{ … }`` loop: yield once per item, then consume ``}``."""
        self.expect(TokenKind.LBRACE, "'{'")
        while (kind := self.cur().kind) is not TokenKind.RBRACE:
            if kind is TokenKind.EOF:
                self.error(f"unclosed {what} block", expected=("}",))
                raise _Panic
            yield
        self.advance()

    def record(self, what: str, readers: dict[str, Callable[[_Parser], object]]
               ) -> dict[str, object]:
        """Read ``{ key: value … }``, each value by its key's reader; a key
        may come once, in any order, or not at all."""
        keys = " or ".join(f"'{key}'" for key in readers)
        values: dict[str, object] = {}
        for _ in self.block(what):
            key = self.expect(TokenKind.IDENT, keys)
            self.expect(TokenKind.COLON, "':'")
            if key.text in values:
                self.error(f"duplicate field {key.text!r}", key.span,
                           code="field.duplicate")
                self.skip_value()
            elif key.text in readers:
                values[key.text] = readers[key.text](self)
            else:
                self.error(f"unknown field {key.text!r} in {what} block",
                           key.span, code="field.unknown")
                self.skip_value()
                values[key.text] = None     # so a repeat is a duplicate
        return values

    def parse_actor_body(self, role: ActorRole) -> Actor:
        """Parse ``{ name: "…" kind: ident }`` (either order, both optional)."""
        fields = self.record("actor", _ACTOR_FIELDS)
        return Actor(fields.get("name", ""), fields.get("kind", ActorKind.HUMAN),
                     role)

    def parse_user(self, state: _State) -> None:
        key = self.advance()
        fresh = self.mark_seen(key, state)
        actor = self.parse_actor_body(ActorRole.USER)
        if fresh:
            state.fields["user"] = actor

    def parse_persons(self, state: _State) -> None:
        key = self.advance()
        role = (ActorRole.TARGET_PERSON if key.text == "target_persons"
                else ActorRole.SECONDARY)
        fresh = self.mark_seen(key, state)
        actors: list[Actor] = []
        for _ in self.block(key.text):
            person = self.expect(TokenKind.IDENT, "'person'")
            if person.text != "person":
                self.error(f"expected 'person' block, found {person.text!r}",
                           person.span, expected=("person",))
                raise _Panic
            actors.append(self.parse_actor_body(role))
        if fresh:
            state.fields[key.text] = tuple(actors)

    def parse_functions(self, state: _State) -> None:
        key = self.advance()
        fresh = self.mark_seen(key, state)
        functions: list[SystemFunction] = []
        for _ in self.block("functions"):
            name = self.cur()
            fn_id = self.parse_word_or_string("function id")
            self.expect(TokenKind.COLON, "':'")
            if name.kind is TokenKind.IDENT and fn_id in ("includes", "extends"):
                refs = self.parse_list(
                    lambda: self.parse_word_or_string("function id"))
                if not functions:
                    self.error(
                        f"{fn_id!r} annotation with no preceding function",
                        name.span)
                elif getattr(functions[-1], fn_id):
                    self.error(
                        f"duplicate {fn_id!r} annotation on "
                        f"function {functions[-1].id!r}",
                        name.span, code="field.duplicate")
                else:
                    functions[-1] = replace(functions[-1], **{fn_id: refs})
            else:
                functions.append(SystemFunction(
                    fn_id, self.parse_string("function label string")))
        if fresh:
            state.fields["system_functions"] = tuple(functions)

    def parse_step(self) -> ScenarioStep:
        index = self.expect(TokenKind.INT, "step index")
        actor = self.cur()
        if actor.kind not in _WORD_KINDS:
            self.error(f"expected step actor, found {_describe(actor)}",
                       expected=("actor identifier",))
            raise _Panic
        self.advance()
        self.expect(TokenKind.COLON, "':'")
        action = self.parse_string("step action string")
        function: Optional[str] = None
        if self.at(TokenKind.ARROW):
            self.advance()
            function = self.parse_word_or_string("function id")
        ident = actor.text if actor.text == "system" else actor_ident(actor.text)
        return ScenarioStep(int(index.value), ident, action, function)

    def parse_step_block(self, what: str) -> tuple[ScenarioStep, ...]:
        return tuple([self.parse_step() for _ in self.block(what)])

    def parse_scenario(self, state: _State) -> None:
        key = self.advance()
        fresh = self.mark_seen(key, state)
        steps = self.parse_step_block("scenario")
        if fresh:
            state.fields["main_scenario"] = steps

    def parse_extension(self, state: _State) -> None:
        self.advance()
        branch = self.cur()
        if branch.kind not in (TokenKind.BRANCH, TokenKind.IDENT):
            self.error(f"expected branch id, found {_describe(branch)}",
                       expected=("branch id such as '3a'",))
            raise _Panic
        self.advance()
        condition = self.parse_string("extension condition string")
        steps = self.parse_step_block("extension")
        state.extensions.append(Extension(branch.text, condition, steps))

    def parse_misuse(self, state: _State) -> None:
        self.advance()
        fields = self.record("misuse", _MISUSE_FIELDS)
        state.misuses.append(Misuse(fields.get("description", ""),
                                    fields.get("area")))


def parse_document(source: str) -> tuple[list[UseCase], list[Diagnostic]]:
    """Parse UCDL text into use cases plus every error found.

    Use cases from blocks containing any error (including tokenizer errors)
    are dropped; the rest are returned in document order.  The error list is
    sorted by source position.
    """
    tokens, lex_errors = lex(source)
    parser = _Parser(tokens)
    parser.run()

    use_cases: list[UseCase] = []
    for uc, start, end in parser.results:
        if uc is None:
            continue
        poisoned = any(
            start <= (e.span.line, e.span.column) <= end for e in lex_errors)
        if not poisoned:
            use_cases.append(uc)

    errors = sorted(parser.errors + lex_errors, key=lambda e: e.span[:2])
    return use_cases, errors
