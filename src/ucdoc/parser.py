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

from typing import Optional

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
_ACTOR_KINDS = {k.value: k for k in ActorKind}

_WORD_KINDS = (TokenKind.IDENT, TokenKind.BRANCH, TokenKind.INT)


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
        end = start
        try:
            title = self.expect(TokenKind.STRING, "use case title string")
            state = _State(str(title.value))
            self.expect(TokenKind.LBRACE, "'{'")
            while True:
                if self.at(TokenKind.RBRACE):
                    tok = self.advance()
                    end = (tok.span.line, tok.span.column)
                    break
                if self.at(TokenKind.EOF):
                    self.error("unclosed use case block", expected=("}",))
                    end = (self.cur().span.line, self.cur().span.column)
                    break
                self.parse_field(state)
        except _Panic:
            self.sync_to_usecase()
            tok = self.cur()
            end = (tok.span.line, tok.span.column)
        clean = len(self.errors) == first_error
        uc = state.build() if (state is not None and clean) else None
        self.results.append((uc, start, end))

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
        tok = self.cur()
        if key == "id":
            value = self.parse_word_or_string("use case id")
        elif key in _PROSE_KEYS:
            value = str(self.expect(TokenKind.STRING,
                                    f"string value for {key!r}").value)
        elif key == "safety_component":
            if not (tok.kind is TokenKind.IDENT and tok.text in ("true", "false")):
                self.error(
                    f"expected true or false for 'safety_component', "
                    f"found {_describe(tok)}",
                    tok.span, code="field.value")
                self.skip_value()
                return
            self.advance()
            value = tok.text == "true"
        elif key == "level":
            if not (tok.kind is TokenKind.IDENT and tok.text in _LEVELS):
                self.error(
                    f"expected one of {sorted(_LEVELS)} for 'level', "
                    f"found {_describe(tok)}",
                    tok.span, code="field.value")
                self.skip_value()
                return
            self.advance()
            value = _LEVELS[tok.text]
        elif key == "application_areas":
            value = self.parse_list(self.parse_area_item, "application area")
        elif key == "affective_capabilities":
            value = self.parse_list(
                lambda: self.parse_word_or_string("capability tag"), "tag")
        elif key in _STRING_LIST_KEYS:
            value = self.parse_list(lambda: self.parse_text_item(key), "string")
        elif key == "associations":
            value = self.parse_list(self.parse_association_item, "association")
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

    def parse_text_item(self, key: str) -> str:
        tok = self.cur()
        if tok.kind is TokenKind.STRING:
            self.advance()
            return str(tok.value)
        if tok.kind in _WORD_KINDS:
            self.advance()
            return tok.text
        self.error(f"expected string in {key!r} list, found {_describe(tok)}",
                   expected=("string",))
        raise _Panic

    def parse_list(self, item_parser, what: str) -> tuple:
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
            label = self.expect(TokenKind.STRING, "free-text area label")
            self.expect(TokenKind.RPAREN, "')'")
            return ApplicationAreaRef(OTHER_AREA, str(label.value))
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

    def parse_actor_body(self, role: ActorRole) -> Actor:
        """Parse ``{ name: "…" kind: ident }`` (either order, both optional)."""
        self.expect(TokenKind.LBRACE, "'{'")
        seen: set[str] = set()
        name = ""
        kind = ActorKind.HUMAN
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.EOF):
                self.error("unclosed actor block", expected=("}",))
                raise _Panic
            key = self.expect(TokenKind.IDENT, "'name' or 'kind'")
            self.expect(TokenKind.COLON, "':'")
            if key.text in seen:
                self.error(f"duplicate field {key.text!r}", key.span,
                           code="field.duplicate")
                self.skip_value()
                continue
            seen.add(key.text)
            if key.text == "name":
                tok = self.expect(TokenKind.STRING, "actor name string")
                name = str(tok.value)
            elif key.text == "kind":
                tok = self.cur()
                if tok.kind is TokenKind.IDENT and tok.text in _ACTOR_KINDS:
                    self.advance()
                    kind = _ACTOR_KINDS[tok.text]
                else:
                    self.error(
                        f"expected one of {sorted(_ACTOR_KINDS)} for 'kind', "
                        f"found {_describe(tok)}",
                        tok.span, code="field.value")
                    self.skip_value()
            else:
                self.error(f"unknown field {key.text!r} in actor block",
                           key.span, code="field.unknown")
                self.skip_value()
        self.advance()
        return Actor(name, kind, role)

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
        self.expect(TokenKind.LBRACE, "'{'")
        actors: list[Actor] = []
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.EOF):
                self.error(f"unclosed {key.text} block", expected=("}",))
                raise _Panic
            person = self.expect(TokenKind.IDENT, "'person'")
            if person.text != "person":
                self.error(f"expected 'person' block, found {person.text!r}",
                           person.span, expected=("person",))
                raise _Panic
            actors.append(self.parse_actor_body(role))
        self.advance()
        if fresh:
            state.fields[key.text] = tuple(actors)

    def parse_functions(self, state: _State) -> None:
        key = self.advance()
        fresh = self.mark_seen(key, state)
        self.expect(TokenKind.LBRACE, "'{'")
        functions: list[SystemFunction] = []
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.EOF):
                self.error("unclosed functions block", expected=("}",))
                raise _Panic
            name = self.cur()
            if name.kind in _WORD_KINDS:
                fn_id = name.text
            elif name.kind is TokenKind.STRING:
                fn_id = str(name.value)
            else:
                self.error(f"expected function id, found {_describe(name)}",
                           expected=("function id",))
                raise _Panic
            self.advance()
            self.expect(TokenKind.COLON, "':'")
            if name.kind is TokenKind.IDENT and fn_id in ("includes", "extends"):
                refs = self.parse_list(
                    lambda: self.parse_word_or_string("function id"),
                    "function id")
                if not functions:
                    self.error(
                        f"{name.text!r} annotation with no preceding function",
                        name.span)
                    continue
                last = functions[-1]
                if (name.text == "includes" and last.includes) or \
                        (name.text == "extends" and last.extends):
                    self.error(
                        f"duplicate {name.text!r} annotation on "
                        f"function {last.id!r}",
                        name.span, code="field.duplicate")
                    continue
                if name.text == "includes":
                    functions[-1] = SystemFunction(
                        last.id, last.label, refs, last.extends)
                else:
                    functions[-1] = SystemFunction(
                        last.id, last.label, last.includes, refs)
            else:
                label = self.expect(TokenKind.STRING, "function label string")
                functions.append(SystemFunction(fn_id, str(label.value)))
        self.advance()
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
        action = self.expect(TokenKind.STRING, "step action string")
        function: Optional[str] = None
        if self.at(TokenKind.ARROW):
            self.advance()
            function = self.parse_word_or_string("function id")
        ident = actor.text if actor.text == "system" else actor_ident(actor.text)
        return ScenarioStep(int(index.value), ident, str(action.value), function)

    def parse_step_block(self, what: str) -> list[ScenarioStep]:
        self.expect(TokenKind.LBRACE, "'{'")
        steps: list[ScenarioStep] = []
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.EOF):
                self.error(f"unclosed {what} block", expected=("}",))
                raise _Panic
            if not self.at(TokenKind.INT):
                self.error(
                    f"expected step index, found {_describe(self.cur())}",
                    expected=("step index",))
                raise _Panic
            steps.append(self.parse_step())
        self.advance()
        return steps

    def parse_scenario(self, state: _State) -> None:
        key = self.advance()
        fresh = self.mark_seen(key, state)
        steps = self.parse_step_block("scenario")
        if fresh:
            state.fields["main_scenario"] = tuple(steps)

    def parse_extension(self, state: _State) -> None:
        self.advance()
        branch = self.cur()
        if branch.kind not in (TokenKind.BRANCH, TokenKind.IDENT):
            self.error(f"expected branch id, found {_describe(branch)}",
                       expected=("branch id such as '3a'",))
            raise _Panic
        self.advance()
        condition = self.expect(TokenKind.STRING, "extension condition string")
        steps = self.parse_step_block("extension")
        state.extensions.append(
            Extension(branch.text, str(condition.value), tuple(steps)))

    def parse_misuse(self, state: _State) -> None:
        self.advance()
        self.expect(TokenKind.LBRACE, "'{'")
        seen: set[str] = set()
        description = ""
        area: Optional[ApplicationAreaRef] = None
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.EOF):
                self.error("unclosed misuse block", expected=("}",))
                raise _Panic
            key = self.expect(TokenKind.IDENT, "'description' or 'area'")
            self.expect(TokenKind.COLON, "':'")
            if key.text in seen:
                self.error(f"duplicate field {key.text!r}", key.span,
                           code="field.duplicate")
                self.skip_value()
                continue
            seen.add(key.text)
            if key.text == "description":
                tok = self.expect(TokenKind.STRING, "misuse description string")
                description = str(tok.value)
            elif key.text == "area":
                area = self.parse_area_item()
            else:
                self.error(f"unknown field {key.text!r} in misuse block",
                           key.span, code="field.unknown")
                self.skip_value()
        self.advance()
        state.misuses.append(Misuse(description, area))


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
