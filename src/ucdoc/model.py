"""Core domain model for AI use-case documentation records.

A :class:`UseCase` captures every information element needed to document the
intended purpose of an AI system and to place it on the EU AI Act risk
ladder: who uses it, on whom it is used, where it runs, which application
areas it targets, which misuses are foreseen, and the classic use-case
machinery (goal level, trigger, guarantees, main scenario, extensions).

All types are immutable values; the validator returns diagnostics instead of
raising, so callers can collect every problem in one pass.

Diagnostic codes emitted by :func:`validate_use_case`:

==========================  =================================================
code                        meaning
==========================  =================================================
id.missing / id.format      id empty / not matching ``[a-z0-9_-]+``
title.empty                 title blank
purpose.empty               intended_purpose blank
user.missing                user actor absent or unnamed
actor.role                  actor stored under the wrong role
actor.name_empty            target/secondary actor with a blank name
actor.ident_empty           actor name yields no referenceable identifier
actor.reserved_name         actor identifier collides with the ``system`` literal
actors.duplicate_name       two actors in one role list share an identifier
actors.kind_conflict        same actor name declared with two kinds
areas.empty                 no application area given
areas.format                area id is not a dotted identifier
areas.other_label_missing   ``other`` area without a free-text label
areas.unexpected_label      free-text label on a non-``other`` area
misuse.description_empty    misuse with a blank description
inputs.empty / outputs.empty  no inputs / outputs listed
functions.empty             no system function declared
functions.id_format         function id not a slug
functions.reserved_id       function id is the keyword ``includes``/``extends``
functions.duplicate_id      two functions share an id
functions.unknown_ref       includes/extends names an unknown function
functions.self_ref          function includes/extends itself
scenario.empty              main scenario has no steps
scenario.noncontiguous      step indices are not 1..N
scenario.unknown_actor      step actor resolves to no declared actor
scenario.action_empty       step with a blank action
scenario.unknown_function   step annotation names an unknown function
extension.branch_format     branch id not of the form ``<step><letter>``
extension.unknown_step      branch prefix references no main-scenario step
extension.duplicate_branch  two extensions share a branch id
extension.condition_empty   extension with a blank condition
assoc.unknown_actor         association names an unknown actor
assoc.unknown_function      association names an unknown function
==========================  =================================================
"""

from __future__ import annotations

import re
from enum import Enum, IntEnum
from functools import cached_property, lru_cache
from operator import is_
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .lexer import _NO_DEFAULT, Record, replace
from .lexer import Diagnostic, Severity  # re-exported: the one finding record

SYSTEM_ACTOR = "system"
OTHER_AREA = "other"

# Used with ``fullmatch``: ``match`` with ``$`` would accept a trailing newline.
_SLUG_RE = re.compile(r"[a-z0-9_-]+")
_AREA_ID_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*")
_BRANCH_RE = re.compile(r"[1-9][0-9]*[a-z]")


class RiskLevel(IntEnum):
    """AI Act risk tier, ordered so that higher value means higher risk."""

    MINIMAL = 0
    TRANSPARENCY = 1
    HIGH = 2
    UNACCEPTABLE = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


class ActorKind(Enum):
    HUMAN = "human"
    ORGANIZATION = "organization"
    SYSTEM = "system"


class ActorRole(Enum):
    USER = "user"
    TARGET_PERSON = "target_person"
    SECONDARY = "secondary"


class GoalLevel(Enum):
    """Cockburn goal level of a use case."""

    SUMMARY = "summary"
    USER_GOAL = "user_goal"
    SUBFUNCTION = "subfunction"


class ValidationFailedError(ValueError):
    """Raised by operations that require a valid use case."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(d.code for d in self.diagnostics) or "invalid use case"
        super().__init__(f"use case failed validation: {summary}")


# The errors of the taxonomy and catalogue modules live here, next to the
# model, so that the CLI can map them to exit codes without importing those
# modules; ``ucdoc.risk`` and ``ucdoc.catalog`` re-export them.


class TaxonomyError(ValueError):
    """Raised when a taxonomy file cannot be loaded."""

    def __init__(self, message: str, errors: tuple[Diagnostic, ...] = ()):
        self.errors = errors
        if errors:
            message += ": " + "; ".join(e.render() for e in errors)
        super().__init__(message)


class CatalogFormatError(ValueError):
    """Raised when catalog JSON does not follow the export schema."""


class QueryError(ValueError):
    """Raised for filters that cannot match anything (unknown area id)."""


class Actor(Record):
    name: str
    kind: ActorKind
    role: ActorRole


class ScenarioStep(Record):
    """One numbered interaction; ``actor`` is an actor identifier or ``system``.

    ``function`` optionally names the system function the step exercises and
    drives association edges in the diagram builder.
    """

    index: int
    actor: str
    action: str
    function: Optional[str] = None


class Extension(Record):
    """Alternative or failure branch hanging off a main-scenario step."""

    branch_id: str
    condition: str
    steps: tuple[ScenarioStep, ...] = ()


class ApplicationAreaRef(Record):
    """Reference to a deployment area: a taxonomy id, or ``other`` + label."""

    area_id: str
    free_label: Optional[str] = None

    @property
    def is_other(self) -> bool:
        return self.area_id == OTHER_AREA

    def display(self) -> str:
        if self.is_other:
            return f"{self.free_label} ({OTHER_AREA})"
        return self.area_id


class Misuse(Record):
    description: str
    area_ref: Optional[ApplicationAreaRef] = None


class SystemFunction(Record):
    """A use-case ellipse: a named function the system offers."""

    id: str
    label: str
    includes: tuple[str, ...] = ()
    extends: tuple[str, ...] = ()


class Association(Record):
    """Explicit actor-to-function association overriding step inference."""

    actor: str
    function: str


class UseCase(Record, kw_only=True):
    """One documented use case.  The fields are in the order the catalogue
    JSON writes them (see :func:`use_case_to_dict`)."""

    id: str
    title: str
    intended_purpose: str
    level: GoalLevel = GoalLevel.USER_GOAL
    safety_component: bool = False
    affective_capabilities: tuple[str, ...] = ()
    user: Actor
    target_persons: tuple[Actor, ...] = ()
    secondary_actors: tuple[Actor, ...] = ()
    context_of_use: str = ""
    application_areas: tuple[ApplicationAreaRef, ...]
    misuses: tuple[Misuse, ...] = ()
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    preconditions: tuple[str, ...] = ()
    trigger: str = ""
    success_guarantee: str = ""
    minimal_guarantee: str = ""
    system_functions: tuple[SystemFunction, ...]
    associations: tuple[Association, ...] = ()
    main_scenario: tuple[ScenarioStep, ...]
    extensions: tuple[Extension, ...] = ()

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        # Stored in the instance __dict__, outside the fields, so == and
        # hash do not see it; the value fields never change after __init__.
        return tuple(_validate(self))

    def all_actors(self) -> tuple[Actor, ...]:
        head = (self.user,) if self.user is not None else ()
        return head + self.target_persons + self.secondary_actors


@lru_cache(maxsize=4096)  # called once per step and per actor check
def actor_ident(name: str) -> str:
    """Identifier an actor is referenced by in scenario steps.

    Lowercased, with every run of characters outside [a-z0-9] collapsed to a
    single underscore, so it stays within the ASCII identifier alphabet.
    """
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _validate(uc: UseCase) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def error(code: str, message: str, location: str) -> None:
        diags.append(Diagnostic(Severity.ERROR, code, message, location))

    if not uc.id:
        error("id.missing", "use case has no id", "id")
    elif not _SLUG_RE.fullmatch(uc.id):
        error("id.format", f"id {uc.id!r} must match [a-z0-9_-]+", "id")
    if not uc.title.strip():
        error("title.empty", "use case has no title", "title")
    if not uc.intended_purpose.strip():
        error("purpose.empty", "intended purpose is empty", "intended_purpose")
    for location, code, what in (
            ("application_areas", "areas.empty", "application area"),
            ("inputs", "inputs.empty", "input"),
            ("outputs", "outputs.empty", "output"),
            ("system_functions", "functions.empty", "system function")):
        if not getattr(uc, location):
            error(code, f"at least one {what} is required", location)
    if not uc.main_scenario:
        error("scenario.empty", "main scenario has no steps", "main_scenario")

    if uc.user is None:
        error("user.missing", "use case has no user actor", "user")
    # An actor may appear under several roles (e.g. the driver is both user
    # and target person) but must keep one kind, and identifiers must be
    # unique within each role list.  The identifiers kept here are the names
    # a step or an association may use.
    kind_by_ident: dict[str, ActorKind] = {}
    for group, location, role in (
            ((uc.user,) if uc.user is not None else (), "user", ActorRole.USER),
            (uc.target_persons, "target_persons", ActorRole.TARGET_PERSON),
            (uc.secondary_actors, "secondary_actors", ActorRole.SECONDARY)):
        seen: set[str] = set()
        for i, actor in enumerate(group):
            here = location if location == "user" else f"{location}[{i}]"
            if actor.role is not role:
                error("actor.role",
                      f"actor {actor.name!r} has role {actor.role.value!r}, "
                      f"expected {role.value!r}",
                      here)
            ident = actor_ident(actor.name)
            if not actor.name.strip():
                code = "user.missing" if role is ActorRole.USER else "actor.name_empty"
                error(code, "actor has no name", here)
                continue
            if not ident:
                error("actor.ident_empty",
                      f"actor name {actor.name!r} contains no [a-z0-9] characters "
                      "and cannot be referenced from scenario steps",
                      here)
                continue
            if ident == SYSTEM_ACTOR:
                error("actor.reserved_name",
                      f"actor name {actor.name!r} collides with the reserved "
                      f"{SYSTEM_ACTOR!r} step actor",
                      here)
            if ident in seen:
                error("actors.duplicate_name",
                      f"actor identifier {ident!r} appears twice in {location}",
                      here)
            seen.add(ident)
            kind = kind_by_ident.setdefault(ident, actor.kind)
            if kind is not actor.kind:
                error("actors.kind_conflict",
                      f"actor {actor.name!r} declared both as "
                      f"{kind.value} and {actor.kind.value}",
                      here)

    refs = [(ref, f"application_areas[{i}]")
            for i, ref in enumerate(uc.application_areas)]
    for i, misuse in enumerate(uc.misuses):
        if not misuse.description.strip():
            error("misuse.description_empty", "misuse has no description",
                  f"misuses[{i}]")
        if misuse.area_ref is not None:
            refs.append((misuse.area_ref, f"misuses[{i}].area"))
    for ref, here in refs:
        if ref.is_other:
            if ref.free_label is None or not ref.free_label.strip():
                error("areas.other_label_missing",
                      "area 'other' requires a free-text label",
                      here)
            continue
        if not _AREA_ID_RE.fullmatch(ref.area_id):
            error("areas.format",
                  f"area id {ref.area_id!r} is not a dotted identifier",
                  here)
        if ref.free_label is not None:
            error("areas.unexpected_label",
                  f"area {ref.area_id!r} carries a free-text label, which is "
                  "reserved for 'other'",
                  here)

    function_ids = {fn.id for fn in uc.system_functions}
    seen_fn: set[str] = set()
    for i, fn in enumerate(uc.system_functions):
        here = f"system_functions[{i}]"
        if not _SLUG_RE.fullmatch(fn.id or ""):
            error("functions.id_format",
                  f"function id {fn.id!r} must match [a-z0-9_-]+", here)
        elif fn.id in ("includes", "extends"):
            error("functions.reserved_id",
                  f"function id {fn.id!r} is reserved for relationship "
                  "annotations", here)
        if fn.id in seen_fn:
            error("functions.duplicate_id", f"duplicate function id {fn.id!r}", here)
        seen_fn.add(fn.id)
        for rel_name, targets in (("includes", fn.includes), ("extends", fn.extends)):
            for target in targets:
                if target == fn.id:
                    error("functions.self_ref",
                          f"function {fn.id!r} cannot {rel_name.rstrip('s')} itself",
                          f"{here}.{rel_name}")
                elif target not in function_ids:
                    error("functions.unknown_ref",
                          f"{rel_name} references unknown function {target!r}",
                          f"{here}.{rel_name}")

    # As digit strings: a branch prefix may have more digits than int() reads.
    main_indices = {str(s.index) for s in uc.main_scenario}
    step_lists = [(uc.main_scenario, "main_scenario")]
    seen_branches: set[str] = set()
    for i, ext in enumerate(uc.extensions):
        here = f"extensions[{i}]"
        if not _BRANCH_RE.fullmatch(ext.branch_id):
            error("extension.branch_format",
                  f"branch id {ext.branch_id!r} must be a step index followed "
                  "by one letter (e.g. '3a')",
                  here)
        elif ext.branch_id[:-1] not in main_indices:
            error("extension.unknown_step",
                  f"branch {ext.branch_id!r} references main-scenario step "
                  f"{ext.branch_id[:-1]}, which does not exist",
                  here)
        if ext.branch_id in seen_branches:
            error("extension.duplicate_branch",
                  f"duplicate branch id {ext.branch_id!r}", here)
        seen_branches.add(ext.branch_id)
        if not ext.condition.strip():
            error("extension.condition_empty", "extension has no condition", here)
        step_lists.append((ext.steps, f"{here}.steps"))

    for steps, location in step_lists:
        indices = [s.index for s in steps]
        if indices != list(range(1, len(indices) + 1)):
            error("scenario.noncontiguous",
                  f"step indices {indices} are not contiguous from 1",
                  location)
        for i, step in enumerate(steps):
            here = f"{location}[{i}]"
            if not step.action.strip():
                error("scenario.action_empty", "step has no action", here)
            if step.actor != SYSTEM_ACTOR and step.actor not in kind_by_ident:
                error("scenario.unknown_actor",
                      f"step actor {step.actor!r} matches no declared actor "
                      f"(and is not {SYSTEM_ACTOR!r})",
                      f"{here}.actor")
            if step.function is not None and step.function not in function_ids:
                error("scenario.unknown_function",
                      f"step references unknown function {step.function!r}",
                      f"{here}.function")

    for i, assoc in enumerate(uc.associations):
        here = f"associations[{i}]"
        if assoc.actor not in kind_by_ident:
            error("assoc.unknown_actor",
                  f"association actor {assoc.actor!r} matches no declared actor",
                  here)
        if assoc.function not in function_ids:
            error("assoc.unknown_function",
                  f"association references unknown function {assoc.function!r}",
                  here)

    diags.sort(key=Diagnostic.sort_key)
    return diags


def validate_use_case(uc: UseCase) -> list[Diagnostic]:
    """Check every semantic invariant; empty result means the record is valid.

    Never raises: all violations come back as error diagnostics, sorted by
    field path (list indices as numbers) then code so output is stable.  The
    check runs once per instance; later calls, and :func:`require_valid`,
    reuse its result.
    """
    return list(uc._diagnostics)


def require_valid(uc: UseCase) -> None:
    """Raise :class:`ValidationFailedError` unless ``uc`` is valid."""
    if uc._diagnostics:
        raise ValidationFailedError(uc._diagnostics)


def canonicalize(uc: UseCase) -> UseCase:
    """Return the canonical form of a valid use case.

    Surrounding whitespace is trimmed from every text field, and the
    application areas and affective capabilities are sorted; scenario order
    is left untouched.  Idempotent, and rejects invalid input.
    """
    require_valid(uc)
    trimmed = _convert(UseCase)[1](uc)
    areas = tuple(sorted(trimmed.application_areas,
                         key=lambda r: (r.area_id, r.free_label or "")))
    capabilities = tuple(sorted(trimmed.affective_capabilities))
    if trimmed is uc and (areas, capabilities) == (
            uc.application_areas, uc.affective_capabilities):
        return uc  # already canonical
    canonical = replace(trimmed, application_areas=areas,
                        affective_capabilities=capabilities)
    # Valid ids and references hold no whitespace, so trimming and sorting
    # keep the use case valid.
    canonical.__dict__["_diagnostics"] = ()
    return canonical


# ---------------------------------------------------------------------------
# plain-data form
#
# One walk over each record class's fields and type hints, :func:`_members`,
# holds every JSON key rule; the JSON decoders, the trimming in
# :func:`canonicalize` and, generated on first use, the one writer of all
# JSON text read its member list.  The JSON keys are the field names in field
# order; None is left out; ``Misuse.area_ref`` is ``area``; a field whose
# default is ``Flat(prefix)`` has its keys in the enclosing object, each
# with ``prefix`` in front; an enum is its value, but a RiskLevel its label.

_JSON_KEYS = {"area_ref": "area"}

# The keys a catalogue entry holds beside the use-case fields.
GENERATED_FIELDS = (
    "risk_level", "risk_matched", "risk_misuse_flags", "risk_rationale")
_ENTRY_KEYS = frozenset(("source_path",) + GENERATED_FIELDS)


@lru_cache(maxsize=None)
def _members(cls) -> tuple:
    """``(attrs, key, type, nullable, required)`` per JSON member of ``cls``,
    ``attrs`` the attribute path; a flat member, with key None and its record
    class as type, is followed by its record's members."""
    hints, out = get_type_hints(cls), []
    for name, _, default, flat, _ in cls._specs:
        tp = hints[name]
        nullable = get_origin(tp) is Union  # Optional[T], whose T comes first
        key = None if flat is not None else _JSON_KEYS.get(name, name)
        out.append(((name,), key, get_args(tp)[0] if nullable else tp,
                    nullable, default is _NO_DEFAULT))
        if flat is not None:
            out += [((name, *attrs), inner and flat + inner, *rest)
                    for attrs, inner, *rest in _members(tp)]
    return tuple(out)


class _BadValue(Exception):
    path = ""  # where the value sits, such as ".main_scenario[0].index"


def _expected(what: str, value: object) -> _BadValue:
    return _BadValue(f"expected {what}, got {type(value).__name__}")


def _enum_members(tp) -> dict:  # enum ``tp``'s members by their JSON text
    return {m.label if tp is RiskLevel else m.value: m for m in tp}


@lru_cache(maxsize=None)
def _convert(tp) -> tuple:
    """``(decode, trim)`` for type ``tp``; a ``trim`` of None changes nothing.
    ``decode`` checks types exactly (a bool is not an int); ``trim`` returns
    the value itself when it changes nothing.
    """
    if get_origin(tp) is tuple:  # tuple[T, ...], a JSON list
        decode, trim = _convert(get_args(tp)[0])

        def decode_list(v):
            if type(v) is not list:
                raise _expected("list", v)
            items = []
            try:
                for item in v:
                    items.append(decode(item))
            except _BadValue as exc:
                exc.path = f"[{len(items)}]{exc.path}"
                raise
            return tuple(items)

        def trim_list(v):
            items = [trim(x) for x in v]
            return v if all(map(is_, items, v)) else tuple(items)

        return decode_list, trim and trim_list
    if issubclass(tp, Record):
        return _convert_record(tp, _members(tp))
    if issubclass(tp, Enum):
        members = _enum_members(tp)

        def decode_enum(v):
            if type(v) is str and v in members:
                return members[v]
            raise _BadValue(f"expected one of {list(members)}, got {v!r}")

        return decode_enum, None

    def decode_plain(v):  # str, int or bool
        if type(v) is not tp:
            raise _expected(tp.__name__, v)
        if tp is str and not v.isascii():
            try:
                v.encode()
            except UnicodeEncodeError:
                raise _BadValue("expected UTF-8 text, got a lone surrogate")
        return v

    return decode_plain, str.strip if tp is str else None


def _convert_record(cls, members: tuple, path: tuple = ()) -> tuple:
    """``(decode, trim)`` of record class ``cls``, at attribute ``path`` in
    ``members``; a flat member's record leaves unknown keys to its holder."""
    specs = [(attrs[-1], key, need, *(_convert_record(tp, members, attrs)
                                      if key is None else _convert(tp)))
             for attrs, key, tp, _, need in members if attrs[:-1] == path]
    known = {key for _, key, *_ in members} - {None}
    has_flat = len(specs) < len(members)  # then a kwarg may hold many keys

    def decode(raw, extra_keys=frozenset()):
        if type(raw) is not dict:
            raise _expected("object", raw)
        kwargs = {}
        try:
            for name, key, need, dec, _ in specs:
                if key is None or key in raw:  # a flat member reads ``raw``
                    kwargs[name] = dec(raw if key is None else raw[key])
                elif need:
                    raise _BadValue("missing key")
            if not path and (has_flat or len(kwargs) < len(raw)) and (
                    raw.keys() - known - extra_keys):
                key = min(raw.keys() - known - extra_keys)
                raise _BadValue("unknown key")
        except _BadValue as exc:
            if key is not None:  # a key that is not a plain name is quoted
                exc.path = (f".{key}" if key.isascii() and key.isidentifier()
                            else f"[{key!r}]") + exc.path
            raise
        return cls(**kwargs)

    def trim(obj):
        changed = {name: new for name, _, _, _, t in specs
                   if t and (v := getattr(obj, name)) is not None
                   and (new := t(v)) is not v}
        return replace(obj, **changed) if changed else obj

    return decode, trim


@lru_cache(maxsize=None)
def _writer(tp):
    """``write(value)``: ``json.dumps(value, indent=2, ensure_ascii=False)``
    for a ``tp`` value, from source generated from the member lists: records
    and lists inlined, one list of pieces, key heads and indents constants."""
    from json.encoder import encode_basestring as enc  # only writing needs json
    env = {"enc": enc, "irepr": int.__repr__}
    body = []

    def const(lead, d, tail):  # lead, a new line indented to depth d, tail
        return repr(f"{lead}\n{'  ' * d}{tail}")

    def emit(tp, x, d, ind):  # appends the text of ``x``, on a line of depth d
        if get_origin(tp) is tuple:  # the last separator becomes the "]"
            item = f"v{len(body)}"
            body.extend((f"{ind}if {x}:", f"{ind} a({const('[', d + 1, '')})",
                         f"{ind} for {item} in {x}:"))
            emit(get_args(tp)[0], item, d + 1, ind + "  ")
            body.extend((f"{ind}  a({const(',', d + 1, '')})",
                         f"{ind} out[-1] = {const('', d, ']')}",
                         f"{ind}else:", f"{ind} a('[]')"))
        elif issubclass(tp, Record):
            objs, lead = {(): f"v{len(body)}"}, "{"  # a record by its attrs
            body.append(f"{ind}{objs[()]} = {x}")
            for attrs, key, vtp, nullable, _ in _members(tp):
                x, inner = f"{objs[attrs[:-1]]}.{attrs[-1]}", ind
                if key is None:  # a flat member: its record's members follow
                    objs[attrs] = f"v{len(body)}"
                    body.append(f"{ind}{objs[attrs]} = {x}")
                    continue
                if nullable:  # never an object's first
                    if lead == "{":
                        raise TypeError(f"{tp.__name__}.{'.'.join(attrs)}: an "
                                        "Optional field cannot come first")
                    body.append(f"{ind}if {x} is not None:")
                    inner += " "
                body.append(f"{inner}a({const(lead, d + 1, enc(key) + ': ')})")
                emit(vtp, x, d + 1, inner)
                lead = ","
            body.append(f"{ind}a({const('', d, '}')})")
        elif tp in (str, int, bool):
            body.append(ind + {str: "a(enc({}))", int: "a(irepr({}))",
                               bool: "a('true' if {} else 'false')"}[tp].format(x))
        else:  # an enum: a table from ``_value_`` to its text
            table = f"t{len(env)}"
            env[table] = {m._value_: enc(text)
                          for text, m in _enum_members(tp).items()}
            body.append(f"{ind}a({table}[{x}._value_])")

    emit(tp, "v", 0, " ")
    exec("\n".join(["def write(v):", " out = []", " a = out.append", *body,
                     " return ''.join(out)"]), env)
    return env["write"]


def use_case_to_dict(uc: UseCase) -> dict:
    """Plain-data mirror of a use case, read back from the writer's text."""
    import json
    return json.loads(_writer(UseCase)(uc))


def use_case_from_dict(d: dict) -> UseCase:
    """Inverse of :func:`use_case_to_dict`, checking the type of every value.

    Raises :class:`CatalogFormatError` naming the field path of a missing,
    unknown or wrong-typed value.  A catalogue entry's own keys
    (``source_path`` and the generated risk fields) are let through unread.
    """
    return _from_dict(UseCase, d, _ENTRY_KEYS)


def _from_dict(cls, d: dict, extra_keys: frozenset = frozenset()):
    try:
        return _convert(cls)[0](d, extra_keys)
    except _BadValue as exc:
        raise CatalogFormatError(
            f"{exc.path.removeprefix('.')}: {exc}" if exc.path else str(exc)
        ) from None
