"""Seeded random generation of valid, canonical use cases.

Every helper takes an explicit ``random.Random`` so failures reproduce from
the seed printed by the calling test.  ``make_use_case`` always returns a
use case that is already in canonical form (``canonicalize(uc) == uc``),
which lets property tests compare round-tripped values by plain equality.
``mutate_use_case`` edits one such value at the model level, with
``dataclasses.replace``, into one that validation may reject.
``split_tokens`` and ``mutate`` edit UCDL text at the token level instead:
a token dropped, repeated, swapped with its neighbour or replaced by one of
``POOL``.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

from ucdoc import (
    Actor,
    ActorKind,
    ActorRole,
    ApplicationAreaRef,
    Association,
    Extension,
    GoalLevel,
    Misuse,
    ScenarioStep,
    SystemFunction,
    UseCase,
    canonicalize,
)
from ucdoc.lexer import lex
from ucdoc.model import actor_ident

_WORDS = (
    "affect", "analysis", "camera", "dashboard", "driver", "emotion",
    "face", "feedback", "mood", "music", "operator", "profile", "sensor",
    "signal", "smile", "stream", "voice", "workload",
)

_NAME_WORDS = (
    "Analyst", "Caretaker", "Driver", "Listener", "Moderator", "Operator",
    "Photographer", "Platform", "Reviewer", "Supervisor", "Teacher",
)

_NAME_SUFFIXES = ("", "", "", " 2", " Jr", "-X", " O'Neil", " & Co")

# Strings that historically break naive serializers: quotes, escapes,
# pipes and angle brackets (table cells), newlines, unicode, comment and
# bracket characters, raw-string markers, carriage returns, arrow tokens.
_NASTY = (
    'quote " inside',
    "back\\slash\\path",
    "pipe | and <angle> brackets",
    "multi\nline\nvalue",
    "indented\n  second line\nthird",
    "tab\tseparated",
    "émotion reconnaissance 情感分析",
    "hash # not a comment",
    "braces { } and [ brackets ]",
    'triple """ marker inside',
    "carriage\rreturn",
    "arrow -> token and usecase keyword",
    "blank\n\nline in the middle",
)

_FAKE_AREAS = (
    "media.analytics",
    "gaming.companion",
    "retail.kiosk_assistant",
    "health.wellbeing_app",
    "education_support.tutoring",
)

_OTHER_LABELS = (
    "entertainment and leisure",
    "smart home comfort",
    "leisure photography",
    "interactive art installation",
)

_CAPABILITIES = (
    "emotion_recognition", "smile_detection", "mood_inference",
    "personality_prediction", "voice_stress", "drowsiness_detection",
    "deepfake", "conversational_agent",
)


def text(rng: random.Random, nasty: bool = True) -> str:
    """A random non-empty, pre-stripped single chunk of prose."""
    if nasty and rng.random() < 0.25:
        return rng.choice(_NASTY)
    value = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.15:
        value += "\n" + " ".join(rng.choice(_WORDS) for _ in range(3))
    return value


def slug(rng: random.Random, taken: set[str]) -> str:
    while True:
        parts = [rng.choice(_WORDS) for _ in range(rng.randint(1, 2))]
        candidate = rng.choice(("_", "-")).join(parts)
        if rng.random() < 0.3:
            candidate += str(rng.randint(0, 99))
        if candidate not in taken:
            taken.add(candidate)
            return candidate


def _actor(rng: random.Random, role: ActorRole, taken_idents: set[str],
           kinds: dict[str, ActorKind]) -> Actor:
    while True:
        name = rng.choice(_NAME_WORDS) + rng.choice(_NAME_SUFFIXES)
        ident = actor_ident(name)
        if ident and ident != "system" and ident not in taken_idents:
            break
    taken_idents.add(ident)
    kind = kinds.setdefault(ident, rng.choice(list(ActorKind)))
    return Actor(name, kind, role)


def _areas(rng: random.Random, pool) -> tuple[ApplicationAreaRef, ...]:
    refs = []
    seen = set()
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            ref = ApplicationAreaRef("other", rng.choice(_OTHER_LABELS))
        else:
            ref = ApplicationAreaRef(rng.choice(pool))
        key = (ref.area_id, ref.free_label or "")
        if key not in seen:
            seen.add(key)
            refs.append(ref)
    return tuple(sorted(refs, key=lambda r: (r.area_id, r.free_label or "")))


def _steps(rng: random.Random, actor_idents: list[str],
           fn_ids: list[str], count: int) -> tuple[ScenarioStep, ...]:
    steps = []
    for index in range(1, count + 1):
        actor = rng.choice(actor_idents + ["system"])
        function = rng.choice(fn_ids) if rng.random() < 0.4 else None
        steps.append(ScenarioStep(index, actor, text(rng), function))
    return tuple(steps)


def make_use_case(rng: random.Random, *, area_pool=None,
                  uc_id: str | None = None) -> UseCase:
    """A random use case that is valid and canonical by construction."""
    pool = tuple(area_pool) if area_pool else _FAKE_AREAS

    taken_idents: set[str] = set()
    kinds: dict[str, ActorKind] = {}
    user = _actor(rng, ActorRole.USER, taken_idents, kinds)
    targets = []
    user_merged = False
    for _ in range(rng.randint(0, 2)):
        if not user_merged and rng.random() < 0.2:
            # Same person as the user: exercises the actor-merge path.
            targets.append(Actor(user.name, user.kind, ActorRole.TARGET_PERSON))
            user_merged = True
        else:
            targets.append(_actor(rng, ActorRole.TARGET_PERSON,
                                  taken_idents, kinds))
    secondaries = [
        _actor(rng, ActorRole.SECONDARY, taken_idents, kinds)
        for _ in range(rng.randint(0, 2))
    ]

    fn_taken: set[str] = set()
    fn_ids = [slug(rng, fn_taken) for _ in range(rng.randint(1, 4))]
    functions = []
    for fid in fn_ids:
        others = [f for f in fn_ids if f != fid]
        includes = tuple(rng.sample(others, k=min(len(others), rng.randint(0, 2)))) \
            if rng.random() < 0.3 else ()
        extend_pool = [f for f in others if f not in includes]
        extends = (rng.choice(extend_pool),) \
            if extend_pool and rng.random() < 0.2 else ()
        functions.append(SystemFunction(fid, text(rng), includes, extends))

    actor_idents = sorted(taken_idents)
    steps = _steps(rng, actor_idents, fn_ids, rng.randint(1, 6))

    extensions = []
    used_branches = set()
    for _ in range(rng.randint(0, 2)):
        branch = f"{rng.randint(1, len(steps))}{rng.choice('abcd')}"
        if branch in used_branches:
            continue
        used_branches.add(branch)
        extensions.append(Extension(
            branch, text(rng),
            _steps(rng, actor_idents, fn_ids, rng.randint(1, 2))))

    associations = ()
    if rng.random() < 0.5:
        pairs = sorted({(rng.choice(actor_idents), rng.choice(fn_ids))
                        for _ in range(rng.randint(1, 4))})
        associations = tuple(Association(a, f) for a, f in pairs)

    misuses = tuple(
        Misuse(text(rng),
               ApplicationAreaRef("other", rng.choice(_OTHER_LABELS))
               if rng.random() < 0.3 else
               ApplicationAreaRef(rng.choice(pool))
               if rng.random() < 0.6 else None)
        for _ in range(rng.randint(0, 2)))

    taken_ids: set[str] = set()
    uc = UseCase(
        id=uc_id if uc_id is not None else slug(rng, taken_ids),
        title=text(rng),
        intended_purpose=text(rng),
        user=user,
        application_areas=_areas(rng, pool),
        inputs=tuple(text(rng) for _ in range(rng.randint(1, 3))),
        outputs=tuple(text(rng) for _ in range(rng.randint(1, 2))),
        system_functions=tuple(functions),
        main_scenario=steps,
        safety_component=rng.random() < 0.15,
        affective_capabilities=tuple(sorted(
            rng.sample(_CAPABILITIES, k=rng.randint(0, 3)))),
        target_persons=tuple(targets),
        secondary_actors=tuple(secondaries),
        context_of_use=text(rng) if rng.random() < 0.5 else "",
        misuses=misuses,
        level=rng.choice(list(GoalLevel)),
        preconditions=tuple(text(rng) for _ in range(rng.randint(0, 2))),
        trigger=text(rng) if rng.random() < 0.5 else "",
        success_guarantee=text(rng) if rng.random() < 0.5 else "",
        minimal_guarantee=text(rng) if rng.random() < 0.5 else "",
        extensions=tuple(extensions),
        associations=associations,
    )
    canonical = canonicalize(uc)
    assert canonical == uc, "generator must produce canonical use cases"
    return uc


# Pools of values, most of which break a rule: blank text, ids that are not
# slugs, reserved words, names of no identifier, and a trailing newline.
_BAD_TEXT = ("", " ", "\n", "ok")
_BAD_IDS = ("", "Bad Slug", "ok\n", "includes", "extends", "system", "ghost")
_BAD_NAMES = ("", " ", "??!", "System", "\u00c4\u00d6")


def _put(rng: random.Random, items: tuple, item) -> tuple:
    """``items`` with ``item`` over a random one of them, or inserted."""
    i = rng.randint(0, len(items))
    if i < len(items) and rng.random() < 0.5:
        return items[:i] + (item,) + items[i + 1:]
    return items[:i] + (item,) + items[i:]


def _mutate(rng: random.Random, uc: UseCase) -> UseCase:
    names = [a.name for a in uc.all_actors()] + list(_BAD_NAMES)
    idents = [actor_ident(n) for n in names] + list(_BAD_IDS)
    fn_ids = [f.id for f in uc.system_functions] + list(_BAD_IDS)

    def actor(role):
        if rng.random() < 0.2:
            role = rng.choice(list(ActorRole))
        return Actor(rng.choice(names), rng.choice(list(ActorKind)), role)

    def steps():
        return tuple(ScenarioStep(
            i + 1 if rng.random() < 0.8 else rng.randint(0, 5),
            rng.choice(idents), rng.choice(_BAD_TEXT),
            rng.choice(fn_ids + [None])) for i in range(rng.randint(0, 3)))

    def area():
        return ApplicationAreaRef(
            rng.choice(("other", "media.analytics", "Bad.Area", "a.b\n")),
            rng.choice((None, "", " ", "label")))

    def function():
        return SystemFunction(
            rng.choice(fn_ids), "f", tuple(rng.sample(fn_ids, rng.randint(0, 2))),
            tuple(rng.sample(fn_ids, rng.randint(0, 1))))

    edits = {
        "id": lambda: rng.choice(_BAD_IDS),
        "title": lambda: rng.choice(_BAD_TEXT),
        "intended_purpose": lambda: rng.choice(_BAD_TEXT),
        "user": lambda: None if rng.random() < 0.3 else actor(ActorRole.USER),
        "target_persons": lambda: _put(
            rng, uc.target_persons, actor(ActorRole.TARGET_PERSON)),
        "secondary_actors": lambda: _put(
            rng, uc.secondary_actors, actor(ActorRole.SECONDARY)),
        "application_areas": lambda: _put(rng, uc.application_areas, area())
        if rng.random() < 0.8 else (),
        "misuses": lambda: _put(rng, uc.misuses, Misuse(
            rng.choice(_BAD_TEXT), area() if rng.random() < 0.5 else None)),
        "inputs": lambda: (),
        "outputs": lambda: (),
        "system_functions": lambda: _put(rng, uc.system_functions, function())
        if rng.random() < 0.8 else (),
        "main_scenario": steps,
        "extensions": lambda: _put(rng, uc.extensions, Extension(
            rng.choice(("abc", "1a", "1a", "2b", "99z", "0a", "1a\n")),
            rng.choice(_BAD_TEXT), steps())),
        "associations": lambda: _put(rng, uc.associations, Association(
            rng.choice(idents), rng.choice(fn_ids))),
    }
    name = rng.choice(list(edits))
    return replace(uc, **{name: edits[name]()})


def mutate_use_case(rng: random.Random) -> UseCase:
    """A :func:`make_use_case` value given 1 to 4 random edits."""
    uc = make_use_case(rng)
    for _ in range(rng.randint(1, 4)):
        uc = _mutate(rng, uc)
    return uc


# Replacement tokens: punctuation, keywords of both grammars, values of
# every kind, an unterminated string and a character the lexer rejects.
POOL = (
    "{", "}", "[", "]", "(", ")", ",", ":", "->", "usecase", "person",
    "entry", "version", "tier", "kind", "name", "true", "other", "high_risk",
    "human", '"x"', '""', '"""\n  y\n  """', '"EMOTION"', "1", "3a", '"',
    "²",
)

OPS = ("drop", "repeat", "swap", "replace")


def line_starts(source: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", source)]


def split_tokens(source: str) -> list[str]:
    """``[gap, token, gap, …, token, gap]``: joined, the source again."""
    parts, pos = [], 0
    for _, text, _, offset in lex(source)[0][:-1]:     # all but EOF
        parts += [source[pos:offset], text]
        pos = offset + len(text)
    return parts + [source[pos:]]


def mutate(parts: list[str], edits) -> str:
    """Apply ``(op, n, new)`` edits to the tokens of ``split_tokens``."""
    words = parts[1::2]
    for op, n, new in edits:
        i = n % len(words)
        if op == "drop":
            words[i] = ""
        elif op == "repeat":
            words[i] += " " + words[i]
        elif op == "swap":
            j = (i + 1) % len(words)
            words[i], words[j] = words[j], words[i]
        else:
            words[i] = new
    mutated = list(parts)
    mutated[1::2] = words
    return "".join(mutated)
