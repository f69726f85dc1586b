"""Seeded generation of benchmark inputs: use cases and faults.

Ported from the test helpers (``tests/support.make_use_case`` and
``tests/test_risk.random_risk_uc``) rather than imported, so that editing a
test helper never silently changes a benchmark workload.  Every function
takes an explicit ``random.Random``; the same seed gives the same inputs.

Generated use cases are valid and canonical by construction, so a parsed or
loaded value can be compared with the generated one by plain equality.
"""

from __future__ import annotations

import hashlib
import random

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
    Taxonomy,
    UseCase,
)
from ucdoc.model import actor_ident

WORDS = (
    "affect", "analysis", "camera", "dashboard", "driver", "emotion",
    "face", "feedback", "mood", "music", "operator", "profile", "sensor",
    "signal", "smile", "stream", "voice", "workload",
)

_NAME_WORDS = (
    "Analyst", "Caretaker", "Driver", "Listener", "Moderator", "Operator",
    "Photographer", "Platform", "Reviewer", "Supervisor", "Teacher",
)

_NAME_SUFFIXES = ("", "", "", " 2", " Jr", "-X", " O'Neil", " & Co")

# Strings that break naive serializers: quotes, escapes, table pipes, angle
# brackets, newlines, unicode, comment and bracket characters, raw-string
# markers, carriage returns and arrow tokens.
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

# Free-text area labels: some hit taxonomy keywords, some hit none.
OTHER_LABELS = (
    "entertainment and leisure",
    "visa application emotion screening",
    "classroom proctoring assistant",
    "music discovery",
    "credit scoring helper",
    "workplace monitoring dashboard",
)

UNKNOWN_AREAS = ("media.analytics", "gaming.companion", "health.wellbeing_app")

CAPABILITIES = (
    "emotion_recognition", "smile_detection", "mood_inference",
    "personality_prediction", "voice_stress", "drowsiness_detection",
    "deepfake", "conversational_agent",
)

# Share of area references written as free-text ``other(...)`` labels.
OTHER_SHARE = 0.4


def area_pool(tax: Taxonomy) -> tuple[str, ...]:
    """Every taxonomy id plus ids the taxonomy does not know."""
    return tuple(e.area_id for e in tax.entries) + UNKNOWN_AREAS


def _text(rng: random.Random) -> str:
    """A random non-empty, pre-stripped chunk of prose."""
    if rng.random() < 0.25:
        return rng.choice(_NASTY)
    value = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.15:
        value += "\n" + " ".join(rng.choice(WORDS) for _ in range(3))
    return value


def slug(rng: random.Random, taken: set[str]) -> str:
    while True:
        parts = [rng.choice(WORDS) for _ in range(rng.randint(1, 2))]
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
    keys = set()
    for _ in range(rng.randint(1, 3)):
        if rng.random() < OTHER_SHARE:
            keys.add(("other", rng.choice(OTHER_LABELS)))
        else:
            keys.add((rng.choice(pool), None))
    return tuple(ApplicationAreaRef(a, label)
                 for a, label in sorted(keys, key=lambda k: (k[0], k[1] or "")))


def _steps(rng: random.Random, actor_idents: list[str],
           fn_ids: list[str], count: int) -> tuple[ScenarioStep, ...]:
    steps = []
    for index in range(1, count + 1):
        actor = rng.choice(actor_idents + ["system"])
        function = rng.choice(fn_ids) if rng.random() < 0.4 else None
        steps.append(ScenarioStep(index, actor, _text(rng), function))
    return tuple(steps)


def make_use_case(rng: random.Random, pool: tuple[str, ...],
                  uc_id: str) -> UseCase:
    """A random use case that is valid and canonical by construction."""
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
        functions.append(SystemFunction(fid, _text(rng), includes, extends))

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
            branch, _text(rng),
            _steps(rng, actor_idents, fn_ids, rng.randint(1, 2))))

    associations = ()
    if rng.random() < 0.5:
        pairs = sorted({(rng.choice(actor_idents), rng.choice(fn_ids))
                        for _ in range(rng.randint(1, 4))})
        associations = tuple(Association(a, f) for a, f in pairs)

    misuses = tuple(
        Misuse(_text(rng),
               ApplicationAreaRef("other", rng.choice(OTHER_LABELS))
               if rng.random() < 0.3 else
               ApplicationAreaRef(rng.choice(pool))
               if rng.random() < 0.6 else None)
        for _ in range(rng.randint(0, 2)))

    return UseCase(
        id=uc_id,
        title=_text(rng),
        intended_purpose=_text(rng),
        user=user,
        application_areas=_areas(rng, pool),
        inputs=tuple(_text(rng) for _ in range(rng.randint(1, 3))),
        outputs=tuple(_text(rng) for _ in range(rng.randint(1, 2))),
        system_functions=tuple(functions),
        main_scenario=steps,
        safety_component=rng.random() < 0.15,
        affective_capabilities=tuple(sorted(
            rng.sample(CAPABILITIES, k=rng.randint(0, 3)))),
        target_persons=tuple(targets),
        secondary_actors=tuple(secondaries),
        context_of_use=_text(rng) if rng.random() < 0.5 else "",
        misuses=misuses,
        level=rng.choice(list(GoalLevel)),
        preconditions=tuple(_text(rng) for _ in range(rng.randint(0, 2))),
        trigger=_text(rng) if rng.random() < 0.5 else "",
        success_guarantee=_text(rng) if rng.random() < 0.5 else "",
        minimal_guarantee=_text(rng) if rng.random() < 0.5 else "",
        extensions=tuple(extensions),
        associations=associations,
    )


def use_cases(rng: random.Random, tax: Taxonomy, count: int) -> list[UseCase]:
    """``count`` use cases with ids unique across the list."""
    pool = area_pool(tax)
    taken: set[str] = set()
    return [make_use_case(rng, pool, slug(rng, taken)) for _ in range(count)]


# ---------------------------------------------------------------------------
# faults for the build workload

TRUNCATED = "truncated"
MISSING_FIELD = "missing_field"
DUPLICATE_ID = "duplicate_id"
NOT_UTF8 = "not_utf8"
FAULT_KINDS = (TRUNCATED, MISSING_FIELD, DUPLICATE_ID, NOT_UTF8)


def truncate(text: str, rng: random.Random) -> str:
    """Cut the file well before its closing brace."""
    return text[:int(len(text) * rng.uniform(0.2, 0.9))]


def drop_inputs(text: str) -> str:
    """Remove the required ``inputs`` field (a single canonical line)."""
    lines = text.split("\n")
    kept = [ln for ln in lines if not ln.startswith("  inputs: [")]
    if len(kept) != len(lines) - 1:
        raise ValueError("canonical text has no single inputs line")
    return "\n".join(kept)


def not_utf8(data: bytes) -> bytes:
    """A Latin-1 comment line ahead of otherwise valid UTF-8 text."""
    return "# r\xe9sum\xe9 export\n".encode("latin-1") + data


def digest(values) -> str:
    """sha256 over the reprs of generated values, independent of ucdoc code."""
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
