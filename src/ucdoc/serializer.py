"""Canonical UCDL emitter.

:func:`serialize_canonical` writes a validated use case in one fixed form:
canonical field order, two-space indentation, LF newlines, trailing newline.
Values that lex as a single bare word are written unquoted; anything else is
emitted as an escaped single-line string, except long prose fields which use
an indented triple-quoted block when they contain newlines.  The emitter and
the parser are inverses: parsing the output of ``serialize_canonical``
reproduces the input use case exactly, and re-serializing is a no-op.
"""

from __future__ import annotations

from typing import Iterable

from .lexer import escape_string, is_word
from .model import (
    Actor,
    ApplicationAreaRef,
    ScenarioStep,
    UseCase,
    canonicalize,
)

_INDENT = "  "

def _word(text: str) -> str:
    return text if is_word(text) else escape_string(text)


def _common_indent(value: str) -> int:
    widths = [len(ln) - len(ln.lstrip())
              for ln in value.split("\n") if ln.strip()]
    return min(widths) if widths else 0


def _triple_eligible(value: str) -> bool:
    return "\n" in value and '"""' not in value and _common_indent(value) == 0


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def put(self, text: str) -> None:
        self.lines.append(_INDENT * self.depth + text)

    def prose(self, key: str, value: str) -> None:
        """Emit a prose field, as a triple-quoted block when multi-line."""
        if _triple_eligible(value):
            pad = _INDENT * self.depth
            self.put(f'{key}: """')
            for ln in value.split("\n"):
                self.lines.append(pad + _INDENT + ln)
            self.put('"""')
        else:
            self.put(f"{key}: {escape_string(value)}")

    def actor_body(self, actor: Actor) -> None:
        self.depth += 1
        self.put(f"name: {escape_string(actor.name)}")
        self.put(f"kind: {actor.kind.value}")
        self.depth -= 1

    def area(self, ref: ApplicationAreaRef) -> str:
        if ref.is_other:
            return f"other({escape_string(ref.free_label or '')})"
        return ref.area_id

    def step(self, step: ScenarioStep) -> None:
        line = f"{step.index} {step.actor}: {escape_string(step.action)}"
        if step.function is not None:
            line += f" -> {_word(step.function)}"
        self.put(line)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def serialize_canonical(uc: UseCase) -> str:
    """Serialize a valid use case to canonical UCDL text.

    Raises :class:`~ucdoc.model.ValidationFailedError` on invalid input.
    """
    uc = canonicalize(uc)
    w = _Writer()
    w.put(f"usecase {escape_string(uc.title)} {{")
    w.depth = 1

    w.put(f"id: {_word(uc.id)}")
    w.prose("intended_purpose", uc.intended_purpose)
    w.put(f"level: {uc.level.value}")
    w.put(f"safety_component: {'true' if uc.safety_component else 'false'}")
    if uc.affective_capabilities:
        tags = ", ".join(_word(t) for t in uc.affective_capabilities)
        w.put(f"affective_capabilities: [{tags}]")

    w.put("user {")
    w.actor_body(uc.user)
    w.put("}")
    for key, actors in (("target_persons", uc.target_persons),
                        ("secondary_actors", uc.secondary_actors)):
        if not actors:
            continue
        w.put(key + " {")
        w.depth += 1
        for actor in actors:
            w.put("person {")
            w.actor_body(actor)
            w.put("}")
        w.depth -= 1
        w.put("}")

    if uc.context_of_use:
        w.prose("context_of_use", uc.context_of_use)
    areas = ", ".join(w.area(r) for r in uc.application_areas)
    w.put(f"application_areas: [{areas}]")
    for key, values in (("inputs", uc.inputs), ("outputs", uc.outputs),
                        ("preconditions", uc.preconditions)):
        if key == "preconditions" and not values:
            continue
        items = ", ".join(escape_string(v) for v in values)
        w.put(f"{key}: [{items}]")
    if uc.trigger:
        w.prose("trigger", uc.trigger)
    if uc.success_guarantee:
        w.prose("success_guarantee", uc.success_guarantee)
    if uc.minimal_guarantee:
        w.prose("minimal_guarantee", uc.minimal_guarantee)

    w.put("functions {")
    w.depth += 1
    for fn in uc.system_functions:
        w.put(f"{_word(fn.id)}: {escape_string(fn.label)}")
        if fn.includes:
            w.put("includes: [" + ", ".join(_word(r) for r in fn.includes) + "]")
        if fn.extends:
            w.put("extends: [" + ", ".join(_word(r) for r in fn.extends) + "]")
    w.depth -= 1
    w.put("}")

    if uc.associations:
        pairs = ", ".join(f"{a.actor} -> {_word(a.function)}"
                          for a in uc.associations)
        w.put(f"associations: [{pairs}]")

    w.put("scenario {")
    w.depth += 1
    for step in uc.main_scenario:
        w.step(step)
    w.depth -= 1
    w.put("}")

    for ext in uc.extensions:
        w.put(f"extension {ext.branch_id} {escape_string(ext.condition)} {{")
        w.depth += 1
        for step in ext.steps:
            w.step(step)
        w.depth -= 1
        w.put("}")

    for misuse in uc.misuses:
        w.put("misuse {")
        w.depth += 1
        w.prose("description", misuse.description)
        if misuse.area_ref is not None:
            w.put(f"area: {w.area(misuse.area_ref)}")
        w.depth -= 1
        w.put("}")

    w.depth = 0
    w.put("}")
    return w.render()


def serialize_document(use_cases: Iterable[UseCase]) -> str:
    """Serialize several use cases, blank-line separated."""
    return "\n".join(serialize_canonical(uc) for uc in use_cases)
