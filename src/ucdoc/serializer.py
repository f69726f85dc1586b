"""Canonical UCDL emitter.

:func:`serialize_canonical` writes a validated use case in one fixed form:
canonical field order, two-space indentation, LF newlines, trailing newline.
A value is written bare, or multi-line prose as a triple-quoted block, only
when :func:`~ucdoc.lexer.read_token` reads that back as the value; anything
else is an escaped single-line string.  The field order, how each value is
spelled and the rule that leaves a value of ``""``, ``()`` or None out are
the parser's record tables (:mod:`ucdoc.parser`), which read each key and
write it from the same entry.  So the emitter and the parser are inverses:
parsing the output of ``serialize_canonical``, in memory or from a file,
reproduces the input use case exactly, and re-serializing is a no-op.
"""

from __future__ import annotations

from typing import Iterable

from .model import UseCase, canonicalize
from .parser import _write_use_case


def serialize_canonical(uc: UseCase) -> str:
    """Serialize a valid use case to canonical UCDL text.

    Raises :class:`~ucdoc.model.ValidationFailedError` on invalid input.
    """
    return _write_use_case(canonicalize(uc))


def serialize_document(use_cases: Iterable[UseCase]) -> str:
    """Serialize several use cases, blank-line separated."""
    return "\n".join(serialize_canonical(uc) for uc in use_cases)
