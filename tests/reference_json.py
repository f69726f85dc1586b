"""Reference plain-data form: the model's JSON data, built as dicts by hand.

The catalogue export and ``classify --format json`` are written by the one
generated writer, ``ucdoc.model._writer``, and ``use_case_to_dict`` and
``assessment_to_dict`` read that writer's text back.  This walk builds the
same data without it, so that ``json.dumps`` over its result is an
independent oracle for all of them.  The rules: the keys are the field names
in field order, ``Misuse.area_ref`` is ``area``, a None value is left out, a
field with ``metadata={"flat": prefix}`` puts its keys in the enclosing
object with ``prefix`` in front, a tuple is a list, a ``RiskLevel`` is its
label and any other enum its value.  ``ucdoc`` never imports this module.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum

from ucdoc.model import RiskLevel

KEYS = {"area_ref": "area"}


def data(value):
    """The JSON data of a model value."""
    if is_dataclass(value):
        return members(value)
    if isinstance(value, tuple):
        return [data(item) for item in value]
    if isinstance(value, RiskLevel):
        return value.label
    if isinstance(value, Enum):
        return value.value
    return value


def members(obj, prefix: str = "") -> dict:
    """The keys and values of dataclass ``obj``, ``prefix`` before each key."""
    d = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "flat" in f.metadata:
            d.update(members(value, prefix + f.metadata["flat"]))
        elif value is not None:
            d[prefix + KEYS.get(f.name, f.name)] = data(value)
    return d


def assessment_data(assessment) -> dict:
    """A risk assessment's keys as a catalogue entry holds them."""
    return members(assessment, "risk_")
