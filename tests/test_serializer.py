from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from conftest import FIXTURE_NAMES, assert_golden, fixture_text
from support import make_use_case
from ucdoc import (
    Actor,
    ActorKind,
    ActorRole,
    Association,
    SystemFunction,
    canonicalize,
    parse_document,
    serialize_canonical,
    serialize_document,
)
from test_model import base_use_case
from ucdoc.lexer import is_word


def test_canonical_text_is_exact():
    uc = canonicalize(base_use_case())
    assert serialize_canonical(uc) == '''usecase "Scan" {
  id: scan-1
  intended_purpose: "Scan faces"
  level: user_goal
  safety_component: false
  user {
    name: "Operator"
    kind: human
  }
  target_persons {
    person {
      name: "Visitor"
      kind: human
    }
  }
  application_areas: [other("leisure")]
  inputs: ["image"]
  outputs: ["report"]
  functions {
    scan: "Scan"
    report: "Report"
    includes: [scan]
  }
  associations: [operator -> scan]
  scenario {
    1 operator: "starts the scan" -> scan
    2 system: "produces a report" -> report
  }
  extension 2a "report is empty" {
    1 system: "notifies the operator"
  }
  misuse {
    description: "covert scanning"
    area: media.analytics
  }
}
'''


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_canonical_text_matches_golden(name):
    # Together the fixtures write every key, triple-quoted prose, other(…)
    # areas and misuse areas.
    use_cases, errors = parse_document(fixture_text(name))
    assert errors == []
    assert_golden(serialize_document(use_cases).encode("utf-8"),
                  f"{name}.ucdl")


def test_idempotence():
    rng = random.Random(99)
    for _ in range(50):
        uc = make_use_case(rng)
        text = serialize_canonical(uc)
        reparsed, errors = parse_document(text)
        assert errors == []
        assert serialize_canonical(canonicalize(reparsed[0])) == text


def test_multiline_prose_uses_triple_quotes():
    uc = canonicalize(replace(
        base_use_case(), intended_purpose="line one\n  indented\nline three"))
    text = serialize_canonical(uc)
    assert 'intended_purpose: """' in text
    assert "\n    line one\n      indented\n    line three\n" in text
    reparsed, errors = parse_document(text)
    assert errors == []
    assert reparsed[0].intended_purpose == uc.intended_purpose


def test_prose_with_raw_marker_falls_back_to_escapes():
    uc = canonicalize(replace(
        base_use_case(), intended_purpose='has """ marker\nand newline'))
    text = serialize_canonical(uc)
    assert text.count('"""') == 0
    assert r"\n" in text
    reparsed, errors = parse_document(text)
    assert errors == []
    assert reparsed[0].intended_purpose == uc.intended_purpose


def test_nasty_id_is_quoted():
    uc = canonicalize(replace(base_use_case(), id="1-a"))
    text = serialize_canonical(uc)
    assert 'id: "1-a"' in text
    reparsed, errors = parse_document(text)
    assert errors == []
    assert reparsed[0].id == "1-a"


def test_overlong_digit_words_are_quoted():
    # The lexer drops a run of more digits than int() reads
    # (lex.number_too_long), so such a word is written as a string: as an
    # id, a capability tag, a function id and an association actor.
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    assert not is_word(digits)
    assert is_word(digits[1:])
    base = base_use_case()
    uc = canonicalize(replace(
        base, id=digits, affective_capabilities=(digits,),
        target_persons=(Actor(digits, ActorKind.HUMAN, ActorRole.TARGET_PERSON),),
        system_functions=base.system_functions + (SystemFunction(digits, "Long"),),
        associations=(Association(digits, digits),)))
    text = serialize_canonical(uc)
    assert f'id: "{digits}"' in text
    assert parse_document(text) == ([uc], [])


def test_optional_fields_are_omitted_when_empty():
    text = serialize_canonical(canonicalize(base_use_case()))
    for absent in ("affective_capabilities", "context_of_use", "trigger",
                   "success_guarantee", "minimal_guarantee", "preconditions",
                   "secondary_actors"):
        assert absent not in text


def test_serialize_document_joins_with_blank_lines():
    rng = random.Random(5)
    a, b = make_use_case(rng), make_use_case(rng)
    text = serialize_document([a, b])
    assert text.endswith("}\n")
    assert "}\n\nusecase " in text
    reparsed, errors = parse_document(text)
    assert errors == []
    assert [canonicalize(x) for x in reparsed] == [a, b]


def test_output_uses_lf_only():
    rng = random.Random(6)
    for _ in range(20):
        text = serialize_canonical(make_use_case(rng))
        # A carriage return may only appear inside escaped string content
        # (as the two characters backslash-r), never as a raw control byte
        # outside triple-quoted blocks that reproduce user data.
        for line in text.split("\n"):
            assert not line.endswith("\r")
