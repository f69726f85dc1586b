from __future__ import annotations

import os
import random
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

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
from ucdoc.lexer import is_word, read_ucdl

# The most digits int() reads; the lexer drops a longer number.
LIMIT = sys.get_int_max_str_digits()


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
    digits = "1" * (LIMIT + 1)
    base = base_use_case()
    uc = canonicalize(replace(
        base, id=digits, affective_capabilities=(digits,),
        target_persons=(Actor(digits, ActorKind.HUMAN, ActorRole.TARGET_PERSON),),
        system_functions=base.system_functions + (SystemFunction(digits, "Long"),),
        associations=(Association(digits, digits),)))
    text = serialize_canonical(uc)
    assert f'id: "{digits}"' in text
    assert parse_document(text) == ([uc], [])


@pytest.mark.parametrize("text, word", [
    ("scan", True), ("½", False), ("٣", True), ("a.", False), ("a-", False),
    ("a#", False), (" a", False), ("1" * LIMIT, True), ("1" * (LIMIT + 1), False),
])
def test_is_word_is_one_word_token_of_the_whole_text(text, word):
    assert is_word(text) is word


def read_back(text: str) -> tuple:
    """``parse_document`` of ``text`` written to a file byte for byte and
    read again as ucdoc reads a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "uc.ucdl")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return parse_document(read_ucdl(path))


# Prose that a triple-quoted block cannot always hold as it is: each line
# ends in LF, CR LF or a lone CR, has its own indent and may hold a quote.
PROSE = st.lists(
    st.tuples(st.sampled_from(("\n", "\r\n", "\r")),
              st.sampled_from(("", " ", "\t", "  ", " \t")),
              st.sampled_from(("a", "b c", 'say """', 'q"', "\\n", ""))),
    min_size=1, max_size=5,
).map(lambda parts: "".join(map("".join, parts)).strip() or "p")
# Digit runs about as long as int() reads, as a number or a branch label.
DIGITS = st.builds(lambda n, tail: "1" * n + tail,
                   st.sampled_from((LIMIT - 1, LIMIT, LIMIT + 1)),
                   st.sampled_from(("", "a", "_b")))


def perturbed(uc, prose, digits):
    """``uc`` with ``prose`` in its prose fields and ``digits`` as its id
    and as the name of an actor who takes the first step."""
    if prose is not None:
        uc = replace(uc, intended_purpose=prose, trigger=prose, misuses=tuple(
            replace(m, description=prose) for m in uc.misuses))
    if digits is not None:
        first, *rest = uc.main_scenario
        uc = replace(
            uc, id=digits,
            secondary_actors=uc.secondary_actors + (
                Actor(digits, ActorKind.HUMAN, ActorRole.SECONDARY),),
            main_scenario=(replace(first, actor=digits), *rest))
    return canonicalize(uc)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.none() | PROSE, st.none() | DIGITS)
@example(0, "a\rb\nc", None)           # the CR read back as a line break
@example(0, None, "1" * (LIMIT + 1))    # a step actor the lexer dropped
def test_canonical_text_reads_back_from_a_file(seed, prose, digits):
    uc = perturbed(make_use_case(random.Random(seed)), prose, digits)
    text = serialize_canonical(uc)
    assert "\r" not in text  # a CR in a value is written as the escape \r
    assert read_back(text) == ([uc], [])


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
