from __future__ import annotations

import random
import re

import pytest

from conftest import FIXTURE_NAMES, fixture_text
from differential import make_inputs
from support import make_use_case
from ucdoc import (
    Actor,
    ActorKind,
    ActorRole,
    GoalLevel,
    TaxonomyError,
    UseCase,
    canonicalize,
    load_taxonomy,
    parse_document,
    parser,
    serialize_canonical,
    validate_use_case,
)

MINIMAL = (
    'usecase "T" { id: t intended_purpose: "p" user { name: "U" kind: human }'
    ' application_areas: [other("x")] inputs: ["i"] outputs: ["o"]'
    ' functions { f: "F" } scenario { 1 U: "does" } }'
)


def parse_one(source):
    use_cases, errors = parse_document(source)
    assert errors == [], [e.render() for e in errors]
    assert len(use_cases) == 1
    return use_cases[0]


def test_minimal_document():
    use_cases, errors = parse_document(MINIMAL)
    assert errors == []
    assert len(use_cases) == 1
    uc = use_cases[0]
    assert uc.id == "t"
    assert uc.title == "T"
    assert uc.user.name == "U" and uc.user.kind is ActorKind.HUMAN
    assert [(r.area_id, r.free_label) for r in uc.application_areas] == [("other", "x")]
    assert uc.inputs == ("i",) and uc.outputs == ("o",)
    assert [(f.id, f.label) for f in uc.system_functions] == [("f", "F")]
    assert [(s.index, s.actor, s.action) for s in uc.main_scenario] == [(1, "u", "does")]


def test_empty_document():
    assert parse_document("") == ([], [])
    assert parse_document("# only a comment\n") == ([], [])


def test_empty_block_builds_required_empty_values():
    use_cases, errors = parse_document('usecase "t" {}')
    assert errors == []
    assert use_cases == [UseCase(
        id="", title="t", intended_purpose="",
        user=Actor("", ActorKind.HUMAN, ActorRole.USER),
        application_areas=(), inputs=(), outputs=(), system_functions=(),
        main_scenario=())]
    assert sorted(d.code for d in validate_use_case(use_cases[0])) == [
        "areas.empty", "functions.empty", "id.missing", "inputs.empty",
        "outputs.empty", "purpose.empty", "scenario.empty", "user.missing"]


# The body of a use case cut off inside each kind of block, by block name.
UNCLOSED = {
    "use case": "id: t",
    "actor": 'user { name: "U"',
    "target_persons": "target_persons { person { kind: human }",
    "functions": 'functions { f: "F"',
    "scenario": 'scenario { 1 U: "does"',
    "extension": 'extension 1a "c" { 1 U: "does"',
    "misuse": 'misuse { description: "d"',
}


@pytest.mark.parametrize("what", UNCLOSED)
def test_unclosed_brace_single_error(what):
    use_cases, errors = parse_document(f'usecase "T" {{\n  {UNCLOSED[what]}\n')
    assert use_cases == []
    assert len(errors) == 1
    assert errors[0].message == f"unclosed {what} block (expected }})"
    assert errors[0].span.line == 3


def test_nested_records_share_no_key_with_the_use_case():
    # A nested record reads a key of the use case as its own lost "}", so a
    # key in both tables would never reach the nested record's reader.
    assert not (parser._ACTOR.keys() | parser._MISUSE.keys()) & \
        parser._USE_CASE.keys()


# Inputs, each with every finding it gives.  A nested record that lost its
# "}" stops at the use case's next key; it used to read the use case's
# later fields as its own, one field.unknown finding each.  An extra "}"
# before a use-case key closed the use case early: it is one finding, and
# the truncated use case is dropped, not validated.
BROKEN = [
    (fixture_text("smart_camera").replace(
        'kind: human }\n  target_persons', 'kind: human\n  target_persons'),
     ["15:3: error: [syntax] unclosed actor block before 'target_persons' "
      "(expected })"]),
    (MINIMAL[:-1] + ' misuse { description: "d" trigger: "t" }',
     ["1:208: error: [syntax] unclosed misuse block before 'trigger' "
      "(expected })"]),
    (MINIMAL[:-1] + ' misuse { description: "d" extension 1a "c" '
     '{ 1 system: "s" } }',
     ["1:208: error: [syntax] unclosed misuse block before 'extension' "
      "(expected })"]),
    (fixture_text("smart_camera").replace(
        'kind: human }\n  }\n', 'kind: human }\n  } }\n'),
     ["17:5: error: [syntax] extra '}' closes the use case before "
      "'context_of_use'"]),
    ('usecase "T" { id: a scenario: { 1 u: "x" } }',
     ["1:21: error: [field.value] field 'scenario' takes a block, not a ':' "
      "value"]),
    ('usecase "T" { id: a functions { f: "F" includes: [g] includes: [h] '
     'g: "G" h: "H" } }',
     ["1:54: error: [field.duplicate] duplicate 'includes' annotation on "
      "function 'f'"]),
    ('usecase "T" { id: a zz: }',
     ["1:21: error: [field.unknown] unknown field 'zz' in use case block",
      "1:25: error: [syntax] expected a value, found '}'"]),
    ('usecase "T" { id: a zz: u -> f }',
     ["1:21: error: [field.unknown] unknown field 'zz' in use case block"]),
    ("usecase",
     ["1:8: error: [syntax] expected use case title string, found end of "
      "input"]),
]


@pytest.mark.parametrize("source, findings", BROKEN, ids=["actor-lost-close", "misuse-lost-close", "misuse-lost-close-extension",
        "extra-close", "block-with-colon",
        "duplicate-annotation", "unknown-key-no-value", "unknown-key-arrow",
        "no-title"])
def test_findings_of_a_broken_input(source, findings):
    use_cases, errors = parse_document(source)
    assert use_cases == []
    assert [e.render() for e in errors] == findings


def taxonomy_errors(text):
    try:
        load_taxonomy(text)
    except TaxonomyError as err:
        return list(err.errors)
    return []


def parse_errors(text):
    return parse_document(text)[1]


# An input for each finding that says what the parser or the taxonomy
# reader expected, with the finding: it says so once.
EXPECTED_ONCE = [
    (parse_errors, "usecase 7 {}",
     "1:9: error: [syntax] expected use case title string, found '7'"),
    (parse_errors, "frobnicate",
     "1:1: error: [syntax] expected 'usecase', found 'frobnicate'"),
    (parse_errors, MINIMAL.replace("id: t", "id: {"),
     "1:19: error: [syntax] expected use case id, found '{'"),
    (parse_errors, MINIMAL.replace('name: "U"', 'name "U"'),
     "1:55: error: [syntax] expected ':', found string"),
    (parse_errors, MINIMAL[:-1] + " target_persons { human { } } }",
     "1:199: error: [syntax] expected 'person' block, found 'human'"),
    (taxonomy_errors, 'versio: "v"',
     "1:1: error: [syntax] expected 'version', found 'versio'"),
    (parse_errors, MINIMAL.replace('[other("x")]', "[{]"),
     '1:94: error: [syntax] expected an area id or other("…"), found \'{\''),
    (parse_errors, 'usecase "T" { "x": 1 }',
     "1:15: error: [syntax] expected a field name or }, found string"),
    (parse_errors, MINIMAL.replace("1 U:", "1 :"),
     "1:169: error: [syntax] expected an actor identifier, found ':'"),
    (parse_errors, MINIMAL[:-1] + ' extension "c" { } }',
     "1:192: error: [syntax] expected a branch id such as '3a', found string"),
]


@pytest.mark.parametrize("read, source, finding", EXPECTED_ONCE, ids=[
    "expect", "usecase", "word", "colon", "person", "taxonomy-word",
    "area", "field", "step-actor", "branch"])
def test_a_finding_says_what_it_expected_once(read, source, finding):
    assert [e.render() for e in read(source)] == [finding]


def test_no_finding_says_expected_twice():
    # Over the fixtures, this module's inputs and token-mutated fixtures.
    texts = [*map(fixture_text, FIXTURE_NAMES),
             *(source for source, _ in BROKEN),
             *(f'usecase "T" {{\n  {body}\n' for body in UNCLOSED.values()),
             *(text for _, text in make_inputs("token_mutations", 1, 400))]
    findings = [e for text in texts for e in parse_errors(text)]
    assert findings
    assert [e.render() for e in findings
            if len(re.findall(r"\bexpected\b", e.message)) > 1] == []


def test_duplicate_field_first_wins():
    src = MINIMAL.replace('id: t ', 'id: t id: later ')
    use_cases, errors = parse_document(src)
    assert [e.code for e in errors] == ["field.duplicate"]
    # The block still parses; the first value is kept.
    assert use_cases == []  # blocks with errors are dropped from results


def test_unknown_field_is_reported_but_parsing_continues():
    src = MINIMAL.replace('inputs:', 'bogus: "x" inputs:')
    _, errors = parse_document(src)
    assert [e.code for e in errors] == ["field.unknown"]


@pytest.mark.parametrize("field", [
    "bogus { a: { b: 1 } c: [1, [2]] }",
    "bogus: { a: [1] }",
    "bogus: [1, [2], {}]",
])
def test_unknown_field_value_is_skipped_to_its_close(field):
    src = MINIMAL.replace('inputs:', field + ' inputs:')
    _, errors = parse_document(src)
    assert [e.code for e in errors] == ["field.unknown"]


# Each kind of record, read with one more field written after its last
# one, and a field it takes.
RECORDS = {
    "use case": (lambda field: parse_document(MINIMAL[:-1] + f" {field} }}"),
                 "id: u"),
    "user": (lambda field: parse_document(
        MINIMAL.replace("human", f"human {field}")), 'name: "V"'),
    "misuse": (lambda field: parse_document(
        MINIMAL[:-1] + ' misuse { description: "d" area: other("a") '
        f"{field} }} }}"), 'area: other("b")'),
    "entry": (lambda field: ([], taxonomy_errors(
        'version: "v" entry a.b { tier: high_risk area: "A" sub_use: "S" '
        f"{field} }}")), "tier: prohibited"),
}


@pytest.mark.parametrize("record", RECORDS)
@pytest.mark.parametrize("case, code", [
    ("repeated key", "field.duplicate"),
    ("unknown key: value", "field.unknown"),
    ("unknown key { }", "field.unknown"),
    ("known key without ':'", "syntax"),
])
def test_every_record_reads_its_fields_alike(record, case, code):
    read, field = RECORDS[record]
    field = {"unknown key: value": 'aera: other("x")',
             "unknown key { }": "aera { a: [1] }",
             "known key without ':'": field.replace(":", "")}.get(case, field)
    use_cases, errors = read(field)
    assert use_cases == []
    assert [e.code for e in errors] == [code], [e.render() for e in errors]


def test_panic_recovery_reaches_second_usecase():
    src = 'usecase "A" { id: ??? }\n' + MINIMAL.replace('"T"', '"B"')
    use_cases, errors = parse_document(src)
    assert len(errors) >= 1
    assert [uc.title for uc in use_cases] == ["B"]


def test_multiple_errors_reported_in_one_run():
    src = ('usecase "A" { id: ??? }\n'
           'usecase "B" { level: nonsense '
           + MINIMAL.split("{", 1)[1].replace('id: t', 'id: b'))
    _, errors = parse_document(src)
    assert len(errors) >= 2
    positions = [(e.span.line, e.span.column) for e in errors]
    assert positions == sorted(positions)


def test_stray_toplevel_tokens():
    _, errors = parse_document('frobnicate\n' + MINIMAL)
    assert len(errors) == 1
    ucs, _ = parse_document('frobnicate\n' + MINIMAL)
    assert len(ucs) == 1  # recovery skipped to the next usecase


def test_area_item_forms():
    src = MINIMAL.replace(
        '[other("x")]',
        '[media.analytics, other("leisure"), "plain_string"]')
    uc = parse_one(src)
    assert [(r.area_id, r.free_label) for r in uc.application_areas] == [
        ("media.analytics", None), ("other", "leisure"), ("plain_string", None)]


def test_trailing_comma_is_tolerated():
    uc = parse_one(MINIMAL.replace('["i"]', '["i", "j",]'))
    assert uc.inputs == ("i", "j")


def test_misuse_with_and_without_area():
    src = MINIMAL[:-1] + (
        ' misuse { description: "bad" area: employment.monitor_performance }'
        ' misuse { description: "worse" } }')
    uc = parse_one(src)
    assert [(m.description, m.area_ref.area_id if m.area_ref else None)
            for m in uc.misuses] == [
        ("bad", "employment.monitor_performance"), ("worse", None)]


def test_bad_enum_values():
    _, errors = parse_document(MINIMAL.replace("kind: human", "kind: robot"))
    assert "field.value" in [e.code for e in errors]
    _, errors = parse_document(
        MINIMAL.replace('id: t', 'id: t level: gigantic'))
    assert "field.value" in [e.code for e in errors]
    _, errors = parse_document(
        MINIMAL.replace('id: t', 'id: t safety_component: maybe'))
    assert "field.value" in [e.code for e in errors]


def test_level_and_safety_component():
    uc = parse_one(MINIMAL.replace(
        'id: t', 'id: t level: summary safety_component: true'))
    assert uc.level is GoalLevel.SUMMARY
    assert uc.safety_component is True


def test_target_and_secondary_actor_blocks():
    src = MINIMAL[:-1] + (
        ' target_persons { person { name: "P" kind: human } }'
        ' secondary_actors { person { name: "Org" kind: organization } } }')
    uc = parse_one(src)
    assert [a.name for a in uc.target_persons] == ["P"]
    assert [(a.name, a.kind) for a in uc.secondary_actors] == [
        ("Org", ActorKind.ORGANIZATION)]


def test_includes_extends_annotations():
    src = MINIMAL.replace(
        'functions { f: "F" }',
        'functions { f: "F" includes: [g] g: "G" extends: [f] }')
    uc = parse_one(src)
    by_id = {f.id: f for f in uc.system_functions}
    assert by_id["f"].includes == ("g",)
    assert by_id["g"].extends == ("f",)


def test_annotation_without_function_is_an_error():
    src = MINIMAL.replace('functions { f: "F" }',
                          'functions { includes: [g] f: "F" }')
    _, errors = parse_document(src)
    assert errors, "annotation before any function must be rejected"


def test_step_function_annotation():
    uc = parse_one(MINIMAL.replace('1 U: "does"', '1 U: "does" -> f'))
    assert uc.main_scenario[0].function == "f"


def test_extension_block():
    src = MINIMAL[:-1] + (
        ' extension 1a "it fails" { 1 system: "recovers" -> f } }')
    uc = parse_one(src)
    ext, = uc.extensions
    assert ext.branch_id == "1a"
    assert ext.condition == "it fails"
    assert [(s.index, s.actor, s.function) for s in ext.steps] == [
        (1, "system", "f")]


def test_associations_list():
    src = MINIMAL[:-1] + ' associations: [u -> f] }'
    uc = parse_one(src)
    assert [(a.actor, a.function) for a in uc.associations] == [("u", "f")]


def test_schema_version_is_accepted_and_ignored():
    for version in ('"1"', "2", 'other("x")'):
        uc = parse_one(
            MINIMAL.replace('id: t', f'schema_version: {version} id: t'))
        assert uc == parse_one(MINIMAL), version
    assert "schema_version" not in serialize_canonical(uc)


def test_lexer_errors_poison_the_enclosing_block():
    src = MINIMAL.replace('"does"', '"does')  # unterminated string
    use_cases, errors = parse_document(src)
    assert use_cases == []
    assert any(e.code == "lex.unterminated_string" for e in errors)


def test_lexer_errors_are_attributed_by_block():
    # A lexer error between two blocks drops neither; one inside a block
    # drops that block alone, and the findings stay in source order.
    def block(n, purpose='"p"'):
        return MINIMAL.replace("id: t", f"id: t{n}").replace(
            'intended_purpose: "p"', f"intended_purpose: {purpose}")
    src = "\n".join([block(1), "²", block(2, r'"a\qb"'), block(3),
                     "usecase 7 {"])
    use_cases, errors = parse_document(src)
    assert [uc.id for uc in use_cases] == ["t1", "t3"]
    assert [(e.code, e.span.line, e.span.column) for e in errors] == [
        ("lex.invalid_char", 2, 1),
        ("lex.bad_escape", 3, 42),
        ("syntax", 5, 9),
    ]


def test_triple_quoted_prose_field():
    src = MINIMAL.replace(
        'intended_purpose: "p"',
        'intended_purpose: """\n    line one\n    line two\n  """')
    uc = parse_one(src)
    assert uc.intended_purpose == "line one\nline two"


def test_step_actor_may_be_quoted():
    # A quoted step actor reads as the ident of its text, as in associations.
    uc = parse_one(MINIMAL.replace('1 U: "does"', '1 "U": "does"'))
    assert uc.main_scenario[0].actor == "u"


@pytest.mark.parametrize("actor", ["{", "->", ":"])
def test_step_actor_of_another_token_is_an_error(actor):
    _, errors = parse_document(MINIMAL.replace("1 U:", f"1 {actor}:"))
    assert errors[0].message == (
        f"expected an actor identifier, found {actor!r}")


def test_round_trip_property():
    rng = random.Random(20240818)
    for _ in range(150):
        uc = make_use_case(rng)
        text = serialize_canonical(uc)
        parsed, errors = parse_document(text)
        assert errors == [], [e.render() for e in errors] + [text]
        assert len(parsed) == 1
        assert canonicalize(parsed[0]) == uc, text
