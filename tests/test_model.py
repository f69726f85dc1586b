from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from support import make_use_case, mutate_use_case
from ucdoc import (
    Actor,
    ActorKind,
    ActorRole,
    ApplicationAreaRef,
    Association,
    CatalogFormatError,
    Extension,
    Misuse,
    RiskLevel,
    ScenarioStep,
    SystemFunction,
    UseCase,
    ValidationFailedError,
    canonicalize,
    require_valid,
    use_case_from_dict,
    use_case_to_dict,
    validate_use_case,
)
from ucdoc import model


def base_use_case() -> UseCase:
    return UseCase(
        id="scan-1",
        title="Scan",
        intended_purpose="Scan faces",
        user=Actor("Operator", ActorKind.HUMAN, ActorRole.USER),
        application_areas=(ApplicationAreaRef("other", "leisure"),),
        inputs=("image",),
        outputs=("report",),
        system_functions=(
            SystemFunction("scan", "Scan"),
            SystemFunction("report", "Report", includes=("scan",)),
        ),
        main_scenario=(
            ScenarioStep(1, "operator", "starts the scan", "scan"),
            ScenarioStep(2, "system", "produces a report", "report"),
        ),
        target_persons=(Actor("Visitor", ActorKind.HUMAN, ActorRole.TARGET_PERSON),),
        extensions=(
            Extension("2a", "report is empty",
                      (ScenarioStep(1, "system", "notifies the operator"),)),
        ),
        associations=(Association("operator", "scan"),),
        misuses=(Misuse("covert scanning", ApplicationAreaRef("media.analytics")),),
    )


def codes(uc: UseCase) -> list[str]:
    return [d.code for d in validate_use_case(uc)]


def test_base_is_valid():
    assert codes(base_use_case()) == []


def u(**kw) -> UseCase:
    return replace(base_use_case(), **kw)


def actor(name, kind=ActorKind.HUMAN, role=ActorRole.TARGET_PERSON) -> Actor:
    return Actor(name, kind, role)


# Each row: a use case that breaks one rule, and the code, path and message
# of the diagnostic it must give.
_SINGLE_VIOLATIONS = [
    (u(id=""), "id.missing", "id", "use case has no id"),
    (u(id="Bad Slug"), "id.format", "id",
     "id 'Bad Slug' must match [a-z0-9_-]+"),
    (u(title="  "), "title.empty", "title", "use case has no title"),
    (u(intended_purpose=""), "purpose.empty", "intended_purpose",
     "intended purpose is empty"),
    (u(user=None), "user.missing", "user", "use case has no user actor"),
    (u(user=actor("Operator", role=ActorRole.TARGET_PERSON)), "actor.role",
     "user", "actor 'Operator' has role 'target_person', expected 'user'"),
    (u(target_persons=(actor("Visitor", role=ActorRole.USER),)), "actor.role",
     "target_persons[0]",
     "actor 'Visitor' has role 'user', expected 'target_person'"),
    (u(user=actor("", role=ActorRole.USER)), "user.missing", "user",
     "actor has no name"),
    (u(target_persons=(actor(" "),)), "actor.name_empty", "target_persons[0]",
     "actor has no name"),
    (u(user=actor("??!", role=ActorRole.USER)), "actor.ident_empty", "user",
     "actor name '??!' contains no [a-z0-9] characters and cannot be "
     "referenced from scenario steps"),
    (u(user=actor("System", role=ActorRole.USER)), "actor.reserved_name", "user",
     "actor name 'System' collides with the reserved 'system' step actor"),
    (u(target_persons=(actor("Visitor"), actor("Visitor"))),
     "actors.duplicate_name", "target_persons[1]",
     "actor identifier 'visitor' appears twice in target_persons"),
    (u(target_persons=(actor("Operator", kind=ActorKind.ORGANIZATION),)),
     "actors.kind_conflict", "target_persons[0]",
     "actor 'Operator' declared both as human and organization"),
    (u(application_areas=()), "areas.empty", "application_areas",
     "at least one application area is required"),
    (u(application_areas=(ApplicationAreaRef("Bad.Area"),)), "areas.format",
     "application_areas[0]", "area id 'Bad.Area' is not a dotted identifier"),
    (u(application_areas=(ApplicationAreaRef("other"),)),
     "areas.other_label_missing", "application_areas[0]",
     "area 'other' requires a free-text label"),
    (u(application_areas=(ApplicationAreaRef("media.analytics", "extra"),)),
     "areas.unexpected_label", "application_areas[0]",
     "area 'media.analytics' carries a free-text label, which is reserved "
     "for 'other'"),
    (u(misuses=(Misuse(""),)), "misuse.description_empty", "misuses[0]",
     "misuse has no description"),
    (u(inputs=()), "inputs.empty", "inputs", "at least one input is required"),
    (u(outputs=()), "outputs.empty", "outputs",
     "at least one output is required"),
    (u(system_functions=()), "functions.empty", "system_functions",
     "at least one system function is required"),
    (u(system_functions=(SystemFunction("Bad", "x"),)), "functions.id_format",
     "system_functions[0]", "function id 'Bad' must match [a-z0-9_-]+"),
    (u(system_functions=(SystemFunction("includes", "x"),)),
     "functions.reserved_id", "system_functions[0]",
     "function id 'includes' is reserved for relationship annotations"),
    (u(system_functions=(SystemFunction("scan", "a"), SystemFunction("scan", "b"))),
     "functions.duplicate_id", "system_functions[1]",
     "duplicate function id 'scan'"),
    (u(system_functions=(SystemFunction("scan", "x", includes=("nope",)),)),
     "functions.unknown_ref", "system_functions[0].includes",
     "includes references unknown function 'nope'"),
    (u(system_functions=(SystemFunction("scan", "x", extends=("scan",)),)),
     "functions.self_ref", "system_functions[0].extends",
     "function 'scan' cannot extend itself"),
    (u(main_scenario=()), "scenario.empty", "main_scenario",
     "main scenario has no steps"),
    (u(main_scenario=(ScenarioStep(1, "operator", "a"), ScenarioStep(3, "system", "b"))),
     "scenario.noncontiguous", "main_scenario",
     "step indices [1, 3] are not contiguous from 1"),
    (u(main_scenario=(ScenarioStep(1, "ghost", "a"),)), "scenario.unknown_actor",
     "main_scenario[0].actor",
     "step actor 'ghost' matches no declared actor (and is not 'system')"),
    (u(main_scenario=(ScenarioStep(1, "operator", " "),)), "scenario.action_empty",
     "main_scenario[0]", "step has no action"),
    (u(main_scenario=(ScenarioStep(1, "operator", "a", "nope"),)),
     "scenario.unknown_function", "main_scenario[0].function",
     "step references unknown function 'nope'"),
    (u(extensions=(Extension("abc", "c", (ScenarioStep(1, "system", "a"),)),)),
     "extension.branch_format", "extensions[0]",
     "branch id 'abc' must be a step index followed by one letter (e.g. '3a')"),
    (u(extensions=(Extension("9z", "c", (ScenarioStep(1, "system", "a"),)),)),
     "extension.unknown_step", "extensions[0]",
     "branch '9z' references main-scenario step 9, which does not exist"),
    (u(extensions=(Extension("1a", "c", (ScenarioStep(1, "system", "a"),)),
                   Extension("1a", "d", (ScenarioStep(1, "system", "b"),)))),
     "extension.duplicate_branch", "extensions[1]", "duplicate branch id '1a'"),
    (u(extensions=(Extension("1a", "", (ScenarioStep(1, "system", "a"),)),)),
     "extension.condition_empty", "extensions[0]", "extension has no condition"),
    (u(associations=(Association("ghost", "scan"),)), "assoc.unknown_actor",
     "associations[0]", "association actor 'ghost' matches no declared actor"),
    (u(associations=(Association("operator", "nope"),)), "assoc.unknown_function",
     "associations[0]", "association references unknown function 'nope'"),
]


@pytest.mark.parametrize("mutant,expected,path,message", [
    pytest.param(*row, id=f"mutant{i}-{row[1]}")
    for i, row in enumerate(_SINGLE_VIOLATIONS)])
def test_single_violation_detected(mutant, expected, path, message):
    found = [(d.code, d.path, d.message) for d in validate_use_case(mutant)]
    assert (expected, path, message) in found, f"expected {expected} in {found}"


def test_mutated_corpus_emits_exactly_the_documented_codes():
    # The codes in the first column of the module docstring's table.
    lines = model.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    documented = {code for line in lines[rules[1] + 1:rules[2]]
                  for code in re.split(r"\s{2,}", line)[0].split(" / ")}
    assert len(documented) == 35
    emitted = {d.code for seed in range(500)
               for d in validate_use_case(mutate_use_case(random.Random(seed)))}
    assert emitted == documented


# A pattern that ends in ``$`` also matches before a trailing newline, so
# the checks use ``fullmatch``; a bad branch id used to crash validation.
@pytest.mark.parametrize("mutant,expected", [
    (u(id="scan-1\n"), "id.format"),
    (u(application_areas=(ApplicationAreaRef("media.analytics\n"),)),
     "areas.format"),
    (u(system_functions=(SystemFunction("scan\n", "Scan"),)),
     "functions.id_format"),
    (u(extensions=(Extension("1a\n", "c", (ScenarioStep(1, "system", "a"),)),)),
     "extension.branch_format"),
], ids=["id", "area", "function", "branch"])
def test_trailing_newline_is_rejected(mutant, expected):
    assert expected in codes(mutant)


def test_extension_steps_checked_like_main_steps():
    bad = u(extensions=(
        Extension("1a", "cond", (ScenarioStep(1, "ghost", "a"),)),))
    assert "scenario.unknown_actor" in codes(bad)
    bad = u(extensions=(
        Extension("1a", "cond", (ScenarioStep(1, "system", "a", "nope"),)),))
    assert "scenario.unknown_function" in codes(bad)


def test_diagnostics_are_sorted_and_stable():
    broken = u(id="", title="", inputs=(), outputs=())
    first = validate_use_case(broken)
    second = validate_use_case(broken)
    assert first == second
    assert first == sorted(first, key=lambda d: d.sort_key())


def test_require_valid_raises_with_diagnostics():
    with pytest.raises(ValidationFailedError) as info:
        require_valid(u(id=""))
    assert any(d.code == "id.missing" for d in info.value.diagnostics)
    require_valid(base_use_case())  # must not raise


def test_actor_merge_same_kind_is_allowed():
    uc = u(target_persons=(actor("Operator", kind=ActorKind.HUMAN),))
    assert codes(uc) == []


def test_risk_order_total_order():
    levels = list(RiskLevel)
    assert [lv.label for lv in sorted(levels, reverse=True)] == [
        "Unacceptable", "High", "Transparency", "Minimal"]
    for a in levels:
        for b in levels:
            # exactly one of <, ==, > holds, and it agrees with the values
            assert (a < b) + (a == b) + (a > b) == 1
            assert (a < b) == (b > a) == (a.value < b.value)
            for c in levels:
                assert not (a < b < c) or a < c


def test_risk_level_labels():
    assert RiskLevel.UNACCEPTABLE.label == "Unacceptable"
    assert RiskLevel.HIGH.label == "High"
    assert RiskLevel.TRANSPARENCY.label == "Transparency"
    assert RiskLevel.MINIMAL.label == "Minimal"


def test_canonicalize_trims_and_sorts():
    uc = u(
        title="  Scan  ",
        affective_capabilities=("zeta", "alpha "),
        application_areas=(
            ApplicationAreaRef("other", "b"),
            ApplicationAreaRef("other", "a"),
            ApplicationAreaRef("media.analytics"),
        ),
    )
    canon = canonicalize(uc)
    assert canon.title == "Scan"
    assert canon.affective_capabilities == ("alpha", "zeta")
    assert [(r.area_id, r.free_label) for r in canon.application_areas] == [
        ("media.analytics", None), ("other", "a"), ("other", "b")]


def test_canonicalize_idempotent_on_random_inputs():
    rng = random.Random(41)
    for _ in range(50):
        uc = make_use_case(rng)
        assert canonicalize(uc) == uc
        assert canonicalize(canonicalize(uc)) == canonicalize(uc)


def test_canonicalize_rejects_invalid():
    with pytest.raises(ValidationFailedError):
        canonicalize(u(id=""))


def test_dict_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        uc = make_use_case(rng)
        assert use_case_from_dict(use_case_to_dict(uc)) == uc


@pytest.mark.parametrize("key, message", [
    ("notes", "user.notes: unknown key"),
    ("inputs[0]", "user['inputs[0]']: unknown key"),
    ("r\u00f4le", "user['r\u00f4le']: unknown key"),
], ids=["name", "path-like", "non-ascii"])
def test_from_dict_quotes_an_unknown_key_that_is_not_a_name(key, message):
    data = use_case_to_dict(base_use_case())
    data["user"][key] = 1
    with pytest.raises(CatalogFormatError) as info:
        use_case_from_dict(data)
    assert str(info.value) == message


def test_dict_key_order_is_stable():
    keys = list(use_case_to_dict(base_use_case()).keys())
    assert keys[0] == "id"
    assert keys == list(use_case_to_dict(make_use_case(random.Random(7))).keys())


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.from_type(UseCase))
def test_dict_round_trip_any_typed_use_case(uc):
    data = json.loads(json.dumps(use_case_to_dict(uc)))
    assert use_case_from_dict(data) == uc


_PAD = st.sampled_from(["", " ", "\t", "\n ", " \r\n"])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_canonical_form_of_a_valid_use_case_is_valid(rng, data):
    uc = make_use_case(rng)

    def pad(text: str) -> str:
        return data.draw(_PAD) + text + data.draw(_PAD)

    messy = replace(
        uc,
        title=pad(uc.title),
        intended_purpose=pad(uc.intended_purpose),
        user=replace(uc.user, name=pad(uc.user.name)),
        inputs=tuple(pad(s) for s in uc.inputs),
        affective_capabilities=tuple(
            pad(s) for s in reversed(uc.affective_capabilities)),
        application_areas=tuple(reversed(uc.application_areas)),
        main_scenario=tuple(replace(s, action=pad(s.action))
                            for s in uc.main_scenario))
    assert validate_use_case(messy) == []
    canonical = canonicalize(messy)
    assert canonical == uc
    # The walk itself, not the result canonicalize stores on its output.
    assert model._validate(canonical) == []


def test_validation_runs_once_per_instance():
    uc = base_use_case()
    first = validate_use_case(uc)
    first.append("caller's own list")
    assert validate_use_case(uc) == []
    assert uc._diagnostics == ()
    assert uc == base_use_case() and hash(uc) == hash(base_use_case())
