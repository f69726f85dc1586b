"""Tests for catalog building, querying, stats, and the JSON snapshot."""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from dataclasses import replace

import pytest

from conftest import GOLDEN_DIR, assert_golden
from test_model import u
from test_risk import RISK_AREA_POOL, random_risk_uc
from ucdoc import (
    ActorKind,
    Catalog,
    CatalogFormatError,
    Query,
    QueryError,
    RiskLevel,
    Severity,
    build_catalog,
    builtin_taxonomy,
    classify,
    export_json,
    load_catalog_json,
    load_sources,
    query,
    serialize_canonical,
    stats,
)
from ucdoc.catalog import SCHEMA

TAX = builtin_taxonomy()

FIXTURE_IDS = [
    "affective-music-recommender",
    "driver-attention-monitoring",
    "smart-camera",
]


@pytest.fixture(scope="module")
def fixture_catalog(fixtures_dir):
    cat, diagnostics = build_catalog(load_sources(fixtures_dir), TAX)
    return cat, diagnostics


def random_catalog(rng: random.Random, size: int) -> Catalog:
    sources = []
    for i in range(size):
        uc = replace(random_risk_uc(rng), id=f"case-{i:03}")
        sources.append((f"case_{i:03}.ucdl", serialize_canonical(uc)))
    cat, diagnostics = build_catalog(sources, TAX)
    assert all(d.severity is Severity.WARNING for d in diagnostics)
    assert len(cat.entries) == size
    return cat


# ---------------------------------------------------------------------------
# building


def test_load_sources_sorted_recursive(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.ucdl").write_text("# b\n", encoding="utf-8")
    (tmp_path / "sub" / "a.ucdl").write_text("# a\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("ignored", encoding="utf-8")
    assert load_sources(tmp_path) == [("b.ucdl", "# b\n"),
                                      ("sub/a.ucdl", "# a\n")]


def test_load_sources_reads_regular_files_only(tmp_path):
    # A directory named like a source is searched, not read; a broken link
    # is skipped.  Order is by path component, as for sorted Paths.
    (tmp_path / "old.ucdl").mkdir()
    (tmp_path / "old.ucdl" / "in.ucdl").write_text("# in\n", encoding="utf-8")
    (tmp_path / "a-b").mkdir()
    (tmp_path / "a-b" / "c.ucdl").write_text("# c\n", encoding="utf-8")
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "b.ucdl").write_text("# b\n", encoding="utf-8")
    (tmp_path / "gone.ucdl").symlink_to(tmp_path / "missing")
    assert load_sources(tmp_path) == [
        ("a/b.ucdl", "# b\n"), ("a-b/c.ucdl", "# c\n"),
        ("old.ucdl/in.ucdl", "# in\n")]


def test_load_sources_skips_a_directory_it_cannot_list(tmp_path, monkeypatch):
    # The listing is refused by a stand-in for os.scandir, since a real
    # unreadable directory is still listed for a superuser.
    for rel in ("z.ucdl", "locked/in.ucdl", "open/b.ucdl", "a.ucdl"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(f"# {rel}\n", encoding="utf-8")
    scandir = os.scandir

    def listing(path):
        if path == os.path.join(tmp_path, "locked"):
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", listing)
    assert load_sources(tmp_path) == [
        ("a.ucdl", "# a.ucdl\n"), ("open/b.ucdl", "# open/b.ucdl\n"),
        ("z.ucdl", "# z.ucdl\n")]


def test_fixture_catalog_entries(fixture_catalog):
    cat, diagnostics = fixture_catalog
    assert cat.ids() == FIXTURE_IDS
    assert cat.taxonomy_version == TAX.version
    assert [d.severity for d in diagnostics] == [Severity.WARNING] * 2
    assert {d.code for d in diagnostics} == {"risk.misuse_flag"}
    assert sorted(d.location for d in diagnostics) == [
        "affective_music_recommender.ucdl", "smart_camera.ucdl"]
    for entry in cat.entries:
        assert entry.assessment == classify(entry.use_case, TAX)
        assert entry.source_path.endswith(".ucdl")


def test_duplicate_id_first_wins():
    first = serialize_canonical(u(title="First"))
    second = serialize_canonical(u(title="Second"))
    cat, diagnostics = build_catalog(
        [("one.ucdl", first), ("two.ucdl", second)], TAX)
    assert cat.ids() == ["scan-1"]
    assert cat.entries[0].use_case.title == "First"
    assert cat.entries[0].source_path == "one.ucdl"
    dup = [d for d in diagnostics if d.code == "catalog.duplicate_id"]
    assert len(dup) == 1
    assert dup[0].severity is Severity.ERROR
    assert dup[0].location == "two.ucdl"
    assert "one.ucdl" in dup[0].message


def test_parse_error_does_not_abort_build():
    good = serialize_canonical(u())
    cat, diagnostics = build_catalog(
        [("bad.ucdl", 'usecase "Broken" {\n  id: broken\n'),
         ("good.ucdl", good)], TAX)
    assert cat.ids() == ["scan-1"]
    parse_errors = [d for d in diagnostics
                    if d.code.startswith(("lex.", "syntax", "field."))]
    assert len(parse_errors) == 1
    assert parse_errors[0].severity is Severity.ERROR
    assert parse_errors[0].location.startswith("bad.ucdl:")
    location = parse_errors[0].location.split(":")
    assert len(location) == 3 and location[1].isdigit() and location[2].isdigit()
    assert "expected" in parse_errors[0].message


def test_non_decimal_digit_does_not_abort_build():
    cat, diagnostics = build_catalog(
        [("bad.ucdl", 'usecase "T" { id: a }\n²'),
         ("good.ucdl", serialize_canonical(u()))], TAX)
    assert cat.ids() == ["scan-1"]
    assert ("lex.invalid_char", "bad.ucdl:2:1") in [
        (d.code, d.location) for d in diagnostics]


def test_non_utf8_file_does_not_abort_build(tmp_path):
    (tmp_path / "bad.ucdl").write_bytes(
        b"# r\xe9sum\xe9\n" + serialize_canonical(u(id="lost")).encode())
    (tmp_path / "good.ucdl").write_text(serialize_canonical(u()),
                                        encoding="utf-8")
    cat, diagnostics = build_catalog(load_sources(tmp_path), TAX)
    assert cat.ids() == ["scan-1"]
    assert [(d.code, d.location) for d in diagnostics] == [
        ("lex.not_utf8", "bad.ucdl:1:4")]
    export_json(cat)


def test_overlong_number_does_not_abort_build():
    cat, diagnostics = build_catalog(
        [("bad.ucdl", 'usecase "T" { id: a }\n' + "1" * 5000),
         ("good.ucdl", serialize_canonical(u()))], TAX)
    assert cat.ids() == ["scan-1"]
    assert ("lex.number_too_long", "bad.ucdl:2:1") in [
        (d.code, d.location) for d in diagnostics]


def test_invalid_use_case_excluded_with_diagnostics():
    invalid = serialize_canonical(u()).replace('  inputs: ["image"]\n', "")
    cat, diagnostics = build_catalog([("inv.ucdl", invalid)], TAX)
    assert cat.entries == ()
    codes = {d.code for d in diagnostics}
    assert "inputs.empty" in codes
    assert all(d.location.startswith("inv.ucdl") for d in diagnostics)


def test_overlong_branch_prefix_is_a_finding():
    # A valid branch token whose digits are more than int() reads.
    branch = "1" * (sys.get_int_max_str_digits() + 1) + "a"
    text = serialize_canonical(u()).replace("extension 2a", f"extension {branch}")
    cat, diagnostics = build_catalog([("b.ucdl", text)], TAX)
    assert cat.entries == ()
    assert [(d.code, d.location) for d in diagnostics] == [
        ("extension.unknown_step", "b.ucdl:extensions[0]")]


def test_empty_sources():
    cat, diagnostics = build_catalog([], TAX)
    assert cat.entries == () and diagnostics == []
    s = stats(cat)
    assert s.total == 0
    assert list(s.by_level) == ["Unacceptable", "High", "Transparency", "Minimal"]
    assert set(s.by_level.values()) == {0}


# ---------------------------------------------------------------------------
# querying


def test_query_risk_level(fixture_catalog):
    cat, _ = fixture_catalog
    high = query(cat, Query(risk_level=RiskLevel.HIGH))
    assert [e.use_case.id for e in high] == ["driver-attention-monitoring"]
    transparency = query(cat, Query(risk_level=RiskLevel.TRANSPARENCY))
    assert [e.use_case.id for e in transparency] == [
        "affective-music-recommender", "smart-camera"]
    assert query(cat, Query(risk_level=RiskLevel.UNACCEPTABLE)) == []


def test_query_unknown_area_rejected(fixture_catalog):
    cat, _ = fixture_catalog
    with pytest.raises(QueryError) as exc_info:
        query(cat, Query(area_id="nonexistent_area"))
    assert "unknown application area 'nonexistent_area'" in str(
        exc_info.value)
    # Dotted ids outside the taxonomy are rejected too.
    with pytest.raises(QueryError):
        query(cat, Query(area_id="employment.nonexistent"))


def test_query_area_exact_prefix_and_other(fixture_catalog):
    cat, _ = fixture_catalog
    assert query(cat, Query(area_id="employment")) == []
    assert len(query(cat, Query(area_id="other"))) == 3
    assert query(cat, Query(area_id="education.assess_students")) == []


def test_query_capability_and_actor_kind(fixture_catalog):
    cat, _ = fixture_catalog
    hits = query(cat, Query(capability="mood_inference"))
    assert [e.use_case.id for e in hits] == ["affective-music-recommender"]
    assert query(cat, Query(capability="gait_analysis")) == []
    orgs = query(cat, Query(actor_kind=ActorKind.ORGANIZATION))
    assert [e.use_case.id for e in orgs] == ["affective-music-recommender"]


def test_query_free_text(fixture_catalog):
    cat, _ = fixture_catalog
    hits = query(cat, Query(free_text="SMILE"))
    assert [e.use_case.id for e in hits] == ["smart-camera"]
    assert query(cat, Query(free_text="no such phrase anywhere")) == []


def test_query_conjunctive(fixture_catalog):
    cat, _ = fixture_catalog
    q = Query(risk_level=RiskLevel.TRANSPARENCY, capability="smile_detection")
    assert [e.use_case.id for e in query(cat, q)] == ["smart-camera"]
    q = Query(risk_level=RiskLevel.HIGH, capability="smile_detection")
    assert query(cat, q) == []


def oracle_matches(entry, q: Query) -> bool:
    uc = entry.use_case
    checks = []
    if q.risk_level is not None:
        checks.append(entry.assessment.level == q.risk_level)
    if q.area_id is not None:
        checks.append(any(
            ref.area_id == q.area_id or ref.area_id.startswith(q.area_id + ".")
            for ref in uc.application_areas))
    if q.capability is not None:
        checks.append(q.capability in uc.affective_capabilities)
    if q.actor_kind is not None:
        checks.append(any(a.kind == q.actor_kind for a in uc.all_actors()))
    if q.free_text is not None:
        checks.append(q.free_text.lower()
                      in (uc.title + "\n" + uc.intended_purpose).lower())
    return all(checks)


def test_query_matches_linear_scan_oracle():
    rng = random.Random(555001)
    known_areas = [e.area_id for e in TAX.entries]
    prefixes = sorted({a.split(".", 1)[0] for a in known_areas})
    for _ in range(15):
        cat = random_catalog(rng, rng.randint(3, 8))
        for _ in range(20):
            q = Query(
                risk_level=rng.choice((None,) + tuple(RiskLevel)),
                area_id=rng.choice(
                    [None, "other", rng.choice(known_areas),
                     rng.choice(prefixes)]),
                capability=rng.choice(
                    [None, "emotion_recognition",
                     (cat.entries[0].use_case.affective_capabilities or ("x",))[0]]),
                actor_kind=rng.choice((None,) + tuple(ActorKind)),
                free_text=rng.choice(
                    [None, "zzz-not-there", cat.entries[-1].use_case.title[:4]]),
            )
            expected = [e for e in cat.entries if oracle_matches(e, q)]
            assert query(cat, q) == expected


def test_query_empty_filter_returns_all(fixture_catalog):
    cat, _ = fixture_catalog
    assert query(cat, Query()) == list(cat.entries)


# ---------------------------------------------------------------------------
# stats


def test_fixture_stats(fixture_catalog):
    cat, _ = fixture_catalog
    s = stats(cat)
    assert s.total == 3
    assert s.by_level == {
        "Unacceptable": 0, "High": 1, "Transparency": 2, "Minimal": 0}
    assert list(s.by_level) == ["Unacceptable", "High", "Transparency", "Minimal"]
    assert s.by_area == {"other": 3}
    assert s.by_capability == {
        "distraction_detection": 1,
        "drowsiness_detection": 1,
        "mood_inference": 1,
        "personality_prediction": 1,
        "smile_detection": 1,
    }
    assert list(s.by_capability) == sorted(s.by_capability)


def test_stats_counts_each_entry_once_per_top_level_area():
    from ucdoc import ApplicationAreaRef

    uc = u(application_areas=(
        ApplicationAreaRef("employment.monitor_performance"),
        ApplicationAreaRef("employment.evaluate_candidates"),
        ApplicationAreaRef("education.assess_students"),
    ))
    cat, _ = build_catalog([("a.ucdl", serialize_canonical(uc))], TAX)
    s = stats(cat)
    assert s.by_area == {"education": 1, "employment": 1}


def test_stats_agree_with_hand_count_on_random_catalogs():
    rng = random.Random(312)
    for _ in range(10):
        cat = random_catalog(rng, rng.randint(2, 9))
        s = stats(cat)
        assert s.total == len(cat.entries)
        assert sum(s.by_level.values()) == s.total
        for level in RiskLevel:
            expected = sum(
                1 for e in cat.entries if e.assessment.level == level)
            assert s.by_level[level.label] == expected
        for tag, count in s.by_capability.items():
            assert count == sum(
                1 for e in cat.entries
                if tag in e.use_case.affective_capabilities)


# ---------------------------------------------------------------------------
# JSON snapshot


def test_export_structure(fixture_catalog):
    cat, _ = fixture_catalog
    data = export_json(cat)
    assert data.endswith(b"\n")
    doc = json.loads(data)
    assert doc["schema"] == SCHEMA == "ucdoc-catalog/1"
    assert doc["taxonomy_version"] == TAX.version
    assert doc["generated_fields"] == [
        "risk_level", "risk_matched", "risk_misuse_flags", "risk_rationale"]
    assert [e["id"] for e in doc["entries"]] == FIXTURE_IDS
    for raw in doc["entries"]:
        assert raw["source_path"].endswith(".ucdl")
        assert raw["risk_level"] in (
            "Unacceptable", "High", "Transparency", "Minimal")
        assert isinstance(raw["risk_rationale"], list)


def test_export_deterministic_and_golden(fixtures_dir, fixture_catalog):
    cat, _ = fixture_catalog
    again, _ = build_catalog(load_sources(fixtures_dir), TAX)
    data = export_json(cat)
    assert data == export_json(again)
    assert_golden(data, "catalog.json")


def test_build_and_export_leave_no_reference_cycles(fixtures_dir):
    # A cycle keeps every piece of the export alive until the cyclic
    # collector runs, which raises the peak memory of a build.
    gc.disable()
    try:
        gc.collect()
        cat, _ = build_catalog(load_sources(fixtures_dir), TAX)
        assert export_json(cat)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_export_load_round_trip(fixture_catalog):
    cat, _ = fixture_catalog
    data = export_json(cat)
    loaded = load_catalog_json(data, TAX)
    assert loaded.ids() == cat.ids()
    assert loaded.taxonomy_version == cat.taxonomy_version
    for a, b in zip(loaded.entries, cat.entries):
        assert a.use_case == b.use_case
        assert a.assessment == b.assessment
        assert a.source_path == b.source_path
    assert export_json(loaded) == data


def test_load_keeps_stored_assessments_verbatim(fixture_catalog):
    cat, _ = fixture_catalog
    doc = json.loads(export_json(cat))
    for raw in doc["entries"]:
        raw["risk_level"] = "Unacceptable"
    doc["taxonomy_version"] = "some-older-version"
    loaded = load_catalog_json(json.dumps(doc), TAX)
    assert all(e.assessment.level is RiskLevel.UNACCEPTABLE
               for e in loaded.entries)
    assert loaded.taxonomy_version == "some-older-version"


def test_round_trip_random_catalogs():
    rng = random.Random(414243)
    for _ in range(8):
        cat = random_catalog(rng, rng.randint(1, 6))
        data = export_json(cat)
        assert export_json(load_catalog_json(data, TAX)) == data


@pytest.mark.parametrize("payload", [
    b"not json",
    b"[]",
    b'{"schema": "something-else/9"}',
    b'{"schema": "ucdoc-catalog/1", "entries": [{"id": "x"}]}',
    b'{"schema": "ucdoc-catalog/1", "entries": [{"risk_level": "Bogus"}]}',
    b'{"schema": "ucdoc-catalog/1", "entries": 3}',
    b'{"schema": "ucdoc-catalog/1", "entries": [], "extra": 1}',
    b'{"schema": "ucdoc-catalog/1", "taxonomy_version": 3, "entries": []}',
    b'{"schema": "ucdoc-catalog/1", "generated_fields": 3, "entries": []}',
    b'{"schema": "ucdoc-catalog/1", "generated_fields": ["x", 3], "entries": []}',
    # deeper than the recursion limit of json.loads
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested"),
    pytest.param(b'{"schema": "ucdoc-catalog/1", "entries": ' + b"[" * 100_000
                 + b"]" * 100_000 + b"}", id="nested-entries"),
])
def test_load_rejects_malformed_snapshots(payload):
    with pytest.raises(CatalogFormatError):
        load_catalog_json(payload, TAX)


def test_load_names_the_bad_generated_field():
    payload = '{"schema": "ucdoc-catalog/1", "generated_fields": ["x", 3]}'
    with pytest.raises(CatalogFormatError,
                       match=r"^generated_fields\[1\]: expected str, got int$"):
        load_catalog_json(payload, TAX)


# The use-case and risk codecs both name the field path.
BAD_ENTRY_MESSAGES = {
    "id": "entry 1: id: expected str, got int",
    "risk_level": "entry 1: risk_level: expected one of",
}


@pytest.mark.parametrize("field, value", [("id", 3), ("risk_level", 3)])
def test_load_names_the_bad_entry(field, value):
    doc = json.loads(export_json(build_catalog(
        [(f"{i}.ucdl", serialize_canonical(u(id=f"uc-{i}"))) for i in range(3)],
        TAX)[0]))
    doc["entries"][1][field] = value
    with pytest.raises(CatalogFormatError, match=BAD_ENTRY_MESSAGES[field]):
        load_catalog_json(json.dumps(doc), TAX)


def _set_step_key(es, key, value):
    es[0]["main_scenario"][0][key] = value


# Mutations of the golden snapshot's entries, each with the error it must
# raise: the decoder names the field path of a wrong-typed, unknown or
# missing value, and validation findings carry their field path too.
BAD_GOLDEN_ENTRIES = {
    "title-3": (lambda es: es[0].update(title=3),
                "entry 0: title: expected str, got int"),
    "area-id-3": (lambda es: es[0]["application_areas"][0].update(area_id=3),
                  r"entry 0: application_areas\[0\]\.area_id: expected str"),
    "capabilities-3": (lambda es: es[0].update(affective_capabilities=[3]),
                       r"entry 0: affective_capabilities\[0\]: expected str"),
    "inputs-3": (lambda es: es[0].update(inputs=[3]),
                 r"entry 0: inputs\[0\]: expected str, got int"),
    "outputs-string": (lambda es: es[0].update(outputs="camera"),
                       "entry 0: outputs: expected list, got str"),
    "trigger-3": (lambda es: es[0].update(trigger=3),
                  "entry 0: trigger: expected str, got int"),
    "source-path-3": (lambda es: es[0].update(source_path=3),
                      "entry 0: source_path: expected str, got int"),
    "label-3": (lambda es: es[0]["system_functions"][0].update(label=3),
                r"entry 0: system_functions\[0\]\.label: expected str"),
    "safety-component-string": (
        lambda es: es[0].update(safety_component="yes"),
        "entry 0: safety_component: expected bool, got str"),
    "empty-scenario": (lambda es: es[0].update(main_scenario=[]),
                       r"entry 0: .*main_scenario: \[scenario\.empty\]"),
    "duplicate": (lambda es: es.append(es[1]),
                  "duplicate id 'driver-attention-monitoring' in entry 3"),
    "index-true": (lambda es: _set_step_key(es, "index", True),
                   r"entry 0: main_scenario\[0\]\.index: expected int, got bool"),
    "unknown-entry-key": (lambda es: es[0].update(notes="x"),
                          "entry 0: notes: unknown key"),
    "unknown-step-key": (lambda es: _set_step_key(es, "note", "x"),
                         r"entry 0: main_scenario\[0\]\.note: unknown key"),
    "missing-title": (lambda es: es[0].pop("title"),
                      "entry 0: title: missing key"),
    "role-mismatch": (
        lambda es: es[0]["target_persons"][0].update(role="user"),
        r"entry 0: target_persons\[0\]: \[actor\.role\]"),
    "kind-robot": (lambda es: es[0]["user"].update(kind="robot"),
                   r"entry 0: user\.kind: expected one of \['human'"),
    "free-label-3": (
        lambda es: es[0]["application_areas"][0].update(free_label=3),
        r"entry 0: application_areas\[0\]\.free_label: expected str, got int"),
    "rationale-string": (lambda es: es[0].update(risk_rationale="abc"),
                         "entry 0: risk_rationale: expected list, got str"),
    "flag-area-id-3": (
        lambda es: es[0]["risk_misuse_flags"][0].update(area_id=3),
        r"entry 0: risk_misuse_flags\[0\]\.area_id: expected str, got int"),
    "unknown-flag-key": (
        lambda es: es[0]["risk_misuse_flags"][0].update(note="x"),
        r"entry 0: risk_misuse_flags\[0\]\.note: unknown key"),
    "risk-level-lowercase": (
        lambda es: es[0].update(risk_level="high"),
        r"entry 0: risk_level: expected one of \['Minimal'.*got 'high'"),
    "missing-risk-matched": (lambda es: es[0].pop("risk_matched"),
                             "entry 0: risk_matched: missing key"),
    "branch-digits": (  # a valid branch token of more digits than int() reads
        lambda es: es[0]["extensions"][0].update(
            branch_id="1" * (sys.get_int_max_str_digits() + 1) + "a"),
        r"entry 0: extensions\[0\]: \[extension\.unknown_step\]"),
    # json.loads reads "\\ud800" as a lone surrogate, which no UTF-8 can hold
    "lone-surrogate": (
        lambda es: es[0].update(affective_capabilities=["\ud800"]),
        r"entry 0: affective_capabilities\[0\]: "),
}


def mutated_golden_catalog(name: str) -> str:
    doc = json.loads((GOLDEN_DIR / "catalog.json").read_bytes())
    BAD_GOLDEN_ENTRIES[name][0](doc["entries"])
    return json.dumps(doc)


@pytest.mark.parametrize("name", list(BAD_GOLDEN_ENTRIES))
def test_load_rejects_bad_entries(name):
    with pytest.raises(CatalogFormatError, match=BAD_GOLDEN_ENTRIES[name][1]):
        load_catalog_json(mutated_golden_catalog(name), TAX)


# An unknown key that is not a plain name is quoted in the error path, so
# that it cannot read as a path of its own (entry 5, an input of the user).
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update({"entries[5]": 1}),
     "['entries[5]']: unknown key"),
    (lambda doc: doc["entries"][0]["user"].update({"inputs[0]": 1}),
     "bad fields in entry 0: user['inputs[0]']: unknown key"),
    (lambda doc: doc["entries"][0].update({"inputs[0]": 1}),
     "bad fields in entry 0: ['inputs[0]']: unknown key"),
], ids=["top-level", "in-user", "in-entry"])
def test_load_quotes_an_unknown_key_that_is_not_a_name(edit, message):
    doc = json.loads((GOLDEN_DIR / "catalog.json").read_bytes())
    edit(doc)
    with pytest.raises(CatalogFormatError) as info:
        load_catalog_json(json.dumps(doc), TAX)
    assert str(info.value) == message


@pytest.mark.parametrize("drop", [
    "source_path", "taxonomy_version", "generated_fields", "entries"])
def test_load_fills_in_a_key_left_out(drop):
    doc = json.loads((GOLDEN_DIR / "catalog.json").read_bytes())
    del (doc["entries"][0] if drop == "source_path" else doc)[drop]
    tax = replace(TAX, version="version-on-hand")
    cat = load_catalog_json(json.dumps(doc), tax)
    assert cat.taxonomy_version == doc.get("taxonomy_version", tax.version)
    assert {e.use_case.id: e.source_path for e in cat.entries} == {
        e["id"]: e.get("source_path", "") for e in doc.get("entries", [])}
