"""Acceptance gate: the seven release criteria, one test each.

Each test prints a single ``PASS criterion N`` line (visible with ``-s`` or
``-rP``); the test names mirror the criteria so a plain ``pytest -v`` run
doubles as the checklist.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import replace

from conftest import FIXTURES_DIR, assert_golden, fixture_text
from support import make_use_case
from test_diagram import assert_geometry
from test_risk import RISK_AREA_POOL, oracle_level, random_risk_uc
from ucdoc import (
    ApplicationAreaRef,
    Misuse,
    RiskLevel,
    Tier,
    build_diagram,
    builtin_taxonomy,
    canonicalize,
    classify,
    layout,
    parse_document,
    render_svg,
    render_textual,
    serialize_canonical,
)
from ucdoc.cli import run as cli_run

TAX = builtin_taxonomy()


def _cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_fixture_fidelity():
    start = time.perf_counter()
    expectations = {
        "smart_camera": (RiskLevel.TRANSPARENCY, Tier.HIGH_RISK),
        "affective_music_recommender": (RiskLevel.TRANSPARENCY, Tier.PROHIBITED),
        "driver_attention_monitoring": (RiskLevel.HIGH, None),
    }
    for name, (level, flag_tier) in expectations.items():
        use_cases, errors = parse_document(fixture_text(name))
        assert errors == [], f"{name}: {[e.render() for e in errors]}"
        assert len(use_cases) == 1
        assessment = classify(use_cases[0], TAX)
        assert assessment.level is level, (name, assessment.level)
        if flag_tier is None:
            assert assessment.misuse_flags == ()
            assert use_cases[0].safety_component
        else:
            assert len(assessment.misuse_flags) == 1
            assert assessment.misuse_flags[0].match.tier is flag_tier
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: fixture fidelity ({elapsed * 1000:.0f} ms)")


def test_criterion_2_taxonomy_completeness():
    prohibited = [e for e in TAX.entries if e.tier is Tier.PROHIBITED]
    high = [e for e in TAX.entries if e.tier is Tier.HIGH_RISK]
    assert len(prohibited) == 4
    assert len({e.area_id.split(".", 1)[0] for e in prohibited}) == 3
    assert len(high) == 15
    assert len({e.area_id.split(".", 1)[0] for e in high}) == 6
    assert len(TAX.entries) == 19
    print("PASS criterion 2: taxonomy completeness "
          "(3 prohibited practices / 4 sub-uses, 6 high-risk areas / 15 sub-uses)")


def test_criterion_3_parser_round_trip():
    start = time.perf_counter()
    rng = random.Random(31003)
    for i in range(1000):
        uc = make_use_case(rng)
        text = serialize_canonical(uc)
        use_cases, errors = parse_document(text)
        assert errors == [], f"sample {i}: {[e.render() for e in errors]}"
        assert use_cases == [uc], f"sample {i}: round-trip mismatch"
        assert serialize_canonical(use_cases[0]) == text, f"sample {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 3: parser round-trip (1000 samples, {elapsed:.1f} s)")


def test_criterion_4_classifier_oracle_equivalence():
    rng = random.Random(41004)
    counterexamples: list[str] = []
    for i in range(10_000):
        uc = random_risk_uc(rng)
        level = classify(uc, TAX).level
        expected = oracle_level(uc, TAX)
        if level is not expected:
            counterexamples.append(
                f"sample {i}: classify={level} oracle={expected}")
            continue
        extra = ApplicationAreaRef(rng.choice(RISK_AREA_POOL))
        wider = canonicalize(replace(
            uc, application_areas=uc.application_areas + (extra,)))
        if classify(wider, TAX).level < level:
            counterexamples.append(f"sample {i}: adding {extra.area_id} "
                                   "lowered the level")
        stripped = canonicalize(replace(uc, misuses=()))
        extended = canonicalize(replace(uc, misuses=uc.misuses + (
            Misuse("out-of-scope use", ApplicationAreaRef(
                rng.choice(RISK_AREA_POOL))),)))
        if classify(stripped, TAX).level is not level:
            counterexamples.append(f"sample {i}: dropping misuses moved level")
        if classify(extended, TAX).level is not level:
            counterexamples.append(f"sample {i}: adding a misuse moved level")
    assert counterexamples == []
    print("PASS criterion 4: classifier oracle equivalence, monotonicity and "
          "misuse-invariance (10000 samples, 0 counterexamples)")


def test_criterion_5_diagram_geometry(fixture_use_cases):
    rng = random.Random(51005)
    for _ in range(500):
        positioned = layout(build_diagram(make_use_case(rng)))
        assert_geometry(positioned)
    for name, uc in fixture_use_cases.items():
        positioned = layout(build_diagram(uc))
        first, second = render_svg(positioned), render_svg(positioned)
        assert first == second
        assert_golden(first, f"{name}.svg")
        puml = render_textual(build_diagram(uc)).encode("utf-8")
        assert_golden(puml, f"{name}.puml")
    print("PASS criterion 5: diagram geometry (500 samples), frozen SVGs and "
          "PlantUML")


def test_criterion_6_docgen_label_contract(fixture_use_cases):
    from ucdoc import render_table_markdown

    renamed = ["Intended purpose", "User", "Target persons", "Misuses",
               "Application areas"]
    originals = ["Scope", "Primary Actor", "Stakeholders and Interests",
                 "Open issues"]
    for uc in fixture_use_cases.values():
        table = render_table_markdown(uc, classify(uc, TAX))
        for label in renamed:
            assert f"| {label} |" in table, label
        for label in originals:
            assert label not in table, label
    print("PASS criterion 6: documentation label contract")


def test_criterion_7_cli_end_to_end(tmp_path):
    start = time.perf_counter()
    catalog_file = tmp_path / "catalog.json"
    code, out, _ = _cli("catalog", "build", str(FIXTURES_DIR),
                        "--out", str(catalog_file))
    assert code == 0
    assert out == f"wrote 3 use case(s) to {catalog_file}\n"

    code, out, _ = _cli("catalog", "stats", str(catalog_file))
    assert code == 0
    assert "  Transparency: 2\n" in out
    assert "  High: 1\n" in out

    code, out, _ = _cli("catalog", "query", str(catalog_file),
                        "--risk", "High")
    assert code == 0
    assert out == "driver-attention-monitoring\n"

    # Fault injection: every exit code in the table.
    code, _, _ = _cli("validate", str(FIXTURES_DIR / "smart_camera.ucdl"))
    assert code == 0
    bad = tmp_path / "bad.ucdl"
    bad.write_text('usecase "X" {\n', encoding="utf-8")
    code, _, _ = _cli("validate", str(bad))
    assert code == 2
    code, _, _ = _cli("validate", str(tmp_path / "missing.ucdl"))
    assert code == 3
    code, _, _ = _cli("validate", "--no-such-flag", str(bad))
    assert code == 3
    invalid = tmp_path / "invalid.ucdl"
    invalid.write_text(
        fixture_text("smart_camera").replace(
            '  inputs: ["camera sensor image stream"]\n', ""),
        encoding="utf-8")
    code, _, _ = _cli("validate", str(invalid))
    assert code == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 7: CLI end-to-end ({elapsed:.2f} s)")
