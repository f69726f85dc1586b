"""End-to-end tests for the ``ucdoc`` command line interface."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import reference_json
import ucdoc
from ucdoc import (
    ApplicationAreaRef, Misuse, builtin_taxonomy, canonicalize, classify,
    model, parse_document, serialize_canonical,
)
from conftest import FIXTURES_DIR, GOLDEN_DIR, assert_golden
from test_catalog import BAD_GOLDEN_ENTRIES, mutated_golden_catalog
from test_risk import random_risk_uc
from ucdoc.cli import ExitStatus, run

SMART_CAMERA = str(FIXTURES_DIR / "smart_camera.ucdl")
BUILTIN_TAXONOMY = str(Path(ucdoc.__file__).parent / "data" / "aiact_taxonomy.ucdl")
DRIVER = str(FIXTURES_DIR / "driver_attention_monitoring.ucdl")

CUSTOM_TAXONOMY = """\
version: "custom-test-1"

entry leisure_zone.smile {
  tier: high_risk
  area: "Leisure"
  sub_use: "Smile detection in entertainment"
  keywords: ["entertainment"]
}
"""

BROKEN_DOC = 'usecase "Broken" {\n  id: broken\n'

# Two functions, no associations, no step annotations: renders with two
# orphan-function warnings but stays valid.
ORPHANS_DOC = """\
usecase "Warn" {
  id: warn-1
  intended_purpose: "p"
  user {
    name: "Op"
    kind: human
  }
  application_areas: [other("smart home comfort")]
  inputs: ["i"]
  outputs: ["o"]
  functions {
    a: "A"
    b: "B"
  }
  scenario {
    1 op: "does the thing"
  }
}
"""


def cli(*argv: str, stdin: str | io.StringIO | io.BytesIO | None = None
        ) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdin=stdin, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# usage and help


def test_no_arguments_is_usage_error():
    code, out, err = cli()
    assert code == ExitStatus.USAGE == 3
    assert "usage:" in err


def test_unknown_subcommand():
    code, _, err = cli("frobnicate")
    assert code == 3 and "error" in err


def test_unknown_flag():
    code, _, err = cli("validate", "--bogus", SMART_CAMERA)
    assert code == 3 and "--bogus" in err


def test_help_exits_zero():
    code, out, err = cli("--help")
    assert code == 0
    assert "usage: ucdoc" in out
    assert err == ""


def test_subcommand_help():
    code, out, _ = cli("catalog", "query", "--help")
    assert code == 0
    assert "--risk" in out


# ---------------------------------------------------------------------------
# validate


def test_validate_fixture_ok():
    code, out, err = cli("validate", SMART_CAMERA)
    assert code == 0
    assert out == "1 file(s), 1 use case(s), 0 error(s), 0 warning(s)\n"
    assert err == ""


def test_validate_all_fixtures():
    paths = sorted(str(p) for p in FIXTURES_DIR.glob("*.ucdl"))
    code, out, _ = cli("validate", *paths)
    assert code == 0
    assert out == "3 file(s), 3 use case(s), 0 error(s), 0 warning(s)\n"


def test_validate_stdin():
    text = (FIXTURES_DIR / "smart_camera.ucdl").read_text(encoding="utf-8")
    code, out, err = cli("validate", "-", stdin=text)
    assert code == 0
    assert out.startswith("1 file(s), 1 use case(s)")


def test_validate_skips_byte_order_mark(tmp_path):
    path = tmp_path / "camera.ucdl"
    path.write_bytes(b"\xef\xbb\xbf" + Path(SMART_CAMERA).read_bytes())
    code, out, err = cli("validate", str(path))
    assert (code, err) == (0, "")
    assert out == "1 file(s), 1 use case(s), 0 error(s), 0 warning(s)\n"


def test_table_validates_the_use_case_once():
    with mock.patch.object(model, "_validate", wraps=model._validate) as walk:
        code, out, _ = cli("table", "--format", "html", "--with-risk",
                           "--with-diagram", SMART_CAMERA)
    assert code == 0 and "<svg" in out
    assert walk.call_count == 1


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.ucdl"
    bad.write_text(BROKEN_DOC, encoding="utf-8")
    code, out, err = cli("validate", str(bad))
    assert code == ExitStatus.PARSE_ERROR == 2
    first = err.splitlines()[0]
    assert first.startswith(f"{bad}:")
    assert ": error: " in first and "expected" in first
    assert out == "1 file(s), 0 use case(s), 1 error(s), 0 warning(s)\n"


def test_validate_non_decimal_digit_is_parse_error(tmp_path):
    bad = tmp_path / "digit.ucdl"
    bad.write_text('usecase "T" { id: a }\n²', encoding="utf-8")
    code, _, err = cli("validate", str(bad))
    assert code == ExitStatus.PARSE_ERROR
    assert (f"{bad}:2:1: error: [lex.invalid_char] unexpected character '²'"
            in err.splitlines())


def test_non_utf8_file_is_parse_error(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    bad = src_dir / "bad.ucdl"
    bad.write_bytes(b"# r\xe9sum\xe9\n" + Path(DRIVER).read_bytes())
    (src_dir / "good.ucdl").write_bytes(Path(SMART_CAMERA).read_bytes())
    line = f"{bad}:1:4: error: [lex.not_utf8] text is not valid UTF-8"

    code, out, err = cli("validate", str(bad), SMART_CAMERA)
    assert code == ExitStatus.PARSE_ERROR
    assert err.splitlines() == [line]
    assert out == "2 file(s), 1 use case(s), 1 error(s), 0 warning(s)\n"

    code, out, err = cli("table", str(bad))
    assert (code, out, err.splitlines()) == (ExitStatus.PARSE_ERROR, "", [line])

    # Standard input reports it as the path does, but for the name.
    dash = line.replace(f"{bad}:", "<stdin>:")
    code, out, err = cli("table", "-", stdin=io.BytesIO(bad.read_bytes()))
    assert (code, out, err.splitlines()) == (ExitStatus.PARSE_ERROR, "", [dash])
    proc = console("table", "-", stdin=subprocess.PIPE)
    out, err = proc.communicate(bad.read_bytes(), timeout=60)
    assert (proc.returncode, out) == (ExitStatus.PARSE_ERROR, b"")
    assert err.decode().splitlines() == [dash]

    out_file = tmp_path / "c.json"
    code, out, err = cli("catalog", "build", str(src_dir), "--out", str(out_file))
    assert code == ExitStatus.PARSE_ERROR
    assert "bad.ucdl:1:4: error: [lex.not_utf8] " in err
    assert out == f"wrote 1 use case(s) to {out_file}\n"

    code, _, err = cli("classify", SMART_CAMERA, "--taxonomy", str(bad))
    assert code == ExitStatus.USAGE
    assert err.startswith(f"ucdoc: error: malformed taxonomy file: {bad}:1:4: "
                          "error: [lex.not_utf8] text is not valid UTF-8")


def test_validate_overlong_number_is_parse_error(tmp_path):
    bad = tmp_path / "long.ucdl"
    bad.write_text('usecase "T" { id: a }\n' + "1" * 5000, encoding="utf-8")
    code, _, err = cli("validate", str(bad))
    assert code == ExitStatus.PARSE_ERROR
    assert (f"{bad}:2:1: error: [lex.number_too_long] "
            "number of 5000 digits is too long") in err


def test_validate_invalid_use_case(tmp_path):
    doc = ORPHANS_DOC.replace('  inputs: ["i"]\n', "")
    path = tmp_path / "invalid.ucdl"
    path.write_text(doc, encoding="utf-8")
    code, out, err = cli("validate", str(path))
    assert code == ExitStatus.FINDINGS == 1
    assert "[inputs.empty]" in err
    assert out == "1 file(s), 1 use case(s), 1 error(s), 0 warning(s)\n"


def test_validate_overlong_branch_prefix_is_a_finding(tmp_path):
    # A valid branch token whose digits are more than int() reads.
    branch = "1" * (sys.get_int_max_str_digits() + 1) + "a"
    path = tmp_path / "branch.ucdl"
    path.write_text(ORPHANS_DOC[:-2] + f'  extension {branch} "c" {{\n'
                    '    1 system: "x"\n  }\n}\n', encoding="utf-8")
    code, _, err = cli("validate", str(path))
    assert code == ExitStatus.FINDINGS
    assert f"{path}:extensions[0]: error: [extension.unknown_step]" in err


def test_validate_strict_is_gone():
    code, _, err = cli("validate", "--strict", SMART_CAMERA)
    assert code == ExitStatus.USAGE
    assert "--strict" in err


def test_validate_missing_file():
    code, _, err = cli("validate", "/no/such/file.ucdl")
    assert code == 3
    assert err.startswith("ucdoc: error:")


# ---------------------------------------------------------------------------
# classify


def test_classify_text_output():
    code, out, err = cli("classify", SMART_CAMERA)
    assert code == 0
    assert out.startswith("Use case: smart-camera\nRisk level: Transparency\n")
    assert "WARNING:" in out
    assert err == ""


def test_classify_strict_promotes_misuse_flags():
    code, _, _ = cli("classify", SMART_CAMERA, "--strict")
    assert code == 1
    code, _, _ = cli("classify", DRIVER, "--strict")
    assert code == 0  # no misuse flags on the driver fixture


def test_classify_json_is_pure():
    code, out, err = cli("classify", SMART_CAMERA, "--format", "json")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert [e["id"] for e in payload] == ["smart-camera"]
    assert payload[0]["risk_level"] == "Transparency"
    assert payload[0]["risk_misuse_flags"][0]["area_id"] == (
        "employment.monitor_performance")


@pytest.mark.parametrize("name", ["driver_attention_monitoring",
                                  "smart_camera"])
def test_classify_json_matches_the_golden(name):
    # The smart camera's misuse is flagged: its golden pins a flag's keys.
    code, out, err = cli("classify", "--format", "json",
                         str(FIXTURES_DIR / f"{name}.ucdl"))
    assert (code, err) == (0, "")
    assert_golden(out.encode("utf-8"), f"{name}.classify.json")


# Text the JSON writer has to escape or keep as it is: a quote, a
# backslash, a tab, a newline, non-ASCII and astral characters.
HARD_TEXT = ' «é» 情感\t"q" \\ 😀\nend'


def with_hard_text(uc):
    """``uc`` with ``HARD_TEXT`` in its free labels and misuse descriptions,
    and one misuse more that the taxonomy flags."""
    areas = tuple(replace(r, free_label=r.free_label + HARD_TEXT)
                  if r.is_other else r for r in uc.application_areas)
    misuses = tuple(replace(m, description=m.description + HARD_TEXT)
                    for m in uc.misuses)
    flagged = Misuse("covert" + HARD_TEXT,
                     ApplicationAreaRef(builtin_taxonomy().entries[0].area_id))
    return canonicalize(replace(uc, application_areas=areas,
                                misuses=misuses + (flagged,)))


def test_classify_json_is_json_dumps_of_the_reference(tmp_path):
    # Byte for byte what json.dumps writes of the hand-built reference data;
    # the writer is generated on the first call and reused after it.
    rng = random.Random(1616)
    model._writer.cache_clear()
    sizes = []
    for n in (0, 1, 5):
        path = tmp_path / f"{n}.ucdl"
        path.write_text("\n".join(
            serialize_canonical(with_hard_text(replace(
                random_risk_uc(rng), id=f"uc-{i}"))) for i in range(n)),
            encoding="utf-8")
        use_cases, errors = parse_document(path.read_text(encoding="utf-8"))
        assert (errors, len(use_cases)) == ([], n)
        expected = json.dumps(
            [{"id": uc.id, **reference_json.assessment_data(
                classify(uc, builtin_taxonomy()))} for uc in use_cases],
            indent=2, ensure_ascii=False) + "\n"
        escaped = json.dumps(HARD_TEXT.strip(), ensure_ascii=False)[1:-1]
        assert (escaped in expected) == (n > 0)
        for _ in range(2):
            code, out, err = cli("classify", "--format", "json", str(path))
            assert (code, out, err) == (0, expected, "")
            sizes.append(model._writer.cache_info().currsize)
    assert sizes == [1] * 6


def test_classify_multiple_use_cases(tmp_path):
    text = ORPHANS_DOC + "\n" + ORPHANS_DOC.replace(
        "warn-1", "warn-2").replace('"Warn"', '"Warn two"')
    path = tmp_path / "two.ucdl"
    path.write_text(text, encoding="utf-8")
    code, out, _ = cli("classify", str(path))
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("Use case: warn-1\n")
    assert blocks[1].startswith("Use case: warn-2\n")


def test_classify_skips_invalid_use_case(tmp_path):
    doc = ORPHANS_DOC.replace('  inputs: ["i"]\n', "")
    path = tmp_path / "invalid.ucdl"
    path.write_text(doc, encoding="utf-8")
    code, out, err = cli("classify", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out) == []
    assert "[inputs.empty]" in err


def test_classify_custom_taxonomy(tmp_path):
    tax_file = tmp_path / "custom.ucdl"
    tax_file.write_text(CUSTOM_TAXONOMY, encoding="utf-8")
    code, out, _ = cli("classify", SMART_CAMERA, "--taxonomy", str(tax_file))
    assert code == 0
    assert "Risk level: High" in out


def test_taxonomy_env_var(tmp_path, monkeypatch):
    tax_file = tmp_path / "custom.ucdl"
    tax_file.write_text(CUSTOM_TAXONOMY, encoding="utf-8")
    monkeypatch.setenv("UCDOC_TAXONOMY", str(tax_file))
    code, out, _ = cli("classify", SMART_CAMERA)
    assert code == 0 and "Risk level: High" in out


def test_taxonomy_flag_beats_env_var(tmp_path, monkeypatch):
    broken = tmp_path / "broken.ucdl"
    broken.write_text("tier: what", encoding="utf-8")
    good = tmp_path / "good.ucdl"
    good.write_text(CUSTOM_TAXONOMY, encoding="utf-8")
    monkeypatch.setenv("UCDOC_TAXONOMY", str(broken))
    code, out, _ = cli("classify", SMART_CAMERA, "--taxonomy", str(good))
    assert code == 0 and "Risk level: High" in out


def test_bad_taxonomy_is_usage_error(tmp_path, monkeypatch):
    broken = tmp_path / "broken.ucdl"
    broken.write_text("entry x { tier: nonsense }", encoding="utf-8")
    monkeypatch.setenv("UCDOC_TAXONOMY", str(broken))
    code, _, err = cli("classify", SMART_CAMERA)
    assert code == 3
    assert err.startswith("ucdoc: error:")


def test_empty_taxonomy_env_var_counts_as_unset(monkeypatch):
    monkeypatch.setenv("UCDOC_TAXONOMY", "")
    assert cli("classify", SMART_CAMERA) == cli("classify", SMART_CAMERA,
                                                "--taxonomy", BUILTIN_TAXONOMY)


# ---------------------------------------------------------------------------
# render


def test_render_svg(tmp_path):
    out_file = tmp_path / "diagram.svg"
    code, out, err = cli("render", SMART_CAMERA, "--out", str(out_file))
    assert code == 0
    assert err == ""
    data = out_file.read_bytes()
    assert data.startswith(b"<?xml")
    assert b"<svg" in data


def test_render_puml(tmp_path):
    out_file = tmp_path / "diagram.puml"
    code, _, _ = cli("render", SMART_CAMERA, "--out", str(out_file),
                     "--format", "puml")
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert 'actor "Photographer" as photographer' in text
    assert "<<include>>" in text


def test_render_requires_out_flag():
    code, _, err = cli("render", SMART_CAMERA)
    assert code == 3 and "--out" in err


def test_render_reports_warnings(tmp_path):
    src = tmp_path / "warn.ucdl"
    src.write_text(ORPHANS_DOC, encoding="utf-8")
    out_file = tmp_path / "warn.svg"
    code, _, err = cli("render", str(src), "--out", str(out_file))
    assert code == 0
    assert err.count("[diagram.orphan_function]") == 2
    assert out_file.exists()

    code, _, _ = cli("render", str(src), "--out", str(out_file), "--strict")
    assert code == 1


def test_render_rejects_multiple_use_cases(tmp_path):
    text = ORPHANS_DOC + "\n" + ORPHANS_DOC.replace("warn-1", "warn-2")
    src = tmp_path / "two.ucdl"
    src.write_text(text, encoding="utf-8")
    code, _, err = cli("render", str(src), "--out", str(tmp_path / "x.svg"))
    assert code == 3
    assert "exactly one use case" in err


def test_render_parse_error_exit_code(tmp_path):
    src = tmp_path / "bad.ucdl"
    src.write_text(BROKEN_DOC, encoding="utf-8")
    code, _, err = cli("render", str(src), "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert not (tmp_path / "x.svg").exists()


# ---------------------------------------------------------------------------
# table


def test_table_markdown():
    code, out, err = cli("table", SMART_CAMERA)
    assert code == 0
    assert out.startswith("| Field | Value |\n")
    assert "Risk level" not in out


def test_table_markdown_writes_line_breaks_as_br():
    # CommonMark shows a backslash before a letter as itself, so a break
    # written as "\n" would read as "\n"; "<br>" reads as a break.
    code, out, _ = cli("table", SMART_CAMERA)
    assert code == 0
    assert [line for line in out.split("\n")
            if line.startswith("| Intended purpose |")] == [
        "| Intended purpose | Shoot a picture automatically when all the"
        " people posing in front of<br>the camera are smiling. Smile"
        " detection runs on the camera itself and<br>triggers the shutter;"
        " the feature is aimed at group photos in<br>entertainment and"
        " leisure contexts only. |"]


def test_table_with_risk():
    code, out, _ = cli("table", SMART_CAMERA, "--with-risk")
    assert code == 0
    assert "| Risk level | Transparency |" in out


def test_table_html_with_diagram():
    code, out, _ = cli("table", SMART_CAMERA, "--format", "html",
                       "--with-risk", "--with-diagram")
    assert code == 0
    assert out.startswith("<!DOCTYPE html>")
    assert out.count("<svg") == 1


def test_table_with_diagram_writes_xml_1_0_text(tmp_path):
    # A UCDL string may hold a character that XML 1.0 forbids; the embedded
    # SVG writes it as U+FFFD.
    path = tmp_path / "camera.ucdl"
    text = (FIXTURES_DIR / "smart_camera.ucdl").read_text(encoding="utf-8")
    path.write_text(text.replace("Smart shooting", "Smart\x01shooting"),
                    encoding="utf-8")
    code, out, err = cli("table", str(path), "--format", "html",
                         "--with-diagram")
    assert (code, err) == (0, "")
    assert "Smart\ufffdshooting" in out


def test_table_diagram_requires_html():
    code, _, err = cli("table", SMART_CAMERA, "--with-diagram")
    assert code == 3
    assert "--format html" in err


# ---------------------------------------------------------------------------
# catalog


@pytest.fixture()
def built_catalog(tmp_path):
    out_file = tmp_path / "catalog.json"
    code, out, err = cli("catalog", "build", str(FIXTURES_DIR),
                         "--out", str(out_file))
    assert code == 0
    assert out == f"wrote 3 use case(s) to {out_file}\n"
    assert err.count("[risk.misuse_flag]") == 2
    return out_file


def test_catalog_build_strict_promotes_warnings(tmp_path):
    out_file = tmp_path / "catalog.json"
    code, _, _ = cli("catalog", "build", str(FIXTURES_DIR),
                     "--out", str(out_file), "--strict")
    assert code == 1
    assert out_file.exists()


def test_catalog_build_requires_directory(tmp_path):
    code, _, err = cli("catalog", "build", SMART_CAMERA,
                       "--out", str(tmp_path / "c.json"))
    assert code == 3
    assert "not a directory" in err


def test_catalog_build_of_empty_directory_argument_is_usage_error(
        tmp_path, monkeypatch):
    # "" used to be Path(""), the working directory, which was built.
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "camera.ucdl").write_text(
        Path(SMART_CAMERA).read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.chdir(tmp_path / "inputs")
    code, out, err = cli("catalog", "build", "", "--out", "c.json")
    assert (code, out) == (3, "")
    assert "argument directory: empty path" in err
    assert not (tmp_path / "inputs" / "c.json").exists()


CATALOG_JSON = str(GOLDEN_DIR / "catalog.json")


@pytest.mark.parametrize("argv, name", [
    (["validate", ""], "path"),
    (["validate", SMART_CAMERA, ""], "path"),
    (["classify", ""], "path"),
    (["classify", SMART_CAMERA, "--taxonomy", ""], "--taxonomy"),
    (["render", "", "--out", "x.svg"], "path"),
    (["render", SMART_CAMERA, "--out", ""], "--out"),
    (["table", ""], "path"),
    (["table", SMART_CAMERA, "--with-risk", "--taxonomy", ""], "--taxonomy"),
    (["catalog", "build", "", "--out", "c.json"], "directory"),
    (["catalog", "build", str(FIXTURES_DIR), "--out", ""], "--out"),
    (["catalog", "build", str(FIXTURES_DIR), "--out", "c.json",
      "--taxonomy", ""], "--taxonomy"),
    (["catalog", "query", ""], "file"),
    (["catalog", "query", CATALOG_JSON, "--taxonomy", ""], "--taxonomy"),
    (["catalog", "stats", ""], "file"),
    (["catalog", "stats", CATALOG_JSON, "--taxonomy", ""], "--taxonomy"),
])
def test_every_empty_path_is_a_usage_error_naming_it(tmp_path, monkeypatch,
                                                      argv, name):
    # `classify --taxonomy ""` used to fall back to the built-in taxonomy
    # without a word, and `catalog build ""` to build the working directory.
    monkeypatch.chdir(tmp_path)
    code, out, err = cli(*argv)
    assert (code, out) == (3, "")
    assert err.endswith(f": error: argument {name}: empty path\n"), err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_catalog_build_with_parse_error(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "good.ucdl").write_text(ORPHANS_DOC, encoding="utf-8")
    (src_dir / "bad.ucdl").write_text(BROKEN_DOC, encoding="utf-8")
    out_file = tmp_path / "c.json"
    code, out, err = cli("catalog", "build", str(src_dir),
                         "--out", str(out_file))
    assert code == 2
    assert "bad.ucdl:" in err
    assert out == f"wrote 1 use case(s) to {out_file}\n"
    assert json.loads(out_file.read_bytes())["entries"][0]["id"] == "warn-1"


def test_catalog_stats_output(built_catalog):
    code, out, err = cli("catalog", "stats", str(built_catalog))
    assert code == 0
    assert err == ""
    assert out == (
        "total: 3\n"
        "by risk level:\n"
        "  Unacceptable: 0\n"
        "  High: 1\n"
        "  Transparency: 2\n"
        "  Minimal: 0\n"
        "by area:\n"
        "  other: 3\n"
        "by capability:\n"
        "  distraction_detection: 1\n"
        "  drowsiness_detection: 1\n"
        "  mood_inference: 1\n"
        "  personality_prediction: 1\n"
        "  smile_detection: 1\n")


def test_catalog_query_by_risk(built_catalog):
    code, out, err = cli("catalog", "query", str(built_catalog),
                         "--risk", "high")
    assert code == 0 and err == ""
    assert out == "driver-attention-monitoring\n"
    # Level names are case-insensitive.
    code, out, _ = cli("catalog", "query", str(built_catalog),
                       "--risk", "Transparency")
    assert code == 0
    assert out == "affective-music-recommender\nsmart-camera\n"


def test_catalog_query_filters(built_catalog):
    code, out, _ = cli("catalog", "query", str(built_catalog),
                       "--capability", "smile_detection")
    assert code == 0 and out == "smart-camera\n"
    code, out, _ = cli("catalog", "query", str(built_catalog),
                       "--area", "other")
    assert out.splitlines() == [
        "affective-music-recommender", "driver-attention-monitoring",
        "smart-camera"]
    code, out, _ = cli("catalog", "query", str(built_catalog),
                       "--risk", "minimal")
    assert code == 0 and out == ""


def test_catalog_query_bad_level_value(built_catalog):
    code, _, err = cli("catalog", "query", str(built_catalog),
                       "--risk", "extreme")
    assert code == 3
    assert "invalid choice" in err


def test_catalog_query_unknown_area(built_catalog):
    code, _, err = cli("catalog", "query", str(built_catalog),
                       "--area", "wizardry")
    assert code == 3
    assert "unknown application area" in err


def test_catalog_commands_reject_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    for data in (b'{"schema": "nope"}', b'{"schema": "\xe9"}'):
        bad.write_bytes(data)
        for sub in ("stats", "query"):
            code, _, err = cli("catalog", sub, str(bad))
            assert code == ExitStatus.PARSE_ERROR == 2
            assert err.startswith("ucdoc: error:")


def test_catalog_stats_rejects_non_string_risk_level(tmp_path):
    doc = json.loads((GOLDEN_DIR / "catalog.json").read_bytes())
    doc["entries"][0]["risk_level"] = 3
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = cli("catalog", "stats", str(bad))
    assert code == ExitStatus.PARSE_ERROR
    assert out == ""
    assert err.startswith("ucdoc: error:") and "risk_level" in err


def test_catalog_stats_rejects_non_string_id(tmp_path):
    doc = json.loads((GOLDEN_DIR / "catalog.json").read_bytes())
    doc["entries"][0]["id"] = 3
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = cli("catalog", "stats", str(bad))
    assert code == ExitStatus.PARSE_ERROR
    assert out == ""
    assert err.startswith("ucdoc: error:") and "entry 0: id: expected str, got int" in err


@pytest.mark.parametrize("name", list(BAD_GOLDEN_ENTRIES))
def test_catalog_stats_rejects_bad_entries(tmp_path, name):
    bad = tmp_path / "catalog.json"
    bad.write_text(mutated_golden_catalog(name), encoding="utf-8")
    code, out, err = cli("catalog", "stats", str(bad))
    assert code == ExitStatus.PARSE_ERROR
    assert out == ""
    assert err.startswith("ucdoc: error:")
    assert re.search(BAD_GOLDEN_ENTRIES[name][1], err)


def test_catalog_stats_rejects_deeply_nested_json(tmp_path):
    bad = tmp_path / "d.json"
    bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = cli("catalog", "stats", str(bad))
    assert code == ExitStatus.PARSE_ERROR
    assert out == ""
    assert err.startswith("ucdoc: error:") and "nested too deeply" in err


def test_catalog_build_skips_directory_named_like_a_source(tmp_path):
    src_dir = tmp_path / "cdir"
    (src_dir / "old.ucdl").mkdir(parents=True)
    (src_dir / "cam.ucdl").write_text(
        (FIXTURES_DIR / "smart_camera.ucdl").read_text(encoding="utf-8"),
        encoding="utf-8")
    out_file = tmp_path / "c.json"
    code, _, err = cli("catalog", "build", str(src_dir), "--out", str(out_file))
    assert code == ExitStatus.OK, err
    assert [e["source_path"] for e in json.loads(out_file.read_bytes())[
        "entries"]] == ["cam.ucdl"]


def test_catalog_stats_missing_file():
    code, _, err = cli("catalog", "stats", "/no/such/catalog.json")
    assert code == 3 and err.startswith("ucdoc: error:")


# ---------------------------------------------------------------------------
# one line format for every diagnostic

DIAGNOSTIC_LINE = re.compile(r"^\S+: (error|warning): \[[a-z0-9_.]+\] ")

# A parse error, a validation finding, a diagram warning (the orphan
# functions) and a misuse flag (the smart camera's documented misuse).
FINDING_INPUTS = {
    "parse.ucdl": 'usecase "T" { id: a }\n\u00b2',
    "broken.ucdl": BROKEN_DOC,
    "invalid.ucdl": ORPHANS_DOC.replace('  inputs: ["i"]\n', "").replace(
        "warn-1", "warn-2"),
    "orphans.ucdl": ORPHANS_DOC,
    "misuse.ucdl": Path(SMART_CAMERA).read_text(encoding="utf-8"),
}


@pytest.mark.parametrize(
    "command", ["validate", "classify", "render", "table", "catalog build"])
def test_every_diagnostic_line_has_one_format(tmp_path, command):
    src = tmp_path / "src"
    src.mkdir()
    for name, text in FINDING_INPUTS.items():
        (src / name).write_text(text, encoding="utf-8")
    out = ["--out", str(tmp_path / "out")]
    if command == "catalog build":
        runs = [["catalog", "build", str(src), *out]]
    else:
        extra = out if command == "render" else []
        runs = [[command, str(path), *extra] for path in sorted(src.iterdir())]
    lines = [line for argv in runs for line in cli(*argv)[2].splitlines()]
    assert lines
    for line in lines:
        assert DIAGNOSTIC_LINE.match(line), line


# ---------------------------------------------------------------------------
# import budget: each command imports only the modules it runs

SRC_DIR = Path(ucdoc.__file__).resolve().parents[1]

# No command needs these.  The first four are loaded by ``xml.sax.saxutils``
# through ``urllib.request``; ``dataclasses``, which loads ``inspect``, only
# by reading a record's ``__dataclass_fields__``.
_NEVER_LOADED = ("urllib.request", "http.client", "email", "ssl",
                 "dataclasses", "inspect", "html", "pkgutil")

_CORE = {"ucdoc", "ucdoc.cli", "ucdoc.lexer", "ucdoc.model", "ucdoc.parser"}


def package_env(env_vars: dict | None = None) -> dict[str, str]:
    """The environment with ``env_vars`` set and the package under test first
    on the path."""
    env = {**os.environ, **(env_vars or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def fresh_modules(code: str) -> tuple[set[str], list[str]]:
    """Run ``code`` in a new interpreter; its ucdoc modules and stray ones."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps([sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'ucdoc'),"
        f" [m for m in {_NEVER_LOADED!r} if m in sys.modules]]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          capture_output=True, text=True, check=True)
    ucdoc_modules, stray = json.loads(proc.stdout.splitlines()[-1])
    return set(ucdoc_modules), stray


@pytest.mark.parametrize("argv, extra", [
    (["validate", SMART_CAMERA], set()),
    (["classify", "--format", "json", SMART_CAMERA], {"risk"}),
    (["render", SMART_CAMERA, "--out", "{tmp}/camera.svg"], {"diagram"}),
    (["table", "--format", "html", "--with-risk", "--with-diagram",
      SMART_CAMERA], {"risk", "diagram", "docgen"}),
    (["catalog", "query", str(GOLDEN_DIR / "catalog.json"), "--risk", "high"],
     {"catalog", "risk"}),
    (["catalog", "stats", str(GOLDEN_DIR / "catalog.json")],
     {"catalog", "risk"}),
], ids=["validate", "classify", "render", "table", "catalog-query",
        "catalog-stats"])
def test_command_imports_only_what_it_runs(tmp_path, argv, extra):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    modules, stray = fresh_modules(
        "import io\nfrom ucdoc import cli\n"
        f"code = cli.run({argv!r}, stdout=io.StringIO(), stderr=io.StringIO())\n"
        "assert code == 0, code")
    assert modules == _CORE | {f"ucdoc.{m}" for m in extra}
    assert stray == []


def test_main_freezes_the_collector_and_run_does_not():
    # main() freezes what the run left before the process exits, so that
    # the collections at exit skip it; run(), which in-process callers use,
    # leaves the collector as it was.
    code = ("import atexit, gc, sys\nfrom ucdoc.cli import main\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['ucdoc', 'validate', {SMART_CAMERA!r}]\nmain()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "True")
    assert gc.get_freeze_count() == 0
    assert cli("validate", SMART_CAMERA)[0] == ExitStatus.OK
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv", [
    ["validate", SMART_CAMERA],
    ["classify", SMART_CAMERA],
    ["render", SMART_CAMERA, "--out", "{tmp}/camera.svg"],
    ["table", "--format", "html", "--with-risk", "--with-diagram",
     SMART_CAMERA],
], ids=["validate", "classify-text", "render", "table"])
def test_command_without_json_output_does_not_import_json(tmp_path, argv):
    # ``import json`` costs milliseconds of start-up; only the commands that
    # read or write JSON pay them.  This probe, unlike fresh_modules, reads
    # sys.modules before any ``import json`` of its own.
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    probe = ("import io, sys\nfrom ucdoc import cli\n"
             f"code = cli.run({argv!r}, stdout=io.StringIO(),"
             " stderr=io.StringIO())\n"
             "print(code, 'json' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "False"]


def test_reading_a_catalogue_never_generates_the_writer():
    # The export's writer is generated on the first export; loading, querying
    # and summing up a catalogue do without it.  The export at the end shows
    # that the probe sees the writer once it exists.
    golden = str(GOLDEN_DIR / "catalog.json")
    probe = (
        "import io\nfrom ucdoc import builtin_taxonomy, catalog, cli\n"
        "from ucdoc.model import _writer\n"
        f"cat = catalog.load_catalog_json(open({golden!r}, 'rb').read(),"
        " builtin_taxonomy())\n"
        "catalog.query(cat, catalog.Query(risk_level=catalog.RiskLevel.HIGH))\n"
        "catalog.stats(cat)\n"
        f"for argv in (['catalog', 'query', {golden!r}, '--risk', 'high'],"
        f" ['catalog', 'stats', {golden!r}]):\n"
        "    code = cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())\n"
        "    assert code == 0, code\n"
        "print(_writer.cache_info().currsize)\n"
        "catalog.export_json(cat)\n"
        "print(_writer.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "1"]


def test_import_ucdoc_loads_no_submodule():
    assert fresh_modules("import ucdoc") == ({"ucdoc"}, [])


def test_lazy_package_namespace():
    for name in ucdoc.__all__:
        assert getattr(ucdoc, name) is not None, name
    assert ucdoc.TaxonomyError is ucdoc.risk.TaxonomyError
    assert ucdoc.CatalogFormatError is ucdoc.catalog.CatalogFormatError
    assert ucdoc.QueryError is ucdoc.catalog.QueryError
    assert ucdoc.serialize_canonical is ucdoc.parser.serialize_canonical
    assert set(ucdoc.__all__) <= set(dir(ucdoc))
    assert ucdoc.__version__ == "0.1.0"
    namespace: dict = {}
    exec("from ucdoc import *", namespace)
    assert set(ucdoc.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        ucdoc.no_such_name


# ---------------------------------------------------------------------------
# the console entry point


def console(*argv: str, env_vars: dict | None = None,
            **kwargs) -> subprocess.Popen:
    """``python -m ucdoc.cli`` in a new process, with the package on the path
    and ``env_vars`` set."""
    return subprocess.Popen([sys.executable, "-m", "ucdoc.cli", *argv],
                            env=package_env(env_vars), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("marks", [0, 1, 2], ids=[
    "plain", "byte-order-mark", "two-byte-order-marks"])
def test_console_reads_stdin_for_dash(tmp_path, marks):
    # Standard input loses one byte-order mark, as a path does; a second
    # one is an invalid character at 1:1 either way.
    data = b"\xef\xbb\xbf" * marks + Path(SMART_CAMERA).read_bytes()
    path = tmp_path / "camera.ucdl"
    path.write_bytes(data)
    path_out, path_err = console("validate", str(path)).communicate(timeout=60)
    proc = console("validate", "-", stdin=subprocess.PIPE)
    out, err = proc.communicate(data, timeout=60)
    assert (out, err) == (
        path_out, path_err.replace(f"{path}:".encode(), b"<stdin>:"))
    assert proc.returncode == (2 if marks == 2 else 0)
    if marks < 2:
        assert err == b""
        assert out == b"1 file(s), 1 use case(s), 0 error(s), 0 warning(s)\n"
    else:
        assert err.startswith(b"<stdin>:1:1: error: [lex.invalid_char]")


def test_stdin_given_twice_is_a_usage_error():
    # `validate - -` counted the use cases on stdin twice through run() and
    # once in a process, where the second read finds the stream exhausted.
    text = Path(SMART_CAMERA).read_text(encoding="utf-8")
    code, out, err = cli("validate", "-", SMART_CAMERA, "-", stdin=text)
    assert (code, out) == (3, "")
    assert err == "ucdoc: error: argument path: - (stdin) given more than once\n"
    proc = console("validate", "-", "-", stdin=subprocess.PIPE)
    out, err = proc.communicate(Path(SMART_CAMERA).read_bytes(), timeout=60)
    assert (proc.returncode, out) == (3, b"")
    assert b"argument path: - (stdin) given more than once" in err


def test_dash_without_stdin_is_a_usage_error():
    assert cli("validate", "-") == (3, "", "ucdoc: error: no data on stdin\n")


def test_console_rejects_a_lone_surrogate_without_a_traceback(tmp_path):
    # A new process encodes its stdout, so a lone surrogate that reached the
    # output would end in a UnicodeEncodeError traceback.
    bad = tmp_path / "catalog.json"
    bad.write_text(mutated_golden_catalog("lone-surrogate"), encoding="utf-8")
    proc = console("catalog", "stats", str(bad))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == ExitStatus.PARSE_ERROR
    assert out == b"" and b"Traceback" not in err
    assert b"entry 0: affective_capabilities[0]: " in err


def test_console_without_dash_leaves_stdin_alone():
    # stdin stays open, as at a terminal; reading it would block.
    proc = console("validate", SMART_CAMERA, stdin=subprocess.PIPE)
    try:
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_dash_reads_as_the_file_does(tmp_path, newline):
    # Standard input is read by file_text's rule, universal newlines and
    # the byte-order mark included: a lone CR used to leave the leading
    # comment open to the end of the input, and a CR LF kept its CR in
    # triple-quoted prose. Bytes, and a text or binary stream, passed to
    # run are read by the same rule as a text (bytes used to raise
    # AttributeError); main passes the binary stream.
    for fixture in sorted(FIXTURES_DIR.glob("*.ucdl")):
        text = "\ufeff# comment\n" + fixture.read_text(encoding="utf-8")
        data = text.replace("\n", newline).encode()
        path = tmp_path / fixture.name
        path.write_bytes(data)
        for command in ("validate", "table"):
            code, out, err = cli(command, str(path))
            assert (code, err) == (0, "")
            assert cli(command, "-", stdin=data.decode()) == (code, out, err)
            assert cli(command, "-", stdin=data) == (code, out, err)
            stream = io.StringIO(data.decode())
            assert cli(command, "-", stdin=stream) == (code, out, err)
            assert cli(command, "-", stdin=io.BytesIO(data)) == (code, out, err)
            proc = console(command, "-", stdin=subprocess.PIPE)
            assert proc.communicate(data, timeout=60) == (out.encode(), b"")
            assert proc.returncode == code
        assert cli("validate", str(path))[1] == (
            "1 file(s), 1 use case(s), 0 error(s), 0 warning(s)\n")


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # The iteration order of a set of strings follows PYTHONHASHSEED; the
    # files must not.
    runs = {"catalog.json": ("catalog", "build", str(FIXTURES_DIR), "--out"),
            "smart_camera.svg": ("render", SMART_CAMERA, "--out")}
    for seed in ("1", "2"):
        for name, argv in runs.items():
            proc = console(*argv, str(tmp_path / f"{seed}-{name}"),
                           env_vars={"PYTHONHASHSEED": seed})
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
    for name in runs:
        golden = (GOLDEN_DIR / name).read_bytes()
        assert (tmp_path / f"1-{name}").read_bytes() == golden
        assert (tmp_path / f"2-{name}").read_bytes() == golden
