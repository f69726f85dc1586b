"""The A/B timer keeps working: it runs every command, or every stage, on
both sides and reports each; a side whose command fails stops it, and a
stage that a side lacks reads as missing."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parents[1]


def test_working_tree_against_itself_times_every_command(capsys):
    assert ab.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    rows = re.findall(
        r"^(\w+) +[\d.]+ +- +[\d.]+ +[\d.]+ +[\d.]+ +[\d.]+ +[01]/1$", out, re.M)
    assert rows == [name for name, _ in ab.COMMANDS]
    assert re.search(r"^sum of minimums: A [\d.]+ ms, B [\d.]+ ms, B/A [\d.]+$",
                     out, re.M)
    # One round has no interquartile range; quantiles of 1..4 span 2.5.
    assert (ab.iqr([1.0]), ab.iqr([4.0, 1.0, 3.0, 2.0])) == ("-", "2.5")


def test_a_command_that_fails_on_a_side_stops_the_run(tmp_path, capsys):
    package = tmp_path / "src" / "ucdoc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text("raise SystemExit(3)\n", encoding="utf-8")
    assert ab.main([str(ROOT), str(tmp_path), "--rounds", "1"]) == 2
    assert "ucdoc validate" in capsys.readouterr().err


def stage_rows(out: str) -> list[str]:
    return re.findall(r"^(\w+) +(?:[\d.]+ +- +[\d.]+ +[\d.]+ +[\d.]+ +[\d.]+ "
                      r"+[01]/1|missing on [AB])$", out, re.M)


def test_stages_of_the_working_tree_against_itself(monkeypatch, capsys):
    monkeypatch.setattr(ab, "COUNT", 6)     # the inputs' child reads COUNT
    assert ab.main([str(ROOT), str(ROOT), "--rounds", "1", "--stages"]) == 0
    out = capsys.readouterr().out
    assert stage_rows(out) == [name for name, *_ in ab.STAGES]
    assert "missing" not in out
    assert re.search(r"^lex MB/s: A median [\d.]+, B median [\d.]+$", out, re.M)


def test_a_stage_that_a_side_lacks_reads_as_missing(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(ab, "COUNT", 6)
    package = tmp_path / "src" / "ucdoc"
    shutil.copytree(ROOT / "src" / "ucdoc", package)
    with open(package / "__init__.py", "a", encoding="utf-8") as f:
        f.write('_HOME.pop("render_table_markdown")\n')
    assert ab.main([str(ROOT), str(tmp_path), "--rounds", "1", "--stages"]) == 0
    out = capsys.readouterr().out
    assert stage_rows(out) == [name for name, *_ in ab.STAGES]
    assert re.search(r"^render_table_markdown +missing on B$", out, re.M)
