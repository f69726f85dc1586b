"""The A/B command timer keeps working: it runs every command on both sides
and reports each, and a side whose command fails stops it."""

from __future__ import annotations

import re
from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parents[1]


def test_working_tree_against_itself_times_every_command(capsys):
    assert ab.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    rows = re.findall(r"^(\w+) +[\d.]+ +[\d.]+ +[\d.]+ +[\d.]+ +[\d.]+ +[01]/1$",
                      out, re.M)
    assert rows == [name for name, _ in ab.COMMANDS]
    assert re.search(r"^sum of minimums: A [\d.]+ ms, B [\d.]+ ms, B/A [\d.]+$",
                     out, re.M)


def test_a_command_that_fails_on_a_side_stops_the_run(tmp_path, capsys):
    package = tmp_path / "src" / "ucdoc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text("raise SystemExit(3)\n", encoding="utf-8")
    assert ab.main([str(ROOT), str(tmp_path), "--rounds", "1"]) == 2
    assert "ucdoc validate" in capsys.readouterr().err
