"""The differential tool keeps working: a tree against itself reads no
difference on any stage, and a side that lacks a stage is reported."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import differential

ROOT = Path(__file__).resolve().parents[1]
STAGES = differential.NAMES


def stage_counts(out: str) -> dict[str, tuple[int, int]]:
    return {m[1]: (int(m[2]), int(m[3]))
            for m in re.finditer(r"^(\w+) +(\d+) +(\d+)$", out, re.M)}


def test_working_tree_against_itself_reads_no_difference(capsys, monkeypatch):
    # The run leaves the caller's path as it was, also without this tree on it.
    path = [p for p in sys.path
            if Path(p).resolve() not in (ROOT / "src", ROOT / "tests")]
    monkeypatch.setattr(sys, "path", list(path))
    assert differential.main([str(ROOT), str(ROOT), "--count", "10"]) == 0
    assert sys.path == path
    out = capsys.readouterr().out
    assert "inputs: 10 make_use_case, 10 token_mutations; seed 1;" in out
    assert stage_counts(out) == {stage: (20, 0) for stage in STAGES}
    assert out.endswith(f"0 of {len(STAGES)} stages differ\n")


def test_a_stage_a_side_lacks_is_reported(tmp_path, capsys):
    package = tmp_path / "src" / "ucdoc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def parse_document(text):\n    return [], []\n", encoding="utf-8")
    argv = [str(tmp_path), str(ROOT), "--corpus", "make_use_case",
            "--count", "2"]
    assert differential.main(argv) == 1
    out = capsys.readouterr().out
    assert stage_counts(out) == {"parse_document": (0, 2),
                                 "parse_diagnostics": (2, 0)}
    assert "example: input 0 (make_use_case)" in out
    for stage in STAGES[2:]:
        assert re.search(rf"^{stage} +missing on A$", out, re.M)


def test_a_side_that_is_neither_a_tree_nor_a_revision(tmp_path, capsys):
    argv = [str(tmp_path / "nothing"), str(ROOT), "--count", "1"]
    assert differential.main(argv) == 2
    assert "neither a tree holding src/ucdoc nor a git revision" in (
        capsys.readouterr().err)
