"""The demos run end to end and write the golden outputs byte for byte."""

from __future__ import annotations

import shutil
import subprocess
import sys

from conftest import FIXTURE_NAMES, FIXTURES_DIR, GOLDEN_DIR, TESTS_DIR
from test_cli import package_env

DEMOS_DIR = TESTS_DIR.parent / "demos"


def test_demos_write_the_golden_outputs(tmp_path):
    # Each demo reads fixtures/ beside its own directory and writes to
    # demos/out/, so both are copied; a package the tests import is the one
    # the demos import.
    shutil.copytree(DEMOS_DIR, tmp_path / "demos",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(FIXTURES_DIR, tmp_path / "fixtures")
    demos = sorted((tmp_path / "demos").glob("0*.py"))
    assert [d.name for d in demos] == sorted(p.name for p in
                                             DEMOS_DIR.glob("0*.py"))
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=package_env(),
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
    # The demos name their files by use-case id, with "-" where the golden
    # names have "_".
    out = tmp_path / "demos" / "out"
    pairs = [("catalog.json", "catalog.json"),
             ("smart-camera.puml", "smart_camera.puml"),
             *((f"{name.replace('_', '-')}.svg", f"{name}.svg")
               for name in FIXTURE_NAMES)]
    for written, golden in pairs:
        data = (out / written).read_bytes()
        assert data == (GOLDEN_DIR / golden).read_bytes(), (
            f"demos/out/{written} differs from tests/golden/{golden}")
