"""A/B timing of whole ``ucdoc`` commands: two trees, the same inputs.

    python tests/ab.py A B [--rounds N]

A side is a tree root or a git revision, unpacked as ``differential.py``
unpacks it.  The inputs are made once, by this script's own tree: a copy of
``fixtures/smart_camera.ucdl`` and a catalogue that ``ucdoc catalog build``
writes from ``fixtures/``.  The six commands are
those of the benchmark's ``cli`` workload: ``validate``, ``classify
--format json``, ``render``, ``table --format html --with-risk
--with-diagram``, ``catalog query --risk high`` and ``catalog stats``.

Each round runs every command once per side, each run a fresh ``python -m
ucdoc.cli`` process with ``PYTHONPATH`` set to the side's ``src``; the side
that goes first alternates from round to round.  The wall time of a run is
taken around the process, start-up included.  Per command the report gives
each side's median and minimum in ms, the ratio B/A of the medians and the
rounds B was faster in; then the sums of the minimums and their ratio, the
figure the benchmark's ``cli`` ``ops_per_s`` follows.  A run that exits
non-zero stops the script with status 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from differential import ROOT, SideError, unpack

COMMANDS = (
    ("validate", ["validate", "{ucdl}"]),
    ("classify", ["classify", "{ucdl}", "--format", "json"]),
    ("render", ["render", "{ucdl}", "--out", "{tmp}/render.svg"]),
    ("table", ["table", "{ucdl}", "--format", "html", "--with-risk",
               "--with-diagram"]),
    ("query", ["catalog", "query", "{catalog}", "--risk", "high"]),
    ("stats", ["catalog", "stats", "{catalog}"]),
)


def run_ucdoc(tree: Path, argv: list[str], cwd: Path) -> float:
    """Runs ``ucdoc argv`` from ``tree``'s ``src``; its wall time in ms."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONUTF8="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ucdoc.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    ms = (time.perf_counter() - start) * 1000
    if proc.returncode != 0:
        raise SideError(f"{tree}: ucdoc {' '.join(argv)} exited "
                        f"{proc.returncode}:\n{proc.stderr}")
    return ms


def compare(specs, rounds: int) -> None:
    with tempfile.TemporaryDirectory(prefix="ucdoc-ab-") as tmp:
        work = Path(tmp, "work")
        work.mkdir()
        ucdl = work / "smart_camera.ucdl"
        ucdl.write_bytes((ROOT / "fixtures" / ucdl.name).read_bytes())
        catalog = work / "catalog.json"
        run_ucdoc(ROOT, ["catalog", "build", str(ROOT / "fixtures"),
                         "--out", str(catalog)], work)
        names = {"ucdl": str(ucdl), "catalog": str(catalog), "tmp": str(work)}
        trees = [unpack(spec, Path(tmp, side))
                 for spec, side in zip(specs, "AB")]
        times = {name: ([], []) for name, _ in COMMANDS}
        for r in range(rounds):
            for name, argv in COMMANDS:
                argv = [a.format(**names) for a in argv]
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    times[name][side].append(run_ucdoc(trees[side], argv, work))
        report(specs, trees, rounds, times)


def report(specs, trees, rounds: int, times: dict) -> None:
    print(f"A: {specs[0]} ({trees[0]})\nB: {specs[1]} ({trees[1]})")
    print(f"rounds: {rounds}; ms of wall time per run, start-up included; "
          f"Python {sys.version.split()[0]}")
    print(f"{'command':<10}{'A median':>10}{'A min':>9}{'B median':>10}"
          f"{'B min':>9}{'B/A':>7}{'B wins':>8}")
    for name, (a, b) in times.items():
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{name:<10}{statistics.median(a):>10.1f}{min(a):>9.1f}"
              f"{statistics.median(b):>10.1f}{min(b):>9.1f}"
              f"{statistics.median(b) / statistics.median(a):>7.3f}"
              f"{f'{wins}/{rounds}':>8}")
    sum_a, sum_b = (sum(min(t[side]) for t in times.values()) for side in (0, 1))
    print(f"sum of minimums: A {sum_a:.1f} ms, B {sum_b:.1f} ms, "
          f"B/A {sum_b / sum_a:.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("a", metavar="A", help="tree root or git revision")
    parser.add_argument("b", metavar="B", help="tree root or git revision")
    parser.add_argument("--rounds", type=int, default=10,
                        help="runs of each command per side (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        compare((args.a, args.b), args.rounds)
    except SideError as exc:
        print(f"ab.py: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
