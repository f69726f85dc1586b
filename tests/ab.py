"""A/B timing of two ucdoc trees: whole commands, or stages in-process.

    python tests/ab.py A B [--rounds N] [--stages]

A side is a tree root or a git revision, unpacked as ``differential.py``
unpacks it.  The inputs are made once, by this script's own tree.

By default the script times whole commands: those of the benchmark's
``cli`` workload, ``validate``, ``classify --format json``, ``render``,
``table --format html --with-risk --with-diagram``, ``catalog query --risk
high`` and ``catalog stats``, on a copy of ``fixtures/smart_camera.ucdl``
and a catalogue that ``ucdoc catalog build`` writes from ``fixtures/``.
Each round runs every command once per side, each run a fresh ``python -m
ucdoc.cli`` process with ``PYTHONPATH`` set to the side's ``src``; the wall
time of a run is taken around the process, start-up included.

With ``--stages`` it times the pipeline's stages in-process, in µs per use
case, on the canonical texts of the first 400 ``bench/corpus.use_cases``
at seed 1, written by a child process of this tree.  Each round runs one
fresh process per side, which times each stage once over every input,
after one untimed pass: ``lex`` (also in MB/s), ``parse_document``,
``validate_use_case`` on freshly parsed use cases (it caches its result on
the instance), ``classify``, ``serialize_canonical``, ``diagram``
(``build_diagram``, ``layout`` and ``render_svg``),
``render_table_markdown``, ``build_catalog`` of 2 files a call, as in the
benchmark's ``build`` workload, ``export_json`` and ``load_catalog_json``.
A stage whose public names a side lacks is reported as missing there.

Either way the side that goes first alternates from round to round.  Per
command or stage the report gives each side's median and minimum, A's
interquartile range (``-`` below two rounds), the ratio B/A of the medians
and the rounds B was faster in.  Commands end with the sums of the
minimums and their ratio, the figure the benchmark's ``cli`` ``ops_per_s``
follows; stages with the lexer's median MB/s.  A run that fails stops the
script with status 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from differential import ROOT, SideError, _has, _python, unpack

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
    header(specs, trees, f"rounds: {rounds}; ms of wall time per run, "
                         "start-up included")
    table("command", rounds, times)
    sum_a, sum_b = (sum(min(t[side]) for t in times.values()) for side in (0, 1))
    print(f"sum of minimums: A {sum_a:.1f} ms, B {sum_b:.1f} ms, "
          f"B/A {sum_b / sum_a:.3f}")


# ---------------------------------------------------------------------------
# stages, each side in its own process

SEED, COUNT = 1, 400


def make_inputs(count: int) -> list[str]:
    """The canonical texts of the first ``count`` use cases of
    ``bench/corpus`` at ``SEED``."""
    import corpus
    from ucdoc import builtin_taxonomy, serialize_canonical
    return [serialize_canonical(uc) for uc in corpus.use_cases(
        random.Random(SEED), builtin_taxonomy(), count)]


def _parsed(u, texts: list[str]) -> list:
    return [uc for text in texts for uc in u.parse_document(text)[0]]


def _pairs(texts: list[str]) -> list:
    """The inputs as ``build_catalog`` sources, 2 files a call."""
    return [[(f"{i + j}.ucdl", text) for j, text in enumerate(texts[i:i + 2])]
            for i in range(0, len(texts), 2)]


def _catalogs(u, texts: list[str]) -> list:
    tax = u.builtin_taxonomy()
    return [u.build_catalog(pair, tax)[0] for pair in _pairs(texts)]


# Per stage: its name, the public ``ucdoc`` names it calls, what it is given
# (made untimed from the input texts, afresh for each pass) and its timed
# run over that.
STAGES = (
    ("lex", ("lexer",), lambda u, texts: texts,
     lambda u, texts: [u.lexer.lex(text) for text in texts]),
    ("parse_document", ("parse_document",), lambda u, texts: texts,
     lambda u, texts: [u.parse_document(text) for text in texts]),
    ("validate_use_case", ("parse_document", "validate_use_case"), _parsed,
     lambda u, ucs: [u.validate_use_case(uc) for uc in ucs]),
    ("classify", ("parse_document", "classify", "builtin_taxonomy"),
     lambda u, texts: (_parsed(u, texts), u.builtin_taxonomy()),
     lambda u, given: [u.classify(uc, given[1]) for uc in given[0]]),
    ("serialize_canonical", ("parse_document", "serialize_canonical"),
     _parsed, lambda u, ucs: [u.serialize_canonical(uc) for uc in ucs]),
    ("diagram", ("parse_document", "build_diagram", "layout", "render_svg"),
     _parsed,
     lambda u, ucs: [u.render_svg(u.layout(u.build_diagram(uc)))
                     for uc in ucs]),
    ("render_table_markdown", ("parse_document", "render_table_markdown"),
     _parsed, lambda u, ucs: [u.render_table_markdown(uc) for uc in ucs]),
    ("build_catalog", ("build_catalog", "builtin_taxonomy"),
     lambda u, texts: (_pairs(texts), u.builtin_taxonomy()),
     lambda u, given: [u.build_catalog(pair, given[1]) for pair in given[0]]),
    ("export_json", ("build_catalog", "builtin_taxonomy", "export_json"),
     _catalogs, lambda u, cats: [u.export_json(cat) for cat in cats]),
    ("load_catalog_json", ("build_catalog", "builtin_taxonomy", "export_json",
                           "load_catalog_json"),
     lambda u, texts: ([u.export_json(cat) for cat in _catalogs(u, texts)],
                       u.builtin_taxonomy()),
     lambda u, given: [u.load_catalog_json(doc, given[1])
                       for doc in given[0]]),
)


def time_stages(inputs: Path) -> dict:
    """µs per use case of each stage this side has, and the lexer's MB/s."""
    import ucdoc as u
    texts = json.loads(inputs.read_text(encoding="utf-8"))
    us = {}
    for name, needs, given, run in STAGES:
        if not all(_has(u, n) for n in needs):
            continue
        run(u, given(u, texts))     # the untimed pass: caches, compiles
        data = given(u, texts)
        gc.collect()
        start = time.perf_counter()
        run(u, data)
        us[name] = (time.perf_counter() - start) * 1e6 / len(texts)
    size = sum(len(text.encode("utf-8")) for text in texts)
    mb_s = size / (us["lex"] * len(texts)) if "lex" in us else None
    return {"ucdoc": u.__file__, "us": us, "mb_s": mb_s}


def run_stages(tree: Path, inputs: Path) -> dict:
    """:func:`time_stages` in a new process, with ``tree``'s ``src`` on the
    path."""
    result = json.loads(_python(["--side", str(inputs)], [tree / "src"],
                                f"{tree}: the stages", script=__file__))
    if not Path(result["ucdoc"]).is_relative_to(tree / "src"):
        raise SideError(f"{tree}: imported ucdoc from {result['ucdoc']}")
    return result


def compare_stages(specs, rounds: int) -> None:
    with tempfile.TemporaryDirectory(prefix="ucdoc-ab-") as tmp:
        inputs = Path(tmp, "inputs.json")
        inputs.write_text(_python(["--inputs", str(COUNT)],
                                  [ROOT / "src", ROOT / "bench"],
                                  "writing the inputs", script=__file__),
                          encoding="utf-8")
        trees = [unpack(spec, Path(tmp, side))
                 for spec, side in zip(specs, "AB")]
        times = {name: ([], []) for name, *_ in STAGES}
        mb_s = ([], [])
        for r in range(rounds):
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                result = run_stages(trees[side], inputs)
                for name, us in result["us"].items():
                    times[name][side].append(us)
                if result["mb_s"] is not None:
                    mb_s[side].append(result["mb_s"])
    header(specs, trees, f"rounds: {rounds}; µs per use case over {COUNT} "
                         f"bench/corpus use cases at seed {SEED}")
    table("stage", rounds, times)
    if all(mb_s):
        print(f"lex MB/s: A median {statistics.median(mb_s[0]):.2f}, "
              f"B median {statistics.median(mb_s[1]):.2f}")


# ---------------------------------------------------------------------------
# the report


def iqr(times: list[float]) -> str:
    """The interquartile range of ``times``, or ``-`` below two times, which
    ``statistics.quantiles`` needs before Python 3.13."""
    if len(times) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(times, n=4)
    return f"{q3 - q1:.1f}"


def header(specs, trees, unit: str) -> None:
    print(f"A: {specs[0]} ({trees[0]})\nB: {specs[1]} ({trees[1]})")
    print(f"{unit}; Python {sys.version.split()[0]}")


def table(label: str, rounds: int, times: dict) -> None:
    """One row per command or stage; one that a side lacks, with no times
    there, reads as missing on that side."""
    width = max(map(len, [label, *times])) + 2
    print(f"{label:<{width}}{'A median':>10}{'A IQR':>8}{'A min':>9}"
          f"{'B median':>10}{'B min':>9}{'B/A':>7}{'B wins':>8}")
    for name, (a, b) in times.items():
        lacking = [side for side, t in zip("AB", (a, b)) if not t]
        if lacking:
            print(f"{name:<{width}}missing on {' and '.join(lacking)}")
            continue
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{name:<{width}}{statistics.median(a):>10.1f}{iqr(a):>8}"
              f"{min(a):>9.1f}{statistics.median(b):>10.1f}{min(b):>9.1f}"
              f"{statistics.median(b) / statistics.median(a):>7.3f}"
              f"{f'{wins}/{rounds}':>8}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--side"]:     # one side's stages, run by run_stages
        print(json.dumps(time_stages(Path(argv[1]))))
        return 0
    if argv[:1] == ["--inputs"]:   # the stages' inputs, for compare_stages
        print(json.dumps(make_inputs(int(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(
        prog="ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("a", metavar="A", help="tree root or git revision")
    parser.add_argument("b", metavar="B", help="tree root or git revision")
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds, each running every command or stage once "
                        "per side (default 10)")
    parser.add_argument("--stages", action="store_true",
                        help="time the stages in-process, not the commands")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        (compare_stages if args.stages else compare)(
            (args.a, args.b), args.rounds)
    except SideError as exc:
        print(f"ab.py: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
