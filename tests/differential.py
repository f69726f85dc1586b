"""Differential run: what two ucdoc trees do with the same inputs.

    python tests/differential.py A B [--corpus NAME] [--seed N] [--count N]

A side is a tree root (a directory holding ``src/ucdoc``) or a git revision
of the repository this script is in, unpacked with ``git archive REV | tar
-x`` into a temporary directory.  The inputs are written once, as UCDL
texts, by this script's own tree; ``--count`` of each corpus:

- ``make_use_case``: the canonical text of ``support.make_use_case`` values;
- ``token_mutations``: a fixture given 1 to 4 token edits by
  ``support.mutate`` from ``OPS`` and ``POOL``, as ``test_fuzz.py`` cuts
  them up.

Each side reads them in its own ``python`` process, with ``PYTHONPATH`` set
to its own ``src``, and runs each public stage on each input:
``parse_document``, as two stages, the use cases by ``repr`` and
``parse_diagnostics`` as code, message, span and path; ``lexer.lex``, each
token as ``[kind name, text, value, offset]`` read by index (so that
NamedTuple tokens read as plain tuples do), then the lexer's findings; on
each use case read, ``validate_use_case``, ``classify`` by ``repr`` and
``classify_json`` by ``assessment_to_dict`` (so a record that changes
shape but writes the same JSON differs in the first only),
``serialize_canonical``, ``render_svg`` of the laid-out diagram,
``render_textual`` and ``render_table_markdown``; and ``build_catalog`` on
the text, as three stages, ``export_json`` of the catalogue,
``load_catalog_json`` and ``build_diagnostics``.  ``load_catalog_json``
loads the exported document, its entries by ``repr``, and then each variant
with one top-level key of one entry left out, or set to ``0``.  An
exception is a result, and a stage whose public names a side lacks is
reported as missing.

For each stage the report gives the number of identical and of differing
inputs, and a diff of one differing input.  The exit status is 0 when no
stage differs, 1 when one does, and 2 when a side cannot be run.
Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPORA = ("make_use_case", "token_mutations")


class SideError(Exception):
    """A side that cannot be unpacked or run."""


# ---------------------------------------------------------------------------
# one side, in its own process


def _finding(d) -> list:
    return [d.code, d.message, repr(d.span), d.path]


def _each(run):
    """A stage run on each use case that ``parse_document`` read."""
    return lambda u, text, ucs: [_outcome(run, u, uc) for uc in ucs]


PARSE = ("parse_document", "parse_diagnostics")


def _parse(u, text: str) -> tuple[list, dict]:
    """The use cases read from ``text``, and the two parse stages' results."""
    try:
        ucs, diags = u.parse_document(text)
    except Exception as exc:
        return [], dict.fromkeys(PARSE, _raised(exc))
    return ucs, {"parse_document": [repr(uc) for uc in ucs],
                 "parse_diagnostics": [_finding(d) for d in diags]}


def _lexed(tokens, findings) -> list:
    """The ``lex`` stage's result: each token, then each finding."""
    return ([[t[0].name, t[1], t[2], t[3]] for t in tokens]
            + [_finding(d) for d in findings])


@lru_cache(maxsize=1)
def _built(u, text: str) -> tuple:
    """``build_catalog`` of one input text, which two stages read."""
    return u.build_catalog([("input.ucdl", text)], u.builtin_taxonomy())


def _loads(u, text: str) -> list:
    """The ``load_catalog_json`` stage: the outcome of loading the exported
    document, then of each variant of one entry key."""
    doc = json.loads(u.export_json(_built(u, text)[0]))
    tax, docs = u.builtin_taxonomy(), [doc]
    for i, entry in enumerate(doc["entries"]):
        for key in entry:
            for changed in ({k: v for k, v in entry.items() if k != key},
                            {**entry, key: 0}):
                entries = list(doc["entries"])
                entries[i] = changed
                docs.append({**doc, "entries": entries})
    return [_outcome(lambda d: [repr(e) for e in u.load_catalog_json(
        json.dumps(d), tax).entries], d) for d in docs]


# After the parse stages, which every stage needs: the name of each stage,
# the public ``ucdoc`` names it calls, and its run on one input text and the
# use cases read from it.
STAGES = (
    ("lex", ("lexer",), lambda u, text, ucs: _lexed(*u.lexer.lex(text))),
    ("validate_use_case", ("validate_use_case",),
     _each(lambda u, uc: [_finding(d) for d in u.validate_use_case(uc)])),
    ("classify", ("classify", "builtin_taxonomy"),
     _each(lambda u, uc: repr(u.classify(uc, u.builtin_taxonomy())))),
    ("classify_json", ("classify", "builtin_taxonomy", "assessment_to_dict"),
     _each(lambda u, uc: u.assessment_to_dict(
         u.classify(uc, u.builtin_taxonomy())))),
    ("serialize_canonical", ("serialize_canonical",),
     _each(lambda u, uc: u.serialize_canonical(uc))),
    ("render_svg", ("render_svg", "layout", "build_diagram"),
     _each(lambda u, uc: u.render_svg(u.layout(u.build_diagram(uc))))),
    ("render_textual", ("render_textual", "build_diagram"),
     _each(lambda u, uc: u.render_textual(u.build_diagram(uc)))),
    ("render_table_markdown", ("render_table_markdown",),
     _each(lambda u, uc: u.render_table_markdown(uc))),
    ("export_json", ("export_json", "build_catalog", "builtin_taxonomy"),
     lambda u, text, ucs: u.export_json(_built(u, text)[0])),
    ("load_catalog_json", ("load_catalog_json", "export_json", "build_catalog",
                           "builtin_taxonomy"),
     lambda u, text, ucs: _loads(u, text)),
    ("build_diagnostics", ("build_catalog", "builtin_taxonomy"),
     lambda u, text, ucs: [_finding(d) + [d.file]
                           for d in _built(u, text)[1]]),
)
NAMES = (*PARSE, *(name for name, _, _ in STAGES))


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _outcome(run, *args):
    """What ``run(*args)`` returns, or the exception it raises, as JSON."""
    try:
        value = run(*args)
    except Exception as exc:
        return _raised(exc)
    return value.decode("utf-8", "backslashreplace") if isinstance(
        value, bytes) else value


def _has(u, name: str) -> bool:
    try:
        getattr(u, name)
    except (AttributeError, ImportError):   # ImportError: of a submodule
        return False
    return True


def run_side(inputs: Path, only: int | None) -> dict:
    """Every stage's result on every input, as a digest; with ``only``, the
    full results on that one input."""
    import ucdoc as u
    data = inputs.read_bytes()
    items = json.loads(data)
    parses = _has(u, "parse_document")
    stages = [(name, run) for name, needs, run in STAGES
              if parses and all(_has(u, n) for n in needs)]
    rows = []
    for _, text in items if only is None else [items[only]]:
        ucs, row = _parse(u, text) if parses else ([], {})
        row.update((name, _outcome(run, u, text, ucs)) for name, run in stages)
        rows.append(row if only is not None else {
            name: hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]
            for name, value in row.items()})
    return {"ucdoc": u.__file__, "inputs": hashlib.sha256(data).hexdigest(),
            "stages": [*PARSE] * parses + [n for n, _ in stages],
            "rows": rows}


# ---------------------------------------------------------------------------
# the driver


def write_inputs(path: Path, corpus: str, seed: int, count: int) -> None:
    """``[corpus, text]`` per input, from this script's tree; each corpus
    has its own seeded generator, so that it reads the same alone."""
    for entry in (str(ROOT / "tests"), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from support import OPS, POOL, make_use_case, mutate, split_tokens
    from ucdoc import serialize_canonical
    items = []
    if corpus in ("all", "make_use_case"):
        rng = random.Random(f"{seed}:make_use_case")
        items += [["make_use_case", serialize_canonical(make_use_case(rng))]
                  for _ in range(count)]
    if corpus in ("all", "token_mutations"):
        rng = random.Random(f"{seed}:token_mutations")
        fixtures = [split_tokens(p.read_text(encoding="utf-8"))
                    for p in sorted((ROOT / "fixtures").glob("*.ucdl"))]
        for _ in range(count):
            edits = [(rng.choice(OPS), rng.randrange(10_001), rng.choice(POOL))
                     for _ in range(rng.randint(1, 4))]
            items.append(["token_mutations", mutate(rng.choice(fixtures), edits)])
    path.write_text(json.dumps(items), encoding="ascii")


def unpack(spec: str, scratch: Path) -> Path:
    """The tree root of a side: ``spec`` itself, or the revision ``spec``
    unpacked into ``scratch``."""
    if (Path(spec) / "src" / "ucdoc").is_dir():
        return Path(spec).resolve()
    git = ["git", "-C", str(ROOT)]
    try:
        rev = subprocess.run(
            [*git, "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
            capture_output=True, text=True)
        if rev.returncode != 0:
            raise SideError(f"{spec}: neither a tree holding src/ucdoc "
                            "nor a git revision")
        scratch.mkdir()
        with subprocess.Popen([*git, "archive", rev.stdout.strip()],
                              stdout=subprocess.PIPE) as archive:
            tar = subprocess.run(["tar", "-x", "-C", str(scratch)],
                                 stdin=archive.stdout)
    except OSError as exc:     # no git or no tar
        raise SideError(f"{spec}: {exc}") from exc
    if archive.returncode != 0 or tar.returncode != 0:
        raise SideError(f"{spec}: git archive | tar -x failed")
    return scratch


def run_process(tree: Path, inputs: Path, only: int | None = None) -> dict:
    """:func:`run_side` in a new process, with ``tree``'s ``src`` on the
    path."""
    argv = [sys.executable, __file__, "--side", str(inputs)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(argv + ([str(only)] if only is not None else []),
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SideError(f"{tree}: the side failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["ucdoc"]).is_relative_to(tree / "src"):
        raise SideError(f"{tree}: imported ucdoc from {result['ucdoc']}")
    return result


def _lines(value) -> list[str]:
    """A result as lines to diff: a text by its lines, a list by its items."""
    if isinstance(value, list):
        return [f"[{i}] {line}" for i, item in enumerate(value)
                for line in _lines(item)]
    return str(value).splitlines() or [""]


def example(trees, inputs: Path, i: int, stage: str, corpus: str) -> str:
    """A unified diff of one stage's results on input ``i``."""
    a, b = (_lines(run_process(tree, inputs, i)["rows"][0][stage])
            for tree in trees)
    diff = list(difflib.unified_diff(a, b, "A", "B", n=1, lineterm=""))
    cut = diff[:24] + ([f"… {len(diff) - 24} more diff lines"]
                       if len(diff) > 24 else [])
    return "\n".join([f"  example: input {i} ({corpus})"]
                     + [f"    {line}" for line in cut])


def compare(specs, corpus: str, seed: int, count: int) -> int:
    with tempfile.TemporaryDirectory(prefix="ucdoc-differential-") as tmp:
        inputs = Path(tmp, "inputs.json")
        write_inputs(inputs, corpus, seed, count)
        items = json.loads(inputs.read_text(encoding="ascii"))
        trees = [unpack(spec, Path(tmp, side))
                 for spec, side in zip(specs, "AB")]
        results = [run_process(tree, inputs) for tree in trees]
        digest = hashlib.sha256(inputs.read_bytes()).hexdigest()
        if any(r["inputs"] != digest for r in results):
            raise SideError("the sides read different inputs")
        sizes = {c: sum(item[0] == c for item in items) for c in CORPORA}
        print(f"A: {specs[0]} ({trees[0]})\nB: {specs[1]} ({trees[1]})")
        print("inputs: " + ", ".join(f"{n} {c}" for c, n in sizes.items() if n)
              + f"; seed {seed}; sha256 {digest[:16]}")
        print(f"{'stage':<24}{'identical':>12}{'differing':>12}")
        differing = 0
        for stage in NAMES:
            lacking = [side for side, r in zip("AB", results)
                       if stage not in r["stages"]]
            if lacking:
                print(f"{stage:<24}  missing on {' and '.join(lacking)}")
                differing += 1
                continue
            diff = [i for i, (a, b) in enumerate(zip(results[0]["rows"],
                                                     results[1]["rows"]))
                    if a[stage] != b[stage]]
            print(f"{stage:<24}{len(items) - len(diff):>12}{len(diff):>12}")
            if diff:
                differing += 1
                print(example(trees, inputs, diff[0], stage, items[diff[0]][0]))
        print(f"{differing} of {len(NAMES)} stages differ")
        return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--side"]:     # one side, run by run_process
        only = int(argv[2]) if len(argv) > 2 else None
        print(json.dumps(run_side(Path(argv[1]), only)))
        return 0
    parser = argparse.ArgumentParser(
        prog="differential.py", description=__doc__.split("\n")[0])
    parser.add_argument("a", metavar="A", help="tree root or git revision")
    parser.add_argument("b", metavar="B", help="tree root or git revision")
    parser.add_argument("--corpus", choices=("all", *CORPORA), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=1000,
                        help="inputs per corpus (default 1000)")
    args = parser.parse_args(argv)
    try:
        return compare((args.a, args.b), args.corpus, args.seed, args.count)
    except SideError as exc:
        print(f"differential.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
