"""Fuzzed properties of the UCDL front end.

The three fixtures and the built-in taxonomy are cut up at the token level
(a token dropped, repeated, swapped with its neighbour or replaced by one of
``POOL``) and read again.  Whatever comes out must be diagnostics, never an
exception: ``parse_document`` returns, every error span lies inside the
source, and ``load_taxonomy`` raises nothing but ``TaxonomyError``.  The
lexer findings of ``parse_document`` are those of ``lex``, in source order.
Every single-token drop or repeat of a fixture gives at most 2 findings.  On
each cut-up fixture ``ucdoc validate`` exits 2 exactly when it has parse
errors, else 1 exactly when a use case in it fails validation, and
``ucdoc catalog build`` exits 2 exactly when it has parse errors.  The
golden catalogue is edited as JSON (a value of another type, a key dropped
or added, deep nesting, a lone surrogate), and ``load_catalog_json`` raises
nothing but ``CatalogFormatError``; what it loads exports, and the export
loads back to the same bytes.  The catalogue's JSON writer matches
``json.dumps`` over the hand-built data of ``reference_json`` byte for byte,
on any text and on one example of each shape it inlines, and so do
``use_case_to_dict`` and ``assessment_to_dict``.  ``cli.run`` over
generated argv ends in an exit status from 0 to 3, and in 3 when a path is
empty.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import shutil
import tempfile
from importlib import resources
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_json
from conftest import FIXTURE_NAMES, FIXTURES_DIR, GOLDEN_DIR, fixture_text
from support import OPS, POOL, line_starts, make_use_case, mutate, split_tokens
from test_model import base_use_case
from test_risk import random_risk_uc
from ucdoc import (
    CatalogFormatError, TaxonomyError, build_catalog, builtin_taxonomy,
    classify, export_json, load_catalog_json, load_taxonomy, parse_document,
    serialize_canonical,
)
from ucdoc.catalog import SCHEMA, Catalog, CatalogEntry
from ucdoc.cli import run
from ucdoc.lexer import lex
from ucdoc.model import (
    GENERATED_FIELDS, ActorKind, ActorRole, ApplicationAreaRef, Extension,
    GoalLevel, Misuse, RiskLevel, SystemFunction, _writer, use_case_to_dict,
    validate_use_case,
)
from ucdoc.risk import (
    AreaMatch, MisuseFlag, RiskAssessment, Tier, assessment_to_dict,
)

EDITS = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10_000),
                           st.sampled_from(POOL)), min_size=1, max_size=4)


def span_inside(source: str, span) -> bool:
    """The span starts on one of the source's lines, at most one column
    past its end, and ends within the source."""
    starts = line_starts(source)
    if not (1 <= span.line <= len(starts) and span.column >= 1):
        return False
    offset = starts[span.line - 1] + span.column - 1
    line_end = source.find("\n", starts[span.line - 1])
    return (offset <= (len(source) if line_end < 0 else line_end)
            and offset + span.length <= len(source))


FIXTURE_PARTS = {name: split_tokens(fixture_text(name)) for name in FIXTURE_NAMES}
TAXONOMY_FILE = resources.files("ucdoc") / "data" / "aiact_taxonomy.ucdl"
TAXONOMY_PARTS = split_tokens(TAXONOMY_FILE.read_text(encoding="utf-8"))


def test_split_tokens_round_trips():
    for name, parts in FIXTURE_PARTS.items():
        assert "".join(parts) == fixture_text(name)
        assert mutate(parts, []) == fixture_text(name)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), EDITS)
def test_parse_never_raises_and_spans_lie_inside(name, edits):
    source = mutate(FIXTURE_PARTS[name], edits)
    _, errors = parse_document(source)
    for e in errors:
        assert span_inside(source, e.span), e.render()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), EDITS)
@example("smart_camera", [("replace", 40, "\udcff")])     # not UTF-8
@example("smart_camera", [("replace", 40, '"a\\q')])    # lexed out of order
def test_parse_document_reports_the_lexer_findings_of_lex(name, edits):
    # One rule for lexer findings: parse_document reports those of lex, in
    # source order, a tie in lex's order.
    source = mutate(FIXTURE_PARTS[name], edits)
    _, errors = parse_document(source)
    in_order = sorted(lex(source)[1], key=lambda e: e.span[:2])
    assert [e for e in errors if e.code.startswith("lex.")] == in_order


@pytest.mark.parametrize("op", ["drop", "repeat"])
def test_one_token_edit_gives_at_most_two_findings(op):
    # One mistake, one diagnostic: every single-token drop or repeat of the
    # fixtures gives at most 2 findings, parse and validation together.  A
    # repeated '}' before a use-case key used to close the use case early
    # and keep it, with one finding per required field it lacked.
    worse = []
    for name, parts in FIXTURE_PARTS.items():
        for n in range(len(parts) // 2):
            use_cases, errors = parse_document(mutate(parts, [(op, n, "")]))
            found = len(errors) + sum(len(validate_use_case(uc))
                                      for uc in use_cases)
            if found > 2:
                worse.append((name, n, parts[2 * n + 1], found))
    assert worse == []


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), EDITS)
# Most cut-up fixtures end in a `syntax` error; these end in errors of one
# other namespace, in a validation finding alone, and in none.
@example("smart_camera", [("replace", 3130, '"')])       # lex. only
@example("smart_camera", [("swap", 2513, "other")])      # field. only
@example("driver_attention_monitoring", [("replace", 5866, "high_risk")])
@example("affective_music_recommender", [])            # no finding
def test_cli_exit_status_follows_parse_errors_then_findings(name, edits):
    # Pins the rule from diagnostic codes to exit status against the codes
    # the lexer and the parser emit.
    source = mutate(FIXTURE_PARTS[name], edits)
    use_cases, errors = parse_document(source)
    invalid = any(validate_use_case(uc) for uc in use_cases)
    quiet = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    assert run(["validate", "-"], stdin=source, **quiet) == (
        2 if errors else 1 if invalid else 0)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        src.mkdir()
        (src / f"{name}.ucdl").write_text(source, encoding="utf-8")
        code = run(["catalog", "build", str(src),
                    "--out", str(Path(tmp) / "c.json")], **quiet)
    assert (code == 2) == bool(errors)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(EDITS)
def test_load_taxonomy_raises_only_taxonomy_error(edits):
    source = mutate(TAXONOMY_PARTS, edits)
    try:
        load_taxonomy(source)
    except TaxonomyError as exc:
        assert exc.errors
        for e in exc.errors:
            assert span_inside(source, e.span), e.render()


def json_paths(node, path=()):
    """The path of every value in the JSON document ``node``, itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


GOLDEN_CATALOG = json.loads((GOLDEN_DIR / "catalog.json").read_bytes())
GOLDEN_PATHS = list(json_paths(GOLDEN_CATALOG))
JSON_VALUES = (None, True, False, 0, 3, -1, 2.5, "", "x", "high_risk", [],
               ["x"], [3], {}, {"area_id": "x"}, "\ud800")
NESTED = "[" * 50_000 + "]" * 50_000
JSON_EDITS = st.lists(st.tuples(
    st.sampled_from(("retype", "drop", "add", "nest")),
    st.sampled_from(GOLDEN_PATHS), st.sampled_from(JSON_VALUES)),
    min_size=1, max_size=3)


def edit_catalog(edits) -> str:
    """The golden catalogue's JSON text after ``(op, path, value)`` edits;
    a path that an earlier edit removed is skipped."""
    doc = json.loads(json.dumps(GOLDEN_CATALOG))
    for op, path, value in edits:
        value = json.loads(json.dumps(value))      # a fresh copy
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if path:
                parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        node = parent[path[-1]] if path else doc
        if op == "add" and isinstance(node, dict):
            node["unexpected"] = value
        elif op == "add" and isinstance(node, list):
            node.append(value)
        elif not path:
            doc = "NESTED" if op == "nest" else value
        elif op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = "NESTED" if op == "nest" else value
    return json.dumps(doc).replace('"NESTED"', NESTED)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(JSON_EDITS)
@example([("retype", ("entries", 0, "title"), "\ud800")])
def test_load_catalog_json_raises_only_catalog_format_error(edits):
    try:
        cat = load_catalog_json(edit_catalog(edits), builtin_taxonomy())
    except CatalogFormatError:
        return
    # What loads exports again, and the export loads back to the same bytes.
    data = export_json(cat)
    assert export_json(load_catalog_json(data, builtin_taxonomy())) == data


# ---------------------------------------------------------------------------
# the catalogue's JSON writer


def dumps(tp, value) -> str:
    """The text the generated writer for type ``tp`` gives ``value`` at the
    top level of a document."""
    return _writer(tp)(value)


# Every character the escaper treats apart: quote, backslash, the control
# characters (\n, \t, \r, \b and \f among them), DEL, the line separator,
# non-ASCII and astral characters.
JSON_TEXT = st.text(st.sampled_from(
    '"\\\x7f\u2028\u00e9\u60c5\U0001f600 aZ9:,[]{}'
    + "".join(map(chr, range(0x20)))), max_size=12)
JSON_LEAVES = (
    JSON_TEXT.map(lambda v: (str, v)) | st.booleans().map(lambda v: (bool, v))
    | (st.integers(-10**20, 10**20)
       | st.sampled_from((0, -1, 10**19, -(10**19)))).map(lambda v: (int, v))
    | st.lists(JSON_TEXT, max_size=4).map(
        lambda v: (tuple[str, ...], tuple(v))))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(JSON_LEAVES)
def test_json_writer_matches_json_dumps(leaf):
    tp, value = leaf
    assert dumps(tp, value) == json.dumps(value, indent=2, ensure_ascii=False)


def old_export_json(cat) -> bytes:
    """The catalogue export as ``json.dumps`` writes the reference data."""
    doc = {
        "schema": SCHEMA,
        "taxonomy_version": cat.taxonomy_version,
        "generated_fields": list(GENERATED_FIELDS),
        "entries": [{"source_path": entry.source_path,
                     **reference_json.data(entry.use_case),
                     **reference_json.assessment_data(entry.assessment)}
                    for entry in cat.entries],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()


TAXONOMY_AREAS = tuple(e.area_id for e in builtin_taxonomy().entries)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 4))
def test_export_json_matches_json_dumps(seed, size):
    rng = random.Random(seed)
    sources = [(f"uc{i}.ucdl", serialize_canonical(make_use_case(
        rng, area_pool=TAXONOMY_AREAS, uc_id=f"uc-{i}"))) for i in range(size)]
    cat, _ = build_catalog(sources, builtin_taxonomy())
    assert len(cat.entries) == size
    assert export_json(cat) == old_export_json(cat)


def retext(value, texts):
    """``value`` with every string in it, at any depth of dataclasses and
    tuples, replaced by the next of ``texts``."""
    if isinstance(value, str):
        return next(texts)
    if isinstance(value, tuple):
        return tuple(retext(item, texts) for item in value)
    if is_dataclass(value):
        return replace(value, **{f.name: retext(getattr(value, f.name), texts)
                                 for f in fields(value)})
    return value


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3),
       st.lists(JSON_TEXT, min_size=1, max_size=20))
def test_export_json_escapes_every_text_as_json_dumps(seed, size, texts):
    # Texts the parser would never hand over, so the catalogue is built
    # directly: quotes, backslashes, control characters, U+2028 and astral
    # characters in every string the export writes.
    rng = random.Random(seed)
    texts = itertools.cycle(texts)
    entries = []
    for i in range(size):
        uc = make_use_case(rng, area_pool=TAXONOMY_AREAS, uc_id=f"uc-{i}")
        entries.append(CatalogEntry(
            use_case=retext(uc, texts),
            assessment=retext(classify(uc, builtin_taxonomy()), texts),
            source_path=next(texts)))
    cat = Catalog(tuple(entries), builtin_taxonomy(), next(texts))
    assert export_json(cat) == old_export_json(cat)


# One example of each shape the writer has to get right, beside the
# properties: every enum member, every Optional field left out, every list
# empty.
MATCH = AreaMatch("biometrics.emotion", Tier.PROHIBITED, "Area", "Sub-use")
FLAG = MisuseFlag("covert scanning", replace(MATCH, tier=Tier.HIGH_RISK))
ASSESSMENT = RiskAssessment(RiskLevel.HIGH, (MATCH,), (FLAG,), ("R3",))


def assert_exports_as_json_dumps(*entries):
    cat = Catalog(tuple(CatalogEntry(source_path=f"uc{i}.ucdl", use_case=uc,
                                     assessment=assessment)
                        for i, (uc, assessment) in enumerate(entries)),
                  builtin_taxonomy(), "1")
    assert export_json(cat) == old_export_json(cat)


EVERY_ENUM_MEMBER = pytest.mark.parametrize(
    "member", [*RiskLevel, *GoalLevel, *ActorKind, *ActorRole, *Tier],
    ids=lambda m: f"{type(m).__name__}.{m.name}")


def with_member(member):
    """A use case and an assessment, one of them holding enum ``member``."""
    uc, assessment = base_use_case(), ASSESSMENT
    if isinstance(member, RiskLevel):
        assessment = replace(assessment, level=member)
    elif isinstance(member, GoalLevel):
        uc = replace(uc, level=member)
    elif isinstance(member, Tier):
        match = replace(MATCH, tier=member)
        assessment = replace(assessment, matched=(match,),
                             misuse_flags=(replace(FLAG, match=match),))
    else:
        field = "kind" if isinstance(member, ActorKind) else "role"
        uc = replace(uc, user=replace(uc.user, **{field: member}))
    return uc, assessment


@EVERY_ENUM_MEMBER
def test_export_json_writes_every_enum_member(member):
    assert_exports_as_json_dumps(with_member(member))


def test_export_json_leaves_out_every_optional_at_none():
    uc = base_use_case()

    def unannotated(steps):
        return tuple(replace(step, function=None) for step in steps)

    bare = replace(
        uc, main_scenario=unannotated(uc.main_scenario),
        extensions=tuple(replace(ext, steps=unannotated(ext.steps))
                         for ext in uc.extensions),
        application_areas=(ApplicationAreaRef("biometrics.emotion"),),
        misuses=(Misuse("covert scanning"),
                 Misuse("profiling", ApplicationAreaRef("media.analytics"))))
    assert_exports_as_json_dumps((bare, ASSESSMENT), (uc, ASSESSMENT))


def emptied(value):
    """The dataclass ``value`` with every one of its tuple fields empty."""
    return replace(value, **{f.name: () for f in fields(value)
                             if isinstance(getattr(value, f.name), tuple)})


def test_export_json_writes_every_list_empty():
    uc = emptied(base_use_case())
    # the lists inside list items: includes, extends and an extension's steps
    nested = replace(uc, system_functions=(SystemFunction("scan", "Scan"),),
                     extensions=(Extension("1a", "no face found"),))
    assert_exports_as_json_dumps((uc, emptied(ASSESSMENT)),
                                 (nested, ASSESSMENT))
    assert_exports_as_json_dumps()  # no entries at all


def assert_to_dict_is_reference(uc, assessment):
    for got, want in ((use_case_to_dict(uc), reference_json.data(uc)),
                      (assessment_to_dict(assessment),
                       reference_json.assessment_data(assessment))):
        assert got == want
        assert json.dumps(got) == json.dumps(want)  # the key order too


@EVERY_ENUM_MEMBER
def test_to_dict_matches_the_reference_on_every_enum_member(member):
    assert_to_dict_is_reference(*with_member(member))


def test_to_dict_matches_the_reference_on_seeded_use_cases():
    rng = random.Random(1616)
    for _ in range(60):
        uc = random_risk_uc(rng)
        assert_to_dict_is_reference(uc, classify(uc, builtin_taxonomy()))


# ---------------------------------------------------------------------------
# the command line


# A command, a path, some of the command's own options and at times a stray
# word; the upper-case words stand for paths in the example's own copy of
# the inputs.
PATHS = ("FIXTURE", "DIR", "MISSING", "CATALOG", "-", "")
OPTIONS = {
    ("validate",): (["FIXTURE"], ["-"]),
    ("classify",): (["--format", "json"], ["--taxonomy", "TAXONOMY"],
                    ["--taxonomy", "FIXTURE"], ["--strict"]),
    ("render",): (["--out", "OUT"], ["--out", "DIR"], ["--out", ""],
                  ["--format", "puml"], ["--strict"]),
    ("table",): (["--format", "html"], ["--with-risk"], ["--with-diagram"],
                 ["--taxonomy", "MISSING"]),
    ("catalog", "build"): (["--out", "OUT"], ["--out", "DIR"],
                           ["--taxonomy", "TAXONOMY"], ["--strict"]),
    ("catalog", "query"): (["--risk", "high"], ["--risk", "severe"],
                           ["--area", "other"], ["--area", "nowhere"],
                           ["--capability", "emotion_recognition"],
                           ["--taxonomy", "TAXONOMY"]),
    ("catalog", "stats"): (["--taxonomy", "TAXONOMY"],
                           ["--taxonomy", "MISSING"]),
}
STRAY = (["--help"], ["--out"], ["--format", "svg"], ["--risk"], ["nope"],
         ["catalog"], [""], ["FIXTURE"])
ARGV = st.sampled_from(sorted(OPTIONS)).flatmap(lambda command: st.tuples(
    st.just(list(command)), st.sampled_from(PATHS).map(lambda p: [p]),
    st.lists(st.sampled_from(OPTIONS[command]), max_size=3),
    st.lists(st.sampled_from(STRAY), max_size=1)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(ARGV)
def test_cli_run_exits_0_to_3_on_any_argv(parts):
    command, path, options, stray = parts
    with tempfile.TemporaryDirectory() as tmp:
        # Copies, since any path may come after --out.
        top = Path(tmp)
        shutil.copytree(FIXTURES_DIR, top / "inputs")
        shutil.copy(GOLDEN_DIR / "catalog.json", top / "catalog.json")
        shutil.copy(TAXONOMY_FILE, top / "taxonomy.ucdl")
        paths = {"FIXTURE": top / "inputs" / "smart_camera.ucdl",
                 "DIR": top / "inputs", "MISSING": top / "missing.ucdl",
                 "CATALOG": top / "catalog.json",
                 "TAXONOMY": top / "taxonomy.ucdl", "OUT": top / "out"}
        argv = [str(paths.get(word, word))
                for word in command + path + sum(options + stray, [])]
        cwd = os.getcwd()
        os.chdir(tmp)   # `catalog build ""` reads the working directory
        try:
            code = run(argv, stdin="", stdout=io.StringIO(),
                       stderr=io.StringIO())
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3), argv
        if "" in argv:  # an empty path is a usage error, never "."
            assert code == 3, argv
