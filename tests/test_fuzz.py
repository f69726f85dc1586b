"""Fuzzed properties of the UCDL front end.

The three fixtures and the built-in taxonomy are cut up at the token level
(a token dropped, repeated, swapped with its neighbour or replaced by one of
``POOL``) and read again.  Whatever comes out must be diagnostics, never an
exception: ``parse_document`` returns, every error span lies inside the
source, and ``load_taxonomy`` raises nothing but ``TaxonomyError``.  The
golden catalogue is edited as JSON (a value of another type, a key dropped
or added, deep nesting), and ``load_catalog_json`` raises nothing but
``CatalogFormatError``.
"""

from __future__ import annotations

import json
import re
from importlib import resources

from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_NAMES, GOLDEN_DIR, fixture_text
from ucdoc import (
    CatalogFormatError, TaxonomyError, builtin_taxonomy, load_catalog_json,
    load_taxonomy, parse_document,
)
from ucdoc.lexer import LineIndex, lex

# Replacement tokens: punctuation, keywords of both grammars, values of
# every kind, an unterminated string and a character the lexer rejects.
POOL = (
    "{", "}", "[", "]", "(", ")", ",", ":", "->", "usecase", "person",
    "entry", "version", "tier", "kind", "name", "true", "other", "high_risk",
    "human", '"x"', '""', '"""\n  y\n  """', '"EMOTION"', "1", "3a", '"',
    "²",
)

OPS = ("drop", "repeat", "swap", "replace")

EDITS = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10_000),
                           st.sampled_from(POOL)), min_size=1, max_size=4)


def line_starts(source: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", source)]


def split_tokens(source: str) -> list[str]:
    """``[gap, token, gap, …, token, gap]``: joined, the source again."""
    starts = line_starts(source)
    lines = LineIndex(source)
    parts, pos = [], 0
    for tok in lex(source)[0][:-1]:     # all but EOF
        span = lines.span(tok.offset, len(tok.text))
        offset = starts[span.line - 1] + span.column - 1
        parts += [source[pos:offset], tok.text]
        pos = offset + len(tok.text)
    return parts + [source[pos:]]


def mutate(parts: list[str], edits) -> str:
    """Apply ``(op, n, new)`` edits to the tokens of ``split_tokens``."""
    words = parts[1::2]
    for op, n, new in edits:
        i = n % len(words)
        if op == "drop":
            words[i] = ""
        elif op == "repeat":
            words[i] += " " + words[i]
        elif op == "swap":
            j = (i + 1) % len(words)
            words[i], words[j] = words[j], words[i]
        else:
            words[i] = new
    mutated = list(parts)
    mutated[1::2] = words
    return "".join(mutated)


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
TAXONOMY_PARTS = split_tokens(
    (resources.files("ucdoc") / "data" / "aiact_taxonomy.ucdl").read_text(
        encoding="utf-8"))


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
               ["x"], [3], {}, {"area_id": "x"})
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
def test_load_catalog_json_raises_only_catalog_format_error(edits):
    try:
        load_catalog_json(edit_catalog(edits), builtin_taxonomy())
    except CatalogFormatError:
        pass
