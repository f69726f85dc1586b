"""Fuzzed properties of the UCDL front end.

The three fixtures and the built-in taxonomy are cut up at the token level
(a token dropped, repeated, swapped with its neighbour or replaced by one of
``POOL``) and read again.  Whatever comes out must be diagnostics, never an
exception: ``parse_document`` returns, every error span lies inside the
source, and ``load_taxonomy`` raises nothing but ``TaxonomyError``.
"""

from __future__ import annotations

import re
from importlib import resources

from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_NAMES, fixture_text
from ucdoc import TaxonomyError, load_taxonomy, parse_document
from ucdoc.lexer import lex

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
    parts, pos = [], 0
    for tok in lex(source)[0][:-1]:     # all but EOF
        offset = starts[tok.span.line - 1] + tok.span.column - 1
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
