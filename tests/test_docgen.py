"""Tests for the documentation-table renderer (Markdown and HTML)."""

from __future__ import annotations

import random
from html.parser import HTMLParser

import pytest

from support import make_use_case, text as random_text
from test_model import base_use_case, u
from ucdoc import (
    ValidationFailedError,
    build_diagram,
    builtin_taxonomy,
    classify,
    layout,
    render_svg,
)
from ucdoc.docgen import (
    EMPTY_CELL,
    MalformedSvgError,
    escape_cell,
    parse_table_rows,
    render_html_page,
    render_table_markdown,
    unescape_cell,
)

TAX = builtin_taxonomy()

EXPECTED_LABELS = [
    "Use case",
    "Intended purpose",
    "Application areas",
    "Level",
    "User",
    "Target persons",
    "Context of use",
    "Inputs",
    "Outputs",
    "Preconditions",
    "Trigger",
    "Success guarantee",
    "Minimal guarantee",
    "Main success scenario",
    "Extensions",
    "Misuses",
]

# Labels from the classic template that the adapted one renames; they must
# never leak into the output.
FORBIDDEN_LABELS = [
    "Scope",
    "Primary Actor",
    "Stakeholders and Interests",
    "Open issues",
]


def rows_of(table: str) -> dict[str, str]:
    pairs = parse_table_rows(table)
    assert len({label for label, _ in pairs}) == len(pairs)
    return dict(pairs)


# ---------------------------------------------------------------------------
# Markdown: row contract


def test_row_labels_exact_and_ordered():
    table = render_table_markdown(base_use_case())
    assert [label for label, _ in parse_table_rows(table)] == EXPECTED_LABELS


def test_risk_rows_appended_with_assessment():
    uc = base_use_case()
    assessment = classify(uc, TAX)
    table = render_table_markdown(uc, assessment)
    labels = [label for label, _ in parse_table_rows(table)]
    assert labels == EXPECTED_LABELS + ["Risk level", "Risk rationale"]
    values = rows_of(table)
    assert values["Risk level"] == assessment.level.label
    assert values["Risk rationale"] == "; ".join(assessment.rationale)


def test_no_risk_rows_without_assessment():
    table = render_table_markdown(base_use_case())
    assert "Risk level" not in table
    assert "Risk rationale" not in table


def test_original_template_labels_absent(fixture_use_cases):
    documents = [render_table_markdown(base_use_case(), classify(base_use_case(), TAX))]
    for uc in fixture_use_cases.values():
        assessment = classify(uc, TAX)
        documents.append(render_table_markdown(uc, assessment))
        documents.append(render_html_page(uc, assessment))
    for doc in documents:
        for label in FORBIDDEN_LABELS:
            assert label not in doc


def test_value_formatting():
    values = rows_of(render_table_markdown(base_use_case()))
    assert values["Use case"] == "Scan (scan-1)"
    assert values["Intended purpose"] == "Scan faces"
    assert values["Application areas"] == "leisure (other)"
    assert values["Level"] == "user goal"
    assert values["User"] == "Operator (human)"
    assert values["Target persons"] == "Visitor (human)"
    assert values["Inputs"] == "image"
    assert values["Outputs"] == "report"
    assert values["Main success scenario"] == (
        "1. operator: starts the scan<br>2. system: produces a report")
    assert values["Extensions"] == (
        "2a. report is empty<br>2a1. system: notifies the operator")
    assert values["Misuses"] == "covert scanning [area: media.analytics]"


def test_empty_optionals_use_placeholder():
    uc = u(extensions=(), misuses=(), target_persons=(), associations=())
    values = rows_of(render_table_markdown(uc))
    for label in ("Extensions", "Misuses", "Target persons", "Context of use",
                  "Trigger", "Success guarantee", "Minimal guarantee",
                  "Preconditions"):
        assert values[label] == EMPTY_CELL, label


def test_misuse_without_area_has_no_suffix():
    from ucdoc import Misuse

    uc = u(misuses=(Misuse("covert scanning"),))
    assert rows_of(render_table_markdown(uc))["Misuses"] == "covert scanning"


def test_rejects_invalid_use_case():
    with pytest.raises(ValidationFailedError):
        render_table_markdown(u(id=""))
    with pytest.raises(ValidationFailedError):
        render_html_page(u(intended_purpose=""))


def test_table_shape():
    table = render_table_markdown(base_use_case(), classify(base_use_case(), TAX))
    lines = table.splitlines()
    assert lines[0] == "| Field | Value |"
    assert lines[1] == "| --- | --- |"
    assert len(lines) == 2 + len(EXPECTED_LABELS) + 2
    assert all(line.startswith("| ") and line.endswith(" |") for line in lines)
    assert table.endswith("\n")


def test_parse_skips_surrounding_prose():
    table = render_table_markdown(base_use_case())
    document = "# Title\n\nSome prose | with a pipe.\n\n" + table + "\nTrailing.\n"
    assert parse_table_rows(document) == parse_table_rows(table)


# ---------------------------------------------------------------------------
# Markdown: escaping


def test_escape_cell_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(500):
        value = random_text(rng, nasty=True)
        escaped = escape_cell(value)
        assert unescape_cell(escaped) == value
        assert "\n" not in escaped
        assert "\r" not in escaped
        assert "<" not in escaped.replace("\\<", "")
        stripped = escaped.replace("\\\\", "").replace("\\|", "")
        assert "|" not in stripped


def test_nasty_values_survive_render_parse():
    nasty = "a | b \\| c \\ d\nline <br> two\r\ttab"
    uc = u(intended_purpose=nasty, title="T|tle \\ <odd>")
    values = rows_of(render_table_markdown(uc))
    assert values["Intended purpose"] == nasty
    assert values["Use case"] == "T|tle \\ <odd> (scan-1)"


@pytest.mark.parametrize("value", [
    "ends in \\", "|", "\\", "\\|", "| \\",
    # line breaks to str.splitlines, which a cell holds unescaped
    *(f"a{c}b" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
])
def test_edge_values_survive_render_parse(value):
    # A trailing backslash must not escape the cell's closing pipe, a lone
    # pipe must not split the cell, and a row ends at LF alone.
    assert rows_of(render_table_markdown(u(intended_purpose=value)))[
        "Intended purpose"] == value


@pytest.mark.parametrize("row, cells", [
    ("|a|b\\\\|", [("a", "b\\")]),          # no padding, value ends in \
    ("| a | \\| |", [("a", "|")]),
    ("| a | b", [("a", "b")]),             # no closing pipe
    ("| a |  |", [("a", "")]),
    ("| a | b | c |", []),                 # three cells: not a field row
])
def test_parse_table_rows_reads_unpadded_and_open_rows(row, cells):
    assert parse_table_rows(row) == cells


def test_multi_part_cells_keep_joiner_distinct():
    from ucdoc import ScenarioStep

    uc = u(main_scenario=(
        ScenarioStep(1, "operator", "types <br> literally", "scan"),
        ScenarioStep(2, "system", "responds", "report"),
    ), extensions=(), associations=())
    table = render_table_markdown(uc)
    # In the raw cell the content "<" is escaped, the joiner is not.
    assert "types \\<br> literally<br>2. system: responds" in table
    values = rows_of(table)
    assert values["Main success scenario"] == (
        "1. operator: types <br> literally<br>2. system: responds")


def test_random_use_cases_round_trip_single_value_rows():
    rng = random.Random(987001)
    for _ in range(60):
        uc = make_use_case(rng)
        table = render_table_markdown(uc, classify(uc, TAX))
        values = rows_of(table)
        assert values["Use case"] == f"{uc.title} ({uc.id})"
        assert values["Intended purpose"] == uc.intended_purpose
        if uc.context_of_use:
            assert values["Context of use"] == uc.context_of_use
        if uc.trigger:
            assert values["Trigger"] == uc.trigger
        assert values["Inputs"] == "; ".join(uc.inputs)
        for line in table.splitlines():
            assert "\n" not in line and "\r" not in line


# ---------------------------------------------------------------------------
# HTML


VOID_TAGS = {"meta", "br", "link", "img", "hr", "input"}


class _TagBalanceChecker(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}

    def handle_starttag(self, tag, attrs):
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.counts[tag] = self.counts.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}> (stack: {self.stack})")
        else:
            self.stack.pop()


def check_html(page: str) -> _TagBalanceChecker:
    checker = _TagBalanceChecker()
    checker.feed(page)
    checker.close()
    assert not checker.errors, checker.errors
    assert checker.stack == [], checker.stack
    return checker


def test_html_page_structure():
    uc = base_use_case()
    page = render_html_page(uc, classify(uc, TAX))
    checker = check_html(page)
    assert page.startswith("<!DOCTYPE html>")
    assert checker.counts["table"] == 1
    assert checker.counts["h1"] == 1
    assert checker.counts["tr"] == 1 + len(EXPECTED_LABELS) + 2
    assert "svg" not in checker.counts
    assert "<figure>" not in page


def test_html_values_entity_escaped():
    uc = u(intended_purpose="run <script>alert(1)</script> & exit")
    page = render_html_page(uc)
    assert "<script>" not in page
    assert "&lt;script&gt;alert(1)&lt;/script&gt; &amp; exit" in page
    check_html(page)


def test_html_newlines_become_breaks():
    uc = u(intended_purpose="first\nsecond")
    page = render_html_page(uc)
    assert "first<br>second" in page


def test_html_embeds_svg_once():
    uc = base_use_case()
    svg = render_svg(layout(build_diagram(uc)))
    assert svg.startswith(b"<?xml")
    page = render_html_page(uc, classify(uc, TAX), svg=svg)
    check_html(page)
    assert page.count("<svg") == 1
    assert "<?xml" not in page
    assert "<figure>" in page and "</figure>" in page
    # The diagram sits above the table.
    assert page.index("<svg") < page.index("<table>")


def test_html_without_extras_is_table_only():
    page = render_html_page(base_use_case())
    assert "<svg" not in page
    assert "<figure>" not in page
    assert "Risk level" not in page


def test_html_deterministic():
    uc = base_use_case()
    svg = render_svg(layout(build_diagram(uc)))
    pages = {render_html_page(uc, classify(uc, TAX), svg=svg) for _ in range(5)}
    assert len(pages) == 1


@pytest.mark.parametrize("bad", [
    b"",
    b"<svg",
    b"not xml at all",
    b"<div/>",
    b'<?xml version="1.0"?><g></g>',
])
def test_html_rejects_malformed_svg(bad):
    with pytest.raises(MalformedSvgError):
        render_html_page(base_use_case(), svg=bad)


def test_html_accepts_minimal_svg():
    svg = b'<svg xmlns="http://www.w3.org/2000/svg"></svg>'
    page = render_html_page(base_use_case(), svg=svg)
    assert page.count("<svg") == 1
    check_html(page)
