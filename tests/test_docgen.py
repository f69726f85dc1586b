"""Tests for the documentation-table renderer (Markdown and HTML)."""

from __future__ import annotations

import random
import re
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
    render_html_page,
    render_table_markdown,
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


def cells(row: str) -> list[str]:
    """A table row's cells as written, escapes kept.  As in GitHub-flavoured
    Markdown, a cell ends at each ``|`` that no backslash escapes; each cell
    has one space of padding on either side, and the row ends in a ``|``."""
    assert row.startswith("|"), row
    found, cell, escaped = [], "", False
    for c in row[1:]:
        if c == "|" and not escaped:
            found.append(cell[1:-1])
            cell = ""
        else:
            cell += c
        escaped = c == "\\" and not escaped
    assert cell == "", f"the row does not end in an unescaped |: {row!r}"
    return found


def rows_of(table: str) -> dict[str, str]:
    """Label → value cell as written, for each row below the header.  A line
    ends at LF or CR in CommonMark, and every row has two cells."""
    assert "\r" not in table
    lines = table.split("\n")
    assert lines[:2] == ["| Field | Value |", "| --- | --- |"]
    assert lines[-1] == ""
    rows = [cells(line) for line in lines[2:-1]]
    assert all(len(row) == 2 for row in rows), rows
    assert len({label for label, _ in rows}) == len(rows)
    return dict(rows)


# ---------------------------------------------------------------------------
# Markdown: row contract


def test_row_labels_exact_and_ordered():
    table = render_table_markdown(base_use_case())
    assert list(rows_of(table)) == EXPECTED_LABELS


def test_risk_rows_appended_with_assessment():
    uc = base_use_case()
    assessment = classify(uc, TAX)
    table = render_table_markdown(uc, assessment)
    values = rows_of(table)
    assert list(values) == EXPECTED_LABELS + ["Risk level", "Risk rationale"]
    assert values["Risk level"] == assessment.level.label
    assert values["Risk rationale"] == escape_cell(
        "; ".join(assessment.rationale))


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


# ---------------------------------------------------------------------------
# Markdown: escaping


# What an escaped value is made of: a backslash before \, | or <, a line
# break, or a character that is none of \, |, <, LF and CR.
ESCAPED_CELL = re.compile(r"(?:\\[\\|<]|<br>|[^\\|<\n\r])*")


def test_escape_cell_round_trip_random():
    # Every random value is one cell of one row: no line ending, no
    # unescaped |, and no < that is not escaped or a break.
    rng = random.Random(20240811)
    for _ in range(500):
        value = random_text(rng, nasty=True)
        escaped = escape_cell(value)
        assert ESCAPED_CELL.fullmatch(escaped), escaped
        assert cells(f"| x | {escaped} |") == ["x", escaped]


def test_nasty_values_survive_render_parse():
    nasty = "a | b \\| c \\ d\nline <br> two\r\ttab"
    uc = u(intended_purpose=nasty, title="T|tle \\ <odd>")
    values = rows_of(render_table_markdown(uc))
    assert values["Intended purpose"] == (
        "a \\| b \\\\\\| c \\\\ d<br>line \\<br> two<br>\ttab")
    assert values["Use case"] == "T\\|tle \\\\ \\<odd> (scan-1)"


@pytest.mark.parametrize("value", [
    "ends in \\", "|", "\\", "\\|", "| \\",
    # line breaks to str.splitlines, which a cell holds unescaped
    *(f"a{c}b" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
])
def test_edge_values_survive_render_parse(value):
    # A trailing backslash must not escape the cell's closing pipe, a lone
    # pipe must not split the cell, and a row ends at LF or CR alone.
    assert rows_of(render_table_markdown(u(intended_purpose=value)))[
        "Intended purpose"] == escape_cell(value)


def test_multi_part_cells_keep_joiner_distinct():
    from ucdoc import ScenarioStep

    uc = u(main_scenario=(
        ScenarioStep(1, "operator", "types <br> literally", "scan"),
        ScenarioStep(2, "system", "responds", "report"),
    ), extensions=(), associations=())
    # The content's "<" is escaped, the joiner is not.
    assert rows_of(render_table_markdown(uc))["Main success scenario"] == (
        "1. operator: types \\<br> literally<br>2. system: responds")


def test_random_use_cases_round_trip_single_value_rows():
    rng = random.Random(987001)
    for _ in range(60):
        uc = make_use_case(rng)
        table = render_table_markdown(uc, classify(uc, TAX))
        values = rows_of(table)
        assert values["Use case"] == escape_cell(f"{uc.title} ({uc.id})")
        assert values["Intended purpose"] == escape_cell(uc.intended_purpose)
        if uc.context_of_use:
            assert values["Context of use"] == escape_cell(uc.context_of_use)
        if uc.trigger:
            assert values["Trigger"] == escape_cell(uc.trigger)
        assert values["Inputs"] == escape_cell("; ".join(uc.inputs))


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


def test_both_tables_write_lf_and_cr_as_breaks():
    # CommonMark ends a line at CR as well as LF, so a raw CR would end
    # the Markdown row; both tables write either one as a break.
    uc = u(intended_purpose="a\nb\rc\r\nd")
    assert rows_of(render_table_markdown(uc))["Intended purpose"] == (
        "a<br>b<br>c<br><br>d")
    assert "<td>a<br>b<br>c<br><br>d</td>" in render_html_page(uc)


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
