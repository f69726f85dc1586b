"""Documentation-table rendering (Markdown and standalone HTML).

The table follows the adapted use-case template: the classic layout with
*Intended purpose* in place of Scope, *User* in place of Primary Actor,
*Target persons* in place of Stakeholders and Interests, *Misuses* in place
of Open issues, and an *Application areas* row right after the purpose.
Risk rows (``Risk level``, ``Risk rationale``) are generated output and are
appended after the authored rows when an assessment is supplied.

Both tables write a cell by one rule: the row's lines are joined, and a
line break, LF or CR, in the value or between its lines is written as
``<br>``.  Markdown backslash-escapes ``\\``, ``|`` and ``<``, so a row keeps
two cells and a value cannot open raw HTML; HTML entity-escapes.  The tables
are output only: the catalogue JSON is the machine-readable form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .model import UseCase, require_valid

if TYPE_CHECKING:
    from .risk import RiskAssessment

EMPTY_CELL = "—"

# The five characters html.escape replaces, with its replacements.
_HTML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                       "'": "&#x27;"})

# Each table's escapes for a cell; LF and CR are line breaks in both.
_BREAKS = {"\n": "<br>", "\r": "<br>"}
_MARKDOWN_CELL = str.maketrans(
    {"\\": "\\\\", "|": "\\|", "<": "\\<", **_BREAKS})
_HTML_CELL = str.maketrans({**_HTML, **_BREAKS})


class MalformedSvgError(ValueError):
    """Raised when the diagram bytes handed to the HTML renderer aren't SVG."""


def escape_cell(value: str) -> str:
    """Escape a value for use inside one Markdown table cell; each LF or CR
    becomes ``<br>``."""
    return value.translate(_MARKDOWN_CELL)


# ---------------------------------------------------------------------------
# row assembly


def _actor_line(name: str, kind: str) -> str:
    return f"{name} ({kind})"


def _rows(uc: UseCase,
          assessment: Optional[RiskAssessment]) -> list[tuple[str, list[str]]]:
    """Label → content lines; empty list means the placeholder cell.  No
    label holds a character that either table escapes."""
    scenario = [f"{s.index}. {s.actor}: {s.action}" for s in uc.main_scenario]
    extensions: list[str] = []
    for ext in uc.extensions:
        extensions.append(f"{ext.branch_id}. {ext.condition}")
        extensions.extend(
            f"{ext.branch_id}{s.index}. {s.actor}: {s.action}"
            for s in ext.steps)
    misuses = []
    for m in uc.misuses:
        line = m.description
        if m.area_ref is not None:
            line += f" [area: {m.area_ref.display()}]"
        misuses.append(line)

    rows: list[tuple[str, list[str]]] = [
        ("Use case", [f"{uc.title} ({uc.id})"]),
        ("Intended purpose", [uc.intended_purpose]),
        ("Application areas",
         ["; ".join(r.display() for r in uc.application_areas)]),
        ("Level", [uc.level.value.replace("_", " ")]),
        ("User", [_actor_line(uc.user.name, uc.user.kind.value)]),
        ("Target persons",
         ["; ".join(_actor_line(a.name, a.kind.value)
                    for a in uc.target_persons)] if uc.target_persons else []),
        ("Context of use", [uc.context_of_use] if uc.context_of_use else []),
        ("Inputs", ["; ".join(uc.inputs)]),
        ("Outputs", ["; ".join(uc.outputs)]),
        ("Preconditions",
         ["; ".join(uc.preconditions)] if uc.preconditions else []),
        ("Trigger", [uc.trigger] if uc.trigger else []),
        ("Success guarantee",
         [uc.success_guarantee] if uc.success_guarantee else []),
        ("Minimal guarantee",
         [uc.minimal_guarantee] if uc.minimal_guarantee else []),
        ("Main success scenario", scenario),
        ("Extensions", extensions),
        ("Misuses", misuses),
    ]
    if assessment is not None:
        rows.append(("Risk level", [assessment.level.label]))
        rows.append(("Risk rationale", ["; ".join(assessment.rationale)]))
    return rows


def _cell(content: list[str], escapes: dict[int, str]) -> str:
    """One table cell: ``content``'s lines, each line break a ``<br>``."""
    return "\n".join(content).translate(escapes) if content else EMPTY_CELL


def render_table_markdown(uc: UseCase,
                          assessment: Optional[RiskAssessment] = None) -> str:
    """Two-column Markdown table documenting one valid use case."""
    require_valid(uc)
    lines = ["| Field | Value |", "| --- | --- |"]
    for label, content in _rows(uc, assessment):
        lines.append(f"| {label} | {_cell(content, _MARKDOWN_CELL)} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTML


_HTML_STYLE = """\
body { font-family: sans-serif; margin: 2rem auto; max-width: 60rem; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #999; padding: 0.4rem 0.6rem; text-align: left;
         vertical-align: top; }
th { background: #eee; }
figure { margin: 1rem 0; text-align: center; }"""


def _check_svg(svg: bytes) -> str:
    from xml.etree import ElementTree  # only pages that embed a diagram

    try:
        root = ElementTree.fromstring(svg)
    except ElementTree.ParseError as exc:
        raise MalformedSvgError(f"not well-formed XML: {exc}") from exc
    tag = root.tag.rsplit("}", 1)[-1]
    if tag != "svg":
        raise MalformedSvgError(f"root element is <{tag}>, expected <svg>")
    text = svg.decode("utf-8")
    if text.startswith("<?xml"):
        text = text.split("?>", 1)[1].lstrip("\n")
    return text


def render_html_page(uc: UseCase,
                     assessment: Optional[RiskAssessment] = None,
                     svg: Optional[bytes] = None) -> str:
    """Standalone HTML page: optional inline diagram above the table."""
    require_valid(uc)
    parts: list[str] = []
    parts.append("<!DOCTYPE html>")
    parts.append('<html lang="en">')
    parts.append("<head>")
    parts.append('<meta charset="utf-8">')
    parts.append(f"<title>{uc.title.translate(_HTML)}</title>")
    parts.append(f"<style>\n{_HTML_STYLE}\n</style>")
    parts.append("</head>")
    parts.append("<body>")
    parts.append(f"<h1>{uc.title.translate(_HTML)}</h1>")
    if svg is not None:
        parts.append("<figure>")
        parts.append(_check_svg(svg).rstrip("\n"))
        parts.append("</figure>")
    parts.append("<table>")
    parts.append("<tr><th>Field</th><th>Value</th></tr>")
    for label, content in _rows(uc, assessment):
        parts.append(
            f"<tr><td>{label}</td><td>{_cell(content, _HTML_CELL)}</td></tr>")
    parts.append("</table>")
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"
