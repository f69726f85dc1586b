"""Documentation-table rendering (Markdown and standalone HTML).

The table follows the adapted use-case template: the classic layout with
*Intended purpose* in place of Scope, *User* in place of Primary Actor,
*Target persons* in place of Stakeholders and Interests, *Misuses* in place
of Open issues, and an *Application areas* row right after the purpose.
Risk rows (``Risk level``, ``Risk rationale``) are generated output and are
appended after the authored rows when an assessment is supplied.

Markdown cell escaping is invertible: ``\\``, ``|``, ``<``, LF and CR are
backslash-escaped, and rows are split at LF alone, so a rendered table can
be parsed back to the exact cell values (see :func:`parse_table_rows`).
Multi-line cells (scenario steps, extensions, misuses) use a literal
``<br>`` separator, which cannot collide with content because every literal
``<`` is escaped.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from .model import UseCase, require_valid

if TYPE_CHECKING:
    from .risk import RiskAssessment

EMPTY_CELL = "—"

# The five characters html.escape replaces, with its replacements.
_HTML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                       "'": "&#x27;"})

_ESCAPES = str.maketrans(
    {"\\": "\\\\", "|": "\\|", "<": "\\<", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "|": "|", "<": "<", "n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\([\\|<nr])")
# One cell of a stripped table row: the ``|`` before it (not the row's last
# character), one space of padding on each side, and up to the next
# unescaped ``|`` or the end of the row.
_CELL_RE = re.compile(r"\|(?!$) ?((?:\\[\\|]?|[^\\|])*?) ?(?=\||$)")


class MalformedSvgError(ValueError):
    """Raised when the diagram bytes handed to the HTML renderer aren't SVG."""


def escape_cell(value: str) -> str:
    """Escape a value for use inside one Markdown table cell."""
    return value.translate(_ESCAPES)


def unescape_cell(value: str) -> str:
    """Inverse of :func:`escape_cell`."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES[m[1]], value)


def parse_table_rows(text: str) -> list[tuple[str, str]]:
    """Read back (label, value) pairs from a rendered Markdown table.

    The header and separator rows are skipped; values come back unescaped,
    exactly as they were before rendering.
    """
    rows: list[tuple[str, str]] = []
    for line in text.split("\n"):  # a cell escapes "\n", not every line break
        if not line.strip().startswith("|"):
            continue
        cells = _CELL_RE.findall(line.strip())
        if len(cells) != 2:
            continue
        if cells[0] in ("Field", EMPTY_CELL) or set(cells[0]) <= {"-"}:
            continue
        rows.append((unescape_cell(cells[0]), unescape_cell(cells[1])))
    return rows


# ---------------------------------------------------------------------------
# row assembly


def _actor_line(name: str, kind: str) -> str:
    return f"{name} ({kind})"


def _rows(uc: UseCase,
          assessment: Optional[RiskAssessment]) -> list[tuple[str, list[str]]]:
    """Label → content lines; empty list means the placeholder cell."""
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


def render_table_markdown(uc: UseCase,
                          assessment: Optional[RiskAssessment] = None) -> str:
    """Two-column Markdown table documenting one valid use case."""
    require_valid(uc)
    lines = ["| Field | Value |", "| --- | --- |"]
    for label, content in _rows(uc, assessment):
        if content:
            value = "<br>".join(escape_cell(part) for part in content)
        else:
            value = EMPTY_CELL
        lines.append(f"| {escape_cell(label)} | {value} |")
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
        if content:
            value = "<br>".join(
                part.translate(_HTML).replace("\n", "<br>") for part in content)
        else:
            value = EMPTY_CELL
        parts.append(
            f"<tr><td>{label.translate(_HTML)}</td><td>{value}</td></tr>")
    parts.append("</table>")
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"
