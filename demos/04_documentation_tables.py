"""
Documentation tables: Markdown and a standalone HTML page
=========================================================

The table renderer produces the adapted two-column template — Intended
purpose instead of Scope, User instead of Primary Actor, Target persons
instead of Stakeholders and Interests, Misuses instead of Open issues,
plus an Application areas row.  With an assessment, Risk level and Risk
rationale rows are appended; with a diagram, the HTML page embeds the
SVG above the table.
"""

from pathlib import Path

from ucdoc import (
    build_diagram,
    builtin_taxonomy,
    classify,
    layout,
    parse_document,
    render_html_page,
    render_svg,
    render_table_markdown,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)
TAX = builtin_taxonomy()

camera = parse_document(
    (FIXTURES / "smart_camera.ucdl").read_text(encoding="utf-8"))[0][0]
assessment = classify(camera, TAX)

# ---------------------------------------------------------------------------
# Markdown, with the generated risk rows.

table = render_table_markdown(camera, assessment)
print(table)

# ---------------------------------------------------------------------------
# One self-contained HTML page per fixture: diagram + table + risk rows.

for path in sorted(FIXTURES.glob("*.ucdl")):
    uc = parse_document(path.read_text(encoding="utf-8"))[0][0]
    svg = render_svg(layout(build_diagram(uc)))
    page = render_html_page(uc, classify(uc, TAX), svg=svg)
    target = OUT / f"{uc.id}.html"
    target.write_text(page, encoding="utf-8")
    print("wrote", target)
