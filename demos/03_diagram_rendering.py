"""
Use-case diagrams: layout, SVG, and the text form
=================================================

build_diagram() turns a valid use case into nodes and edges (actors,
function ellipses, association / include / extend edges); layout()
assigns deterministic coordinates — actors in side columns, ellipses
stacked inside the system boundary; render_svg() draws it.  The text
form (render_textual) is a line-per-element description that diagram
tools understand.
"""

from pathlib import Path

from ucdoc import build_diagram, layout, parse_document, render_svg, render_textual
from ucdoc.model import actor_ident

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

camera = parse_document(
    (FIXTURES / "smart_camera.ucdl").read_text(encoding="utf-8"))[0][0]

# ---------------------------------------------------------------------------
# The structural view first: what is connected to what.

diagram = build_diagram(camera)
print("actors:", [actor_ident(a.name) for a in diagram.actors])
print("ellipses:", [e.id for e in diagram.ellipses])
for edge in diagram.edges:
    print(f"  {edge.source} -{edge.kind.value}-> {edge.target}")
print("warnings:", diagram.warnings)

# ---------------------------------------------------------------------------
# Deterministic geometry: same input, same coordinates, every time.

positioned = layout(diagram)
print()
print("canvas:", positioned.canvas_w, "x", positioned.canvas_h)
print("boundary (x, y, w, h):", positioned.boundary)
for fn_id, (cx, cy) in positioned.ellipse_centers.items():
    print(f"  {fn_id}: center=({cx}, {cy})")

# ---------------------------------------------------------------------------
# SVG output for every fixture.

for path in sorted(FIXTURES.glob("*.ucdl")):
    uc = parse_document(path.read_text(encoding="utf-8"))[0][0]
    svg = render_svg(layout(build_diagram(uc)))
    target = OUT / f"{uc.id}.svg"
    target.write_bytes(svg)
    print("wrote", target, f"({len(svg)} bytes)")

# ---------------------------------------------------------------------------
# The text form round-trips through any PlantUML-style renderer.

print()
print(render_textual(diagram))
(OUT / "smart-camera.puml").write_text(render_textual(diagram),
                                       encoding="utf-8")
