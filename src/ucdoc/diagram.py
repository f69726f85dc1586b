"""UML use-case diagram construction, layout, and rendering.

:func:`build_diagram` turns a validated use case into the classic notation:
stick-figure actors outside a system boundary rectangle, one ellipse per
system function inside it, solid association lines, and dashed
«include»/«extend» arrows.  The user stands on the left; target persons and
secondary actors stand on the right (an actor appearing in several roles is
drawn once).

Associations come from an explicit ``associations`` override when present,
otherwise from scenario steps: each step by a non-``system`` actor
associates that actor with the step's annotated function, or with the only
function when exactly one exists.  Functions no edge touches are kept but
reported as ``diagram.orphan_function`` warnings.

:func:`layout` computes a fixed three-column geometry (reproducible to the
coordinate), :func:`render_svg` emits byte-stable SVG 1.1, and
:func:`render_textual` emits the equivalent PlantUML description.
"""

from __future__ import annotations

import html
import math
import textwrap
from dataclasses import dataclass
from enum import Enum

from .model import (
    Diagnostic,
    SYSTEM_ACTOR,
    Severity,
    UseCase,
    actor_ident,
    require_valid,
)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class EdgeKind(Enum):
    ASSOCIATION = "association"
    INCLUDE = "include"
    EXTEND = "extend"


@dataclass(frozen=True)
class ActorNode:
    name: str
    ident: str
    side: Side


@dataclass(frozen=True)
class EllipseNode:
    id: str
    label: str


@dataclass(frozen=True)
class Edge:
    kind: EdgeKind
    source: str
    target: str


@dataclass(frozen=True)
class Diagram:
    boundary_label: str
    actors: tuple[ActorNode, ...]
    ellipses: tuple[EllipseNode, ...]
    edges: tuple[Edge, ...]
    warnings: tuple[Diagnostic, ...] = ()


# Layout geometry, in SVG user units.
ELLIPSE_W = 160.0
ELLIPSE_H = 60.0
ACTOR_W = 40.0
ACTOR_H = 80.0
GAP = 24.0
PADDING = 32.0
COLUMN_GAP = 64.0
FONT_SIZE = 12.0


@dataclass(frozen=True)
class PositionedDiagram:
    diagram: Diagram
    canvas_w: float
    canvas_h: float
    boundary: tuple[float, float, float, float]
    actor_centers: dict[str, tuple[float, float]]
    ellipse_centers: dict[str, tuple[float, float]]
    ellipse_labels: dict[str, tuple[str, ...]]
    warnings: tuple[Diagnostic, ...] = ()


def _warn(code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message)


def build_diagram(uc: UseCase) -> Diagram:
    """Derive the diagram graph from a valid use case."""
    require_valid(uc)

    actors: list[ActorNode] = []
    seen: set[str] = set()
    user_ident = actor_ident(uc.user.name)
    actors.append(ActorNode(uc.user.name, user_ident, Side.LEFT))
    seen.add(user_ident)
    for actor in uc.target_persons + uc.secondary_actors:
        ident = actor_ident(actor.name)
        if ident in seen:
            continue
        seen.add(ident)
        actors.append(ActorNode(actor.name, ident, Side.RIGHT))

    function_ids = [fn.id for fn in uc.system_functions]
    pairs: list[tuple[str, str]] = []
    if uc.associations:
        for assoc in uc.associations:
            pair = (assoc.actor, assoc.function)
            if pair not in pairs:
                pairs.append(pair)
    else:
        default = function_ids[0] if len(function_ids) == 1 else None
        steps = list(uc.main_scenario)
        for ext in uc.extensions:
            steps.extend(ext.steps)
        for step in steps:
            if step.actor == SYSTEM_ACTOR:
                continue
            function = step.function or default
            if function is None:
                continue
            pair = (step.actor, function)
            if pair not in pairs:
                pairs.append(pair)

    edges = [Edge(EdgeKind.ASSOCIATION, actor, fn) for actor, fn in pairs]
    for fn in uc.system_functions:
        for ref in fn.includes:
            edges.append(Edge(EdgeKind.INCLUDE, fn.id, ref))
    for fn in uc.system_functions:
        for ref in fn.extends:
            edges.append(Edge(EdgeKind.EXTEND, fn.id, ref))

    touched = {e.source for e in edges} | {e.target for e in edges}
    warnings = tuple(
        _warn("diagram.orphan_function",
              f"function {fn.id!r} has no associations and no "
              "include/extend relationships")
        for fn in uc.system_functions if fn.id not in touched)

    ellipses = tuple(EllipseNode(fn.id, fn.label) for fn in uc.system_functions)
    return Diagram(uc.title, tuple(actors), ellipses, tuple(edges), warnings)


def _wrap_label(label: str) -> tuple[tuple[str, ...], bool]:
    """Word-wrap a label to fit the ellipse; at most 3 lines, then ``…``."""
    max_chars = max(1, int((ELLIPSE_W * 0.85) / (FONT_SIZE * 0.6)))
    lines = textwrap.wrap(label, width=max_chars, break_long_words=True,
                          break_on_hyphens=False) or [""]
    if len(lines) <= 3:
        return tuple(lines), False
    kept = lines[:3]
    last = kept[2]
    if len(last) + 1 > max_chars:
        last = last[: max_chars - 1]
    kept[2] = last + "…"
    return tuple(kept), True


def _column_height(count: int, item_h: float) -> float:
    if count == 0:
        return 0.0
    return count * item_h + (count - 1) * GAP


def layout(d: Diagram) -> PositionedDiagram:
    """Three-column layered layout: left actors, boundary, right actors.

    Deterministic: node order in the diagram fixes every coordinate.
    """
    left = [a for a in d.actors if a.side is Side.LEFT]
    right = [a for a in d.actors if a.side is Side.RIGHT]
    n_ellipses = len(d.ellipses)

    boundary_w = ELLIPSE_W + 2 * PADDING
    boundary_h = 2 * PADDING + _column_height(n_ellipses, ELLIPSE_H)
    left_h = _column_height(len(left), ACTOR_H)
    right_h = _column_height(len(right), ACTOR_H)
    content_h = max(boundary_h, left_h, right_h)
    canvas_h = content_h + 2 * PADDING

    x = PADDING
    actor_centers: dict[str, tuple[float, float]] = {}
    if left:
        cx = x + ACTOR_W / 2
        top = PADDING + (content_h - left_h) / 2
        for i, actor in enumerate(left):
            cy = top + i * (ACTOR_H + GAP) + ACTOR_H / 2
            actor_centers[actor.ident] = (cx, cy)
        x += ACTOR_W + COLUMN_GAP

    boundary_x = x
    boundary_y = PADDING + (content_h - boundary_h) / 2
    x += boundary_w

    ellipse_centers: dict[str, tuple[float, float]] = {}
    ellipse_labels: dict[str, tuple[str, ...]] = {}
    warnings: list[Diagnostic] = []
    ecx = boundary_x + PADDING + ELLIPSE_W / 2
    for i, node in enumerate(d.ellipses):
        ecy = boundary_y + PADDING + i * (ELLIPSE_H + GAP) + ELLIPSE_H / 2
        ellipse_centers[node.id] = (ecx, ecy)
        lines, truncated = _wrap_label(node.label)
        ellipse_labels[node.id] = lines
        if truncated:
            warnings.append(_warn(
                "diagram.label_truncated",
                f"label of function {node.id!r} exceeds three wrapped lines "
                "and was truncated"))

    if right:
        cx = x + COLUMN_GAP + ACTOR_W / 2
        top = PADDING + (content_h - right_h) / 2
        for i, actor in enumerate(right):
            cy = top + i * (ACTOR_H + GAP) + ACTOR_H / 2
            actor_centers[actor.ident] = (cx, cy)
        x += COLUMN_GAP + ACTOR_W

    canvas_w = x + PADDING
    return PositionedDiagram(
        diagram=d,
        canvas_w=canvas_w,
        canvas_h=canvas_h,
        boundary=(boundary_x, boundary_y, boundary_w, boundary_h),
        actor_centers=actor_centers,
        ellipse_centers=ellipse_centers,
        ellipse_labels=ellipse_labels,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# SVG rendering


def _fmt(value: float) -> str:
    return f"{value:.1f}"


def _node_center(p: PositionedDiagram, node: str) -> tuple[float, float]:
    if node in p.actor_centers:
        return p.actor_centers[node]
    return p.ellipse_centers[node]


def _anchor(p: PositionedDiagram, node: str,
            toward: tuple[float, float]) -> tuple[float, float]:
    """Point where the edge leaves the node's outline, heading ``toward``."""
    cx, cy = _node_center(p, node)
    dx, dy = toward[0] - cx, toward[1] - cy
    if dx == 0 and dy == 0:
        return (cx, cy)
    if node in p.actor_centers:
        half_w = ACTOR_W / 2
        half_h = ACTOR_H / 2
        t = 1 / max(abs(dx) / half_w, abs(dy) / half_h)
    else:
        rx = ELLIPSE_W / 2
        ry = ELLIPSE_H / 2
        t = 1 / math.sqrt((dx / rx) ** 2 + (dy / ry) ** 2)
    t = min(t, 1.0)
    return (cx + dx * t, cy + dy * t)


def _edge_endpoints(p: PositionedDiagram,
                    edge: Edge) -> tuple[tuple[float, float], tuple[float, float]]:
    source_center = _node_center(p, edge.source)
    target_center = _node_center(p, edge.target)
    start = _anchor(p, edge.source, target_center)
    end = _anchor(p, edge.target, source_center)
    return start, end


def _stick_figure(cx: float, cy: float, w: float, h: float) -> list[str]:
    head_r = h * 0.15
    head_cy = cy - h / 2 + head_r
    neck_y = cy - h / 2 + 2 * head_r
    hip_y = cy + h * 0.15
    arm_y = cy - h * 0.1
    return [
        '<g class="actor">',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(head_cy)}" r="{_fmt(head_r)}" '
        'fill="none" stroke="black"/>',
        f'<polyline points="{_fmt(cx)},{_fmt(neck_y)} {_fmt(cx)},{_fmt(hip_y)}" '
        'fill="none" stroke="black"/>',
        f'<polyline points="{_fmt(cx - w / 2)},{_fmt(arm_y)} '
        f'{_fmt(cx + w / 2)},{_fmt(arm_y)}" fill="none" stroke="black"/>',
        f'<polyline points="{_fmt(cx - w / 2)},{_fmt(cy + h / 2)} '
        f'{_fmt(cx)},{_fmt(hip_y)} {_fmt(cx + w / 2)},{_fmt(cy + h / 2)}" '
        'fill="none" stroke="black"/>',
        "</g>",
    ]


def render_svg(p: PositionedDiagram) -> bytes:
    """Render to SVG 1.1; byte-identical output for identical input."""
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(p.canvas_w)}" height="{_fmt(p.canvas_h)}" '
        f'viewBox="0 0 {_fmt(p.canvas_w)} {_fmt(p.canvas_h)}" '
        f'font-family="sans-serif" font-size="{_fmt(FONT_SIZE)}">')

    needs_marker = any(e.kind is not EdgeKind.ASSOCIATION
                       for e in p.diagram.edges)
    if needs_marker:
        out.append("<defs>")
        out.append(
            '<marker id="arrowhead" markerWidth="12" markerHeight="10" '
            'refX="10" refY="5" orient="auto" markerUnits="userSpaceOnUse">')
        out.append('<polyline points="1,1 10,5 1,9" fill="none" '
                   'stroke="black"/>')
        out.append("</marker>")
        out.append("</defs>")

    bx, by, bw, bh = p.boundary
    out.append(
        f'<rect x="{_fmt(bx)}" y="{_fmt(by)}" width="{_fmt(bw)}" '
        f'height="{_fmt(bh)}" fill="none" stroke="black"/>')

    for node in p.diagram.ellipses:
        cx, cy = p.ellipse_centers[node.id]
        out.append(
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'rx="{_fmt(ELLIPSE_W / 2)}" ry="{_fmt(ELLIPSE_H / 2)}" '
            'fill="none" stroke="black"/>')

    for actor in p.diagram.actors:
        cx, cy = p.actor_centers[actor.ident]
        out.extend(_stick_figure(cx, cy, ACTOR_W, ACTOR_H))

    for edge in p.diagram.edges:
        (x1, y1), (x2, y2) = _edge_endpoints(p, edge)
        if edge.kind is EdgeKind.ASSOCIATION:
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="black"/>')
        else:
            out.append(
                f'<path d="M {_fmt(x1)},{_fmt(y1)} L {_fmt(x2)},{_fmt(y2)}" '
                'fill="none" stroke="black" stroke-dasharray="6,4" '
                'marker-end="url(#arrowhead)"/>')

    # labels last so they stay legible over shapes
    line_h = FONT_SIZE + 2
    out.append(
        f'<text x="{_fmt(bx + bw / 2)}" y="{_fmt(by + FONT_SIZE + 6)}" '
        f'text-anchor="middle" font-weight="bold">'
        f"{html.escape(p.diagram.boundary_label, quote=False)}</text>")
    for node in p.diagram.ellipses:
        cx, cy = p.ellipse_centers[node.id]
        lines = p.ellipse_labels[node.id]
        n = len(lines)
        for i, text in enumerate(lines):
            ty = cy + (i - (n - 1) / 2) * line_h + FONT_SIZE / 3
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(ty)}" text-anchor="middle">'
                f"{html.escape(text, quote=False)}</text>")
    for actor in p.diagram.actors:
        cx, cy = p.actor_centers[actor.ident]
        ty = cy + ACTOR_H / 2 + FONT_SIZE + 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(ty)}" text-anchor="middle">'
            f"{html.escape(actor.name, quote=False)}</text>")
    for edge in p.diagram.edges:
        if edge.kind is EdgeKind.ASSOCIATION:
            continue
        (x1, y1), (x2, y2) = _edge_endpoints(p, edge)
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        word = "include" if edge.kind is EdgeKind.INCLUDE else "extend"
        out.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my - 4)}" text-anchor="middle" '
            f'font-style="italic" font-size="{_fmt(FONT_SIZE - 2)}">'
            f"«{word}»</text>")

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# textual (PlantUML) rendering


def _puml_quote(text: str) -> str:
    # One element per line is part of the contract: whitespace runs
    # (including newlines) collapse to single spaces, quotes become
    # apostrophes so the value cannot terminate the PlantUML string.
    return '"' + " ".join(text.replace('"', "'").split()) + '"'


def render_textual(d: Diagram) -> str:
    """PlantUML use-case description of the diagram, one element per line."""
    lines: list[str] = []
    for actor in d.actors:
        lines.append(f"actor {_puml_quote(actor.name)} as {actor.ident}")
    for node in d.ellipses:
        lines.append(f"usecase {_puml_quote(node.label)} as {node.id}")
    for edge in d.edges:
        if edge.kind is EdgeKind.ASSOCIATION:
            lines.append(f"{edge.source} --> {edge.target}")
        else:
            lines.append(
                f"{edge.source} .> {edge.target} : <<{edge.kind.value}>>")
    return "\n".join(lines) + "\n"
