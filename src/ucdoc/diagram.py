"""UML use-case diagram construction, layout, and rendering.

:func:`build_diagram` turns a validated use case into the classic notation:
stick-figure actors outside a system boundary rectangle, one ellipse per
system function inside it, solid association lines, and dashed
«include»/«extend» arrows.  Its actors are the use case's own ``Actor``
objects, keyed by ``actor_ident``: the user stands on the left, the others on
the right, and an actor in several roles is drawn once, as in its first role.

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
    Actor,
    ActorRole,
    Diagnostic,
    SYSTEM_ACTOR,
    Severity,
    SystemFunction,
    UseCase,
    actor_ident,
    require_valid,
)


class EdgeKind(Enum):
    ASSOCIATION = "association"
    INCLUDE = "include"
    EXTEND = "extend"


@dataclass(frozen=True)
class Edge:
    kind: EdgeKind
    source: str
    target: str


@dataclass(frozen=True)
class Diagram:
    boundary_label: str
    actors: tuple[Actor, ...]   # one per ident, as in its first role
    ellipses: tuple[SystemFunction, ...]   # drawn by id and label
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

    actors: dict[str, Actor] = {}  # by ident; the first role wins
    for actor in uc.all_actors():
        actors.setdefault(actor_ident(actor.name), actor)

    if uc.associations:
        pairs = [(assoc.actor, assoc.function) for assoc in uc.associations]
    else:
        default = (uc.system_functions[0].id
                   if len(uc.system_functions) == 1 else None)
        steps = uc.main_scenario + tuple(
            step for ext in uc.extensions for step in ext.steps)
        pairs = [(step.actor, step.function or default) for step in steps
                 if step.actor != SYSTEM_ACTOR]

    edges = [Edge(EdgeKind.ASSOCIATION, actor, fn)
             for actor, fn in dict.fromkeys(pairs) if fn is not None]
    edges += [Edge(kind, fn.id, ref)
              for kind, refs in ((EdgeKind.INCLUDE, "includes"),
                                 (EdgeKind.EXTEND, "extends"))
              for fn in uc.system_functions for ref in getattr(fn, refs)]

    # An association's source is an actor, whose ident may equal a function
    # id, so only the function ends of the edges count.
    reached = {e.target for e in edges} | {
        e.source for e in edges if e.kind is not EdgeKind.ASSOCIATION}
    warnings = tuple(
        _warn("diagram.orphan_function",
              f"function {fn.id!r} has no associations and no "
              "include/extend relationships")
        for fn in uc.system_functions if fn.id not in reached)

    return Diagram(uc.title, tuple(actors.values()), uc.system_functions,
                   tuple(edges), warnings)


def _wrap_label(label: str) -> tuple[tuple[str, ...], bool]:
    """Word-wrap a label to fit the ellipse; at most 3 lines, then ``…``."""
    max_chars = max(1, int((ELLIPSE_W * 0.85) / (FONT_SIZE * 0.6)))
    lines = textwrap.wrap(label, width=max_chars, break_long_words=True,
                          break_on_hyphens=False) or [""]
    if len(lines) <= 3:
        return tuple(lines), False
    kept = lines[:3]
    kept[2] = kept[2][: max_chars - 1] + "…"
    return tuple(kept), True


def _column(count: int, item_h: float, content_h: float) -> list[float]:
    """Centre heights of a stack of ``count`` items, ``GAP`` apart, centred
    in the content height."""
    top = PADDING + (content_h - (count * item_h + (count - 1) * GAP)) / 2
    return [top + i * (item_h + GAP) + item_h / 2 for i in range(count)]


def layout(d: Diagram) -> PositionedDiagram:
    """Three-column layered layout: the user, boundary, the other actors.

    Deterministic: node order in the diagram fixes every coordinate.
    """
    left = [a for a in d.actors if a.role is ActorRole.USER]
    right = [a for a in d.actors if a.role is not ActorRole.USER]
    n_ellipses = len(d.ellipses)

    boundary_w = ELLIPSE_W + 2 * PADDING
    boundary_h = 2 * PADDING + max(0.0, n_ellipses * (ELLIPSE_H + GAP) - GAP)
    # The taller actor column; with no actors it reads -GAP.
    actors_h = max(len(left), len(right)) * (ACTOR_H + GAP) - GAP
    content_h = max(boundary_h, actors_h)

    boundary_x = PADDING + (ACTOR_W + COLUMN_GAP if left else 0.0)
    boundary_y = PADDING + (content_h - boundary_h) / 2
    right_x = boundary_x + boundary_w + COLUMN_GAP + ACTOR_W / 2
    canvas_w = (boundary_x + boundary_w
                + (COLUMN_GAP + ACTOR_W if right else 0.0) + PADDING)

    actor_centers: dict[str, tuple[float, float]] = {}
    for column, cx in ((left, PADDING + ACTOR_W / 2), (right, right_x)):
        for actor, cy in zip(column, _column(len(column), ACTOR_H, content_h)):
            actor_centers[actor_ident(actor.name)] = (cx, cy)

    ecx = boundary_x + PADDING + ELLIPSE_W / 2
    ellipse_centers: dict[str, tuple[float, float]] = {}
    ellipse_labels: dict[str, tuple[str, ...]] = {}
    warnings: list[Diagnostic] = []
    ellipse_ys = _column(n_ellipses, ELLIPSE_H, content_h)
    for node, ecy in zip(d.ellipses, ellipse_ys):
        ellipse_centers[node.id] = (ecx, ecy)
        lines, truncated = _wrap_label(node.label)
        ellipse_labels[node.id] = lines
        if truncated:
            warnings.append(_warn(
                "diagram.label_truncated",
                f"label of function {node.id!r} exceeds three wrapped lines "
                "and was truncated"))

    return PositionedDiagram(
        diagram=d,
        canvas_w=canvas_w,
        canvas_h=content_h + 2 * PADDING,
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


# The characters XML 1.0 forbids in a document, which a UCDL string may hold.
_NOT_XML = dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")


def _text(value: str) -> str:
    """``value`` as XML 1.0 text: escaped, each forbidden character U+FFFD."""
    return html.escape(value.translate(_NOT_XML), quote=False)


def _clip(center: tuple[float, float], toward: tuple[float, float],
          actor: bool) -> tuple[float, float]:
    """Point where an edge leaves a node's outline, heading ``toward``: an
    actor's box, or else a function's ellipse."""
    cx, cy = center
    dx, dy = toward[0] - cx, toward[1] - cy
    if dx == 0 and dy == 0:
        return center
    if actor:
        t = 1 / max(abs(dx) / (ACTOR_W / 2), abs(dy) / (ACTOR_H / 2))
    else:
        t = 1 / math.sqrt((dx / (ELLIPSE_W / 2)) ** 2
                          + (dy / (ELLIPSE_H / 2)) ** 2)
    t = min(t, 1.0)
    return (cx + dx * t, cy + dy * t)


def _edge_endpoints(p: PositionedDiagram,
                    edge: Edge) -> tuple[tuple[float, float], tuple[float, float]]:
    """An association runs from an actor to a function; include and extend
    run from a function to a function."""
    association = edge.kind is EdgeKind.ASSOCIATION
    source = (p.actor_centers if association else p.ellipse_centers)[edge.source]
    target = p.ellipse_centers[edge.target]
    return _clip(source, target, association), _clip(target, source, False)


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
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(p.canvas_w)}" height="{_fmt(p.canvas_h)}" '
        f'viewBox="0 0 {_fmt(p.canvas_w)} {_fmt(p.canvas_h)}" '
        f'font-family="sans-serif" font-size="{_fmt(FONT_SIZE)}">']

    if any(e.kind is not EdgeKind.ASSOCIATION for e in p.diagram.edges):
        out += [
            "<defs>",
            '<marker id="arrowhead" markerWidth="12" markerHeight="10" '
            'refX="10" refY="5" orient="auto" markerUnits="userSpaceOnUse">',
            '<polyline points="1,1 10,5 1,9" fill="none" stroke="black"/>',
            "</marker>",
            "</defs>"]

    # Each node's label goes to ``labels``, written after every shape, so
    # that the labels stay legible over the shapes.
    bx, by, bw, bh = p.boundary
    out.append(
        f'<rect x="{_fmt(bx)}" y="{_fmt(by)}" width="{_fmt(bw)}" '
        f'height="{_fmt(bh)}" fill="none" stroke="black"/>')
    labels = [
        f'<text x="{_fmt(bx + bw / 2)}" y="{_fmt(by + FONT_SIZE + 6)}" '
        f'text-anchor="middle" font-weight="bold">'
        f"{_text(p.diagram.boundary_label)}</text>"]

    line_h = FONT_SIZE + 2
    for node in p.diagram.ellipses:
        cx, cy = p.ellipse_centers[node.id]
        out.append(
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'rx="{_fmt(ELLIPSE_W / 2)}" ry="{_fmt(ELLIPSE_H / 2)}" '
            'fill="none" stroke="black"/>')
        lines = p.ellipse_labels[node.id]
        for i, text in enumerate(lines):
            ty = cy + (i - (len(lines) - 1) / 2) * line_h + FONT_SIZE / 3
            labels.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(ty)}" text-anchor="middle">'
                f"{_text(text)}</text>")

    for actor in p.diagram.actors:
        cx, cy = p.actor_centers[actor_ident(actor.name)]
        out.extend(_stick_figure(cx, cy, ACTOR_W, ACTOR_H))
        ty = cy + ACTOR_H / 2 + FONT_SIZE + 2
        labels.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(ty)}" text-anchor="middle">'
            f"{_text(actor.name)}</text>")

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
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            labels.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(my - 4)}" text-anchor="middle" '
                f'font-style="italic" font-size="{_fmt(FONT_SIZE - 2)}">'
                f"«{edge.kind.value}»</text>")

    out += labels
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
    """PlantUML use-case description of the diagram, one element per line.

    A node's alias is its ident or id, but a function whose id is an actor's
    ident is called ``uc_<id>``, then ``uc_<id>_2``… until no node has it.
    """
    actors = {actor_ident(a.name) for a in d.actors}
    taken = actors | {n.id for n in d.ellipses}
    alias = {n.id: n.id for n in d.ellipses}
    for n in d.ellipses:  # in order, so that the output is deterministic
        if n.id in actors:
            name, suffix = f"uc_{n.id}", 1
            while name in taken:
                suffix += 1
                name = f"uc_{n.id}_{suffix}"
            taken.add(name)
            alias[n.id] = name
    lines = [f"actor {_puml_quote(a.name)} as {actor_ident(a.name)}"
             for a in d.actors]
    lines += [f"usecase {_puml_quote(n.label)} as {alias[n.id]}"
              for n in d.ellipses]
    lines += [f"{e.source} --> {alias[e.target]}"
              if e.kind is EdgeKind.ASSOCIATION else
              f"{alias[e.source]} .> {alias[e.target]} : <<{e.kind.value}>>"
              for e in d.edges]
    return "\n".join(lines) + "\n"
