from __future__ import annotations

import io
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from support import make_use_case
from ucdoc import (
    EdgeKind,
    build_diagram,
    canonicalize,
    layout,
    render_svg,
    render_textual,
)
from ucdoc.diagram import (
    ACTOR_H,
    ACTOR_W,
    COLUMN_GAP,
    ELLIPSE_H,
    ELLIPSE_W,
    GAP,
    PADDING,
    Diagram,
    Edge,
)
from ucdoc.cli import run
from ucdoc.model import (
    Actor,
    ActorKind,
    ActorRole,
    Association,
    SystemFunction,
    ValidationFailedError,
    actor_ident,
)
from test_model import base_use_case, u
from test_parser import MINIMAL, parse_one


def boxes(p):
    """Bounding boxes of every node: (name, x0, y0, x1, y1)."""
    out = []
    for ident, (cx, cy) in p.actor_centers.items():
        out.append((f"actor:{ident}", cx - ACTOR_W / 2, cy - ACTOR_H / 2,
                    cx + ACTOR_W / 2, cy + ACTOR_H / 2))
    for fid, (cx, cy) in p.ellipse_centers.items():
        out.append((f"ellipse:{fid}", cx - ELLIPSE_W / 2, cy - ELLIPSE_H / 2,
                    cx + ELLIPSE_W / 2, cy + ELLIPSE_H / 2))
    return out


def assert_geometry(p):
    bx, by, bw, bh = p.boundary
    for fid, (cx, cy) in p.ellipse_centers.items():
        assert bx < cx < bx + bw, fid
        assert by < cy < by + bh, fid
    for ident, (cx, cy) in p.actor_centers.items():
        inside = bx < cx < bx + bw and by < cy < by + bh
        assert not inside, ident
    all_boxes = boxes(p)
    for i, (na, ax0, ay0, ax1, ay1) in enumerate(all_boxes):
        assert 0 <= ax0 and 0 <= ay0, na
        assert ax1 <= p.canvas_w and ay1 <= p.canvas_h, na
        for nb, bx0, by0, bx1, by1 in all_boxes[i + 1:]:
            separated = ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0
            assert separated, f"{na} overlaps {nb}"


def test_minimal_diagram_shape():
    d = build_diagram(parse_one(MINIMAL))
    assert [(actor_ident(a.name), a.role) for a in d.actors] == [
        ("u", ActorRole.USER)]
    assert [e.id for e in d.ellipses] == ["f"]
    assert [(e.kind, e.source, e.target) for e in d.edges] == [
        (EdgeKind.ASSOCIATION, "u", "f")]
    assert d.warnings == ()


def test_unannotated_step_with_multiple_functions_gives_no_association():
    src = MINIMAL.replace('functions { f: "F" }', 'functions { f: "F" g: "G" }')
    d = build_diagram(parse_one(src))
    assert [e for e in d.edges if e.kind is EdgeKind.ASSOCIATION] == []
    assert sorted(w.code for w in d.warnings) == [
        "diagram.orphan_function", "diagram.orphan_function"]


def test_user_left_targets_right():
    uc = canonicalize(base_use_case())
    d = build_diagram(uc)
    roles = {actor_ident(a.name): a.role for a in d.actors}
    assert roles["operator"] is ActorRole.USER
    assert roles["visitor"] is ActorRole.TARGET_PERSON
    p = layout(d)
    bx, _, bw, _ = p.boundary
    assert p.actor_centers["operator"][0] < bx
    assert p.actor_centers["visitor"][0] > bx + bw


def test_actor_in_several_roles_is_drawn_once_as_in_its_first_role():
    user = Actor("Driver", ActorKind.HUMAN, ActorRole.USER)
    persons = (Actor("driver", ActorKind.HUMAN, ActorRole.TARGET_PERSON),
               Actor("Passenger", ActorKind.HUMAN, ActorRole.TARGET_PERSON))
    helper = Actor("PASSENGER", ActorKind.HUMAN, ActorRole.SECONDARY)
    steps = base_use_case().main_scenario
    uc = u(user=user, target_persons=persons, secondary_actors=(helper,),
           main_scenario=(replace(steps[0], actor="driver"), *steps[1:]),
           associations=(Association("driver", "scan"),))
    d = build_diagram(uc)
    assert len(d.actors) == 2
    assert d.actors[0] is user and d.actors[1] is persons[1]
    p = layout(d)
    assert set(p.actor_centers) == {"driver", "passenger"}
    bx, _, bw, _ = p.boundary
    assert p.actor_centers["driver"][0] < bx
    assert p.actor_centers["passenger"][0] > bx + bw
    assert render_textual(d).splitlines()[:2] == [
        'actor "Driver" as driver', 'actor "Passenger" as passenger']


def test_include_extend_edges_in_declaration_order():
    src = MINIMAL.replace(
        'functions { f: "F" }',
        'functions { f: "F" includes: [g] g: "G" extends: [f] h: "H" }')
    src = src.replace('scenario { 1 U: "does" }',
                      'scenario { 1 U: "does" -> f 2 U: "x" -> g 3 U: "x" -> h }')
    d = build_diagram(parse_one(src))
    kinds = [(e.kind, e.source, e.target) for e in d.edges
             if e.kind is not EdgeKind.ASSOCIATION]
    assert kinds == [(EdgeKind.INCLUDE, "f", "g"), (EdgeKind.EXTEND, "g", "f")]


def test_explicit_associations_override_inference():
    src = MINIMAL[:-1] + ' associations: [u -> f] }'
    uc = parse_one(src)
    d = build_diagram(uc)
    assert [(e.source, e.target) for e in d.edges] == [("u", "f")]


def test_build_diagram_rejects_invalid():
    with pytest.raises(ValidationFailedError):
        build_diagram(replace(canonicalize(base_use_case()), id=""))


def test_stacking_formula_ten_ellipses():
    functions = " ".join(f'f{i}: "F{i}"' for i in range(10))
    steps = " ".join(f'{i + 1} U: "s" -> f{i}' for i in range(10))
    src = MINIMAL.replace('functions { f: "F" }', f'functions {{ {functions} }}')
    src = src.replace('scenario { 1 U: "does" }', f'scenario {{ {steps} }}')
    p = layout(build_diagram(parse_one(src)))
    _, by, _, _ = p.boundary
    for i in range(10):
        cx, cy = p.ellipse_centers[f"f{i}"]
        expected = by + PADDING + i * (ELLIPSE_H + GAP) + ELLIPSE_H / 2
        assert cy == pytest.approx(expected)


def test_boundary_min_size_single_ellipse():
    p = layout(build_diagram(parse_one(MINIMAL)))
    _, _, bw, bh = p.boundary
    assert bw == pytest.approx(ELLIPSE_W + 2 * PADDING)
    assert bh == pytest.approx(ELLIPSE_H + 2 * PADDING)


def test_layout_is_deterministic():
    uc = parse_one(MINIMAL)
    d = build_diagram(uc)
    assert layout(d) == layout(d)


def test_layout_of_hand_built_diagrams_with_empty_columns():
    # layout is public, so a diagram may lack actors on a side, or ellipses.
    bw = ELLIPSE_W + 2 * PADDING
    empty = layout(Diagram("T", (), (), ()))
    assert empty.boundary == (PADDING, PADDING, bw, 2 * PADDING)
    assert (empty.canvas_w, empty.canvas_h) == (bw + 2 * PADDING, 4 * PADDING)
    right = layout(Diagram(
        "T", (Actor("R", ActorKind.HUMAN, ActorRole.SECONDARY),), (), ()))
    assert right.boundary == (PADDING, PADDING + (ACTOR_H - 2 * PADDING) / 2,
                              bw, 2 * PADDING)
    assert right.actor_centers == {
        "r": (PADDING + bw + COLUMN_GAP + ACTOR_W / 2, PADDING + ACTOR_H / 2)}
    assert (right.canvas_w, right.canvas_h) == (
        PADDING + bw + COLUMN_GAP + ACTOR_W + PADDING, ACTOR_H + 2 * PADDING)


def test_geometry_invariants_random(subtests=None):
    rng = random.Random(314)
    for _ in range(100):
        uc = make_use_case(rng)
        assert_geometry(layout(build_diagram(uc)))


# ---------------------------------------------------------------------------
# SVG rendering


def svg_counts(svg: bytes) -> dict[str, int]:
    text = svg.decode("utf-8")
    return {
        "rect": len(re.findall(r"<rect[ >]", text)),
        "ellipse": len(re.findall(r"<ellipse[ >]", text)),
        "line": len(re.findall(r"<line[ >]", text)),
        "path": len(re.findall(r"<path[ >]", text)),
        "actor_group": len(re.findall(r'<g class="actor"', text)),
    }


def test_minimal_svg_element_counts():
    svg = render_svg(layout(build_diagram(parse_one(MINIMAL))))
    assert svg_counts(svg) == {
        "rect": 1, "ellipse": 1, "line": 1, "path": 0, "actor_group": 1}


def test_svg_node_count_conservation():
    rng = random.Random(316)
    for _ in range(40):
        uc = make_use_case(rng)
        d = build_diagram(uc)
        counts = svg_counts(render_svg(layout(d)))
        assert counts["rect"] == 1
        assert counts["ellipse"] == len(d.ellipses)
        assert counts["actor_group"] == len(d.actors)
        assert counts["line"] + counts["path"] == len(d.edges)


def test_svg_is_well_formed_and_escaped():
    uc = canonicalize(replace(
        base_use_case(),
        title='Has <angle> & "quote"',
        system_functions=(replace(base_use_case().system_functions[0],
                                  label="a < b & c"),
                          base_use_case().system_functions[1]),
    ))
    svg = render_svg(layout(build_diagram(uc)))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("version") == "1.1"


# The characters XML 1.0 forbids in a document, which a UCDL string may hold.
NOT_XML = [*map(chr, range(0x09)), "\x0b", "\x0c",
           *map(chr, range(0x0E, 0x20)), "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", NOT_XML)
def test_svg_text_is_xml_1_0_text(char):
    # The title, a function label and an actor name each hold ``char``; the
    # SVG writes it as U+FFFD (the label's wrap may make it a space).
    base = base_use_case()
    uc = canonicalize(replace(
        base, title=f"Scan{char}it",
        system_functions=(replace(base.system_functions[0],
                                  label=f"Scan{char}faces"),
                          base.system_functions[1]),
        target_persons=(replace(base.target_persons[0], name=f"Visi{char}tor"),),
    ))
    root = ET.fromstring(render_svg(layout(build_diagram(uc))))
    texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"Scan\ufffdit", "Visi\ufffdtor"} <= texts
    assert texts & {"Scan\ufffdfaces", "Scan faces"}


def test_svg_byte_identical_across_runs():
    rng = random.Random(317)
    for _ in range(10):
        uc = make_use_case(rng)
        p = layout(build_diagram(uc))
        assert render_svg(p) == render_svg(p)


def test_an_edge_whose_ends_coincide_is_a_point():
    # render_svg is public, so a hand-built layout may put an actor on the
    # function it uses; the edge then has no direction to clip along.
    d = Diagram("T", (Actor("U", ActorKind.HUMAN, ActorRole.USER),),
                (SystemFunction("f", "F"),),
                (Edge(EdgeKind.ASSOCIATION, "u", "f"),))
    p = replace(layout(d), actor_centers={"u": (90.0, 80.0)},
                ellipse_centers={"f": (90.0, 80.0)})
    svg = render_svg(p)
    lines = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}line")
    assert [line.attrib for line in lines] == [
        {"x1": "90.0", "y1": "80.0", "x2": "90.0", "y2": "80.0",
         "stroke": "black"}]


def test_include_edge_is_dashed_with_label():
    src = MINIMAL.replace('functions { f: "F" }',
                          'functions { f: "F" includes: [g] g: "G" }')
    src = src.replace('1 U: "does"', '1 U: "does" -> f 2 U: "x" -> g')
    svg = render_svg(layout(build_diagram(parse_one(src)))).decode()
    assert "stroke-dasharray" in svg
    assert "marker-end" in svg
    assert "«include»" in svg


def test_extend_label():
    src = MINIMAL.replace('functions { f: "F" }',
                          'functions { f: "F" extends: [g] g: "G" }')
    src = src.replace('1 U: "does"', '1 U: "does" -> f 2 U: "x" -> g')
    svg = render_svg(layout(build_diagram(parse_one(src)))).decode()
    assert "«extend»" in svg


def test_label_truncation_warning():
    long_label = "extraordinarily sophisticated physiological measurement " * 4
    uc = canonicalize(replace(
        base_use_case(),
        system_functions=(
            replace(base_use_case().system_functions[0], label=long_label),
            base_use_case().system_functions[1])))
    d = build_diagram(uc)
    p = layout(d)
    assert "diagram.label_truncated" in [w.code for w in p.warnings]
    lines = p.ellipse_labels["scan"]
    assert len(lines) == 3
    assert lines[-1].endswith("…")


# ---------------------------------------------------------------------------
# an actor and a function that share a name

# The user's ident, photographer, is also the id of a function that no edge
# reaches.
SHARED_NAME_DOC = """\
usecase "Shared name" {
  id: shared-name
  intended_purpose: "p"
  user {
    name: "Photographer"
    kind: human
  }
  application_areas: [other("leisure photography")]
  inputs: ["i"]
  outputs: ["o"]
  functions {
    photographer: "Portrait"
    shoot: "Shoot"
  }
  scenario {
    1 photographer: "takes a picture" -> shoot
  }
}
"""


def svg_edge_ends(svg: bytes) -> list:
    """Start and end of every drawn edge, in drawing order."""
    ends = []
    for el in ET.fromstring(svg).iter():
        if el.tag.endswith("}line"):
            x1, y1, x2, y2 = (float(el.get(k)) for k in ("x1", "y1", "x2", "y2"))
        elif el.tag.endswith("}path"):
            x1, y1, x2, y2 = map(float, re.findall(r"-?[0-9.]+", el.get("d")))
        else:
            continue
        ends.append(((x1, y1), (x2, y2)))
    return ends


def rename_function(uc, old: str, new: str):
    """``uc`` with function ``old`` called ``new`` in every reference."""
    def ref(name):
        return new if name == old else name

    def steps(seq):
        return tuple(replace(s, function=s.function and ref(s.function))
                     for s in seq)

    return replace(
        uc,
        system_functions=tuple(
            replace(fn, id=ref(fn.id), includes=tuple(map(ref, fn.includes)),
                    extends=tuple(map(ref, fn.extends)))
            for fn in uc.system_functions),
        main_scenario=steps(uc.main_scenario),
        extensions=tuple(replace(e, steps=steps(e.steps))
                         for e in uc.extensions),
        associations=tuple(replace(a, function=ref(a.function))
                           for a in uc.associations))


def test_orphan_function_named_like_the_user_is_reported():
    # The actor's ident used to count as a reached function.
    d = build_diagram(parse_one(SHARED_NAME_DOC))
    assert [(w.code, w.message) for w in d.warnings] == [(
        "diagram.orphan_function",
        "function 'photographer' has no associations and no include/extend "
        "relationships")]


def test_association_to_function_named_like_its_actor_ends_on_the_ellipse():
    # Both ends used to be looked up as the actor: a zero-length line.
    src = SHARED_NAME_DOC.replace("-> shoot", "-> photographer")
    src = src.replace('    shoot: "Shoot"\n', "")
    p = layout(build_diagram(parse_one(src)))
    ax, ay = p.actor_centers["photographer"]
    ex, ey = p.ellipse_centers["photographer"]
    assert ay == ey
    assert svg_edge_ends(render_svg(p)) == [
        ((ax + ACTOR_W / 2, ay), (ex - ELLIPSE_W / 2, ey))]


def test_render_strict_fails_on_orphan_named_like_the_user(tmp_path):
    src = tmp_path / "shared.ucdl"
    src.write_text(SHARED_NAME_DOC, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(["render", "--strict", str(src), "--out",
                str(tmp_path / "shared.svg")], stdout=out, stderr=err)
    assert code == 1
    assert err.getvalue().count("[diagram.orphan_function]") == 1


def test_edges_end_on_their_nodes_when_a_function_has_the_users_name():
    rng = random.Random(319)
    shared_ends = 0
    for _ in range(100):
        uc = make_use_case(rng)
        user = actor_ident(uc.user.name)
        ids = [fn.id for fn in uc.system_functions]
        if user not in ids:
            uc = rename_function(uc, ids[0], user)
        p = layout(build_diagram(uc))
        ends = svg_edge_ends(render_svg(p))
        assert len(ends) == len(p.diagram.edges)
        for edge, ((x1, y1), (x2, y2)) in zip(p.diagram.edges, ends):
            if edge.kind is EdgeKind.ASSOCIATION:
                cx, cy = p.actor_centers[edge.source]
                on_box = max(abs(x1 - cx) / (ACTOR_W / 2),
                             abs(y1 - cy) / (ACTOR_H / 2))
                assert on_box == pytest.approx(1, abs=0.01), edge
            cx, cy = p.ellipse_centers[edge.target]
            on_ellipse = (((x2 - cx) / (ELLIPSE_W / 2)) ** 2
                          + ((y2 - cy) / (ELLIPSE_H / 2)) ** 2)
            assert on_ellipse == pytest.approx(1, abs=0.01), edge
            shared_ends += edge.target == user
    assert shared_ends >= 100


# ---------------------------------------------------------------------------
# textual export


def test_textual_minimal_three_lines():
    text = render_textual(build_diagram(parse_one(MINIMAL)))
    assert text == 'actor "U" as u\nusecase "F" as f\nu --> f\n'


def test_textual_extend_syntax():
    src = MINIMAL.replace('functions { f: "F" }',
                          'functions { f: "F" extends: [g] g: "G" }')
    src = src.replace('1 U: "does"', '1 U: "does" -> f 2 U: "x" -> g')
    text = render_textual(build_diagram(parse_one(src)))
    assert "f .> g : <<extend>>" in text


def test_textual_collapses_newlines_and_quotes():
    uc = canonicalize(replace(base_use_case(), title='T',
                              system_functions=(
        replace(base_use_case().system_functions[0], label='multi\nline "x"'),
        base_use_case().system_functions[1])))
    text = render_textual(build_diagram(uc))
    assert '"multi line \'x\'"' in text
    for line in text.splitlines():
        assert line.startswith(("actor ", "usecase ")) or "->" in line or ".>" in line


def test_textual_deterministic():
    rng = random.Random(318)
    for _ in range(20):
        d = build_diagram(make_use_case(rng))
        assert render_textual(d) == render_textual(d)


def test_textual_renames_a_function_named_like_an_actor():
    # photographer is the user's ident and a function id; uc_photographer is
    # taken by another function, so the renamed one becomes uc_photographer_2.
    src = SHARED_NAME_DOC.replace(
        '    photographer: "Portrait"\n    shoot: "Shoot"\n',
        '    photographer: "Portrait" includes: [uc_photographer]\n'
        '    uc_photographer: "Other"\n'
        '    shoot: "Shoot" extends: [photographer]\n')
    assert render_textual(build_diagram(parse_one(src))) == (
        'actor "Photographer" as photographer\n'
        'usecase "Portrait" as uc_photographer_2\n'
        'usecase "Other" as uc_photographer\n'
        'usecase "Shoot" as shoot\n'
        'photographer --> shoot\n'
        'uc_photographer_2 .> uc_photographer : <<include>>\n'
        'shoot .> uc_photographer_2 : <<extend>>\n')


def test_textual_declares_each_alias_once_and_edges_name_their_nodes():
    # A function is named like the user in every use case, and in every
    # second one another function takes the alias that one is renamed to.
    rng = random.Random(320)
    renamed = 0
    for i in range(100):
        uc = make_use_case(rng)
        user = actor_ident(uc.user.name)
        ids = [fn.id for fn in uc.system_functions]
        if user not in ids:
            uc = rename_function(uc, ids[0], user)
        others = [fn.id for fn in uc.system_functions if fn.id != user]
        if i % 2 and others and f"uc_{user}" not in others:
            uc = rename_function(uc, others[0], f"uc_{user}")
        d = build_diagram(uc)
        lines = render_textual(d).splitlines()
        n_nodes = len(d.actors) + len(d.ellipses)
        decls = [re.fullmatch(r'(actor|usecase) ".*" as (\S+)', line)
                 for line in lines[:n_nodes]]
        aliases = [m[2] for m in decls]
        assert [m[1] for m in decls] == (["actor"] * len(d.actors)
                                         + ["usecase"] * len(d.ellipses))
        assert len(set(aliases)) == len(aliases)
        actor = dict(zip((actor_ident(a.name) for a in d.actors), aliases))
        function = dict(zip((n.id for n in d.ellipses),
                            aliases[len(d.actors):]))
        assert lines[n_nodes:] == [
            f"{actor[e.source]} --> {function[e.target]}"
            if e.kind is EdgeKind.ASSOCIATION else
            f"{function[e.source]} .> {function[e.target]} : <<{e.kind.value}>>"
            for e in d.edges]
        renamed += function[user] != user
    assert renamed == 100
