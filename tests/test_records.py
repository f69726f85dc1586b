"""Every ucdoc record behaves as the frozen dataclass it replaced.

The records derive from ``ucdoc.lexer.Record`` instead of being declared
with ``@dataclass(frozen=True)``.  ``PARENT_FIELDS`` is what
``dataclasses.fields`` read on the dataclass versions: each field as
``name: type``, then `` = default`` and `` [flat prefix]`` where it has
them, with ``*`` in front of a keyword-only one.  The tests check that the
records still read so, and that equality, hashing, ``repr``, immutability,
``replace``, pickling and copying behave as the dataclasses' did.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from conftest import FIXTURE_NAMES, fixture_text
from ucdoc import (
    Association,
    Query,
    RiskLevel,
    build_catalog,
    build_diagram,
    builtin_taxonomy,
    classify,
    layout,
    parse_document,
    stats,
)
from ucdoc.catalog import SCHEMA, _Snapshot
from ucdoc.lexer import Record
from ucdoc.risk import _Classified

PARENT_FIELDS = {
    "ucdoc.lexer.Diagnostic": (
        'severity: Severity', 'code: str', 'message: str',
        'path: Optional[str] = None', 'span: Optional[SourceSpan] = None',
        'file: Optional[str] = None'),
    "ucdoc.model.Actor": ('name: str', 'kind: ActorKind', 'role: ActorRole'),
    "ucdoc.model.ScenarioStep": (
        'index: int', 'actor: str', 'action: str',
        'function: Optional[str] = None'),
    "ucdoc.model.Extension": (
        'branch_id: str', 'condition: str',
        'steps: tuple[ScenarioStep, ...] = ()'),
    "ucdoc.model.ApplicationAreaRef": (
        'area_id: str', 'free_label: Optional[str] = None'),
    "ucdoc.model.Misuse": (
        'description: str', 'area_ref: Optional[ApplicationAreaRef] = None'),
    "ucdoc.model.SystemFunction": (
        'id: str', 'label: str', 'includes: tuple[str, ...] = ()',
        'extends: tuple[str, ...] = ()'),
    "ucdoc.model.Association": ('actor: str', 'function: str'),
    "ucdoc.model.UseCase": (
        '*id: str', '*title: str', '*intended_purpose: str',
        "*level: GoalLevel = <GoalLevel.USER_GOAL: 'user_goal'>",
        '*safety_component: bool = False',
        '*affective_capabilities: tuple[str, ...] = ()', '*user: Actor',
        '*target_persons: tuple[Actor, ...] = ()',
        '*secondary_actors: tuple[Actor, ...] = ()',
        "*context_of_use: str = ''",
        '*application_areas: tuple[ApplicationAreaRef, ...]',
        '*misuses: tuple[Misuse, ...] = ()', '*inputs: tuple[str, ...]',
        '*outputs: tuple[str, ...]', '*preconditions: tuple[str, ...] = ()',
        "*trigger: str = ''", "*success_guarantee: str = ''",
        "*minimal_guarantee: str = ''",
        '*system_functions: tuple[SystemFunction, ...]',
        '*associations: tuple[Association, ...] = ()',
        '*main_scenario: tuple[ScenarioStep, ...]',
        '*extensions: tuple[Extension, ...] = ()'),
    "ucdoc.risk.AreaMatch": (
        'area_id: str', 'tier: Tier', 'area_label: str', 'sub_use_label: str'),
    "ucdoc.risk.TaxonomyEntry": (
        'area_id: str', 'tier: Tier', 'area_label: str', 'sub_use_label: str',
        'keywords: tuple[str, ...] = ()'),
    "ucdoc.risk.Taxonomy": (
        'version: str', 'entries: tuple[TaxonomyEntry, ...]'),
    "ucdoc.risk.MisuseFlag": (
        'description: str', "match: AreaMatch [flat '']"),
    "ucdoc.risk.RiskAssessment": (
        'level: RiskLevel', 'matched: tuple[AreaMatch, ...]',
        'misuse_flags: tuple[MisuseFlag, ...]', 'rationale: tuple[str, ...]'),
    "ucdoc.risk._Classified": (
        'id: str', "assessment: RiskAssessment [flat 'risk_']"),
    "ucdoc.catalog.CatalogEntry": (
        "*source_path: str = ''", "*use_case: UseCase [flat '']",
        "*assessment: RiskAssessment [flat 'risk_']"),
    "ucdoc.catalog.Catalog": (
        'entries: tuple[CatalogEntry, ...]', 'taxonomy: Taxonomy',
        'taxonomy_version: str'),
    "ucdoc.catalog.Query": (
        'risk_level: Optional[RiskLevel] = None',
        'area_id: Optional[str] = None', 'capability: Optional[str] = None',
        'actor_kind: Optional[ActorKind] = None',
        'free_text: Optional[str] = None'),
    "ucdoc.catalog.CatalogStats": (
        'total: int', 'by_level: dict[str, int]', 'by_area: dict[str, int]',
        'by_capability: dict[str, int]'),
    "ucdoc.catalog._Snapshot": (
        '*schema: str', '*taxonomy_version: Optional[str] = None',
        '*generated_fields: tuple[str, ...] = ()',
        '*entries: tuple[CatalogEntry, ...] = ()'),
    "ucdoc.diagram.Edge": ('kind: EdgeKind', 'source: str', 'target: str'),
    "ucdoc.diagram.Diagram": (
        'boundary_label: str', 'actors: tuple[Actor, ...]',
        'ellipses: tuple[SystemFunction, ...]', 'edges: tuple[Edge, ...]',
        'warnings: tuple[Diagnostic, ...] = ()'),
    "ucdoc.diagram.PositionedDiagram": (
        'diagram: Diagram', 'canvas_w: float', 'canvas_h: float',
        'boundary: tuple[float, float, float, float]',
        'actor_centers: dict[str, tuple[float, float]]',
        'ellipse_centers: dict[str, tuple[float, float]]',
        'ellipse_labels: dict[str, tuple[str, ...]]',
        'warnings: tuple[Diagnostic, ...] = ()'),
}


class OneField(Record):
    """A record of one field, which no ucdoc record has: ``Record`` reads
    its field tuple without ``attrgetter``, which returns a bare value for
    one name."""

    value: tuple


@dataclasses.dataclass(frozen=True)
class OneFieldDataclass:
    value: tuple


REPLACERS = [dataclasses.replace] + (
    [copy.replace] if hasattr(copy, "replace") else [])  # Python 3.13+


def name_of(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def describe(f: dataclasses.Field) -> str:
    """One field as ``PARENT_FIELDS`` writes it."""
    text = f"{'*' * f.kw_only}{f.name}: {f.type}"
    if f.default is not dataclasses.MISSING:
        text += f" = {f.default!r}"
    if "flat" in f.metadata:
        text += f" [flat {f.metadata['flat']!r}]"
    return text


def record_classes() -> list[type]:
    """Every subclass of ``Record``, at any depth."""
    found, todo = [], [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += subclasses
        todo += subclasses
    return found


def _walk(value, found: dict) -> None:
    """Collects the first instance of each record class in ``value``."""
    if isinstance(value, Record):
        found.setdefault(type(value), value)
        for name in value._fields:
            _walk(getattr(value, name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _walk(item, found)


@pytest.fixture(scope="module")
def samples() -> dict:
    """One instance of every record class, taken from the pipeline's
    results on the fixtures, the smart camera's misuse flag included."""
    tax = builtin_taxonomy()
    sources = [(f"{n}.ucdl", fixture_text(n)) for n in FIXTURE_NAMES]
    cat, diagnostics = build_catalog(sources, tax)
    roots = [cat, stats(cat), diagnostics, Query(risk_level=RiskLevel.HIGH),
             Association("driver", "monitor"), parse_document("usecase")[1],
             _Snapshot(schema=SCHEMA, entries=cat.entries)]
    for entry in cat.entries:
        uc = entry.use_case
        roots += [_Classified(uc.id, classify(uc, tax)),
                  layout(build_diagram(uc))]
    found: dict = {}
    _walk(roots, found)
    return {name_of(cls): obj for cls, obj in found.items()}


def values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_every_record_class_is_pinned_and_sampled(samples):
    names = {name_of(cls) for cls in record_classes() if cls is not OneField}
    assert names == PARENT_FIELDS.keys()
    assert samples.keys() == PARENT_FIELDS.keys()


@pytest.mark.parametrize("name", PARENT_FIELDS)
def test_fields_read_as_the_dataclass_ones(name, samples):
    obj = samples[name]
    cls = type(obj)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    fields = dataclasses.fields(cls)
    assert tuple(map(describe, fields)) == PARENT_FIELDS[name]
    assert dataclasses.fields(obj) == fields
    assert all(type(f.metadata.get("flat", "")) is str for f in fields)
    assert cls.__match_args__ == tuple(f.name for f in fields
                                       if not f.kw_only)
    kinds = {False: inspect.Parameter.POSITIONAL_OR_KEYWORD,
             True: inspect.Parameter.KEYWORD_ONLY}
    assert [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()] == [
        (f.name, kinds[f.kw_only], inspect.Parameter.empty
         if f.default is dataclasses.MISSING else f.default)
        for f in sorted(fields, key=lambda f: f.kw_only)]
    assert list(dataclasses.asdict(obj)) == [f.name for f in fields]


@pytest.mark.parametrize("name", PARENT_FIELDS)
def test_equality_hash_and_repr_read_the_field_tuple(name, samples):
    obj = samples[name]
    cls, fields = type(obj), dataclasses.fields(obj)
    same = cls(**{f.name: getattr(obj, f.name) for f in fields})
    assert same == obj and not same != obj and same is not obj
    assert obj != values(obj)
    first = fields[0].name
    assert dataclasses.replace(obj, **{first: object()}) != obj
    try:
        expected = hash(values(obj))
    except TypeError:  # a record that holds a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(same) == expected
    fields_text = ", ".join(f"{f.name}={getattr(obj, f.name)!r}"
                            for f in fields)
    assert repr(obj) == f"{cls.__qualname__}({fields_text})"


@pytest.mark.parametrize("replacer", REPLACERS,
                         ids=[f"{r.__module__}.replace" for r in REPLACERS])
@pytest.mark.parametrize("name", PARENT_FIELDS)
def test_replace_makes_a_changed_copy(name, samples, replacer):
    obj = samples[name]
    fields = dataclasses.fields(obj)
    assert replacer(obj) == obj
    changed = replacer(obj, **{fields[-1].name: "changed"})
    assert type(changed) is type(obj)
    assert values(changed) == (*values(obj)[:-1], "changed")
    with pytest.raises(TypeError, match="no_such_field"):
        replacer(obj, no_such_field=1)


@pytest.mark.parametrize("name", PARENT_FIELDS)
def test_fields_cannot_be_set_or_deleted(name, samples):
    obj = samples[name]
    before = values(obj)
    for field in [f.name for f in dataclasses.fields(obj)] + ["no_such_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    assert values(obj) == before


@pytest.mark.parametrize("name", PARENT_FIELDS)
def test_pickle_and_deepcopy_round_trip(name, samples):
    obj = samples[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert back == obj and type(back) is type(obj)
        assert repr(back) == repr(obj)
    deep = copy.deepcopy(obj)
    assert deep == obj and repr(deep) == repr(obj)
    assert copy.copy(obj) == obj


@pytest.mark.parametrize("value", [(), ("a", 1)])
def test_one_field_record_behaves_as_its_dataclass(value):
    obj, dc = OneField(value), OneFieldDataclass(value)
    assert obj == OneField(value) and obj != OneField(("b",))
    assert obj != (value,) and obj != dc
    assert hash(obj) == hash(dc) == hash((value,))
    assert repr(obj) == repr(dc).replace("OneFieldDataclass", "OneField")
    for replacer in REPLACERS:
        assert replacer(obj) == obj
        assert replacer(obj, value=("b",)) == OneField(("b",))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert back == obj and type(back) is OneField and repr(back) == repr(obj)


def test_records_of_two_classes_are_never_equal(samples):
    entry = samples["ucdoc.risk.TaxonomyEntry"]
    area = samples["ucdoc.risk.AreaMatch"].__class__(*values(entry)[:4])
    assert area != entry and entry != area
    assert dataclasses.replace(entry, keywords=()) != area


def test_validation_cache_stays_outside_equality(samples):
    uc = samples["ucdoc.model.UseCase"]
    fresh = dataclasses.replace(uc)
    assert "_diagnostics" not in vars(fresh)
    assert uc._diagnostics == () and "_diagnostics" in vars(uc)
    assert fresh == uc and hash(fresh) == hash(uc)
    assert repr(fresh) == repr(uc)
    assert "_diagnostics" not in [f.name for f in dataclasses.fields(uc)]
