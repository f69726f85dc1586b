"""File-based catalogue of use cases with query, stats, and JSON export.

A catalog is built from ``.ucdl`` sources: every file is parsed and
validated, valid use cases are classified once at build time, and the
resulting entries are kept sorted by id.  Problems never abort the build;
they accumulate as diagnostics that name their file, each with the code
its stage gave it.

The JSON export (schema ``ucdoc-catalog/1``) is a self-contained snapshot:
it records the taxonomy version and the generated risk fields next to the
authored fields, and serializes deterministically so exports can be golden-
file tested byte for byte.  One walk over each record (``model._members``)
lists its JSON members for the reader and the writer alike.  The text is
``json.dumps(doc, indent=2, ensure_ascii=False)``'s, written into one list of
pieces by one function generated from those lists on the first export (none
on a load); ``dumps`` with an ``indent`` runs in Python generators, not in
C.  ``classify --format json`` is written the same way.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterable, Optional

from .model import (
    GENERATED_FIELDS,
    OTHER_AREA,
    ActorKind,
    CatalogFormatError,
    Diagnostic,
    QueryError,
    RiskLevel,
    Severity,
    UseCase,
    _from_dict,
    _writer,
    validate_use_case,
)
from .lexer import Flat, Record, read_ucdl, replace
from .parser import parse_document
from .risk import (
    RiskAssessment,
    Taxonomy,
    classify,
    misuse_diagnostics,
)

SCHEMA = "ucdoc-catalog/1"


class CatalogEntry(Record, kw_only=True):
    """One catalogue entry; the JSON holds it as one flat object, its fields
    in order, the assessment's keys with ``risk_`` in front."""

    source_path: str = ""
    use_case: UseCase = Flat("")
    assessment: RiskAssessment = Flat("risk_")


class Catalog(Record):
    entries: tuple[CatalogEntry, ...]
    taxonomy: Taxonomy
    # Version recorded at build time; survives snapshot round-trips even if
    # the catalog is later reopened with a different taxonomy on hand.
    taxonomy_version: str

    def ids(self) -> list[str]:
        return [e.use_case.id for e in self.entries]


class Query(Record):
    """Conjunctive entry filter; ``None`` fields are ignored."""

    risk_level: Optional[RiskLevel] = None
    area_id: Optional[str] = None
    capability: Optional[str] = None
    actor_kind: Optional[ActorKind] = None
    free_text: Optional[str] = None


class CatalogStats(Record):
    total: int
    by_level: dict[str, int]
    by_area: dict[str, int]
    by_capability: dict[str, int]


# ---------------------------------------------------------------------------
# building


def load_sources(directory: str | Path) -> list[tuple[str, str]]:
    """All regular ``.ucdl`` files under ``directory``, as (relative path,
    text); a directory, socket or broken link named ``*.ucdl`` is skipped.

    Recursive, without following directory links, in sorted path order so
    builds are reproducible.  A directory that cannot be listed is skipped.
    """
    found: list[tuple[list[str], str]] = []     # (path parts, path)
    todo: list[tuple[str, list[str]]] = [(os.fspath(directory), [])]
    while todo:
        path, parts = todo.pop()
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    # is_dir and is_file read the type the listing gave
                    if entry.is_dir(follow_symlinks=False):
                        todo.append((entry.path, parts + [entry.name]))
                    elif entry.name.endswith(".ucdl") and entry.is_file():
                        found.append((parts + [entry.name], entry.path))
        except OSError:
            pass
    return [("/".join(parts), read_ucdl(path)) for parts, path in sorted(found)]


def build_catalog(sources: Iterable[tuple[str, str]],
                  tax: Taxonomy) -> tuple[Catalog, list[Diagnostic]]:
    """Parse, validate and classify every source; never aborts.

    Parse errors, validation errors, duplicate-id errors and misuse-flag
    warnings are all returned as diagnostics; only clean use cases become
    entries.  The first occurrence of a duplicated id wins.
    """
    diagnostics: list[Diagnostic] = []
    by_id: dict[str, CatalogEntry] = {}
    for path, text in sources:
        use_cases, errors = parse_document(text)
        diagnostics.extend(replace(e, file=path) for e in errors)
        for uc in use_cases:
            problems = validate_use_case(uc)
            if problems:
                diagnostics.extend(replace(d, file=path) for d in problems)
                continue
            if uc.id in by_id:
                first = by_id[uc.id].source_path
                diagnostics.append(Diagnostic(
                    Severity.ERROR, "catalog.duplicate_id",
                    f"use case id {uc.id!r} already defined in {first}",
                    file=path))
                continue
            assessment = classify(uc, tax)
            diagnostics.extend(replace(d, file=path)
                               for d in misuse_diagnostics(assessment))
            by_id[uc.id] = CatalogEntry(
                source_path=path, use_case=uc, assessment=assessment)
    entries = tuple(sorted(by_id.values(), key=lambda e: e.use_case.id))
    return Catalog(entries, tax, tax.version), diagnostics


# ---------------------------------------------------------------------------
# querying


def _known_area(area_id: str, tax: Taxonomy) -> bool:
    return (area_id == OTHER_AREA or tax.find(area_id) is not None
            or any(e.area_id.split(".", 1)[0] == area_id for e in tax.entries))


def _matches(entry: CatalogEntry, q: Query) -> bool:
    uc = entry.use_case
    if q.risk_level is not None and entry.assessment.level is not q.risk_level:
        return False
    if q.area_id is not None:
        hit = any(
            ref.area_id == q.area_id
            or ref.area_id.startswith(q.area_id + ".")
            for ref in uc.application_areas)
        if not hit:
            return False
    if q.capability is not None and q.capability not in uc.affective_capabilities:
        return False
    if q.actor_kind is not None:
        if all(a.kind is not q.actor_kind for a in uc.all_actors()):
            return False
    if q.free_text is not None:
        haystack = (uc.title + "\n" + uc.intended_purpose).lower()
        if q.free_text.lower() not in haystack:
            return False
    return True


def query(cat: Catalog, q: Query) -> list[CatalogEntry]:
    """Entries satisfying every filter, in id order.

    Raises :class:`QueryError` when ``q.area_id`` names neither a taxonomy
    entry, a taxonomy area prefix, nor ``other``.
    """
    if q.area_id is not None and not _known_area(q.area_id, cat.taxonomy):
        raise QueryError(
            f"unknown application area {q.area_id!r}; use a taxonomy id, "
            "a taxonomy area prefix, or 'other'")
    return [entry for entry in cat.entries if _matches(entry, q)]


def stats(cat: Catalog) -> CatalogStats:
    """Entry counts per risk level, top-level area, and capability tag."""
    by_level = {level.label: 0
                for level in sorted(RiskLevel, reverse=True)}
    by_area: dict[str, int] = {}
    by_capability: dict[str, int] = {}
    for entry in cat.entries:
        by_level[entry.assessment.level.label] += 1
        segments = {ref.area_id.split(".", 1)[0]
                    for ref in entry.use_case.application_areas}
        for segment in sorted(segments):
            by_area[segment] = by_area.get(segment, 0) + 1
        for tag in entry.use_case.affective_capabilities:
            by_capability[tag] = by_capability.get(tag, 0) + 1
    return CatalogStats(
        total=len(cat.entries),
        by_level=by_level,
        by_area=dict(sorted(by_area.items())),
        by_capability=dict(sorted(by_capability.items())),
    )


# ---------------------------------------------------------------------------
# JSON snapshot


class _Snapshot(Record, kw_only=True):
    """The catalogue JSON document, read and written by the model's walk."""

    schema: str
    taxonomy_version: Optional[str] = None
    generated_fields: tuple[str, ...] = ()
    entries: tuple[CatalogEntry, ...] = ()


def export_json(cat: Catalog) -> bytes:
    """Deterministic UTF-8 JSON snapshot of the catalog."""
    doc = _Snapshot(schema=SCHEMA, taxonomy_version=cat.taxonomy_version,
                    generated_fields=GENERATED_FIELDS, entries=cat.entries)
    return (_writer(_Snapshot)(doc) + "\n").encode("utf-8")


def load_catalog_json(data: bytes | str, tax: Taxonomy) -> Catalog:
    """Load an exported snapshot; stored assessments are kept verbatim.

    ``tax`` backs area-id validation in later queries; entries are *not*
    reclassified, so the snapshot remains faithful to its build.  Raises
    :class:`CatalogFormatError` for an unknown key or a wrong-typed value at
    any level, naming the entry index and field path, and for an entry that
    fails validation or repeats an earlier id.
    """
    try:
        doc = json.loads(data)
    except ValueError as exc:  # also UnicodeDecodeError, for bytes
        raise CatalogFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CatalogFormatError("JSON nested too deeply") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise CatalogFormatError(
            f"unsupported catalog schema {doc.get('schema')!r}"
            if isinstance(doc, dict) else "top-level JSON value must be an object")
    try:
        snapshot = _from_dict(_Snapshot, doc)
    except CatalogFormatError as exc:
        raise CatalogFormatError(re.sub(  # the path entries[i].… names entry i
            r"\Aentries\[(\d+)\](?:\.|: |(?=\[))", r"bad fields in entry \1: ",
            str(exc))) from None
    first_index: dict[str, int] = {}
    for i, entry in enumerate(snapshot.entries):
        uc = entry.use_case
        problems = validate_use_case(uc)
        if problems:
            raise CatalogFormatError(f"bad fields in entry {i}: " + "; ".join(
                f"{d.location}: [{d.code}] {d.message}" for d in problems))
        if uc.id in first_index:
            raise CatalogFormatError(
                f"duplicate id {uc.id!r} in entry {i} "
                f"(first in entry {first_index[uc.id]})")
        first_index[uc.id] = i
    entries = tuple(sorted(snapshot.entries, key=lambda e: e.use_case.id))
    version = snapshot.taxonomy_version
    return Catalog(entries, tax, tax.version if version is None else version)
