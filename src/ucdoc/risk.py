"""Risk-tier classification against the encoded practice/area taxonomy.

The taxonomy lists prohibited practices and high-risk application areas as
data (see ``data/aiact_taxonomy.ucdl``).  :func:`classify` places a use case
on the four-tier ladder from its *intended* purpose only:

* R1 — an intended application area matches a prohibited practice →
  ``Unacceptable``;
* R2 — the system is declared a safety component → ``High``;
* R3 — an intended area matches a high-risk area → ``High``;
* R4 — any affective capability is declared → ``Transparency``;
* R5 — otherwise → ``Minimal``.

Documented misuses never raise the level; a misuse whose area reference hits
the taxonomy becomes a warning flag instead, so that "we know this would be
prohibited and rule it out" reads as a documented exclusion rather than a
misclassification of the intended purpose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from typing import NoReturn, Optional

from .lexer import COLON, EOF, IDENT, TEXT, _diagnostics, _scan, file_text
from .model import (
    ApplicationAreaRef,
    Diagnostic,
    RiskLevel,
    Severity,
    TaxonomyError,
    UseCase,
    _writer,
    require_valid,
)
from .parser import _VALUE, _Panic, _Parser, _describe

_BUILTIN_RESOURCE = "aiact_taxonomy.ucdl"


class Tier(Enum):
    PROHIBITED = "prohibited"
    HIGH_RISK = "high_risk"

    @property
    def level(self) -> RiskLevel:
        return (RiskLevel.UNACCEPTABLE if self is Tier.PROHIBITED
                else RiskLevel.HIGH)


@dataclass(frozen=True)
class AreaMatch:
    """A taxonomy area; an intended area's or a misuse's hit is one too."""

    area_id: str
    tier: Tier
    area_label: str
    sub_use_label: str

    def display(self) -> str:
        return f"{self.area_label} > {self.sub_use_label}"


@dataclass(frozen=True)
class TaxonomyEntry(AreaMatch):
    """A taxonomy area plus the keywords a free-text label matches it by."""

    keywords: tuple[str, ...] = ()


@dataclass(frozen=True)
class Taxonomy:
    """Entries plus an id index and keyword patterns built on first use, so
    a hand-built taxonomy works too and only free-text matching compiles."""

    version: str
    entries: tuple[TaxonomyEntry, ...]

    @cached_property
    def _by_id(self) -> dict[str, TaxonomyEntry]:
        return {entry.area_id: entry for entry in self.entries}

    @cached_property
    def _keywords(self) -> list[tuple[str, str, int]]:
        # (keyword, whole-word pattern, entry index), in taxonomy order; _scan
        # compiles a pattern, through re's cache, once a label holds its word.
        return [(kw, r"\b" + re.escape(kw) + r"\b", i)
                for i, entry in enumerate(self.entries) for kw in entry.keywords]

    def find(self, area_id: str) -> Optional[TaxonomyEntry]:
        return self._by_id.get(area_id)

    def by_tier(self, tier: Tier) -> tuple[TaxonomyEntry, ...]:
        return tuple(e for e in self.entries if e.tier is tier)

    def _scan(self, ref: ApplicationAreaRef) -> list[tuple[int, TaxonomyEntry]]:
        """``(hits, entry)`` for every entry ``ref`` hits, in taxonomy order;
        an exact id is one hit, a free-text label one per whole-word keyword."""
        if not ref.is_other:
            entry = self.find(ref.area_id)
            return [(1, entry)] if entry is not None else []
        label = (ref.free_label or "").lower()
        # A whole-word match is a substring: ``in`` screens before the regex.
        found = [i for kw, pattern, i in self._keywords
                 if kw in label and re.search(pattern, label)]
        return [(found.count(i), self.entries[i]) for i in dict.fromkeys(found)]


@dataclass(frozen=True)
class MisuseFlag:
    """A documented misuse and the taxonomy area its reference hit; its JSON
    object holds the match's keys after ``description``."""

    description: str
    match: AreaMatch = field(metadata={"flat": ""})


@dataclass(frozen=True)
class RiskAssessment:
    level: RiskLevel
    matched: tuple[AreaMatch, ...]
    misuse_flags: tuple[MisuseFlag, ...]
    rationale: tuple[str, ...]


@dataclass(frozen=True)
class _Classified:  # an item of ``classify --format json``
    id: str
    assessment: RiskAssessment = field(metadata={"flat": "risk_"})


# ---------------------------------------------------------------------------
# taxonomy loading


def load_taxonomy(text: str, file: Optional[str] = None) -> Taxonomy:
    """Parse a taxonomy file (``version`` header plus ``entry`` blocks);
    the errors of the :class:`TaxonomyError` it raises name ``file``."""
    tokens, problems = _scan(text)
    if not problems:
        reader = _TaxonomyReader(tokens)
        try:
            return Taxonomy(*reader.read())
        except _Panic:
            problems = reader.errors
    raise TaxonomyError("malformed taxonomy file", tuple(
        replace(e, file=file) for e in _diagnostics(text, problems)))


_TIERS = {tier.value: tier for tier in Tier}
# The UCDL record table of an entry; a taxonomy is never written.
_ENTRY_FIELDS = {
    "tier": ("tier", lambda r, key: r.parse_choice(_TIERS, key), None, _VALUE),
    "area": ("area_label", lambda r, key: r.parse_string("area label string"),
             None, _VALUE),
    "sub_use": ("sub_use_label",
                lambda r, key: r.parse_string("sub-use label string"),
                None, _VALUE),
    "keywords": ("keywords", lambda r, key: r.parse_list(r.keyword), None,
                 _VALUE),
}


class _TaxonomyReader(_Parser):
    """The taxonomy grammar, read with the UCDL parser's block reader; the
    first error ends the read."""

    def error(self, *args, **kwargs) -> NoReturn:
        super().error(*args, **kwargs)
        raise _Panic

    def expect_word(self, text: str) -> None:
        if not self.at_word(text):
            self.error(f"expected {text!r}, found {_describe(self.cur())}",
                       expected=(text,))
        self.advance()

    def read(self) -> tuple[str, tuple[TaxonomyEntry, ...]]:
        self.expect_word("version")
        self.expect(COLON, "':'")
        version = self.parse_string("version string")
        entries: dict[str, TaxonomyEntry] = {}
        while not self.at(EOF):
            self.expect_word("entry")
            name = self.expect(IDENT, "entry area id")
            area_id = name[TEXT]
            if area_id in entries:
                self.error(f"duplicate taxonomy entry {area_id!r}", name)
            fields = self.record("entry", _ENTRY_FIELDS)
            if not all(fields.get(attr)
                       for attr in ("tier", "area_label", "sub_use_label")):
                self.error(f"entry {area_id!r} needs tier, area and sub_use",
                           name)
            entries[area_id] = TaxonomyEntry(area_id, **fields)
        if not entries:
            self.error("taxonomy has no entries")
        return version, tuple(entries.values())

    def keyword(self) -> str:
        tok = self.cur()
        word = self.parse_string("keyword string")
        if word != word.lower() or not word.strip():
            self.error(f"keyword {word!r} must be non-empty lowercase", tok)
        return word


@lru_cache(maxsize=1)
def builtin_taxonomy() -> Taxonomy:
    """The packaged taxonomy (4 prohibited and 15 high-risk sub-uses)."""
    data = (resources.files("ucdoc") / "data" / _BUILTIN_RESOURCE).read_bytes()
    return load_taxonomy(file_text(data))


# ---------------------------------------------------------------------------
# matching


def match_area(ref: ApplicationAreaRef, tax: Taxonomy) -> Optional[TaxonomyEntry]:
    """Best taxonomy entry for an area reference, if any.

    Taxonomy ids match exactly; free-text ``other(...)`` labels match by
    case-insensitive whole-word keyword search.  The entry with the most
    keyword hits wins; ties resolve to the earliest entry in the taxonomy.
    """
    return max(tax._scan(ref), key=lambda hit: hit[0], default=(0, None))[1]


# ---------------------------------------------------------------------------
# classification


def classify(uc: UseCase, tax: Taxonomy) -> RiskAssessment:
    """Place a valid use case on the risk ladder (rules R1–R5 above).

    ``matched`` lists every taxonomy entry hit by an intended area, in area
    order then taxonomy order, without duplicates.  ``misuse_flags`` lists
    taxonomy hits of the documented misuses; they never affect ``level``.
    """
    require_valid(uc)

    matched: dict[str, AreaMatch] = {}  # by area id; the first hit wins
    for ref in uc.application_areas:
        for _, e in tax._scan(ref):
            matched.setdefault(e.area_id, AreaMatch(
                e.area_id, e.tier, e.area_label, e.sub_use_label))
    misuse_flags = tuple(
        MisuseFlag(m.description, AreaMatch(hit.area_id, hit.tier,
                                            hit.area_label, hit.sub_use_label))
        for m in uc.misuses
        if (hit := m.area_ref and match_area(m.area_ref, tax)) is not None)

    def hits(tier: Tier, what: str) -> list[str]:
        return [f"intended application area '{m.area_id}' matches the "
                f"{what} '{m.display()}'"
                for m in matched.values() if m.tier is tier]

    # R1–R5 in order: the first rule with a reason decides the level.
    ladder = (
        (RiskLevel.UNACCEPTABLE, hits(Tier.PROHIBITED, "prohibited practice")),
        (RiskLevel.HIGH, [
            "declared as a safety component of a product, which places the "
            "system in the high-risk tier"] if uc.safety_component else []),
        (RiskLevel.HIGH, hits(Tier.HIGH_RISK, "high-risk area")),
        (RiskLevel.TRANSPARENCY, [
            "affective capabilities declared "
            f"({', '.join(uc.affective_capabilities)}); transparency "
            "obligations apply"] if uc.affective_capabilities else []),
        (RiskLevel.MINIMAL, [
            "no prohibited or high-risk area matched, not a safety "
            "component, and no affective capabilities declared; minimal "
            "risk"]),
    )
    level, rationale = next(rule for rule in ladder if rule[1])
    return RiskAssessment(level, tuple(matched.values()), misuse_flags,
                          tuple(rationale))


def explain(assessment: RiskAssessment) -> str:
    """Deterministic multi-line report of one assessment."""
    lines = [f"Risk level: {assessment.level.label}"]
    lines += [f"Rule: {reason}" for reason in assessment.rationale]
    lines += ["WARNING: " + d.message for d in misuse_diagnostics(assessment)]
    return "\n".join(lines) + "\n"


def misuse_diagnostics(assessment: RiskAssessment) -> list[Diagnostic]:
    """Misuse flags as warning diagnostics (for CLI and catalog reports)."""
    return [Diagnostic(Severity.WARNING, "risk.misuse_flag",
                       f"documented misuse matches the {flag.match.tier.value} "
                       f"entry '{flag.match.display()}': {flag.description}")
            for flag in assessment.misuse_flags]


def assessment_to_dict(assessment: RiskAssessment) -> dict:
    """Plain-data mirror for JSON outputs: ``risk_`` plus each field name."""
    import json
    doc = json.loads(_writer(RiskAssessment)(assessment))
    return {"risk_" + key: value for key, value in doc.items()}
