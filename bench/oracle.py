"""Reference answers computed without the code under test.

``level`` is a brute-force re-implementation of the classifier's max-tier
rule, ported from the test suite's oracle.  ``select`` and ``stats`` filter
and count the generator's own records, so catalogue query and stats results
are checked against values no ucdoc function produced.
"""

from __future__ import annotations

import re

from ucdoc import Query, RiskLevel, Taxonomy, UseCase


def level(uc: UseCase, tax: Taxonomy) -> RiskLevel:
    """Independent brute-force max-tier classification."""
    levels = [RiskLevel.MINIMAL]
    for ref in uc.application_areas:
        for entry in tax.entries:
            if ref.area_id == "other":
                label = (ref.free_label or "").lower()
                if any(re.search(r"\b" + re.escape(k) + r"\b", label)
                       for k in entry.keywords):
                    levels.append(entry.tier.level)
            elif entry.area_id == ref.area_id:
                levels.append(entry.tier.level)
    if uc.safety_component:
        levels.append(RiskLevel.HIGH)
    if uc.affective_capabilities:
        levels.append(RiskLevel.TRANSPARENCY)
    return max(levels)


def _hit(uc: UseCase, lvl: RiskLevel, q: Query) -> bool:
    if q.risk_level is not None and lvl != q.risk_level:
        return False
    if q.area_id is not None and not any(
            r.area_id == q.area_id or r.area_id.startswith(q.area_id + ".")
            for r in uc.application_areas):
        return False
    if q.capability is not None and q.capability not in uc.affective_capabilities:
        return False
    actors = (uc.user,) + uc.target_persons + uc.secondary_actors
    if q.actor_kind is not None and all(a.kind != q.actor_kind for a in actors):
        return False
    if q.free_text is not None and q.free_text.lower() not in (
            uc.title + "\n" + uc.intended_purpose).lower():
        return False
    return True


def select(records: list[tuple[UseCase, RiskLevel]], q: Query) -> list[str]:
    """Ids of the records matching every filter of ``q``, sorted."""
    return sorted(uc.id for uc, lvl in records if _hit(uc, lvl, q))


def stats(records: list[tuple[UseCase, RiskLevel]]) -> dict:
    """Totals in the shape of ``ucdoc.CatalogStats``."""
    by_level = {lvl.name.capitalize(): 0
                for lvl in sorted(RiskLevel, reverse=True)}
    by_area: dict[str, int] = {}
    by_capability: dict[str, int] = {}
    for uc, lvl in records:
        by_level[lvl.name.capitalize()] += 1
        for segment in {r.area_id.split(".", 1)[0] for r in uc.application_areas}:
            by_area[segment] = by_area.get(segment, 0) + 1
        for tag in uc.affective_capabilities:
            by_capability[tag] = by_capability.get(tag, 0) + 1
    return {
        "total": len(records),
        "by_level": by_level,
        "by_area": dict(sorted(by_area.items())),
        "by_capability": dict(sorted(by_capability.items())),
    }


def stats_text(expected: dict) -> str:
    """``ucdoc catalog stats`` output for ``expected`` (see ``stats``)."""
    lines = [f"total: {expected['total']}", "by risk level:"]
    lines += [f"  {k}: {v}" for k, v in expected["by_level"].items()]
    lines.append("by area:")
    lines += [f"  {k}: {v}" for k, v in expected["by_area"].items()]
    lines.append("by capability:")
    lines += [f"  {k}: {v}" for k, v in expected["by_capability"].items()]
    return "\n".join(lines) + "\n"
