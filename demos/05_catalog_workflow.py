"""
A queryable catalogue of use cases
==================================

build_catalog() sweeps a directory of .ucdl files into a sorted list of
classified entries; export_json() freezes it as a self-contained
snapshot (schema ucdoc-catalog/1) that can be reloaded, filtered, and
summarised later — the classification is stored, not recomputed.  The
same workflow is scriptable through the CLI: ucdoc catalog build /
query / stats.
"""

import io
from pathlib import Path

from ucdoc import (
    ActorKind,
    Query,
    RiskLevel,
    build_catalog,
    builtin_taxonomy,
    export_json,
    load_catalog_json,
    load_sources,
    query,
    stats,
)
from ucdoc.cli import run as ucdoc_cli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)
TAX = builtin_taxonomy()

# ---------------------------------------------------------------------------
# Build: every file parsed, validated, classified; problems become
# diagnostics instead of aborting the sweep.

catalog, diagnostics = build_catalog(load_sources(FIXTURES), TAX)
print("entries:", catalog.ids())
for diag in diagnostics:
    print("  " + diag.render())

# ---------------------------------------------------------------------------
# Query: conjunctive filters over level, area, capability, actor kind,
# and free text.

print()
print("high risk:      ",
      [e.use_case.id for e in query(catalog, Query(risk_level=RiskLevel.HIGH))])
print("mood inference: ",
      [e.use_case.id for e in query(catalog, Query(capability="mood_inference"))])
print("org actors:     ",
      [e.use_case.id
       for e in query(catalog, Query(actor_kind=ActorKind.ORGANIZATION))])
print("'camera' text:  ",
      [e.use_case.id for e in query(catalog, Query(free_text="camera"))])

# ---------------------------------------------------------------------------
# Stats: counts per level (always all four, severity-descending), per
# top-level area, per capability tag.

report = stats(catalog)
print()
print("total:", report.total)
print("by level:", report.by_level)
print("by capability:", report.by_capability)

# ---------------------------------------------------------------------------
# Snapshot: byte-deterministic JSON, faithful across reloads.

snapshot = OUT / "catalog.json"
snapshot.write_bytes(export_json(catalog))
reloaded = load_catalog_json(snapshot.read_bytes(), TAX)
assert export_json(reloaded) == export_json(catalog)
print()
print("wrote", snapshot, "and verified the reload round-trips")

# ---------------------------------------------------------------------------
# The same three steps through the command line interface.

out = io.StringIO()
ucdoc_cli(["catalog", "stats", str(snapshot)], stdout=out, stderr=io.StringIO())
print()
print("$ ucdoc catalog stats", snapshot.name)
print(out.getvalue())

out = io.StringIO()
ucdoc_cli(["catalog", "query", str(snapshot), "--risk", "high"],
          stdout=out, stderr=io.StringIO())
print("$ ucdoc catalog query", snapshot.name, "--risk high")
print(out.getvalue())
