"""ucdoc: a small compiler for structured AI use-case descriptions.

The pipeline: parse UCDL text into :class:`UseCase` records, validate
them, classify each against an EU AI Act risk taxonomy, and emit
documentation tables, UML use-case diagrams, and queryable catalogues.

Submodules load on first use of one of their names (PEP 562), so that
``import ucdoc`` and each ``ucdoc`` command pay only for what they run.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "model": [
        "Actor", "ActorKind", "ActorRole", "ApplicationAreaRef",
        "Association", "CatalogFormatError", "Extension",
        "GoalLevel", "Misuse", "QueryError", "RiskLevel", "ScenarioStep",
        "SystemFunction", "TaxonomyError", "UseCase",
        "ValidationFailedError", "canonicalize", "require_valid",
        "use_case_from_dict", "use_case_to_dict", "validate_use_case",
    ],
    "lexer": ["Diagnostic", "Severity", "SourceSpan"],
    "parser": ["parse_document", "serialize_canonical", "serialize_document"],
    "risk": [
        "AreaMatch", "MisuseFlag", "RiskAssessment", "Taxonomy",
        "TaxonomyEntry", "Tier", "assessment_to_dict", "builtin_taxonomy",
        "classify", "explain", "load_taxonomy", "match_area",
        "misuse_diagnostics",
    ],
    "diagram": [
        "Diagram", "Edge", "EdgeKind", "PositionedDiagram",
        "build_diagram", "layout", "render_svg", "render_textual",
    ],
    "docgen": [
        "EMPTY_CELL", "MalformedSvgError", "escape_cell", "render_html_page",
        "render_table_markdown",
    ],
    "catalog": [
        "Catalog", "CatalogEntry", "CatalogStats", "Query", "build_catalog",
        "export_json", "load_catalog_json", "load_sources", "query", "stats",
    ],
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, such as ``ucdoc.risk``
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
