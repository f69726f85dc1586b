"""Command line front end: parse, validate, classify, render, catalogue.

Exit codes are part of the interface::

    0  success
    1  findings (validation errors; under --strict, also misuse flags and
       diagram or catalogue warnings)
    2  parse errors in an input file
    3  I/O problem or bad usage (unknown flag, missing file, bad filter)

When several apply, the highest code wins.  With ``--format json`` the
machine-readable document is the only thing on stdout; human-facing
messages go to stderr.  The risk taxonomy is resolved from ``--taxonomy``,
then the ``UCDOC_TAXONOMY`` environment variable, then the built-in file.

Each subcommand imports the modules it runs inside its handler, so that a
one-shot command does not pay for the imports of the others.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from enum import IntEnum
from pathlib import Path
from typing import IO, TYPE_CHECKING, Optional, TextIO

from .lexer import file_text, read_ucdl, replace
from .model import (
    CatalogFormatError,
    Diagnostic,
    QueryError,
    RiskLevel,
    Severity,
    TaxonomyError,
    UseCase,
    _writer,
    validate_use_case,
)
from .parser import parse_document

if TYPE_CHECKING:
    from .catalog import Catalog
    from .risk import Taxonomy

TAXONOMY_ENV_VAR = "UCDOC_TAXONOMY"


class ExitStatus(IntEnum):
    OK = 0
    FINDINGS = 1
    PARSE_ERROR = 2
    USAGE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# shared plumbing


def _path(text: str) -> str:
    """The argparse ``type`` of every path argument and option: an empty one
    (an unset shell variable, say) is a usage error, not the directory ``.``."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _parse(path: str, stdin: Optional[str | bytes | IO]
           ) -> tuple[str, list[UseCase], list[Diagnostic]]:
    """The name of ``path`` (``<stdin>`` for ``-``), its use cases and its
    parse errors."""
    if path == "-":
        if stdin is None:
            raise _UsageError("no data on stdin")
        data = stdin if isinstance(stdin, (str, bytes)) else stdin.read()
        return ("<stdin>", *parse_document(file_text(data)))
    return (path, *parse_document(read_ucdl(path)))


def _resolve_taxonomy(ns: argparse.Namespace) -> Taxonomy:
    from .risk import builtin_taxonomy, load_taxonomy

    # An empty UCDOC_TAXONOMY counts as unset; --taxonomy is never empty.
    path = getattr(ns, "taxonomy", None) or os.environ.get(TAXONOMY_ENV_VAR)
    if path:
        return load_taxonomy(read_ucdl(path), path)
    return builtin_taxonomy()


# The lexer's and the parser's codes.
_PARSE_CODES = ("lex.", "syntax", "field.")


def _status(diags: list[Diagnostic], strict: bool = False) -> ExitStatus:
    """The one rule from diagnostics to exit status: a parse error ends in
    2, any other error in 1, and a warning in 1 under ``--strict``."""
    return max((ExitStatus.PARSE_ERROR if d.code.startswith(_PARSE_CODES) else
                ExitStatus.FINDINGS if strict or d.severity is Severity.ERROR
                else ExitStatus.OK for d in diags), default=ExitStatus.OK)


def _report(name: Optional[str], diags: list[Diagnostic], err: TextIO,
            strict: bool = False) -> ExitStatus:
    """Write one line per diagnostic, ``name`` the file of those naming
    none, and return their exit status."""
    for d in diags:
        err.write(replace(d, file=d.file or name).render() + "\n")
    return _status(diags, strict)


def _single_use_case(path: str, stdin: Optional[str | bytes | IO],
                     err: TextIO) -> tuple[str, Optional[UseCase], ExitStatus]:
    """Read, parse and validate the one use case of ``path``; None, with the
    exit status, when it does not parse or validate."""
    name, use_cases, errors = _parse(path, stdin)
    if errors:
        return name, None, _report(name, errors, err)
    if len(use_cases) != 1:
        raise _UsageError(
            f"expected exactly one use case in {name}, found {len(use_cases)}")
    code = _report(name, validate_use_case(use_cases[0]), err)
    return name, None if code else use_cases[0], code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(ns, stdin, out, err) -> ExitStatus:
    code = ExitStatus.OK
    n_files = n_cases = n_errors = n_warnings = 0
    if ns.paths.count("-") > 1:  # a stream is read once, a str again
        raise _UsageError("argument path: - (stdin) given more than once")
    for path in sorted(ns.paths):
        name, use_cases, diags = _parse(path, stdin)
        diags += [d for uc in use_cases for d in validate_use_case(uc)]
        code = max(code, _report(name, diags, err))
        n_files += 1
        n_cases += len(use_cases)
        errors = sum(d.severity is Severity.ERROR for d in diags)
        n_errors += errors
        n_warnings += len(diags) - errors
    out.write(f"{n_files} file(s), {n_cases} use case(s), "
              f"{n_errors} error(s), {n_warnings} warning(s)\n")
    return code


def _cmd_classify(ns, stdin, out, err) -> ExitStatus:
    from .risk import _Classified, classify, explain, misuse_diagnostics

    tax = _resolve_taxonomy(ns)
    name, use_cases, errors = _parse(ns.path, stdin)
    code = _report(name, errors, err)
    assessed = []
    for uc in use_cases:
        status = _report(name, validate_use_case(uc), err)
        code = max(code, status)
        if not status:
            a = classify(uc, tax)
            assessed.append((uc, a))
            # explain() writes the misuse flags; here they only count
            code = max(code, _status(misuse_diagnostics(a), ns.strict))
    if ns.format == "json":
        items = tuple(_Classified(uc.id, a) for uc, a in assessed)
        out.write(_writer(tuple[_Classified, ...])(items) + "\n")
    else:
        for i, (uc, assessment) in enumerate(assessed):
            if i:
                out.write("\n")
            out.write(f"Use case: {uc.id}\n")
            out.write(explain(assessment))
    return code


def _cmd_render(ns, stdin, out, err) -> ExitStatus:
    from .diagram import build_diagram, layout, render_svg, render_textual

    name, uc, code = _single_use_case(ns.path, stdin, err)
    if uc is None:
        return code
    diagram = build_diagram(uc)
    warnings = list(diagram.warnings)
    if ns.format == "svg":
        positioned = layout(diagram)
        warnings.extend(positioned.warnings)
        payload = render_svg(positioned)
        Path(ns.out).write_bytes(payload)
    else:
        Path(ns.out).write_text(render_textual(diagram), encoding="utf-8")
    return _report(name, warnings, err, ns.strict)


def _cmd_table(ns, stdin, out, err) -> ExitStatus:
    if ns.with_diagram and ns.format != "html":
        raise _UsageError("--with-diagram requires --format html")
    _, uc, code = _single_use_case(ns.path, stdin, err)
    if uc is None:
        return code
    from .docgen import render_html_page, render_table_markdown

    assessment = None
    if ns.with_risk:
        from .risk import classify

        assessment = classify(uc, _resolve_taxonomy(ns))
    if ns.format == "md":
        out.write(render_table_markdown(uc, assessment))
    else:
        svg = None
        if ns.with_diagram:
            from .diagram import build_diagram, layout, render_svg

            svg = render_svg(layout(build_diagram(uc)))
        out.write(render_html_page(uc, assessment, svg))
    return code


def _cmd_catalog_build(ns, stdin, out, err) -> ExitStatus:
    from .catalog import build_catalog, export_json, load_sources

    tax = _resolve_taxonomy(ns)
    root = Path(ns.directory)
    if not root.is_dir():
        raise _UsageError(f"not a directory: {ns.directory}")
    cat, diags = build_catalog(load_sources(root), tax)
    code = _report(None, diags, err, ns.strict)
    Path(ns.out).write_bytes(export_json(cat))
    out.write(f"wrote {len(cat.entries)} use case(s) to {ns.out}\n")
    return code


def _load_catalog(ns) -> Catalog:
    from .catalog import load_catalog_json

    tax = _resolve_taxonomy(ns)
    return load_catalog_json(Path(ns.file).read_bytes(), tax)


def _cmd_catalog_query(ns, stdin, out, err) -> ExitStatus:
    from .catalog import Query, query

    cat = _load_catalog(ns)
    level = RiskLevel[ns.risk.upper()] if ns.risk else None
    q = Query(risk_level=level, area_id=ns.area, capability=ns.capability)
    for entry in query(cat, q):
        out.write(entry.use_case.id + "\n")
    return ExitStatus.OK


def _cmd_catalog_stats(ns, stdin, out, err) -> ExitStatus:
    from .catalog import stats

    report = stats(_load_catalog(ns))
    out.write(f"total: {report.total}\n")
    for title, counts in (("risk level", report.by_level),
                          ("area", report.by_area),
                          ("capability", report.by_capability)):
        out.write(f"by {title}:\n")
        out.writelines(f"  {key}: {count}\n" for key, count in counts.items())
    return ExitStatus.OK


# ---------------------------------------------------------------------------
# argument wiring


# What a handler may raise, mapped to the exit status it ends in.
_ERROR_STATUS = {
    _UsageError: ExitStatus.USAGE,
    OSError: ExitStatus.USAGE,
    TaxonomyError: ExitStatus.USAGE,
    QueryError: ExitStatus.USAGE,
    CatalogFormatError: ExitStatus.PARSE_ERROR,
}


def build_arg_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="ucdoc",
        description="Validate, classify, render and catalogue use-case "
                    "descriptions written in UCDL.")
    sub = parser.add_subparsers(dest="command", metavar="<command>",
                                required=True)

    p = sub.add_parser("validate", help="parse and validate UCDL files")
    p.add_argument("paths", nargs="+", metavar="path", type=_path,
                   help="UCDL file, or - for stdin")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("classify", help="assess the risk level of use cases")
    p.add_argument("path", type=_path, help="UCDL file, or - for stdin")
    p.add_argument("--taxonomy", type=_path, metavar="file",
                   help="alternative risk taxonomy")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="misuse flags become findings (exit 1)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("render", help="draw the use-case diagram")
    p.add_argument("path", type=_path,
                   help="UCDL file with exactly one use case")
    p.add_argument("--out", required=True, type=_path, metavar="file")
    p.add_argument("--format", choices=("svg", "puml"), default="svg")
    p.add_argument("--strict", action="store_true",
                   help="diagram warnings become findings (exit 1)")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("table", help="emit the documentation table")
    p.add_argument("path", type=_path,
                   help="UCDL file with exactly one use case")
    p.add_argument("--format", choices=("md", "html"), default="md")
    p.add_argument("--with-risk", action="store_true", dest="with_risk",
                   help="append risk level and rationale rows")
    p.add_argument("--with-diagram", action="store_true", dest="with_diagram",
                   help="embed the diagram (html only)")
    p.add_argument("--taxonomy", type=_path, metavar="file")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("catalog", help="build and inspect use-case catalogues")
    csub = p.add_subparsers(dest="subcommand", metavar="<subcommand>",
                            required=True)

    c = csub.add_parser("build", help="compile a directory of UCDL files")
    c.add_argument("directory", type=_path)
    c.add_argument("--out", required=True, type=_path, metavar="file")
    c.add_argument("--taxonomy", type=_path, metavar="file")
    c.add_argument("--strict", action="store_true")
    c.set_defaults(handler=_cmd_catalog_build)

    c = csub.add_parser("query", help="filter a catalog JSON file")
    c.add_argument("file", type=_path)
    c.add_argument("--risk", type=str.lower, metavar="level",
                   choices=tuple(level.label.lower() for level in RiskLevel))
    c.add_argument("--area", metavar="area_id")
    c.add_argument("--capability", metavar="tag")
    c.add_argument("--taxonomy", type=_path, metavar="file")
    c.set_defaults(handler=_cmd_catalog_query)

    c = csub.add_parser("stats", help="summarise a catalog JSON file")
    c.add_argument("file", type=_path)
    c.add_argument("--taxonomy", type=_path, metavar="file")
    c.set_defaults(handler=_cmd_catalog_stats)

    return parser


def run(argv: list[str], stdin: Optional[str | bytes | IO] = None,
        stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None) -> int:
    """Run one command; ``stdin`` is the text or bytes, or a text or binary
    stream, read for ``-``.  Each is read as a UCDL file holding its text or
    bytes reads (:func:`~ucdoc.lexer.file_text`)."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_arg_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parser.parse_args(argv)
    except _UsageError as exc:
        text = str(exc)
        err.write(text if text.endswith("\n") else text + "\n")
        return ExitStatus.USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return int(ns.handler(ns, stdin, out, err))
    except tuple(_ERROR_STATUS) as exc:
        err.write(f"ucdoc: error: {exc}\n")
        return next(status for cls, status in _ERROR_STATUS.items()
                    if isinstance(exc, cls))


def main() -> None:
    # sys.stdin is None when the process has no standard input.
    status = run(sys.argv[1:], stdin=sys.stdin and sys.stdin.buffer)
    # The collections at interpreter exit then skip the heap the run left.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
