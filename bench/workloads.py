"""The benchmark workloads, ``build`` and ``cli``.

Each workload generates its inputs from a seed in ``setup``, runs one
operation per ``op`` call, and checks every result against references that
come from the generator and the oracle, never from ucdoc itself.  ``op``
wraps each call into ucdoc in a span; with tracing off the spans cost next
to nothing.  ``attribute`` runs only in the traced run: it repeats single
layers' public functions on the same inputs, so that layers a public call
hides (the lexer inside the parser, the parser inside ``build_catalog``)
get a time of their own.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

from ucdoc import (
    Query,
    RiskLevel,
    Severity,
    build_catalog,
    build_diagram,
    builtin_taxonomy,
    classify,
    export_json,
    layout,
    load_catalog_json,
    load_sources,
    parse_document,
    query,
    render_html_page,
    render_svg,
    render_table_markdown,
    render_textual,
    serialize_canonical,
    stats,
    use_case_from_dict,
    use_case_to_dict,
    validate_use_case,
)
from ucdoc import cli
from ucdoc.lexer import lex

import corpus
import oracle
from spans import NullTracer


class Workload:
    name = ""
    warm_up_ops = 2
    in_children = False  # operations run in child processes

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work / self.name
        self.seed = seed
        self.tax = builtin_taxonomy()
        self.digest = ""
        self._fingerprints: dict[int, str] = {}

    def setup(self) -> None:
        """Generate the inputs from ``self.seed`` and write their files."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of distinct inputs; operation ``k`` uses ``k % size``."""
        raise NotImplementedError

    def traced_pass(self) -> range:
        """Operations of the traced run: a fixed amount of work per seed."""
        return range(self.size())

    def op(self, k: int, tr):
        """One timed operation on input ``k % size``; returns its outputs."""
        raise NotImplementedError

    def check(self, k: int, result) -> list[str]:
        """Problems with ``result``; an empty list means it is correct."""
        raise NotImplementedError

    def fingerprint(self, result) -> str:
        """Digest of a result; repeats of an input must reproduce it."""
        raise NotImplementedError

    def attribute(self, k: int, result, tr) -> list[str]:
        """Traced run only: time hidden layers on the inputs of op ``k``.

        Returns the problems found in the outputs of the calls it makes.
        """
        raise NotImplementedError

    def tidy(self, k: int, result) -> None:
        """Untimed clean-up after operation ``k`` has been checked."""

    def layer_metrics(self, tr) -> dict:
        """Per-layer metrics from the traced pass, named as in BENCHMARK.json."""
        raise NotImplementedError

    def covered_s(self, tr) -> float:
        """Traced layer time that the untraced operations should equal."""
        return tr.children_s("op")

    def probe(self) -> tuple[int, int, list[str]]:
        """Untimed operations run once per run, outside ``attempted``.

        Returns the number run, the number that raised a known defect, and
        the problems found in the outputs of the others.
        """
        return 0, 0, []

    def checked(self, k: int, result) -> list[str]:
        """``check`` on the first result per input, a digest match after."""
        key = k % self.size()
        fp = self.fingerprint(result)
        if key in self._fingerprints:
            if fp == self._fingerprints[key]:
                return []
            return [f"input {key}: output differs from its first run"]
        problems = self.check(key, result)
        if not problems:
            self._fingerprints[key] = fp
        return problems


def _sha(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _free_text_refs(uc) -> int:
    return sum(1 for r in uc.application_areas if r.area_id == "other")


def _count_classification(tr, uc, assessment) -> None:
    tr.count("risk.classifications")
    tr.count("risk.free_text_refs", _free_text_refs(uc))
    tr.count("risk.misuse_flags", len(assessment.misuse_flags))


def _s(totals: dict, name: str) -> float:
    return totals.get(name, {}).get("total_s", 0.0)


# ---------------------------------------------------------------------------
# build: compile directories of .ucdl files into catalogue JSON


class _Dir:
    def __init__(self, path: Path) -> None:
        self.path = path
        self.files: list[str] = []
        self.entries: list[tuple[str, object, object]] = []  # path, uc, level
        self.faults: dict[str, str] = {}  # relative path -> fault kind


class Build(Workload):
    """100 timed directories of 2 files; 15 of them hold one faulty file.

    Two files a directory keep a round over all 100 directories between 0.35
    and 0.7 seconds, so each directory runs about 90 times in a 55-second
    run, and a burst of full host speed lasting a second covers them all.  The
    timed faults are the ones ``build_catalog`` reports as diagnostics.  Five
    more directories each hold one file that is not UTF-8; ``probe`` builds
    them once per run, outside the timed loop, because ``load_sources``
    raises on them (see ``probe``).
    """

    name = "build"
    n_dirs = 100
    per_dir = 2
    timed_faults = (corpus.TRUNCATED, corpus.MISSING_FIELD, corpus.DUPLICATE_ID)
    faults_per_kind = 5  # one faulty file in each of 15 timed directories
    n_not_utf8_dirs = 5

    def size(self) -> int:
        return self.n_dirs

    def setup(self) -> None:
        rng = random.Random(self.seed)
        total = self.n_dirs + self.n_not_utf8_dirs
        ucs = corpus.use_cases(rng, self.tax, total * self.per_dir)
        kinds = list(self.timed_faults) * self.faults_per_kind
        rng.shuffle(kinds)
        faulty = dict(zip(rng.sample(range(self.n_dirs), len(kinds)), kinds))
        faulty.update(dict.fromkeys(range(self.n_dirs, total), corpus.NOT_UTF8))
        plan = []
        dirs = []
        for d in range(total):
            dir_ = _Dir(self.work / "src" / f"d{d:03d}")
            dir_.path.mkdir(parents=True)
            batch = ucs[d * self.per_dir:(d + 1) * self.per_dir]
            fault_at = rng.randrange(1, self.per_dir) if d in faulty else -1
            for i, uc in enumerate(batch):
                rel = f"uc{i:02d}.ucdl"
                kind = faulty[d] if i == fault_at else None
                if kind == corpus.DUPLICATE_ID:
                    uc = replace(uc, id=batch[rng.randrange(i)].id)
                text = serialize_canonical(uc)
                if kind == corpus.TRUNCATED:
                    text = corpus.truncate(text, rng)
                elif kind == corpus.MISSING_FIELD:
                    text = corpus.drop_inputs(text)
                data = text.encode("utf-8")
                if kind == corpus.NOT_UTF8:
                    data = corpus.not_utf8(data)
                (dir_.path / rel).write_bytes(data)
                dir_.files.append(rel)
                plan.append((d, rel, kind, uc))
                if kind is None:
                    dir_.entries.append((rel, uc, oracle.level(uc, self.tax)))
                else:
                    dir_.faults[rel] = kind
            dir_.entries.sort(key=lambda e: e[1].id)
            dirs.append(dir_)
        self.dirs = dirs[:self.n_dirs]
        self.not_utf8_dirs = dirs[self.n_dirs:]
        self._written: dict[int, Path] = {}
        self._writes = 0
        (self.work / "out").mkdir()
        self.digest = corpus.digest(plan)

    def op(self, k: int, tr):
        dir_ = self.dirs[k % self.n_dirs]
        self._writes += 1
        out = self.work / "out" / f"{dir_.path.name}-{self._writes}.json"
        return self._build(dir_, out, tr)

    def tidy(self, k: int, result) -> None:
        # Each operation writes a new file and the previous one of its
        # directory goes here, untimed.  Rewriting one file in place would
        # time ext4's flush on truncate-and-rewrite, a millisecond stall
        # that comes from the file system, not from ucdoc.
        key = k % self.n_dirs
        previous = self._written.get(key)
        if previous is not None:
            previous.unlink()
        self._written[key] = result[-1]

    def _build(self, dir_: _Dir, out: Path, tr):
        tr.count("catalog.files", len(dir_.files))
        with tr.span("catalog.load_sources"):
            sources = load_sources(dir_.path)
        with tr.span("catalog.build_catalog"):
            cat, diags = build_catalog(sources, self.tax)
        with tr.span("catalog.export_json"):
            data = export_json(cat)
        with tr.span("io.write_json"):
            out.write_bytes(data)
        return sources, cat, diags, data, out

    def probe(self) -> tuple[int, int, list[str]]:
        """Build each non-UTF-8 directory once, untimed.

        A directory whose file is not UTF-8 should still build, with an
        error diagnostic naming that file.  Today ``load_sources`` raises
        ``UnicodeDecodeError`` instead and the whole directory is lost.
        Those raises are counted here, apart from the timed operations: the
        timed loop runs for a fixed time, so failures inside it would vary
        with the run's length, while these five repeat exactly.  An output
        that returns but is wrong is a problem like any other.
        """
        raised = 0
        problems: list[str] = []
        for dir_ in self.not_utf8_dirs:
            try:
                result = self._build(dir_, self.work / "out" / f"{dir_.path.name}.json",
                                     NullTracer())
            except UnicodeDecodeError:
                raised += 1
                continue
            problems.extend(self._check(dir_, result))
        self.not_utf8_raised = raised
        return len(self.not_utf8_dirs), raised, problems

    def fingerprint(self, result) -> str:
        _, _, diags, data, _ = result
        return _sha(data, [(d.severity, d.code, d.location) for d in diags])

    def check(self, k: int, result) -> list[str]:
        return self._check(self.dirs[k], result)

    def _check(self, dir_: _Dir, result) -> list[str]:
        _, cat, diags, data, out = result
        problems = []
        got = [(e.source_path, e.use_case) for e in cat.entries]
        if got != [(rel, uc) for rel, uc, _ in dir_.entries]:
            problems.append(f"{dir_.path.name}: entries differ from the generator")
        levels = [e.assessment.level for e in cat.entries]
        if levels != [lvl for _, _, lvl in dir_.entries]:
            problems.append(f"{dir_.path.name}: risk levels differ from the oracle")
        errors = [d for d in diags if d.severity is Severity.ERROR]
        for rel, kind in dir_.faults.items():
            if not any((d.location or "").split(":", 1)[0] == rel for d in errors):
                problems.append(f"{dir_.path.name}/{rel}: {kind} fault not reported")
        for d in errors:
            if (d.location or "").split(":", 1)[0] not in dir_.faults:
                problems.append(f"{dir_.path.name}: unexpected error {d.code}")
        if out.read_bytes() != data:
            problems.append(f"{dir_.path.name}: written JSON differs from export")
        exported = [e["id"] for e in json.loads(data)["entries"]]
        if exported != [uc.id for _, uc, _ in dir_.entries]:
            problems.append(f"{dir_.path.name}: exported ids differ")
        return problems

    def attribute(self, k: int, result, tr) -> list[str]:
        sources, cat, _, data, _ = result
        seen: set[str] = set()
        for _, text in sources:
            with tr.span("lexer.lex"):
                tokens, lex_errors = lex(text)
            tr.count("lexer.tokens", len(tokens))
            tr.count("lexer.errors", len(lex_errors))
            tr.count("lexer.bytes", len(text.encode("utf-8")))
            with tr.span("parser.parse_document"):
                ucs, parse_errors = parse_document(text)
            tr.count("parser.use_cases", len(ucs))
            tr.count("parser.errors", len(parse_errors))
            # The calls build_catalog makes for each parsed use case.
            for uc in ucs:
                with tr.span("model.validate_use_case"):
                    problems = validate_use_case(uc)
                tr.count("model.diagnostics", len(problems))
                if problems or uc.id in seen:
                    continue
                seen.add(uc.id)
                with tr.span("risk.classify"):
                    assessment = classify(uc, self.tax)
                _count_classification(tr, uc, assessment)
        for entry in cat.entries:
            with tr.span("model.use_case_to_dict"):
                use_case_to_dict(entry.use_case)
        tr.count("catalog.entries", len(cat.entries))
        tr.count("catalog.json_bytes", len(data))
        return []

    def layer_metrics(self, tr) -> dict:
        t = tr.totals()
        lex_s = _s(t, "lexer.lex")
        parse_s = _s(t, "parser.parse_document")
        validate_s = _s(t, "model.validate_use_case")
        classify_s = _s(t, "risk.classify")
        c = tr.counts
        return {
            "lexer.busy_s": lex_s,
            "lexer.mb_per_s": c["lexer.bytes"] / 1e6 / lex_s,
            "lexer.tokens": c["lexer.tokens"],
            "lexer.errors": c["lexer.errors"],
            "parser.self_s": parse_s - lex_s,
            "parser.use_cases": c["parser.use_cases"],
            "parser.errors": c["parser.errors"],
            "model.validate_s": validate_s,
            "model.to_dict_s": _s(t, "model.use_case_to_dict"),
            "model.diagnostics": c["model.diagnostics"],
            "risk.classify_s": classify_s,
            "risk.classifications": c["risk.classifications"],
            "risk.free_text_refs": c["risk.free_text_refs"],
            "risk.misuse_flags": c["risk.misuse_flags"],
            "catalog.load_sources_s": _s(t, "catalog.load_sources"),
            "catalog.build_self_s": (_s(t, "catalog.build_catalog")
                                     - parse_s - validate_s - classify_s),
            "catalog.export_s": _s(t, "catalog.export_json"),
            "catalog.json_bytes": c["catalog.json_bytes"],
            "catalog.accept_ratio": c["catalog.entries"] / c["catalog.files"],
            "catalog.not_utf8_raised": self.not_utf8_raised,
        }


# ---------------------------------------------------------------------------
# document outputs: one parsed use case through every output family
#
# Not a timed workload of its own: its 32-second runs followed the host's
# slow phases as much as build's did, and only two workloads leave room for
# runs long enough to see a full-speed burst.  The cli traced run times
# these layers on the cli's own inputs.


def render_outputs(uc, tax, tr):
    """Every output family for one use case, each call in its own span."""
    with tr.span("risk.classify"):
        assessment = classify(uc, tax)
    with tr.span("diagram.build_diagram"):
        diagram = build_diagram(uc)
    with tr.span("diagram.layout"):
        positioned = layout(diagram)
    with tr.span("diagram.render_svg"):
        svg = render_svg(positioned)
    with tr.span("diagram.render_textual"):
        puml = render_textual(diagram)
    with tr.span("docgen.render_table_markdown"):
        markdown = render_table_markdown(uc, assessment)
    with tr.span("docgen.render_html_page"):
        html = render_html_page(uc, assessment, svg)
    with tr.span("serializer.serialize_canonical"):
        text = serialize_canonical(uc)
    return assessment, diagram, positioned, svg, puml, markdown, html, text


def check_outputs(uc, level, outputs) -> list[str]:
    """Problems with ``render_outputs`` for ``uc``, whose oracle level is ``level``."""
    assessment, _, _, svg, _, markdown, html, text = outputs
    problems = []
    if assessment.level != level:
        problems.append(f"{uc.id}: level differs from the oracle")
    ucs, errors = parse_document(text)
    if errors or ucs != [uc]:
        problems.append(f"{uc.id}: canonical text does not re-parse to it")
    if not _is_svg(svg):
        problems.append(f"{uc.id}: SVG is not XML with an <svg> root")
    if not markdown.startswith("| Field | Value |\n"):
        problems.append(f"{uc.id}: Markdown table header missing")
    if "<svg" not in html or not html.startswith("<!DOCTYPE html>"):
        problems.append(f"{uc.id}: HTML page lacks the diagram")
    return problems


def count_outputs(tr, uc, outputs) -> None:
    assessment, diagram, positioned, svg, _, markdown, html, text = outputs
    with tr.span("model.validate_use_case"):
        tr.count("model.diagnostics", len(validate_use_case(uc)))
    _count_classification(tr, uc, assessment)
    tr.count("diagram.svg_bytes", len(svg))
    tr.count("diagram.warnings",
             len(diagram.warnings) + len(positioned.warnings))
    tr.count("docgen.bytes_out",
             len(markdown.encode("utf-8")) + len(html.encode("utf-8")))
    tr.count("serializer.bytes_out", len(text.encode("utf-8")))


def output_layers(tr) -> dict:
    t = tr.totals()
    c = tr.counts
    return {
        "model.validate_s": _s(t, "model.validate_use_case"),
        "model.diagnostics": c["model.diagnostics"],
        "risk.classify_s": _s(t, "risk.classify"),
        "risk.classifications": c["risk.classifications"],
        "risk.free_text_refs": c["risk.free_text_refs"],
        "risk.misuse_flags": c["risk.misuse_flags"],
        "serializer.busy_s": _s(t, "serializer.serialize_canonical"),
        "serializer.bytes_out": c["serializer.bytes_out"],
        "diagram.build_s": _s(t, "diagram.build_diagram"),
        "diagram.layout_s": _s(t, "diagram.layout"),
        "diagram.svg_s": _s(t, "diagram.render_svg"),
        "diagram.puml_s": _s(t, "diagram.render_textual"),
        "diagram.svg_bytes": c["diagram.svg_bytes"],
        "diagram.warnings": c["diagram.warnings"],
        "docgen.markdown_s": _s(t, "docgen.render_table_markdown"),
        "docgen.html_s": _s(t, "docgen.render_html_page"),
        "docgen.bytes_out": c["docgen.bytes_out"],
    }


# ---------------------------------------------------------------------------
# cli: one `python -m ucdoc.cli` process per operation


FIXTURES = ("affective_music_recommender", "driver_attention_monitoring",
            "smart_camera")
COMMANDS = ("validate", "classify", "render", "table", "query", "stats")


class Cli(Workload):
    """3 fixtures, 20 generated files and a catalogue built from those 20.

    Input ``k`` is command ``k % 6`` on file ``k // 6``: 138 inputs, so a
    55-second run of about 190 commands runs each input once or twice.
    """

    name = "cli"
    warm_up_ops = 1
    in_children = True
    n_generated = 20
    output_repeats = 10

    def size(self) -> int:
        return len(COMMANDS) * (len(FIXTURES) + self.n_generated)

    def traced_pass(self) -> range:
        return range(2 * len(COMMANDS))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        (self.work / "in").mkdir(parents=True)
        self.files = []  # (path, use case, oracle level, golden SVG or None)
        for name in FIXTURES:
            path = self.root / "fixtures" / f"{name}.ucdl"
            ucs, errors = parse_document(path.read_text(encoding="utf-8"))
            if errors or len(ucs) != 1:
                raise RuntimeError(f"set-up: fixture {name} does not parse")
            golden = (self.root / "tests" / "golden" / f"{name}.svg").read_bytes()
            self.files.append((path, ucs[0], oracle.level(ucs[0], self.tax),
                               golden))
        generated = corpus.use_cases(rng, self.tax, self.n_generated)
        sources = []
        for uc in generated:
            path = self.work / "in" / f"{uc.id}.ucdl"
            text = serialize_canonical(uc)
            path.write_text(text, encoding="utf-8")
            sources.append((path.name, text))
            self.files.append((path, uc, oracle.level(uc, self.tax), None))
        cat, _ = build_catalog(sources, self.tax)
        self.catalog = self.work / "catalog.json"
        self.catalog.write_bytes(export_json(cat))
        records = [(uc, oracle.level(uc, self.tax)) for uc in generated]
        self.high_ids = oracle.select(records, _HIGH)
        self.stats_text = oracle.stats_text(oracle.stats(records))
        self.svg_out = self.work / "render.svg"
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                        PYTHONUTF8="1")
        self.digest = corpus.digest(generated)

    def _file(self, k: int):
        return self.files[(k // len(COMMANDS)) % len(self.files)]

    def argv(self, k: int, svg_out: Path) -> list[str]:
        command = COMMANDS[k % len(COMMANDS)]
        path = str(self._file(k)[0])
        return {
            "validate": ["validate", path],
            "classify": ["classify", path, "--format", "json"],
            "render": ["render", path, "--out", str(svg_out)],
            "table": ["table", path, "--format", "html", "--with-risk",
                      "--with-diagram"],
            "query": ["catalog", "query", str(self.catalog), "--risk", "high"],
            "stats": ["catalog", "stats", str(self.catalog)],
        }[command]

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, capture_output=True,
                              encoding="utf-8", timeout=60)

    def op(self, k: int, tr):
        self.svg_out.unlink(missing_ok=True)
        argv = self.argv(k, self.svg_out)
        with tr.span("cli.subprocess"):
            proc = self._python("-m", "ucdoc.cli", *argv)
        svg = self.svg_out.read_bytes() if self.svg_out.exists() else None
        return proc, svg

    def fingerprint(self, result) -> str:
        proc, svg = result
        return _sha(proc.returncode, proc.stdout, svg)

    def check(self, k: int, result) -> list[str]:
        proc, svg = result
        command = COMMANDS[k % len(COMMANDS)]
        path, uc, level, golden = self._file(k)
        where = f"{command} {path.name}"
        if proc.returncode != 0:
            return [f"{where}: exit code {proc.returncode}: {proc.stderr[-300:]}"]
        out = proc.stdout
        if command == "validate":
            ok = out == "1 file(s), 1 use case(s), 0 error(s), 0 warning(s)\n"
        elif command == "classify":
            doc = json.loads(out)
            ok = ([d["id"] for d in doc] == [uc.id]
                  and doc[0]["risk_level"] == level.name.capitalize())
        elif command == "render":
            ok = svg is not None and (svg == golden if golden is not None
                                      else _is_svg(svg))
        elif command == "table":
            row = f"<tr><td>Risk level</td><td>{level.name.capitalize()}</td></tr>"
            ok = out.startswith("<!DOCTYPE html>") and "<svg" in out and row in out
        elif command == "query":
            ok = out.split() == self.high_ids
        else:
            ok = out == self.stats_text
        return [] if ok else [f"{where}: output differs from the reference"]

    def attribute(self, k: int, result, tr) -> list[str]:
        proc, _ = result
        tr.count(f"cli.exit_code.{proc.returncode}")
        with tr.span("cli.interp_start"):
            self._python("-c", "pass")
        with tr.span("cli.import"):
            self._python("-c", "import ucdoc.cli")
        argv = self.argv(k, self.work / "render-in-process.svg")
        with tr.span("cli.run"):
            cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        command = COMMANDS[k % len(COMMANDS)]
        if command in ("query", "stats"):
            self._attribute_catalog(command, tr)
        if command == "table":
            return self._attribute_outputs(tr)
        return []

    def _attribute_outputs(self, tr) -> list[str]:
        """The output families' layers, in-process, on every input file.

        ``table --with-risk --with-diagram`` is the command that renders
        them; each file is rendered ``output_repeats`` times so that the
        smaller layers add up to more than timer noise.
        """
        problems = []
        for _, uc, level, _ in self.files:
            for _ in range(self.output_repeats):
                outputs = render_outputs(uc, self.tax, tr)
                count_outputs(tr, uc, outputs)
            problems.extend(check_outputs(uc, level, outputs))
        return problems

    def _attribute_catalog(self, command: str, tr) -> None:
        """The read path's layers, on the catalogue the command reads."""
        data = self.catalog.read_bytes()
        with tr.span("catalog.load_catalog_json"):
            cat = load_catalog_json(data, self.tax)
        for raw in json.loads(data)["entries"]:
            with tr.span("model.use_case_from_dict"):
                use_case_from_dict(raw)
        if command == "stats":
            with tr.span("catalog.stats"):
                stats(cat)
        else:
            with tr.span("catalog.query"):
                hits = query(cat, _HIGH)
            tr.count("catalog.query_hits", len(hits))

    def layer_metrics(self, tr) -> dict:
        t = tr.totals()

        def median_ms(name: str) -> float:
            return statistics.median(t[name]["durations_s"]) * 1000

        start_ms = median_ms("cli.interp_start")
        metrics = {
            "cli.interp_start_ms": start_ms,
            "cli.import_ms": median_ms("cli.import") - start_ms,
            "cli.run_ms": median_ms("cli.run"),
        }
        for code in range(4):
            metrics[f"cli.exit_code.{code}"] = tr.counts[f"cli.exit_code.{code}"]
        metrics.update({
            "model.from_dict_s": _s(t, "model.use_case_from_dict"),
            "catalog.load_s": _s(t, "catalog.load_catalog_json"),
            "catalog.stats_s": _s(t, "catalog.stats"),
            "catalog.query_s": _s(t, "catalog.query"),
            "catalog.query_hits": tr.counts["catalog.query_hits"],
        })
        metrics.update(output_layers(tr))
        return metrics

    def covered_s(self, tr) -> float:
        t = tr.totals()
        return t["cli.import"]["total_s"] + t["cli.run"]["total_s"]


def _is_svg(data: bytes) -> bool:
    try:
        return ElementTree.fromstring(data).tag.rsplit("}", 1)[-1] == "svg"
    except ElementTree.ParseError:
        return False


_HIGH = Query(risk_level=RiskLevel.HIGH)

WORKLOADS = {w.name: w for w in (Build, Cli)}
