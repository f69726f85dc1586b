"""Run one ucdoc benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (the median is
``setup_s``), then runs operations closed-loop, one at a time, for
``--seconds`` and reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` sets up once and runs a fixed pass of operations twice, first
untraced and then traced, and reports the per-layer metrics, the tracing
overhead and the share of the untraced time the traced layers cover.

Every result is checked against the generator and the oracle.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and sample count, and record the host, Python
version, source digest and input digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5


def host_ref_ms() -> float:
    """A fixed stdlib-only loop; tells a slow host apart from slow code."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    sorted(str(i) for i in range(20_000))
    return (time.perf_counter() - start) * 1000


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    package = ROOT / "src" / "ucdoc"
    for path in sorted(p for p in package.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(package).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


class Outcome:
    """Tallies of attempted operations, their times and their problems."""

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.times_s: list[float] = []
        self.ok: list[bool] = []
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.probed = self.probe_raised = 0

    def probe(self, w) -> None:
        """Run the workload's untimed probe and keep its tallies."""
        self.probed, self.probe_raised, problems = w.probe()
        self.problems.extend(problems)

    def run(self, w, k: int, tr):
        """One operation; returns its result, or None if it raised."""
        self.keys.append(k % w.size())
        start = time.perf_counter_ns()
        try:
            with tr.span("op"):
                result = w.op(k, tr)
        except Exception as exc:  # a failed operation, reported below
            self.times_s.append((time.perf_counter_ns() - start) / 1e9)
            self.ok.append(False)
            if not self.failures[type(exc).__name__]:
                print(f"operation {k} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            self.failures[type(exc).__name__] += 1
            return None
        self.times_s.append((time.perf_counter_ns() - start) / 1e9)
        try:
            problems = w.checked(k, result)
        except Exception as exc:  # output too malformed to check
            problems = [f"operation {k}: check raised {exc!r}"]
        self.problems.extend(problems)
        self.ok.append(not problems)
        w.tidy(k, result)
        return result

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def _peak_rss_mb(w) -> float:
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN reports the largest
    # child, for workloads whose operations run in child processes.
    who = resource.RUSAGE_CHILDREN if w.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _setup(workload_cls, work: Path, seed: int, outcome: Outcome):
    w = workload_cls(ROOT, work, seed)
    w.setup()
    for k in range(w.warm_up_ops):
        outcome.run(w, k, NullTracer())
    return w


def _freeze_heap() -> None:
    # The harness's inputs and references stay alive for the whole run.
    # Frozen, they no longer lengthen the garbage collections that the
    # measured operations trigger, as they would not in a ucdoc process.
    gc.collect()
    gc.freeze()


def measure(workload_cls, work: Path, seed: int, seconds: float):
    """End-to-end metrics with tracing off."""
    setup_s = []
    warm = Outcome()
    for rep in range(SETUP_REPS):
        w = None  # free the previous set-up, so set-ups never overlap in memory
        start = time.perf_counter()
        w = _setup(workload_cls, work / f"setup{rep}", seed, warm)
        setup_s.append(time.perf_counter() - start)
    _freeze_heap()
    outcome = Outcome()
    tr = NullTracer()
    k = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        outcome.run(w, k, tr)
        k += 1
    outcome.probe(w)
    # Operations visit the inputs round-robin, and each input's time is the
    # best of its visits.  A shared host can run slow for minutes, with
    # bursts at nearly twice the speed, and both the share of the bursts and
    # the slow state's own speed change from run to run.  The best visit is
    # the time without that contention; a round over all inputs is short, so
    # that over a long run every input gets a visit in some burst (see
    # README.md).
    best: dict[int, float] = {}
    failed_inputs = set()
    for key, t, ok in zip(outcome.keys, outcome.times_s, outcome.ok):
        if ok:
            best[key] = min(t, best.get(key, t))
        else:
            failed_inputs.add(key)
    ok_times = [t for key, t in best.items() if key not in failed_inputs]
    # A failing input misses every latency limit: it counts as taking the
    # whole measurement window.
    latencies_ms = [t * 1000 for t in ok_times]
    latencies_ms += [seconds * 1000] * len(failed_inputs)
    inputs = len(latencies_ms)
    n = outcome.attempted
    metrics = {
        "setup_s": (statistics.median(setup_s), SETUP_REPS),
        "ops_per_s": (len(ok_times) / sum(ok_times), inputs),
        "op_ms_p50": (_nearest_rank(latencies_ms, 0.5), inputs),
        "op_ms_p90": (_nearest_rank(latencies_ms, 0.9), inputs),
        "peak_rss_mb": (_peak_rss_mb(w), 1),
        "ok_ratio": ((n - outcome.failed) / n, n),
    }
    outcome.problems[:0] = warm.problems
    return w, outcome, metrics


def trace(workload_cls, work: Path, seed: int):
    """Per-layer metrics from a fixed pass, run untraced and then traced."""
    warm = Outcome()
    w = _setup(workload_cls, work, seed, warm)
    _freeze_heap()
    untraced = Outcome()
    null = NullTracer()
    for k in w.traced_pass():
        untraced.run(w, k, null)
    tr = Tracer()
    traced = Outcome()
    for k in w.traced_pass():
        tr.op_id = k
        result = traced.run(w, k, tr)
        if result is not None:
            with tr.span("attribution"):
                traced.problems.extend(w.attribute(k, result, tr))
    traced.probe(w)
    base_s = sum(untraced.times_s)
    op_s = tr.totals()["op"]["total_s"]
    layers = w.layer_metrics(tr)
    layers["trace.overhead_ratio"] = op_s / base_s - 1
    layers["trace.coverage_ratio"] = w.covered_s(tr) / base_s
    out = ROOT / ".bench_out" / f"trace-{w.name}-seed{seed}.json"
    tr.write(out)
    print(f"spans written to {out.relative_to(ROOT)}", file=sys.stderr)
    traced.problems[:0] = warm.problems + untraced.problems
    return w, traced, {name: (value, len(w.traced_pass()))
                       for name, value in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ucdoc" / "__init__.py").is_file():
        print("bench: no src/ucdoc in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("bench: BENCHMARK.json missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]

    ref_ms = [host_ref_ms() for _ in range(5)]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            w, outcome, measured = trace(workload_cls, work, args.seed)
            declared = spec["per_layer"]
        else:
            w, outcome, measured = measure(workload_cls, work, args.seed,
                                           args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref_ms += [host_ref_ms() for _ in range(5)]
    measured.setdefault("host.ref_ms", (statistics.median(ref_ms), len(ref_ms)))

    metrics = {}
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: "
          f"{outcome.attempted} attempted, {outcome.failed} failed, "
          f"fail_ratio {outcome.failed / outcome.attempted:.4f}")
    if outcome.probed:
        print(f"  untimed probe: {outcome.probe_raised} of {outcome.probed} "
              f"operations raised a known defect")
    for m in declared:
        # A layer this workload does not exercise did no work: 0.
        value, samples = measured.get(m["name"], (0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<24} {value:>14.6g} {m['unit']:<6} (n={samples})")
    info = {
        "workload": w.name, "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "inputs_sha256": w.digest,
        "host_ref_ms": statistics.median(ref_ms),
        "fail_ratio": outcome.failed / outcome.attempted,
        "probed": outcome.probed, "probe_raised": outcome.probe_raised,
        "failures": dict(outcome.failures),
        "problems": outcome.problems[:10],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not outcome.problems,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
