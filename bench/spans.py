"""In-memory spans recorded around calls into ucdoc's public functions.

A span has a name, a start and an end (``perf_counter_ns``), the span that
encloses it, and the id of the operation it belongs to.  Spans stay in
memory until the run ends and are then written out as JSON.  A layer's self
time is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path


class NullTracer:
    """Tracing switched off: spans cost one attribute lookup and a call."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # (span id, parent id or -1, operation id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, self.op_id, name, 0, 0))
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.op_id, name, start, end)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, durations."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations_s": []})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[span_id]) / 1e9
            row["durations_s"].append((end - start) / 1e9)
        return out

    def children_s(self, parent_name: str) -> float:
        """Seconds covered by direct children of spans named ``parent_name``."""
        parents = {s[0] for s in self.spans if s[3] == parent_name}
        return sum((end - start) / 1e9
                   for _, parent, _, _, start, end in self.spans
                   if parent in parents)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": s, "parent": p, "op": op, "name": n,
                 "start_ns": a, "end_ns": b}
                for s, p, op, n, a, b in self.spans]
        path.write_text(json.dumps({"spans": rows,
                                    "counts": dict(self.counts)}) + "\n")
