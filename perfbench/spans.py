"""Spans recorded around the benchmark's calls into varncode.

A span is (name, start, end, parent span, instance id).  Spans live in memory
while a workload runs and are written out when it ends; self times are derived
from them afterwards, so the timed code pays only for two clock reads and a
list append per call.  With recording off, `span()` still notes which layer is
running, because the failure taxonomy attributes every failure to a layer in
untraced runs too.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Spans:
    """Context-manager factory: `with spans.span("coder.build_code"): ...`."""

    def __init__(self, record: bool):
        self.record = record
        self.layer: str | None = None
        self.instance = -1
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "Spans":
        self.layer = name
        if self.record:
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            self.spans.append([name, perf_counter(), 0.0, parent, self.instance])
        return self

    def __enter__(self) -> "Spans":
        return self

    def __exit__(self, *exc) -> bool:
        if self.record:
            self.spans[self._stack.pop()][2] = perf_counter()
        return False

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose interval was timed by the caller."""
        if self.record:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start, end, parent, self.instance])


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds); self = duration minus child durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out[name]
        agg[0] += 1
        agg[1] += (end - start) - child[i]
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,instance\n")
        for name, start, end, parent, inst in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{inst}\n")
