"""In-memory spans around the benchmark's calls into mixexact.

A span records its name, start and end (perf_counter seconds), the span
that was open when it started, and the run it belongs to, plus any counts
attached at the call site. Spans stay in memory until the run writes them
out. NULL_TRACER has the same interface and records nothing, so timed
passes run the same code with tracing off.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.record["start"] = time.perf_counter()
        self.tracer._stack.append(self.record["id"])
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> _Span:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            **attrs,
        }
        self.spans.append(record)
        return _Span(self, record)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and "end" in s]

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because calls are sequential.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and "end" in s:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if "end" not in s:
                continue
            total = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += total
            row["self_s"] += total - child_time[s["id"]]
        return out


class _NullSpan:
    __slots__ = ("record",)

    def __init__(self):
        self.record: dict = {}

    def __enter__(self) -> dict:
        return self.record

    def __exit__(self, *exc) -> None:
        pass


class _NullTracer:
    def span(self, name: str, **attrs) -> _NullSpan:
        return _NullSpan()


NULL_TRACER = _NullTracer()
