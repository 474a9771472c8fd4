"""Spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent)``; spans nest by the ``with``
structure of the calling code.  A layer's time is its spans' self time:
duration minus the part covered by child spans.  Spans stay in memory
and are written out once, when the workload ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        record = tracer.records[self.index]
        record[2] = perf_counter()
        tracer.current = record[3]


_NO_SPAN = nullcontext()


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent index or -1]`` per span, in start order.
        self.records: List[list] = []
        self.current = -1

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        index = len(self.records)
        self.records.append([name, 0.0, 0.0, self.current])
        self.current = index
        self.records[index][1] = perf_counter()
        return _Span(self, index)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.records, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        """Duration of each span called ``name``."""
        return [end - start for span_name, start, end, _ in self.records
                if span_name == name]

    def export(self, workload: str, repeat: int) -> List[dict]:
        """Spans as dictionaries; ``op`` is the index of the top-level
        operation (a child of a stage span) the span belongs to."""
        ops: List[Optional[int]] = []
        for index, (_, _, _, parent) in enumerate(self.records):
            if parent < 0:
                ops.append(None)                 # a stage
            elif self.records[parent][3] < 0:
                ops.append(index)                # a top-level operation
            else:
                ops.append(ops[parent])
        return [{"name": name, "start": start, "end": end,
                 "parent": parent if parent >= 0 else None,
                 "op": op, "workload": workload, "repeat": repeat}
                for (name, start, end, parent), op in zip(self.records, ops)]


def write_trace(path, spans: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans}, handle)
