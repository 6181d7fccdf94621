"""In-memory spans around the public mapt calls the benchmark makes.

A span records its name, start, end, parent span and scene id. Spans are kept
in a list and written out by the caller when the run ends. With ``memory`` set
(tracemalloc must be running) each span also records the traced-heap bytes at
its start and the highest traced-heap bytes seen while it was open.

Spans are opened only from the benchmark's own thread, so nested spans never
overlap and a span's self time is its duration minus the sum of its direct
children's durations.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, memory: bool = False):
        self.enabled = False
        self.memory = memory
        self.scene = None
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its record (attributes may be added) or None when disabled."""
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "scene": self.scene,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.spans.append(rec)
        if self.memory:
            # reset_peak would lose the peak of the spans already open: fold it in first
            self._fold_peak()
            tracemalloc.reset_peak()
            rec["base_b"] = rec["peak_b"] = tracemalloc.get_traced_memory()[0]
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.memory:
                self._fold_peak()
            self._open.pop()

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for rec in self._open:
            rec["peak_b"] = max(rec["peak_b"], peak)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}
