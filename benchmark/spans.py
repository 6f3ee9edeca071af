"""In-memory spans recorded around calls into the library.

A span is ``[id, name, start, end, parent id, op id, cpu start, cpu end]``:
wall times from ``time.perf_counter`` and CPU times of this process from
``time.process_time``.  Spans stay in memory; ``dump`` writes them out once
the run is over.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter, process_time

FIELDS = ["id", "name", "start", "end", "parent", "op", "cpu_start", "cpu_end"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.op, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[6] = process_time()
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            rec[7] = process_time()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, cpu: bool = True) -> list[float]:
        """Durations in seconds of the spans called ``name``: CPU time of
        this process, or wall time with ``cpu=False``."""
        a, b = (6, 7) if cpu else (2, 3)
        return [rec[b] - rec[a] for rec in self.spans if rec[1] == name]

    def median_ms(self, name: str, cpu: bool = True) -> float:
        return 1e3 * statistics.median(self.durations(name, cpu))

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans, **(extra or {})}, fh)


class NullTracer:
    """Stands in for a Tracer in untraced ops: calls, no records."""

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()
