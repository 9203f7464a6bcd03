"""In-memory spans for the traced run.

A span records its job id, its own id, its parent's id, its name and its
start and end on the perf_counter clock.  Spans stay in a list until the
run writes them out.  A layer's self time is its span's duration minus
the time its child spans cover; children run one after another inside
their parent, so that is the duration minus the children's durations.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [job, id, parent, name, start, end]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.job = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [self.job, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.job, name)] += value

    def job_spans(self, job: str) -> list[list]:
        return [s for s in self.spans if s[0] == job]

    def self_times(self, job: str) -> dict[str, float]:
        """Self seconds per span name within one job."""
        spans = self.job_spans(job)
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] += s[5] - s[4]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s[3]] += (s[5] - s[4]) - child_time[s[1]]
        return out

    def durations(self, job: str, name: str) -> float:
        return sum(s[5] - s[4] for s in self.job_spans(job) if s[3] == name)

    def job_counts(self, job: str) -> dict[str, float]:
        return {name: v for (j, name), v in self.counts.items() if j == job}

    def dump(self) -> list[dict]:
        keys = ("job", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """Stands in for Tracer when tracing is off."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass
