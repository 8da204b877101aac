"""In-memory span recording for the benchmark's traced run.

A span is ``[id, name, trace, parent, start_ns, end_ns]``: ``trace`` groups
the spans of one request (or of one set-up step), ``parent`` is the id of
the span that caused it, or -1.  Spans are kept in a list and written out
once, when the run ends.

The benchmark times calls into the library from outside, so a child is not
always inside its parent's interval: a bucket probe that a query made is
re-run and timed right after the query returns, and recorded as that
query's child.  A span's self time is therefore its duration minus the
durations of its children.

Each trace can carry the host's slowness measured before and after it (see
``hostspeed.py``); the durations this module derives are divided by the
mean of the two.  The spans written out keep their wall-clock times.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    __slots__ = ("spans", "counts", "slowness", "_next_trace")

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.slowness: dict[int, tuple[float, float]] = {}
        self._next_trace = 0

    def new_trace(self) -> int:
        self._next_trace += 1
        return self._next_trace

    def start(self, name: str, trace: int, parent: int = -1) -> list:
        span = [len(self.spans), name, trace, parent, _clock(), 0]
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: list) -> None:
        span[5] = _clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def set_slowness(self, trace: int, before: float, after: float) -> None:
        """Record the host's slowness measured around ``trace``: (worse, mean)."""
        self.slowness[trace] = (max(before, after), (before + after) / 2)

    def samples(self, name: str, self_time: bool = False) -> list[tuple[float, float]]:
        """``(worse slowness, normalised ns)`` of every span called ``name``, in start order.

        The ns are the span's duration, or with ``self_time`` its duration
        minus the durations of its children.
        """
        child_ns: dict[int, int] = defaultdict(int)
        if self_time:
            for s in self.spans:
                if s[3] >= 0:
                    child_ns[s[3]] += s[5] - s[4]
        out = []
        for s in self.spans:
            if s[1] == name:
                worse, mean = self.slowness.get(s[2], (1.0, 1.0))
                out.append((worse, (s[5] - s[4] - child_ns[s[0]]) / mean))
        return out

    def write(self, path) -> None:
        """Write one JSON object per span, then one with the counts and slowness."""
        with open(path, "w") as fh:
            for sid, name, trace, parent, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "trace": trace, "parent": parent,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "slowness": self.slowness}) + "\n")
