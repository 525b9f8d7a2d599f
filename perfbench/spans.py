"""In-memory span tracer that wraps program functions from the outside.

The tracer replaces a function at the module attribute its callers look up
(e.g. `hydrodisc.sweep.build_table`, which `evaluate_point` resolves at call
time) with a wrapper that records a span around the call, and puts the
original back on `restore`.  No program code changes.  Spans carry a name,
start, end, parent index and point id (n, m, r0); a span without its own
point id inherits its parent's.  Counts taken from a call's arguments and
result ride on the span as attrs and are computed after the span closes.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    point: tuple | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, point: tuple | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = self.spans[parent].point
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, point))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, point: tuple | None = None):
        idx = self.open(name, point)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def patch(self, module, attr: str, name: str, point_of=None, attrs_of=None) -> bool:
        """Wrap module.attr in a span; False if the module has no such attribute.

        point_of(arguments) gives the span's point id and attrs_of(arguments,
        result) the counts stored on it, where arguments maps parameter
        names to the values of the call.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not (point_of or attrs_of):  # the hot, bare case: keep it cheap
                idx = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(idx)
            arguments = signature.bind(*args, **kwargs).arguments
            idx = self.open(name, point_of(arguments) if point_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs_of:
                self.spans[idx].attrs.update(attrs_of(arguments, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = asdict(s)
                if extra:
                    record.update(extra)
                fh.write(json.dumps(record) + "\n")


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids.get(i, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total duration and total self time."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return table
