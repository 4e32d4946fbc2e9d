"""In-memory spans around the benchmark's calls into the library.

A span records its name, start, end, the span that was open when it began
(its parent) and the step it belongs to. Counts are attached at the same
call boundaries, but computed only when the step has ended, so counting
never lands inside a timed span. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.step: int | None = None
        self._open: list[int] = []
        self._pending: list[tuple[dict, object, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "step": self.step,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, counts=None):
        """Run ``fn(*args)`` inside a span; ``counts(result)`` is evaluated at
        ``flush_counts`` and its dict stored on the span."""
        with self.span(name) as rec:
            out = fn(*args)
        if counts is not None:
            self._pending.append((rec, counts, out))
        return out

    def flush_counts(self) -> None:
        for rec, counts, out in self._pending:
            rec["counts"].update(counts(out))
        self._pending.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    step = None

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, counts=None):
        return fn(*args)

    def flush_counts(self) -> None:
        pass


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    out = {}
    for rec in spans:
        covered, reach = 0.0, rec["start"]
        for start, end in sorted(children.get(rec["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[rec["id"]] = rec["end"] - rec["start"] - covered
    return out
