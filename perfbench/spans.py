"""In-memory spans and per-layer self time.

A span is ``{name, start, end, parent, run}``: ``parent`` is the index of the
enclosing span (None at top level) and ``run`` names the benchmark run all
spans of one process share.  Spans are kept in memory and written out once,
when the run ends, so recording costs two clock reads and one dict per span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part of
    its interval covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        duration = span["end"] - span["start"]
        out[span["name"]] = out.get(span["name"], 0.0) + duration - covered
    return out
