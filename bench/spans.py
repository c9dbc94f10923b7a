"""In-memory spans and counters recorded around calls into the library.

A span has a name (``<layer>.<call>``), start and end times, the index of
the span that was open when it began, and the workload it belongs to.
Spans are kept in a list and written once, by the caller, at the end of
a run.  ``NullRecorder`` has the same interface and records nothing; its
``traced`` is false, so the workloads install no call wrappers with it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("models", "spectral", "expansion", "oracle", "evaluate", "cli")


class NullRecorder:
    """Recorder used with tracing off: every call is a no-op."""

    traced = False

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, value):
        pass


class Recorder:
    """Spans and computed counters of one traced pass."""

    traced = True

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counters = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        entry = {"name": name, "start": time.perf_counter(), "end": None,
                 "parent": parent, "workload": self.workload}
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception:
            layer = name.split(".", 1)[0]
            if layer in self.errors:
                self.errors[layer] += 1
            raise
        finally:
            entry["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        """Add ``value`` to a counter computed from problem sizes."""
        self.counters[name] = self.counters.get(name, 0) + value

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def _self(self):
        """(span, self time) pairs: span time minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - c) for s, c in zip(self.spans, child_time)]

    def self_total(self, name):
        """Summed self time of every span called ``name``."""
        return sum((t for s, t in self._self() if s["name"] == name), 0.0)

    def self_times(self):
        """Per-layer self time.

        The key of a span is its layer, the part of its name before the
        first dot; spans of the harness itself (``pass``, ``replay``) are
        keyed by their whole name.
        """
        out = {}
        for s, t in self._self():
            key = s["name"].split(".", 1)[0]
            out[key] = out.get(key, 0.0) + t
        return out

    def to_json(self, origin):
        """Spans with times relative to ``origin``, for the trace file."""
        return [
            dict(s, start=s["start"] - origin, end=s["end"] - origin)
            for s in self.spans
        ]
