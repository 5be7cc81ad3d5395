"""In-memory span tracer that wraps the program's public functions from outside.

A span is (name, start, end, parent). Spans are appended to flat arrays while
the traced code runs and are only aggregated or written out afterwards, so a
span costs two clock reads and a few appends.

Functions are wrapped by rebinding module attributes. A module that imported
a function by name (``from .tinynn import forward_batch``) holds its own
reference, so every module given to ``install`` is searched for references to
the original function object and each one is rebound to the same wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code around a call into the program."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add_count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, fn, name: str, counter=None):
        """Wrapper recording one span per call; counter(args, result) adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.add_count(key, n)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, modules: dict, targets: dict, counters: dict | None = None) -> None:
        """Wrap targets = {layer: [function names]} wherever modules reference them."""
        counters = counters or {}
        for layer, fnames in targets.items():
            home = modules[layer]
            for fname in fnames:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self.wrap(original, name, counters.get(name))
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebound.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Write every span (columns) plus the aggregates as gzipped JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "spans": {
                "name_id": list(self.name_id),
                "parent": list(self.parent),
                "start_s": [round(t - t0, 9) for t in self.start],
                "end_s": [round(t - t0, 9) for t in self.end],
            },
            "counts": self.counts,
            "totals": self.totals(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
