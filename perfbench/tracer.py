"""Span recording around the package's public names, installed from outside.

A Tracer replaces a module function or class method with a wrapper at the
name its caller looks up (for example `allelink.likelihood.entity_logliks`,
which `mcmc` calls as `lik.entity_logliks`). Each call records one span:
name, start, end and the index of the enclosing span. Spans live in flat
arrays until the run ends; self time is a span's duration minus the
durations of its direct children (the program is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (used for the root command span)."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Record a span for every call of owner.attr until restore().

        name is the span name, or a function of the call's positional
        arguments that returns it. observe(args) may return a callable that
        runs after the call; it is how counters are taken at a layer
        boundary. A missing attribute is noted in self.missing and skipped.
        """
        original = getattr(owner, attr, None)
        if original is None:
            where = f"{getattr(owner, '__name__', owner)}.{attr}"
            if where not in self.missing:
                self.missing.append(where)
            return
        nid = None if callable(name) else self._id(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            after = observe(args) if observe is not None else None
            idx = self._open(nid if nid is not None else self._id(name(args)))
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)
                if after is not None:
                    after()

        # an inherited method is restored by deleting the override
        own = not isinstance(owner, type) or attr in vars(owner)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        children = np.bincount(
            parent[parent >= 0], weights=duration[parent >= 0], minlength=len(start)
        )
        return {
            "name_id": name_id, "start_ns": start, "end_ns": end, "parent": parent,
            "duration_ns": duration, "self_ns": duration - children.astype(np.int64),
        }

    def durations(self, name: str, spans: dict[str, np.ndarray], self_time=False) -> np.ndarray:
        if name not in self._ids:
            return np.empty(0)
        key = "self_ns" if self_time else "duration_ns"
        return spans[key][spans["name_id"] == self._ids[name]].astype(float)

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def tail(values: np.ndarray) -> float | None:
    """The highest listed percentile with at least TAIL_BEYOND samples
    above it; None when there are too few samples."""
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return float(np.percentile(values, p))
    return None
