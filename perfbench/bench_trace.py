"""Spans around the benchmark's calls into the library's public functions.

A disabled tracer forwards each call unchanged.  An enabled one records, for
every call, a span ``(id, name, start, end, parent, op)`` kept in memory and
written out when the pass ends, and per-function counters: calls, busy
seconds, terms returned and calls whose arguments repeat an earlier call of
the same function in the pass (what a memo could have saved).  Only the
benchmark's own calls are visible; time spent inside the library is
attributed to the outermost public function the benchmark called.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def size(value) -> int:
    """Terms in a returned value: LinComb entries, list items, both sides of
    a pair of LinCombs; a scalar counts as one term."""
    if isinstance(value, (dict, list)):
        return len(value)
    if isinstance(value, tuple) and value and all(isinstance(v, dict) for v in value):
        return sum(len(v) for v in value)
    return 1


def arg_key(value):
    """A hashable stand-in for an argument, equal for equal arguments."""
    if isinstance(value, dict):
        return ("lc", frozenset((k, arg_key(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)) and not hasattr(value, "key"):
        try:
            hash(value)
            return value
        except TypeError:
            return ("seq", tuple(arg_key(v) for v in value))
    try:
        hash(value)
        return value
    except TypeError:
        key = getattr(value, "key", None)
        if callable(key):
            return (type(value).__name__, key())
        return ("id", id(value))


class Stat:
    __slots__ = ("calls", "busy", "terms", "repeats", "seen")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.terms = 0
        self.repeats = 0
        self.seen = set()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.stats = {}
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, terms=None, **kwargs):
        """Call ``fn(*args, **kwargs)``, recording a span named ``name``;
        ``terms`` overrides the term count taken from the result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        key = (arg_key(args), arg_key(kwargs)) if kwargs else arg_key(args)
        with self.span(name) as stat:
            out = fn(*args, **kwargs)
        stat.terms += size(out) if terms is None else terms
        if key in stat.seen:
            stat.repeats += 1
        else:
            stat.seen.add(key)
        return out

    @contextmanager
    def span(self, name):
        """Record a span around the ``with`` body; yields the name's counters."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        if not self.enabled:
            yield stat
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield stat
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)
            stat.calls += 1
            stat.busy += end - start

    def summary(self) -> dict:
        return {name: {"calls": s.calls, "busy_s": s.busy, "terms": s.terms,
                       "repeats": s.repeats}
                for name, s in self.stats.items()}

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - origin,
                                     "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")
