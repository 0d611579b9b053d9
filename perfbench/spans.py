"""In-memory span tracing for the traced benchmark run.

A :class:`Tracer` records one span per call of a wrapped function: its name,
its duration and the span that was open when it started (its parent).
Spans are aggregated on the fly, keyed by ``(name, parent)``, so memory
stays bounded however many calls a run makes.  A span's self time is its
duration minus the time its direct child spans cover; child spans of one
parent never overlap, because the traced program is single-threaded.

Functions are wrapped from outside the program: :func:`install` replaces a
module attribute or class method by a timing wrapper, and also every other
name bound to the same object in the given modules, so that names
re-imported elsewhere (``from .weyl import generate_weyl``) are traced too.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, time covered by children]
        self.spans = {}  # (name, parent) -> SpanStats
        self.counts = {}  # counter name -> number

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        parent = None
        if self.stack:
            parent = self.stack[-1][0]
            self.stack[-1][2] += duration
        stats = self.spans.get((name, parent))
        if stats is None:
            stats = self.spans[(name, parent)] = SpanStats()
        stats.calls += 1
        stats.total += duration
        stats.child += child

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def cover(self, duration: float) -> None:
        """Count ``duration`` as covered time of the open span: no span's self time."""
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name: str, fn, note=None):
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        ``note(tracer, args, kwargs, result)`` runs after a call returns, to
        record counters about its inputs and output.  Its time counts as
        covered in the caller's span, so no span's self time includes it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if note is not None:
                start = self.clock()
                note(self, args, kwargs, result)
                self.cover(self.clock() - start)
            return result

        return traced

    def by_name(self) -> dict:
        """Spans summed over their parents: name -> SpanStats."""
        out = {}
        for (name, _parent), stats in self.spans.items():
            agg = out.setdefault(name, SpanStats())
            agg.calls += stats.calls
            agg.total += stats.total
            agg.child += stats.child
        return out

    def dump(self, path) -> None:
        """Write the aggregated spans and counters as JSON."""
        spans = [
            {
                "name": name,
                "parent": parent,
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
            }
            for (name, parent), s in sorted(self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": self.counts}, fh, indent=1, sort_keys=True)


def install(tracer: Tracer, modules, owner, attr: str, name: str, note=None) -> None:
    """Replace ``owner.attr`` by a traced wrapper named ``name``.

    ``owner`` is a module or a class.  Every global of ``modules`` bound to
    the same function object is replaced as well.
    """
    original = getattr(owner, attr)
    wrapper = tracer.wrap(name, original, note)
    setattr(owner, attr, wrapper)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
