"""Span tracing around dynwalk's public functions, installed from outside.

Nothing in the package is edited: a ``Tracer`` replaces each traced
function at the binding its caller looks it up through (a module global
such as ``matpow.divide_monic`` or a class attribute such as
``PolyMatrix.mul``) and puts the originals back on exit.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and batch id per call;
  self time is worked out afterwards by ``self_times``;
* a *leaf* is for hot functions that call no other traced function.  It
  keeps only an aggregate call count and time, and charges its duration
  to the enclosing span so that the span's self time excludes it.

Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter_ns

# span record fields
NAME, START, END, PARENT, BATCH, LEAF_NS = range(6)


def self_times(spans) -> list:
    """Self time of every span: duration minus what its children cover.

    ``spans`` holds records indexed as above; PARENT is the index of the
    enclosing span or -1, LEAF_NS the time of aggregated leaf calls made
    directly inside the span.  Child intervals are merged and clipped to
    the parent, so overlapping or overhanging children are not counted
    twice.
    """
    kids = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            kids[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s[START]
        for a, b in sorted(kids.get(i, ())):
            a = max(a, reach)
            b = min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered - s[LEAF_NS])
    return out


class Tracer:
    """Installs span and leaf wrappers and collects what they record.

    ``batch`` is set by the benchmark loop before each update: positive ids are
    timed updates, 0 is set-up and negative ids are warm-up updates.
    Leaf aggregates and wrapper hooks only run while ``batch > 0``.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.leaves = defaultdict(lambda: [0, 0])  # name -> [calls, ns]
        self.batch = 0
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if hook is not None and self.batch > 0:
                hook(self, args)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.batch, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _leaf(self, name, fn, hook):
        spans, stack, agg = self.spans, self.stack, self.leaves[name]

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                if stack:
                    spans[stack[-1]][LEAF_NS] += dt
                if self.batch > 0:
                    agg[0] += 1
                    agg[1] += dt
            if hook is not None and self.batch > 0:
                hook(self, args, result)
            return result

        return wrapper

    def install(self, table):
        """Patch every (owner, attr, name, kind, hook) row of ``table``."""
        for owner, attr, name, kind, hook in table:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            make = self._span if kind == "span" else self._leaf
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original, hook))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- queries ----------------------------------------------------------

    def parent_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def span_totals(self) -> dict:
        """name -> [calls, total_ns, self_ns] over spans with batch > 0."""
        out = defaultdict(lambda: [0, 0, 0])
        for s, own in zip(self.spans, self_times(self.spans)):
            if s[BATCH] > 0:
                row = out[s[NAME]]
                row[0] += 1
                row[1] += s[END] - s[START]
                row[2] += own
        return out

    def write_spans(self, path) -> None:
        """Dump every span, with its self time, as CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_ns", "end_ns", "parent", "batch", "leaf_ns", "self_ns"])
            for i, (s, own) in enumerate(zip(self.spans, self_times(self.spans))):
                w.writerow([i, *s, own])
