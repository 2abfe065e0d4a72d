"""Self-time arithmetic and wrapper installation of the tracer."""

import types

from tracing import Tracer, self_times


def span(name, start, end, parent=-1, leaf_ns=0):
    return [name, start, end, parent, 1, leaf_ns]


def test_self_time_subtracts_children_and_leaves():
    spans = [
        span("root", 0, 100),                # children cover 10..40 and 50..90
        span("a", 10, 40, parent=0, leaf_ns=5),
        span("a1", 15, 25, parent=1),
        span("b", 50, 90, parent=0),
        span("b1", 60, 70, parent=3),
        span("b2", 65, 80, parent=3),        # overlaps b1: union is 60..80
        span("c", 95, 120, parent=0),        # overhangs root: 95..100 counts
    ]
    assert self_times(spans) == [100 - 30 - 40 - 5, 30 - 10 - 5, 10, 40 - 20, 10, 15, 25]


def test_wrappers_record_and_are_removed():
    mod = types.SimpleNamespace(outer=None, inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.outer, mod.inner)
    with Tracer() as tr:
        tr.install([
            (mod, "outer", "outer", "span", None),
            (mod, "inner", "inner", "leaf", None),
        ])
        tr.batch = 1
        assert mod.outer(1) == 4
        tr.batch = 0
        mod.outer(1)  # set-up calls are spans with batch 0 and no leaf counts
    assert (mod.outer, mod.inner) == originals
    assert [s[0] for s in tr.spans] == ["outer", "outer"]
    assert tr.leaves["inner"][0] == 1
    totals = tr.span_totals()
    assert totals["outer"][0] == 1
    calls, total, own = totals["outer"]
    assert own == total - tr.spans[0][5]
