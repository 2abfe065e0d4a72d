"""Graph mutations, batch validation, transition-matrix deltas."""

import random

import pytest
from hypothesis import given, settings, strategies as hst

from dynwalk.numerics import Rat, rat
from dynwalk.linalg import RatMatrix
from dynwalk.graph import (
    BatchRejected,
    DynGraph,
    EdgeBatch,
    EdgeOp,
    lazy_transition,
    validate_and_apply,
)

from conftest import cycle_graph, random_batch, random_graph


def batch(*ops):
    return EdgeBatch(tuple(EdgeOp(k, u, v) for k, u, v in ops))


# -- graph construction -------------------------------------------------------


def test_empty_graph():
    g = DynGraph.empty(3, 2)
    assert g.n == 3 and g.d == 2
    assert g.edges() == []
    assert g.degree(0) == 0
    assert not g.has_edge(0, 1)


def test_graph_normalizes_edge_order():
    g = DynGraph(3, 2, {(2, 0)})
    assert g.has_edge(0, 2)
    assert g.has_edge(2, 0)
    assert g.edges() == [(0, 2)]


def test_graph_validation():
    with pytest.raises(ValueError):
        DynGraph(2, 1, {(0, 0)})
    with pytest.raises(ValueError):
        DynGraph(2, 1, {(0, 2)})
    with pytest.raises(ValueError):
        DynGraph(3, 1, {(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        DynGraph(-1, 1)
    with pytest.raises(ValueError):
        DynGraph(2, 0)


def test_graph_copy_is_detached():
    g = DynGraph(3, 2, {(0, 1)})
    h = g.copy()
    h.adjacency.add((1, 2))
    assert not g.has_edge(1, 2)


def test_edge_op_validation():
    with pytest.raises(ValueError):
        EdgeOp("toggle", 0, 1)
    with pytest.raises(TypeError):
        EdgeBatch((("insert", 0, 1),))


# -- lazy transition ----------------------------------------------------------


def test_lazy_transition_empty_graph_is_identity():
    assert lazy_transition(DynGraph.empty(3, 2)) == RatMatrix.identity(3)


def test_lazy_transition_single_edge():
    g = DynGraph(2, 1, {(0, 1)})
    assert lazy_transition(g) == RatMatrix(
        [[rat(1, 2), rat(1, 2)], [rat(1, 2), rat(1, 2)]]
    )


def test_lazy_transition_triangle():
    t = lazy_transition(cycle_graph(3))
    for i in range(3):
        for j in range(3):
            assert t[i, j] == (rat(1, 2) if i == j else rat(1, 4))


def test_lazy_transition_row_structure():
    rng = random.Random(701)
    for _ in range(10):
        n = rng.randint(1, 9)
        d = rng.randint(1, 3)
        g = random_graph(rng, n, d)
        t = lazy_transition(g)
        for i in range(n):
            assert sum(t.rows[i]) == 1
            assert t[i, i] == 1 - Rat(g.degree(i), 2 * d)
            for j in range(n):
                assert t[i, j] == t[j, i]
                assert t[i, j] >= 0
                if i != j:
                    assert t[i, j] == (Rat(1, 2 * d) if g.has_edge(i, j) else 0)


# -- batch application ---------------------------------------------------------


def test_insert_reports_the_four_deltas():
    # deltas of N = 2d T, so units of 1/(2d) = 1/2 of T
    g = DynGraph.empty(2, 1)
    new, deltas = validate_and_apply(g, batch(("insert", 0, 1)))
    assert new.has_edge(0, 1)
    assert deltas == {(0, 1, 1), (1, 0, 1), (0, 0, -1), (1, 1, -1)}
    assert all(type(delta) is int for _, _, delta in deltas)
    # the input graph is untouched
    assert not g.has_edge(0, 1)


def test_insert_then_delete_cancels():
    g = DynGraph.empty(4, 2)
    new, deltas = validate_and_apply(
        g, batch(("insert", 0, 1), ("delete", 0, 1))
    )
    assert deltas == set()
    assert new.edges() == []


def test_empty_batch():
    g = cycle_graph(4)
    new, deltas = validate_and_apply(g, EdgeBatch(()))
    assert deltas == set()
    assert new.edges() == g.edges()


def test_rejection_reasons_and_indices():
    g = DynGraph(3, 1, {(0, 1)})
    cases = [
        (batch(("insert", 2, 2)), 0, "self-loop (2, 2)"),
        (batch(("insert", 0, 3)), 0, "vertex out of range in (0, 3)"),
        (batch(("insert", 0, 1)), 0, "edge (0, 1) already present"),
        (batch(("delete", 0, 1), ("insert", 0, 2), ("delete", 0, 2), ("insert", 0, 1), ("insert", 0, 1)), 4, "edge (0, 1) already present"),
        (batch(("insert", 0, 2)), 0, "degree bound 1 hit at vertex 0"),
        (batch(("delete", 1, 2)), 0, "edge (1, 2) not present"),
    ]
    for b, index, reason in cases:
        with pytest.raises(BatchRejected) as exc:
            validate_and_apply(g, b)
        assert exc.value.index == index
        assert exc.value.reason == reason
        assert str(exc.value) == f"batch rejected at op {index}: {reason}"


def test_rejection_leaves_graph_unchanged():
    g = DynGraph(3, 2, {(0, 1)})
    before = g.edges()
    with pytest.raises(BatchRejected):
        validate_and_apply(g, batch(("insert", 1, 2), ("insert", 2, 2)))
    assert g.edges() == before


def test_deltas_reproduce_the_new_transition_matrix():
    rng = random.Random(702)
    for _ in range(25):
        n = rng.randint(2, 9)
        d = rng.randint(1, 3)
        g = random_graph(rng, n, d)
        b = random_batch(rng, g, 4)
        new, deltas = validate_and_apply(g, b)
        t = lazy_transition(g)
        rows = [list(r) for r in t.rows]
        for r, c, delta in deltas:
            rows[r][c] += rat(delta, 2 * d)
        assert RatMatrix(rows) == lazy_transition(new)


def _recount(g, v):
    return sum(1 for e in g.adjacency if v in e)


def _reference_apply(g, ops):
    """The edge set after ops, or the index of the first bad op (recounted degrees)."""
    adj = set(g.edges())
    for i, (kind, u, v) in enumerate(ops):
        e = (min(u, v), max(u, v))
        if u == v or not (0 <= u < g.n and 0 <= v < g.n):
            return i
        if kind == "insert":
            full = any(sum(1 for f in adj if w in f) >= g.d for w in (u, v))
            if e in adj or full:
                return i
            adj.add(e)
        else:
            if e not in adj:
                return i
            adj.remove(e)
    return adj


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(2, 8),
    hst.integers(1, 3),
    hst.randoms(use_true_random=False),
    hst.lists(
        hst.lists(
            hst.tuples(hst.sampled_from(["insert", "delete"]), hst.integers(0, 8), hst.integers(0, 8)),
            max_size=5,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_property_update_by_delta_matches_a_validated_rebuild(n, d, rng, batches):
    g = random_graph(rng, n, d, fill=rng.random())
    for ops in batches:
        # most ops stay in range, so that many batches are accepted
        ops = [(k, u % n, v % n) if rng.random() < 0.9 else (k, u, v) for k, u, v in ops]
        want = _reference_apply(g, ops)
        edges, degrees = g.edges(), [g.degree(v) for v in range(n)]
        b = batch(*ops)
        if isinstance(want, int):
            with pytest.raises(BatchRejected) as exc:
                validate_and_apply(g, b)
            assert exc.value.index == want
            assert g.edges() == edges
            assert [g.degree(v) for v in range(n)] == degrees
            continue
        new, _ = validate_and_apply(g, b)
        assert new.adjacency == want
        assert new == DynGraph(n, d, new.adjacency)
        assert all(new.degree(v) == _recount(new, v) for v in range(n))
        # the old graph is untouched
        assert g.edges() == edges
        assert [g.degree(v) for v in range(n)] == degrees
        g = new
