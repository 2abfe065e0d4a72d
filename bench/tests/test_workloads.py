"""The input generator: determinism, validity, shape and density."""

import itertools
import random

import pytest

from dynwalk import dyncore
from dynwalk.graph import validate_and_apply

from workloads import WORKLOADS, ChurnStream

BATCHES = 60


def stream(name, seed):
    w = WORKLOADS[name]
    return ChurnStream(w.n, w.d, random.Random(seed))


def batches(s, count=BATCHES):
    return [s.next_batch() for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream_other_seed_other_stream(name):
    a, b, c = stream(name, 5), stream(name, 5), stream(name, 6)
    assert a.graph() == b.graph()
    assert batches(a) == batches(b)
    assert batches(c) != batches(stream(name, 5))


@pytest.mark.parametrize("name,seed", itertools.product(sorted(WORKLOADS), (1, 2, 3)))
def test_every_batch_is_valid_churn_at_target_density(name, seed):
    s = stream(name, seed)
    graph = s.graph()
    target = round(0.9 * s.n * s.d / 2)
    assert len(graph.adjacency) == target
    for _ in range(BATCHES):
        batch = s.next_batch()
        kinds = [op.kind for op in batch]
        assert kinds == ["delete", "insert"]
        assert len({v for op in batch for v in (op.u, op.v)}) == 4
        graph, _ = validate_and_apply(graph, batch)  # raises if rejected
        assert len(graph.adjacency) == target
        assert graph == s.graph()


@pytest.mark.parametrize("name", ["churn-exact", "cascade"])
def test_gadget_sizes_pick_the_intended_route(name):
    w = WORKLOADS[name]
    s = ChurnStream(w.n, w.d, random.Random(1))
    state = dyncore.state_from_graph(s.graph(), w.K, cascade_threshold=w.cascade_threshold)
    graph = s.graph()
    for batch in batches(s, 20):
        graph, tdeltas = validate_and_apply(graph, batch)
        bdeltas = [(r, w.n + c, delta) for r, c, delta in tdeltas]
        for gadget in dyncore.build_delta_gadgets(state, bdeltas):
            if name == "cascade":
                assert gadget.size > 4
            else:
                assert gadget.size <= 12
