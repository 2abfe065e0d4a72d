"""The packed format's grid rounding: the rounding memo of truncate_rows."""

import random

import pytest

from dynwalk import dyncore, muddle, packed
from dynwalk.numerics import Rat
from dynwalk.linalg import RatMatrix
from dynwalk.dyncore import apply_batch, state_from_graph, state_from_matrix
from dynwalk.muddle import MuddleConfig, MuddleTimeline
from dynwalk.packed import READS_MAX, truncate_rows, unpacked

from conftest import random_batch, random_graph, truncate_all


def _memo(p, bits, out):
    """The rounding memo truncate_rows used to round p onto out."""
    return packed._roundings(p.width, p.slots, p.scale, bits, p.den, out.width)


def _nonzero(p):
    return {e for row in p.rows for e in row if e}


def test_alternating_packings_round_like_truncate_to_bits():
    # a graph state (den 6); its twin over den 5, with the same ints and
    # width but other coefficients; a matrix state (den 35, another
    # width) with more distinct entries than a memo holds, so its memo
    # clears mid-run; and the graph state at two bit widths.  Each
    # packing pair needs its own memo.
    rng = random.Random(23)
    g = state_from_graph(random_graph(rng, 8, 3), 4)
    twin = state_from_matrix(RatMatrix.from_rat_rows([[Rat(v, 5) for v in row] for row in g.N]), 4)
    assert (twin.P.rows, twin.P.width, twin.P.den) == (g.P.rows, g.P.width, 5)
    n = 33
    a = RatMatrix.from_rat_rows(
        [[Rat(rng.randrange(1, 10**6), 35) for _ in range(n)] for _ in range(n)]
    )
    m = state_from_matrix(a, 2)
    assert m.P.den == 35 and m.P.width != g.P.width
    distinct = len(_nonzero(m.P))
    assert distinct > READS_MAX
    for _ in range(2):
        for st, bits in ((g, 64), (twin, 64), (m, 12), (g, 20)):
            out = truncate_rows(st.P, bits)
            assert (out.scale, out.den) == (1 << bits, st.P.den)
            assert unpacked(out) == truncate_all(st.F, bits)
            assert len(_memo(st.P, bits, out)) <= READS_MAX
    assert len(_memo(m.P, 12, truncate_rows(m.P, 12))) < distinct


def test_reuse_path_matches_the_full_path():
    rng = random.Random(29)
    graph = random_graph(rng, 10, 3)
    old = state_from_graph(graph, 4)
    done = truncate_rows(old.P, 64)
    for _ in range(6):
        new = apply_batch(old, random_batch(rng, old.graph, 2))
        reused = truncate_rows(new.P, 64, old.P, done)
        full = truncate_rows(new.P, 64)
        assert reused.rows == full.rows
        assert (reused.width, reused.scale) == (full.width, full.scale)
        assert unpacked(reused) == truncate_all(new.F, 64)
        old, done = new, reused


@pytest.fixture
def roundings(monkeypatch):
    """The roundings truncate_rows computes, from fresh memos, and its inputs' entries."""
    packed._roundings.cache_clear()
    calls, inputs = [], set()
    real_on_grid, real_truncate = packed.on_grid, packed.truncate_rows

    def on_grid(nums, *args):
        calls.append((tuple(nums),) + args)
        return real_on_grid(nums, *args)

    def truncate(p, *args):
        inputs.update(_nonzero(p))
        return real_truncate(p, *args)

    monkeypatch.setattr(packed, "on_grid", on_grid)
    # the muddled delivery and a fresh bits state's first fold
    monkeypatch.setattr(muddle, "truncate_rows", truncate)
    monkeypatch.setattr(dyncore, "truncate_rows", truncate)
    yield calls, inputs
    packed._roundings.cache_clear()


def test_a_muddled_run_rounds_each_distinct_entry_once(roundings):
    calls, inputs = roundings
    # the benchmark's muddled shape: n = 16, d = 3, K = 4, L = 4, b = 64
    rng = random.Random(31)
    cfg = MuddleConfig(16, 3, 4, 4, 64)
    tl = MuddleTimeline(cfg, random_graph(rng, 16, 3))
    deliveries = 0
    for step in range(60):
        tl.step(random_batch(rng, tl.shadow.graph, 2))
        deliveries += tl.trace[-1].delivered
        if step >= cfg.L:
            assert len(calls) <= len(inputs)
    assert deliveries > 40
    # no input is rounded twice, so a delivery's rounding is mostly hits
    assert len(set(calls)) == len(calls) < deliveries
    first = truncate_rows(tl.shadow.P, 64)
    before = len(calls)
    again = truncate_rows(tl.shadow.P, 64)
    assert len(calls) == before
    assert again.rows == first.rows
