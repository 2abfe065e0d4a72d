"""The packed format's memos: grid rounding, shared by the fold and the delivery, and reads."""

import random

import pytest

from dynwalk import packed
from dynwalk.numerics import Rat
from dynwalk.linalg import RatMatrix
from dynwalk.dyncore import apply_batch, state_from_graph, state_from_matrix
from dynwalk.muddle import MuddleConfig, MuddleTimeline
from dynwalk.packed import READS_MAX, truncate_rows, unpacked

from conftest import random_batch, random_graph, truncate_all


def _memo(p, bits, out):
    """The rounding memo truncate_rows used to round p onto out."""
    return packed.grid_rounding(p.width, p.slots, p.scale, bits, p.den, out.width)


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


@pytest.fixture
def roundings(monkeypatch):
    """Every on_grid call, as its arguments, from fresh rounding memos."""
    packed.grid_rounding.cache_clear()
    calls, real = [], packed.on_grid

    def on_grid(nums, *args):
        calls.append((tuple(nums),) + args)
        return real(nums, *args)

    monkeypatch.setattr(packed, "on_grid", on_grid)
    yield calls
    packed.grid_rounding.cache_clear()


def test_a_muddled_run_rounds_each_distinct_entry_once(roundings):
    calls = roundings
    # the benchmark's muddled shape: n = 16, d = 3, K = 4, L = 4, b = 64
    rng = random.Random(31)
    cfg = MuddleConfig(16, 3, 4, 4, 64)
    tl = MuddleTimeline(cfg, random_graph(rng, 16, 3))
    deliveries = 0
    for _ in range(60):
        tl.step(random_batch(rng, tl.shadow.graph, 2))
        deliveries += tl.trace[-1].delivered
    assert deliveries > 40
    # the deliveries round from scale 1, the served state's folds during
    # warmup from scale 2^(64 (J+1)); each kind reaches on_grid, and no
    # (packing pair, entry) reaches it twice, so a delivery is mostly hits
    assert {c[1] for c in calls} == {1, 1 << (64 * 3)}
    assert len(set(calls)) == len(calls) < deliveries
    first = truncate_rows(tl.shadow.P, 64)
    before = len(calls)
    again = truncate_rows(tl.shadow.P, 64)
    assert len(calls) == before
    assert again.rows == first.rows


def test_a_bits_churn_rounds_each_distinct_fold_sum_once(roundings):
    # a direct bits run: the first fold rounds the whole state onto the
    # grid, and every later fold rounds each changed entry's sum
    # P[s][t] m^J + V once per distinct sum, however often it recurs
    calls = roundings
    rng = random.Random(37)
    st = state_from_graph(random_graph(rng, 10, 3), 4, mode="bits", bits=64)
    for _ in range(40):
        st = apply_batch(st, random_batch(rng, st.graph, 2))
    folds = [c for c in calls if c[1] != 1]
    assert folds and len(set(folds)) == len(folds) < READS_MAX
    assert unpacked(st.P) == truncate_all(unpacked(st.P), 64)


def test_successive_deliveries_share_one_read_memo():
    rng = random.Random(41)
    tl = MuddleTimeline(MuddleConfig(12, 3, 4, 2, 64), random_graph(rng, 12, 3))
    served = []
    for _ in range(12):
        tl.step(random_batch(rng, tl.shadow.graph, 2))
        if tl.trace[-1].delivered:
            served.append(tl.served)
    assert len(served) >= 2
    last, prev = served[-1], served[-2]
    assert last.P is not prev.P
    assert last.P.reads is prev.P.reads
