"""The packed format: the fold's operations on PackedF, its memos, and who may read its rows."""

import ast
import random
from pathlib import Path

import pytest

from dynwalk import packed
from dynwalk.numerics import Rat, truncate_to_bits
from dynwalk.linalg import RatMatrix
from dynwalk.dyncore import apply_batch, state_from_graph, state_from_matrix
from dynwalk.muddle import MuddleConfig, MuddleTimeline
from dynwalk.packed import READS_MAX, digits, pack, truncate_rows, unpacked

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
    st = state_from_graph(random_graph(rng, 10, 3), 4, bits=64)
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


def _directed_state(k):
    """A state over a weighted digraph: a path 0 -> 1 -> 2 -> 3 -> 4 and a few arcs on 4..6.

    T is not symmetric, and P[0][2] is nonzero only in slot 2 (T[0][2] = 0
    but T^2[0][2] = 1/6), so a cut to two slots drops it.
    """
    arcs = {(0, 1): Rat(1, 2), (1, 2): Rat(1, 3), (2, 3): Rat(2, 5), (3, 4): Rat(1, 3),
            (4, 5): Rat(3, 7), (5, 4): Rat(-1, 2), (5, 6): Rat(1, 6), (6, 6): Rat(1, 4)}
    rows = [[arcs.get((s, t), Rat(0)) for t in range(7)] for s in range(7)]
    return state_from_matrix(RatMatrix.from_rat_rows(rows), k)


def _dense_cut(st, slots):
    """Every entry of P cut to its low slots, summed from the Rat coefficients of F."""
    p = st.P
    return [
        [sum(int(c * p.scale * p.den**j) << (p.width * j) for j, c in enumerate(e.coeffs[:slots]))
         for e in row]
        for row in st.F.rows
    ]


@pytest.mark.parametrize("k", [4, 6])
def test_live_support_matches_a_dense_scan_of_the_cut(k):
    st = _directed_state(k)
    p, n = st.P, st.n
    assert st.N != [list(col) for col in zip(*st.N)]
    assert p.rows[0][2] and not _dense_cut(st, 2)[0][2]
    for slots in range(1, p.slots):
        dense = _dense_cut(st, slots)
        for rows in ([0], [1, 5], [4, 6], [0, 3, 5], list(range(n))):
            assert p.block(rows, [2, 0, 5], slots) == [
                tuple(dense[s][t] for t in (2, 0, 5)) for s in rows
            ]
            live = [t for t in range(n) if any(dense[s][t] for s in rows)]
            by_cols = [tuple(dense[s][t] for s in rows) for t in live]
            assert p.live_cols(rows, slots) == (live, by_cols)
            cols = rows
            live = [s for s in range(n) if any(dense[s][t] for t in cols)]
            by_rows = [tuple(dense[s][t] for t in cols) for s in live]
            assert p.live_rows(cols, slots) == (live, by_rows)
    # the candidate above the cut is dropped on both sides
    assert 2 not in p.live_cols([0], 2)[0]
    assert 0 not in p.live_rows([2], 2)[0]


def _corrections(rng, p, upper):
    """Raw corrections for a few entries of p, with junk above the low slots.

    In the first row every correction's low slots are zero, so that row
    must stay shared; in every other row the first one's are.  A low
    slot changes its coefficient by up to 8 / den^j (on a grid scale m,
    V_j is m^J times the change of the digit).
    """
    n, w, slots = len(p.rows), p.width, p.slots
    span = 8 * p.scale**slots
    v_rows = {}
    for r, s in enumerate(rng.sample(range(n - 2), 4)):
        ts = rng.sample(range(s, n) if upper else range(n), 3)
        low = [[0] * slots if r == 0 or i == 0 else
               [rng.randrange(-span, span) for _ in range(slots)]
               for i in range(len(ts))]
        v_rows[s] = {t: pack(h, w) + (rng.randrange(-2**40, 2**40) << (w * slots))
                     for t, h in zip(ts, low)}
    return v_rows


def _added(p, e, v):
    """p's entry e with the correction v added in, digit by digit, as the fold defines it."""
    w, slots, m, den = p.width, p.slots, p.scale, p.den
    old, dv = digits(e, w, slots), digits(v, w, slots)
    if m == 1:
        return pack([h + d for h, d in zip(old, dv)], w)
    top = m ** (slots - 1)
    return pack(
        [int(truncate_to_bits(Rat(h * top + d, m * top * den**j), m.bit_length() - 1) * m * den**j)
         for j, (h, d) in enumerate(zip(old, dv))],
        w,
    )


@pytest.mark.parametrize("bits", [None, 24])
@pytest.mark.parametrize("mirror", [False, True])
def test_plus_adds_or_rounds_the_decoded_digits_entry_by_entry(mirror, bits):
    rng = random.Random(43 + 2 * mirror + (bits or 0))
    st = state_from_graph(random_graph(rng, 9, 3), 4) if mirror else _directed_state(4)
    p = st.P if bits is None else truncate_rows(st.P, bits)
    before = [list(row) for row in p.rows]
    v_rows = _corrections(rng, p, mirror)
    out = p.plus(v_rows, mirror)
    expect = [list(row) for row in p.rows]
    for s, row_v in v_rows.items():
        for t, v in row_v.items():
            e = _added(p, p.rows[s][t], v)
            expect[s][t] = e
            if mirror:
                expect[t][s] = e
    assert out.rows == expect
    assert (out.width, out.den, out.scale, out.norms, out.slots) == (
        p.width, p.den, p.scale, p.norms, p.slots)
    assert [list(row) for row in p.rows] == before
    # a row with no changed entry stays shared, and a changed one is copied
    for s, row in enumerate(out.rows):
        assert (row is p.rows[s]) == (row == p.rows[s])


def test_only_packed_reads_the_rows_of_a_packing():
    """Outside packed.py a packing's rows and read memo are read only by read_power_entry.

    A packing is a name p or an attribute P.  Keeping every other read
    behind PackedF's methods lets its storage change in one module.
    """

    class Reads(ast.NodeVisitor):
        def __init__(self):
            self.where, self.found = "<module>", []

        def visit_FunctionDef(self, node):
            outer, self.where = self.where, node.name
            self.generic_visit(node)
            self.where = outer

        def visit_Attribute(self, node):
            v = node.value
            packing = (isinstance(v, ast.Name) and v.id == "p") or (
                isinstance(v, ast.Attribute) and v.attr == "P")
            if node.attr in ("rows", "reads") and packing:
                self.found.append((self.where, node.attr))
            self.generic_visit(node)

    found = []
    for path in sorted(Path(packed.__file__).parent.glob("*.py")):
        if path.name != "packed.py":
            reads = Reads()
            reads.visit(ast.parse(path.read_text(), str(path)))
            found += [(path.name, where, attr) for where, attr in reads.found]
    assert sorted(found) == [
        ("dyncore.py", "read_power_entry", "reads"),
        ("dyncore.py", "read_power_entry", "rows"),
    ]
