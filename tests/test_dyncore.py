"""The dynamic maintenance core: gadgets, batches, readout."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from dynwalk import dyncore, matpow
from dynwalk.numerics import BudgetExhausted, PrecisionBudget, Rat, rat
from dynwalk.poly import UniPoly
from dynwalk.linalg import PolyMatrix, RatMatrix, ScaledMatrix
from dynwalk.graph import (
    BatchRejected,
    DynGraph,
    EdgeBatch,
    EdgeOp,
    lazy_transition,
    validate_and_apply,
)
from dynwalk.oracle import exact_power_sum, walk_count_dp
from dynwalk.expander import TesterConfig, expansion_query
from dynwalk.muddle import MuddleConfig, MuddleTimeline
from dynwalk.dyncore import (
    DEFAULT_CASCADE_THRESHOLD,
    DeltaGadget,
    DynState,
    StaleGadgetError,
    apply_batch,
    apply_entry_deltas,
    apply_gadget,
    bipartite_embed,
    build_delta_gadgets,
    initial_state,
    read_power_entry,
    state_from_graph,
    state_from_matrix,
)

from dynwalk.packed import digits, pack, width_for

from conftest import (
    cycle_graph,
    pow2,
    rand_rat,
    random_batch,
    random_graph,
    truncate_all,
    woodbury_fold,
)


def batch(*ops):
    return EdgeBatch(tuple(EdgeOp(k, u, v) for k, u, v in ops))


def poly_from(*coeffs):
    return UniPoly([Rat(c) for c in coeffs])


def fresh_oracle(state):
    return exact_power_sum(state.B, state.K)


# -- embedding -----------------------------------------------------------------


def test_bipartite_embed_scalar():
    a = PolyMatrix([[poly_from(rat(1, 3))]])
    b = bipartite_embed(a)
    assert b == PolyMatrix(
        [
            [UniPoly.zero(), poly_from(rat(1, 3))],
            [UniPoly.one(), UniPoly.zero()],
        ]
    )
    sq = b.mul(b)
    assert sq == PolyMatrix(
        [
            [poly_from(rat(1, 3)), UniPoly.zero()],
            [UniPoly.zero(), poly_from(rat(1, 3))],
        ]
    )


def test_bipartite_embed_zero():
    b = bipartite_embed(PolyMatrix.zeros(2, 2))
    assert b.mul(b) == PolyMatrix.zeros(4, 4)
    assert b.rows[2][0] == UniPoly.one()


def test_bipartite_embed_even_powers_carry_the_walks():
    rng = random.Random(901)
    a = RatMatrix(
        [[Rat(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
    )
    k = 6
    st = state_from_matrix(a, k)
    powers = [RatMatrix.identity(3)]
    for _ in range(k // 2):
        powers.append(powers[-1].mul(a))
    for s in range(3):
        for t in range(3):
            for j in range(k // 2 + 1):
                assert st.G.rows[s][t][2 * j] == powers[j][s, t]


def test_bipartite_embed_rejects_non_square():
    with pytest.raises(ValueError):
        bipartite_embed(PolyMatrix([[UniPoly.one(), UniPoly.zero()]]))


# -- state construction -----------------------------------------------------------


def test_initial_state_reads_identity():
    st = initial_state(3, 2, 6)
    for v in range(3):
        for j in range(4):
            assert read_power_entry(st, v, v, j) == 1
        assert read_power_entry(st, v, (v + 1) % 3, 1) == 0


def test_state_mode_validation():
    with pytest.raises(ValueError):
        state_from_matrix(RatMatrix.identity(2), 0)
    with pytest.raises(ValueError):
        state_from_matrix(RatMatrix([[0, 1]]), 2)
    with pytest.raises(ValueError, match="positive"):
        initial_state(2, 1, 4, bits=0)
    assert initial_state(2, 1, 4).mode == "exact"
    assert initial_state(2, 1, 4, bits=16).mode == "bits"


# -- gadget construction -----------------------------------------------------------


def test_empty_deltas_make_empty_gadgets():
    st = initial_state(2, 1, 4)
    (gadget,) = build_delta_gadgets(st, set())
    assert gadget.is_empty()
    assert (gadget.weights, gadget.new_rows) == ((), {})
    st2 = apply_gadget(st, gadget)
    assert st2.G == st.G
    assert st2.N == st.N
    assert st2.version == st.version + 1


def test_single_insert_makes_one_gadget():
    st = state_from_matrix(RatMatrix.zeros(2, 2), 4)
    (gadget,) = build_delta_gadgets(st, {(0, 3, 2)})
    assert not gadget.is_empty()
    assert gadget.u_in == (0,)
    assert gadget.u_out == (3,)
    assert gadget.weights == ((2,),)
    assert gadget.expected_version == st.version
    assert gadget.size == 2


def test_mixed_signs_share_one_gadget():
    # N = 2d T = 4 I on the empty graph, and the deltas are ints of N
    st = initial_state(4, 2, 4)
    deltas = {(0, 6, 1), (1, 4, 1), (0, 4, -1), (1, 5, -1)}
    (gadget,) = build_delta_gadgets(st, deltas)
    assert gadget.u_in == (0, 1)
    assert gadget.u_out == (4, 5, 6)
    assert gadget.weights == ((-1, 0, 1), (1, -1, 0))
    assert all(type(w) is int for row in gadget.weights for w in row)
    assert gadget.new_rows == {0: [3, 0, 1, 0], 1: [1, 3, 0, 0]}
    assert st.N == [[4 * (s == t) for t in range(4)] for s in range(4)]
    assert gadget.expected_version == st.version


def test_zero_deltas_are_dropped():
    st = initial_state(2, 1, 4)
    (gadget,) = build_delta_gadgets(st, {(0, 3, 0)})
    assert gadget.is_empty()


def test_deltas_outside_top_right_block_rejected():
    st = initial_state(2, 1, 4)
    for bad in ((0, 0, 1), (3, 0, 1), (2, 3, 1), (0, 4, 1)):
        with pytest.raises(ValueError, match="top-right"):
            build_delta_gadgets(st, {bad})


def test_gadget_deltas_must_be_ints_of_n():
    st = initial_state(2, 1, 4)
    with pytest.raises(TypeError):
        build_delta_gadgets(st, {(0, 3, rat(1, 2))})


def test_stale_gadget_rejected():
    st = initial_state(2, 1, 4)
    (gadget,) = build_delta_gadgets(st, {(0, 3, 1), (1, 2, -1)})
    once = apply_gadget(st, gadget)
    with pytest.raises(StaleGadgetError, match="version"):
        apply_gadget(once, gadget)
    (later,) = build_delta_gadgets(once, {(1, 3, 1)})
    with pytest.raises(StaleGadgetError, match="version"):
        apply_gadget(apply_gadget(once, later), gadget)
    with pytest.raises(StaleGadgetError, match="version"):
        apply_gadget(st, later)


# -- single-gadget semantics ---------------------------------------------------------


def test_insert_on_empty_matrix_is_one_hop():
    st = state_from_matrix(RatMatrix.zeros(2, 2), 4)
    st2 = apply_entry_deltas(st, {(0, 3, rat(2, 3))})
    assert st2.G.rows[0][3] == poly_from(0, rat(2, 3))
    assert st2.G.rows[0][0] == UniPoly.one()
    assert st2.G.rows[1][3] == UniPoly.zero()
    assert st2.G.rows[0][2] == st.G.rows[0][2]
    assert st2.G == fresh_oracle(st2)


def test_delete_then_reinsert_restores_exactly():
    rng = random.Random(902)
    g = random_graph(rng, 5, 2, fill=0.8)
    st = state_from_graph(g, 6)
    edge = g.edges()[0]
    st2 = apply_batch(st, batch(("delete", *edge)))
    assert st2.G != st.G
    st3 = apply_batch(st2, batch(("insert", *edge)))
    assert st3.G == st.G
    assert st3.B == st.B
    assert st3.version == st.version + 2
    assert st3.step_count == st.step_count + 2


def test_single_delta_matches_oracle_recompute():
    rng = random.Random(903)
    for _ in range(6):
        g = random_graph(rng, 4, 2)
        st = state_from_graph(g, 6)
        b = random_batch(rng, g, 1)
        st2 = apply_batch(st, b)
        assert st2.G == fresh_oracle(st2)
        assert st2.B == bipartite_embed(PolyMatrix.from_rational(lazy_transition(st2.graph)))


# -- the portal reference route ---------------------------------------------------------


def portal_correction(
    g: PolyMatrix,
    gadget: DeltaGadget,
    den: int,
    s: int,
    t: int,
    k: int,
    max_power: int | None = None,
) -> UniPoly:
    """Reference route: the literal portal-matrix power sum for one pair.

    The gadget's weights are ints of N = den T.  Builds the full gadget
    matrix over u_in + u_out + two portal slots
    (portals stay distinct from every affected index even when s or t is
    itself affected) and returns sum of Delta^m [portal_s, portal_t] for
    m = 1..max_power, mod x^(k+1).  max_power defaults to 2k+1, which is
    provably enough; the tests also run it higher to confirm stability.
    """
    if gadget.is_empty():
        return UniPoly.zero()
    p, q = len(gadget.u_in), len(gadget.u_out)
    dim = p + q + 2
    ps, pt = p + q, p + q + 1
    zero = UniPoly.zero()
    rows = [[zero] * dim for _ in range(dim)]
    for i in range(p):
        for j in range(q):
            w = gadget.weights[i][j]
            if w != 0:
                rows[i][p + j] = UniPoly([0, Rat(w, den)])
    for j in range(q):
        for i in range(p):
            rows[p + j][i] = g.rows[gadget.u_out[j]][gadget.u_in[i]]
    for i in range(p):
        rows[ps][i] = g.rows[s][gadget.u_in[i]]
    for j in range(q):
        rows[p + j][pt] = g.rows[gadget.u_out[j]][t]
    delta = PolyMatrix(rows)
    if max_power is None:
        max_power = 2 * k + 1
    acc = delta
    total = acc.rows[ps][pt]
    for _ in range(max_power - 1):
        acc = acc.mul(delta, trunc=k)
        total = total + acc.rows[ps][pt]
    return total.truncated(k)


def test_fast_path_equals_portal_construction():
    """One gadget carrying both signs folds to the portal reference."""
    rng = random.Random(904)
    for _ in range(5):
        g = random_graph(rng, 3, 2, fill=0.7)
        st = state_from_graph(g, 6)
        _, tdeltas = validate_and_apply(g, random_batch(rng, g, 2))
        if not tdeltas:  # a delete and re-insert of one edge cancel out
            continue
        (gadget,) = build_delta_gadgets(st, [(r, 3 + c, d) for (r, c, d) in tdeltas])
        assert {w > 0 for row in gadget.weights for w in row if w} == {False, True}
        done = apply_gadget(st, gadget)
        for s in range(6):
            for t in range(6):
                want = st.G.rows[s][t] + portal_correction(st.G, gadget, st.P.den, s, t, st.K)
                assert done.G.rows[s][t] == want


def test_portal_power_horizon_is_stable():
    """2K+1 gadget powers provably exhaust every contribution mod
    x^(K+1); pushing the horizon higher changes nothing."""
    rng = random.Random(905)
    g = random_graph(rng, 3, 2, fill=0.7)
    st = state_from_graph(g, 4)
    b = random_batch(rng, g, 2)
    _, tdeltas = validate_and_apply(g, b)
    (gadget,) = build_delta_gadgets(st, [(r, 3 + c, d) for (r, c, d) in tdeltas])
    k = st.K
    for s, t in ((0, 0), (0, 4), (2, 5), (1, 1)):
        base = portal_correction(st.G, gadget, st.P.den, s, t, k)
        assert portal_correction(st.G, gadget, st.P.den, s, t, k, max_power=2 * k + 3) == base


# -- batch-level behavior --------------------------------------------------------------


@pytest.mark.parametrize(
    "threshold,route,k",
    [
        pytest.param(4, "charpoly", 4, id="4-charpoly"),
        pytest.param(12, "direct", 4, id="12-direct"),
        pytest.param(4, "charpoly", 2, id="4-charpoly-K2"),
        pytest.param(12, "direct", 2, id="12-direct-K2"),
        pytest.param(DEFAULT_CASCADE_THRESHOLD, "direct", 4, id="default-direct"),
    ],
)
def test_churn_batch_folds_as_one_gadget(monkeypatch, threshold, route, k):
    """A delete plus an insert on four distinct vertices, the shape of every
    benchmark churn batch, is one gadget of size 8: it takes the cascade
    route at threshold 4 and the direct route at threshold 12 and at the
    default, which sends no gadget to the cascade.  The route is chosen
    once per gadget, and the core is split into its blocks before its
    power sum: the two changes do not interact, so each block runs one
    core power sum on the gadget's route.  The core power sum runs to
    J - 1 for J = ceil(K/2), since the correction carries a factor z; at
    K = 2 the core is the identity.  The direct route sums packed ints in
    dyncore, the cascade route goes through matpow.power_sum."""
    sizes, methods, degrees = [], [], []
    real_apply, real_power_sum = apply_gadget, matpow.power_sum
    real_packed = dyncore._packed_power_sum

    def counting_apply(state, gadget):
        sizes.append(gadget.size)
        return real_apply(state, gadget)

    def recording_power_sum(mat, deg):
        methods.append("charpoly")
        degrees.append(deg)
        return real_power_sum(mat, deg)

    def recording_packed(x, terms, scale, mask):
        methods.append("direct")
        degrees.append(terms)
        return real_packed(x, terms, scale, mask)

    monkeypatch.setattr(dyncore, "apply_gadget", counting_apply)
    monkeypatch.setattr(matpow, "power_sum", recording_power_sum)
    monkeypatch.setattr(dyncore, "_packed_power_sum", recording_packed)
    st = state_from_graph(DynGraph(6, 2, {(0, 1), (2, 4)}), k, cascade_threshold=threshold)
    st2 = apply_batch(st, batch(("delete", 0, 1), ("insert", 2, 3)))
    assert sizes == [8]
    assert methods == [route, route]
    assert degrees == [(k + 1) // 2 - 1] * 2
    assert st2.version == st.version + 1
    assert st2.G == exact_power_sum(st2.B, k)


def test_single_edge_readout():
    st = initial_state(2, 1, 4)
    st2 = apply_batch(st, batch(("insert", 0, 1)))
    assert read_power_entry(st2, 0, 0, 1) == rat(1, 2)
    assert read_power_entry(st2, 0, 1, 1) == rat(1, 2)
    assert read_power_entry(st2, 0, 0, 2) == rat(1, 2)
    assert read_power_entry(st2, 0, 1, 0) == 0


def test_empty_batch_only_counts_a_step():
    st = initial_state(3, 2, 4)
    st2 = apply_batch(st, EdgeBatch(()))
    assert st2.step_count == st.step_count + 1
    assert st2.version == st.version
    assert st2.G == st.G


def test_rejected_batch_leaves_state_alone():
    st = initial_state(2, 1, 4)
    with pytest.raises(BatchRejected):
        apply_batch(st, batch(("delete", 0, 1)))
    assert st.G == fresh_oracle(st)
    assert st.step_count == 0


def test_graphless_state_rejects_batches():
    st = state_from_matrix(RatMatrix.zeros(2, 2), 4)
    with pytest.raises(ValueError, match="no graph"):
        apply_batch(st, batch(("insert", 0, 1)))


def test_graph_state_rejects_entry_deltas():
    # a raw delta would move T off the lazy walk of the graph (here P.den
    # would go from 4 to 12), so a later batch would fold into the wrong T
    st = state_from_graph(DynGraph(4, 2, {(0, 1)}), 4)
    with pytest.raises(ValueError, match="use apply_batch"):
        apply_entry_deltas(st, [(0, 6, rat(1, 3))])
    st2 = apply_batch(st, batch(("insert", 2, 3)))
    assert st2.P == state_from_graph(st2.graph, 4).P
    assert st2.T == lazy_transition(st2.graph)


def test_disjoint_batches_commute_exactly():
    g = DynGraph(8, 2, {(0, 1), (4, 5)})
    st = state_from_graph(g, 6)
    b1 = batch(("insert", 1, 2), ("delete", 0, 1))
    b2 = batch(("insert", 5, 6), ("insert", 4, 7))
    one = apply_batch(apply_batch(st, b1), b2)
    two = apply_batch(apply_batch(st, b2), b1)
    assert one.G == two.G
    assert one.B == two.B
    assert sorted(one.graph.edges()) == sorted(two.graph.edges())


def test_read_power_entry_validation():
    st = initial_state(2, 1, 4)
    with pytest.raises(ValueError, match="out of range"):
        read_power_entry(st, 2, 0, 1)
    with pytest.raises(ValueError, match="truncation"):
        read_power_entry(st, 0, 0, 3)
    with pytest.raises(ValueError):
        read_power_entry(st, 0, 0, -1)


def test_read_power_entry_at_odd_k_reads_every_stored_power():
    # at K = 5, F holds T^j up to j = ceil(K/2) = 3, and G holds T^3 at
    # x^5 of its top-right block; the lazy walk on the path 0-1-2-3
    st = state_from_graph(DynGraph(4, 2, frozenset({(0, 1), (1, 2), (2, 3)})), 5)
    t = lazy_transition(st.graph)
    for s in range(4):
        for u in range(4):
            dp = walk_count_dp(t, s, u, 3)
            assert [read_power_entry(st, s, u, j) for j in range(4)] == [dp[j] for j in range(4)]
            assert st.G.rows[s][4 + u][5] == dp[3]
    assert read_power_entry(st, 0, 1, 3) == rat(21, 64)
    with pytest.raises(ValueError, match="power 4 out of range for truncation 5"):
        read_power_entry(st, 0, 1, 4)


# -- deleted walks really vanish ----------------------------------------------------------


def test_deleted_edge_walks_are_absent():
    """Integer-weighted directed triangle: removing one arc must remove
    every walk that used it, leaving exactly the walk polynomial of the
    reduced digraph (the inclusion-exclusion cancellation at work)."""
    a = RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    st = state_from_matrix(a, 8)
    st2 = apply_entry_deltas(st, {(0, 4, rat(-1))})
    reduced = RatMatrix([[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    for s in range(3):
        for t in range(3):
            counts = walk_count_dp(reduced, s, t, 4)
            for j in range(5):
                got = st2.G.rows[s][3 + t][2 * j - 1] if j else None
                if j == 0:
                    continue
                assert got == counts[j]
    assert st2.G == exact_power_sum(st2.B, 8)


# -- the cascade route ---------------------------------------------------------------------


def test_cascade_route_agrees_with_direct():
    rng = random.Random(906)
    g = random_graph(rng, 6, 2, fill=0.5)
    b = random_batch(rng, g, 4)
    direct = apply_batch(state_from_graph(g, 8), b)
    cascaded = apply_batch(state_from_graph(g, 8, cascade_threshold=1), b)
    assert direct.G == cascaded.G
    assert direct.G == exact_power_sum(direct.B, 8)


@pytest.mark.parametrize("mode,bits", [("exact", None), ("bits", 64)])
def test_cascade_reduces_by_the_charpoly_on_the_dynamic_route(monkeypatch, mode, bits):
    """One edge change per batch gives cores of dimension |u_out| = 2, and
    K = 6 gives i_max = 3 (every core entry has minimum degree one), so
    every cascade point divides by a degree-2 characteristic polynomial."""
    degrees = []
    real_divide = matpow.divide_monic

    def counting_divide(g, f):
        degrees.append(f.degree)
        return real_divide(g, f)

    monkeypatch.setattr(matpow, "divide_monic", counting_divide)
    k = 6
    st = initial_state(5, 2, k, bits=bits, cascade_threshold=0)
    assert st.mode == mode
    for op in (("insert", 0, 1), ("insert", 1, 2), ("delete", 0, 1), ("insert", 3, 4)):
        st = apply_batch(st, batch(op))
        want = exact_power_sum(
            bipartite_embed(PolyMatrix.from_rational(lazy_transition(st.graph))), k
        )
        if mode == "exact":
            assert st.G == want
            continue
        bound = pow2(-(bits - st.budget.bits_spent - 2))
        for row_g, row_w in zip(st.G.rows, want.rows):
            for e, w in zip(row_g, row_w):
                assert all(abs(e[j] - w[j]) <= bound for j in range(k + 1))
    assert degrees and set(degrees) == {2}


# -- bits mode ------------------------------------------------------------------------------


def test_bits_mode_tracks_exact_twin_within_decay_bound():
    rng = random.Random(907)
    bits = 64
    g = random_graph(rng, 6, 2, fill=0.5)
    exact = state_from_graph(g, 8)
    dirty = state_from_graph(g, 8, bits=bits)
    work = g
    for t in range(1, 11):
        b = random_batch(rng, work, 2)
        exact = apply_batch(exact, b)
        dirty = apply_batch(dirty, b)
        work = exact.graph
        bound = pow2(-(bits - t - 2))
        assert dirty.budget.bits_spent == t
        for row_e, row_d in zip(exact.G.rows, dirty.G.rows):
            for e, dd in zip(row_e, row_d):
                for j in range(9):
                    assert abs(e[j] - dd[j]) <= bound


def test_bits_budget_eventually_refuses():
    st = initial_state(3, 2, 4, bits=10)
    st = apply_batch(st, batch(("insert", 0, 1)))
    st = apply_batch(st, batch(("insert", 1, 2)))
    assert st.budget.bits_spent == 2
    with pytest.raises(BudgetExhausted, match="after 2 steps"):
        apply_batch(st, batch(("insert", 0, 2)))
    # empty batches stay free and still count steps
    st2 = apply_batch(st, EdgeBatch(()))
    assert st2.step_count == 3
    assert st2.budget.bits_spent == 2


def test_budgets_are_values_that_snapshots_share_safely():
    st = apply_batch(initial_state(4, 2, 4, bits=32), batch(("insert", 0, 1)))
    child = apply_batch(st, EdgeBatch(()))
    assert child.budget is st.budget
    charged = child.budget.spend(1)
    assert charged.bits_spent == 2
    assert st.budget.bits_spent == child.budget.bits_spent == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.budget.bits_spent = 0
    assert apply_batch(child, batch(("insert", 1, 2))).budget.bits_spent == 2
    assert st.budget.bits_spent == child.budget.bits_spent == 1
    # a muddled delivery installs a new budget and leaves the served
    # snapshot it replaces as it was
    tl = MuddleTimeline(MuddleConfig(4, 2, 4, 1, 32))
    tl.step(batch(("insert", 0, 1)))
    old = tl.served
    budget, spent = old.budget, old.budget.bits_spent
    tl.step(batch(("insert", 1, 2)))
    assert tl.trace[-1].delivered and tl.served is not old
    assert old.budget is budget and budget.bits_spent == spent


def _matrix_batches():
    st = state_from_matrix(RatMatrix([[0, 1], [1, 0]]), 4, bits=10)
    deltas = [[(0, 2, rat(1, 2))], [(1, 3, rat(1, 2))], [(0, 3, rat(1, 4))]]
    return st, apply_entry_deltas, deltas


def _graph_batches():
    st = initial_state(3, 2, 4, bits=10)
    return st, apply_batch, [batch(("insert", u, v)) for u, v in ((0, 1), (1, 2), (0, 2))]


@pytest.mark.parametrize("make", [_matrix_batches, _graph_batches], ids=["matrix", "graph"])
def test_an_exhausted_budget_refuses_before_the_fold(monkeypatch, make):
    # both kinds of batch are charged in one place and refuse alike
    st, apply, (first, second, third) = make()
    st = apply(apply(st, first), second)
    assert st.step_count == 2

    def no_fold(state, gadget):
        raise AssertionError("folded on an exhausted budget")

    monkeypatch.setattr(dyncore, "apply_gadget", no_fold)
    with pytest.raises(BudgetExhausted, match="^precision budget exhausted after 2 steps$"):
        apply(st, third)


# -- what the state stores --------------------------------------------------------------------


def _no_g_view(self):
    raise AssertionError("the 2n x 2n G view was built on the update or query path")


def _no_b_view(self):
    raise AssertionError("the 2n x 2n B view was built on the update or query path")


def test_state_stores_only_the_half_size_f(monkeypatch):
    fields = {f.name for f in dataclasses.fields(DynState)}
    assert "G" not in fields and "B" not in fields and "T" not in fields
    for k in range(1, 7):
        st = state_from_matrix(RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), k)
        assert (st.F.nrows, st.F.ncols) == (3, 3)
        # the 3-cycle has T^j != 0 for every j, so the bound is reached
        assert st.F.max_degree == (k + 1) // 2
    monkeypatch.setattr(DynState, "G", property(_no_g_view))
    monkeypatch.setattr(DynState, "B", property(_no_b_view))
    n, k = 6, 5
    cfg = TesterConfig(Rat(1, 2), 2, 1)
    for bits in (None, 48):
        st = initial_state(n, 2, k, bits=bits)
        for ops in ((("insert", 0, 1), ("insert", 2, 3)), (("delete", 0, 1), ("insert", 1, 2))):
            st = apply_batch(st, batch(*ops))
            expansion_query(st, cfg)
            read_power_entry(st, 1, 2, k // 2)
            assert (st.F.nrows, st.F.ncols) == (n, n)
            assert st.F.max_degree <= (k + 1) // 2
    tl = MuddleTimeline(MuddleConfig(n, 2, k, 2, 32))
    for u, v in ((0, 1), (1, 2), (0, 1), (3, 4), (2, 3)):
        present = tl.served.graph.has_edge(u, v)
        tl.step(batch(("delete" if present else "insert", u, v)))
        assert tl.served.F.max_degree <= (k + 1) // 2


# -- snapshots share untouched rows ----------------------------------------------------------


def test_update_shares_untouched_rows_and_leaves_the_old_snapshot_valid():
    # two components: the path 0-1-...-7 and the path 8-9-10-11
    n, k = 12, 4
    path = {(i, i + 1) for i in range(7)} | {(8, 9), (9, 10), (10, 11)}
    old = state_from_graph(DynGraph(n, 2, frozenset(path)), k)
    f_before = [list(r) for r in old.P.rows]
    n_before = [list(r) for r in old.N]
    new = apply_batch(old, batch(("delete", 1, 2), ("insert", 0, 2)))
    assert new.G == fresh_oracle(new)
    assert [list(r) for r in old.P.rows] == f_before
    assert [list(r) for r in old.N] == n_before
    assert old.G == fresh_oracle(old)
    # the batch touches vertices 0, 1, 2; F holds powers of T up to
    # J = ceil(K/2) = 2, and the correction carries a factor z, so only
    # rows within J - 1 = 1 hop of the batch change: vertices 4..11 are
    # outside that ball and their rows of F must be shared, not copied
    # (vertex 3 is one hop from 2); N = 2d T changes only in rows 0, 1,
    # 2, so every other row of N is shared
    for v in range(4, n):
        assert new.P.rows[v] is old.P.rows[v]
    for v in range(3, n):
        assert new.N[v] is old.N[v]
    # rows the batch touched are new lists; the old ones stay as they were
    for v in (0, 1, 2):
        assert new.P.rows[v] != f_before[v]
        assert new.P.rows[v] is not old.P.rows[v]
        assert new.N[v] != n_before[v]
        assert new.N[v] is not old.N[v]


def test_apply_gadget_carries_every_other_field_over():
    # apply_gadget builds its result field by field, so a field added to
    # DynState later must be carried over here too, or it is silently
    # reset to its default
    h, n = rat(1, 2), 4
    mat = state_from_matrix(RatMatrix([[h, h, 0, 0], [0, h, h, 0], [0, 0, h, h], [h, 0, 0, h]]), 4)
    graph = state_from_graph(cycle_graph(6), 4)
    # integer deltas of N; the graph state's keep T symmetric
    cases = ((mat, [(0, n + 2, 1)]), (graph, [(0, 6 + 3, 1), (3, 6 + 0, 1)]))
    for old, deltas in cases:
        old = dataclasses.replace(
            old, budget=PrecisionBudget(32), step_count=7, cascade_threshold=3, version=5,
        )
        (gadget,) = build_delta_gadgets(old, deltas)
        new = apply_gadget(old, gadget)
        assert new.version == 6 and new.P.rows != old.P.rows
        for f in dataclasses.fields(DynState):
            if f.name not in ("P", "N", "version"):
                assert getattr(new, f.name) is getattr(old, f.name), f.name
    # a graph state never repacks, so its snapshots share the read memo
    assert new.P.reads is old.P.reads


def test_a_support_row_with_a_zero_correction_stays_shared():
    # row 0 reaches rows 1 and 2 with equal weight, and the batch adds to
    # column 3 from row 1 what it takes away from row 2, so row 0 is in
    # the support but its correction F[0, u_in] * W vanishes: its row list
    # must be shared, not copied.  The deltas bring no new denominator
    # and no row sum above one, so the state is not repacked.
    h, q, n = rat(1, 2), rat(1, 4), 4
    t = RatMatrix([[0, h, h, 0], [0, h, 0, q], [0, 0, h, h], [0, 0, 0, 1]])
    old = state_from_matrix(t, 4)
    new = apply_entry_deltas(old, [(1, n + 3, q), (2, n + 3, -q)])
    assert new.G == fresh_oracle(new)
    assert (new.P.width, new.P.den) == (old.P.width, old.P.den)
    assert new.P.rows[0] is old.P.rows[0]
    for v in (1, 2):
        assert new.P.rows[v] != old.P.rows[v]


def test_exact_apply_gadget_builds_no_rat(monkeypatch):
    """An exact batch on a graph state is integer from the edge op to the
    packed fold: apply_batch, through validate_and_apply,
    build_delta_gadgets and apply_gadget, constructs no Fraction, on
    either core route."""
    if Rat is not Fraction:
        pytest.skip("counts fractions.Fraction constructions")
    made, inside, calls = [0], [False], Counter()
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += inside[0]
        return real_new(cls, *args, **kwargs)

    def counted(name):
        real = getattr(dyncore, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(dyncore, name, wrapper)

    for name in ("validate_and_apply", "build_delta_gadgets", "apply_gadget"):
        counted(name)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in Fraction.__dict__:  # results built without __new__
        real_coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            made[0] += inside[0]
            return real_coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    rng = random.Random(911)
    for threshold, k in ((DEFAULT_CASCADE_THRESHOLD, 4), (DEFAULT_CASCADE_THRESHOLD, 8), (0, 6)):
        st = state_from_graph(random_graph(rng, 8, 3, fill=0.7), k, cascade_threshold=threshold)
        for _ in range(4):
            b = random_batch(rng, st.graph, 3)
            inside[0] = True
            try:
                st = apply_batch(st, b)
            finally:
                inside[0] = False
            assert st.G == fresh_oracle(st)
    assert calls == {"validate_and_apply": 12, "build_delta_gadgets": 12, "apply_gadget": 12}
    assert made[0] == 0


def test_a_new_denominator_and_a_larger_norm_repack_the_state():
    # T on halves has den 2 and row sums at most 1; the first batch brings
    # thirds and a row of absolute sum 10/3, so den grows to 6, the norm
    # of 6T to 20 and the slot width with it, and every entry is repacked
    h, k = rat(1, 2), 6
    a = [[h, h, 0], [0, h, h], [h, 0, 0]]
    st = state_from_matrix(RatMatrix(a), k)
    assert (st.P.den, max(st.P.norms)) == (2, 2)
    for deltas in (
        [(0, 2, rat(7, 3)), (2, 1, rat(-1, 3))],
        [(1, 0, rat(-5, 6)), (2, 2, rat(1, 2))],
    ):
        old = st
        st = apply_entry_deltas(st, [(r, 3 + c, dl) for r, c, dl in deltas])
        for r, c, dl in deltas:
            a[r][c] += dl
        b = bipartite_embed(PolyMatrix.from_rational(RatMatrix(a)))
        assert st.B == b
        assert st.G == exact_power_sum(b, k)
        assert st.F == state_from_matrix(RatMatrix(a), k).F
    # the second batch brought no new denominator and no row above the
    # norm, so it kept the packing of the first
    assert (old.P.den, old.P.norms) == (6, [20, 6, 5])
    assert old.P.width > state_from_matrix(RatMatrix([[h, h, 0], [0, h, h], [h, 0, 0]]), k).P.width
    assert (st.P.den, st.P.norms, st.P.width) == (old.P.den, [20, 11, 8], old.P.width)


def test_a_new_denominator_and_a_larger_norm_repack_once(monkeypatch):
    # the first batch of the test above: thirds move den from 2 to 6 and
    # row 0's norm of 6T from 6 to 20; one refit goes to both at once
    calls = []
    real_refit = dyncore.refit

    def counting_refit(p, den, norms):
        calls.append((p.den, den, list(norms)))
        return real_refit(p, den, norms)

    monkeypatch.setattr(dyncore, "refit", counting_refit)
    h, k = rat(1, 2), 6
    a = [[h, h, 0], [0, h, h], [h, 0, 0]]
    st = apply_entry_deltas(
        state_from_matrix(RatMatrix(a), k), [(0, 5, rat(7, 3)), (2, 4, rat(-1, 3))]
    )
    assert calls == [(2, 6, [20, 6, 5])]
    a[0][2] += rat(7, 3)
    a[2][1] -= rat(1, 3)
    assert st.F == state_from_matrix(RatMatrix(a), k).F
    assert (st.P.den, st.P.norms) == (6, [20, 6, 5])


def test_a_new_denominator_and_a_smaller_norm_keep_room_for_the_old_digits():
    # thirds move den from 1 to 3 while row 0's norm of 3T falls from 18
    # to 2: the one repack must still fit the old digits, which reach
    # 3^3 * 39 in slot 3, since the fold reads them.  Sized for the new
    # norms alone, the slot would overflow, and the folded entries would
    # keep junk above their top slot.
    a = [[rat(3), rat(3)], [rat(0), rat(1)]]
    st = state_from_matrix(RatMatrix(a), 6)
    st = apply_entry_deltas(st, [(0, 2, rat(-8, 3)), (0, 3, rat(-8, 3))])
    b = [[rat(1, 3), rat(1, 3)], [rat(0), rat(1)]]
    assert (st.P.den, st.P.norms) == (3, [2, 3])
    assert st.F == state_from_matrix(RatMatrix(b), 6).F
    w, slots = st.P.width, st.P.slots
    assert all(e == pack(digits(e, w, slots), w) for row in st.P.rows for e in row)


def test_packed_power_sum_matches_the_power_sum():
    """Horner from X + mI: the sum of X^i m^(terms - i), i = 0..terms, mod
    the mask, for every term count the fold uses; no terms is I."""
    rng = random.Random(912)
    mask = (1 << 40) - 1
    for size in (1, 2, 3):
        x = [[rng.randrange(1 << 40) for _ in range(size)] for _ in range(size)]
        for scale in (1, 1 << 9):
            power = [[int(a == b) for b in range(size)] for a in range(size)]
            want = [[0] * size for _ in range(size)]
            for terms in range(5):
                # want = sum of X^i m^(terms - i): times m, plus X^terms
                want = [
                    [(e * scale + q) & mask for e, q in zip(wrow, prow)]
                    for wrow, prow in zip(want, power)
                ]
                assert dyncore._packed_power_sum(x, terms, scale, mask) == want
                power = [
                    [sum(p * c for p, c in zip(prow, col)) & mask for col in zip(*x)]
                    for prow in power
                ]


# -- the fold by blocks of the core, and the symmetric fold of a graph state ----------------


def test_blocks_are_the_components_of_the_core_pattern():
    blocks = dyncore._blocks
    assert blocks([[5, 0], [0, 7]], True) == [([0], [0]), ([1], [1])]
    assert blocks([[5, 0], [0, 7]], False) == [([0], [0]), ([1], [1])]
    # tied, row a and column a are one vertex; untied, they are apart
    assert blocks([[0, 3], [3, 0]], True) == [([0, 1], [0, 1])]
    assert blocks([[0, 3], [3, 0]], False) == [([0], [1]), ([1], [0])]
    # a chain through a shared column, and a row and column with no entry
    assert blocks([[1, 0, 0], [1, 0, 2], [0, 0, 0]], False) == [([0, 1], [0, 2])]
    assert blocks([[0, 0], [0, 0]], True) == []


def _counting_support_products(monkeypatch):
    """(support rows, products formed) per block of every fold from here on."""
    counts = []
    real = dyncore._support_products

    def counting(left, right, upper):
        out = real(left, right, upper)
        counts.append((len(left), sum(map(len, out))))
        return out

    monkeypatch.setattr(dyncore, "_support_products", counting)
    return counts


def test_graph_fold_forms_each_support_pair_once(monkeypatch):
    """Deleting two far-apart edges of the 12-cycle at K = 4 (J = 2) gives a
    core of two blocks, one per edge: C is the identity mod y, so nothing
    couples them.  Each block's support is the 1-ball around its edge,
    s = 4 vertices, and the two balls are disjoint.  A graph state forms
    s(s+1)/2 = 10 support products per block; a state built from the same
    T as a matrix takes the general path and forms s^2 = 16."""
    counts = _counting_support_products(monkeypatch)
    n, k = 12, 4
    g = cycle_graph(n)
    b = batch(("delete", 0, 1), ("delete", 6, 7))
    st = state_from_graph(g, k)
    new = apply_batch(st, b)
    assert counts == [(4, 10), (4, 10)]
    changed = {s for s in range(n) if new.P.rows[s] is not st.P.rows[s]}
    assert changed == {11, 0, 1, 2, 5, 6, 7, 8}
    assert new.P == state_from_graph(new.graph, k).P
    counts.clear()
    _, ndeltas = validate_and_apply(g, b)
    mat = state_from_matrix(lazy_transition(g), k)
    folded = apply_entry_deltas(mat, [(r, n + c, rat(dl, 4)) for r, c, dl in ndeltas])
    assert counts == [(4, 16), (4, 16)]
    assert folded.P == new.P


@pytest.mark.parametrize(
    "edges,k,dims",
    [
        pytest.param(((0, 1), (6, 7)), 4, [2, 2], id="far-K4"),
        pytest.param(((0, 1), (6, 7)), 8, [2, 2], id="far-K8"),
        pytest.param(((0, 1), (3, 4)), 4, [2, 2], id="near-K4"),
        pytest.param(((0, 1), (3, 4)), 8, [4], id="near-K8"),
        pytest.param(((0, 1), (4, 5)), 8, [2, 2], id="apart-K8"),
    ],
)
def test_the_cascade_runs_one_power_sum_per_block(monkeypatch, edges, k, dims):
    """The core is split by the pattern of W' and C^T before its power sum,
    so the cascade runs one power sum per block.  Deleting two edges of the
    12-cycle at K = 4 (J = 2) couples nothing, since C mod y is the
    identity.  At K = 8 (J = 4) C is cut mod y^3 and couples vertices at
    most two steps apart: vertices 1 and 3 of edges 0-1 and 3-4 join one
    block of 4, while edges 0-1 and 4-5, three steps apart, stay two.  A
    state built from the same T as a matrix, whose rows and columns are
    apart, splits the same way."""
    dims_seen = []
    real = matpow.power_sum

    def recording(mat, deg):
        dims_seen.append(mat.nrows)
        return real(mat, deg)

    monkeypatch.setattr(matpow, "power_sum", recording)
    n = 12
    g = cycle_graph(n)
    b = batch(*(("delete", u, v) for u, v in edges))
    new = apply_batch(state_from_graph(g, k, cascade_threshold=0), b)
    assert dims_seen == dims
    assert new.P == state_from_graph(new.graph, k).P
    dims_seen.clear()
    _, ndeltas = validate_and_apply(g, b)
    mat = state_from_matrix(lazy_transition(g), k, cascade_threshold=0)
    folded = apply_entry_deltas(mat, [(r, n + c, rat(dl, 4)) for r, c, dl in ndeltas])
    assert dims_seen == dims
    assert folded.P == new.P


def test_a_core_denominator_that_does_not_divide_the_lift_is_refused(monkeypatch):
    """The cascade packs m^(J-1) times a block's power sum back, which is
    exact only if the power sum's denominator divides m^(J-1); any other
    denominator raises instead of truncating."""
    real = matpow.power_sum

    def bad_den(mat, deg):
        s = real(mat, deg)
        return ScaledMatrix(s.rows, 3 * s.den)

    monkeypatch.setattr(matpow, "power_sum", bad_den)
    st = state_from_graph(cycle_graph(6), 4, cascade_threshold=0)
    with pytest.raises(AssertionError, match="denominator"):
        apply_batch(st, batch(("delete", 0, 1)))


@pytest.mark.parametrize("mode,bits", [("exact", None), ("bits", 16)])
def test_overlapping_blocks_add_both_corrections(monkeypatch, mode, bits):
    """Deleting edges 0-1 and 2-3 of the 12-cycle at K = 4 gives two
    blocks whose 1-balls, {11, 0, 1, 2} and {1, 2, 3, 4}, share vertices
    1 and 2, so entries among them get a correction from each block.  A
    bits state on its grid (after a first, far-away batch) rounds each
    such entry once, on the sum: its F is the Rat fold of the stored F
    with every coefficient rounded.  The degree bound 3 puts sixths in T:
    entry (1, 2) of T^2 gains 1/36 from each block, and at 16 bits
    rounding each gain apart would give one unit less than rounding
    their sum."""
    n, k = 12, 4
    st = state_from_graph(cycle_graph(n, 3), k, bits=bits)
    assert st.mode == mode
    st = apply_batch(st, batch(("delete", 6, 7)))
    counts = _counting_support_products(monkeypatch)
    b = batch(("delete", 0, 1), ("delete", 2, 3))
    _, ndeltas = validate_and_apply(st.graph, b)
    new = apply_batch(st, b)
    assert counts == [(4, 10), (4, 10)]
    changed = {s for s in range(n) if new.P.rows[s] is not st.P.rows[s]}
    assert changed == {11, 0, 1, 2, 3, 4}
    rebuilt = state_from_graph(new.graph, k)
    if mode == "exact":
        assert new.P == rebuilt.P
        bound = 0
    else:
        assert new.F == truncate_all(woodbury_fold(st.F, ndeltas, k, 6), bits)
        bound = pow2(-(bits - new.budget.bits_spent - 2))
        for row_e, row_d in zip(rebuilt.F.rows, new.F.rows):
            for e, dd in zip(row_e, row_d):
                assert all(abs(e[j] - dd[j]) <= bound for j in range(k // 2 + 1))
    t = lazy_transition(new.graph)
    for s in range(n):
        for u in range(n):
            dp = walk_count_dp(t, s, u, k // 2)
            assert all(abs(read_power_entry(new, s, u, j) - dp[j]) <= bound for j in range(3))


def _assert_zeros_shared(st):
    zero = UniPoly.zero()
    for m in (st.F, st.G, st.B):
        assert all(e is zero for row in m.rows for e in row if not e)


def test_zero_entries_share_one_object_as_the_graph_churns():
    # deletions cancel entries of F, and bits mode rounds small entries to
    # zero; each must become the shared zero polynomial rather than leave a
    # fresh zero object behind, or the fold's identity scans see support
    n, k = 12, 4
    path = {(i, i + 1) for i in range(n - 1)}
    g = DynGraph(n, 2, frozenset(path))
    ops_seq = (
        (("delete", 3, 4),),
        (("delete", 7, 8),),
        (("insert", 3, 4), ("delete", 0, 1)),
    )
    # the first batch of a fresh bits state rounds every entry of F, the
    # zero entries among them
    for bits in (None, 32):
        st = state_from_graph(g, k, bits=bits)
        for ops in ops_seq:
            st = apply_batch(st, batch(*ops))
            if bits is None:
                assert st.G == fresh_oracle(st)
            _assert_zeros_shared(st)
    tl = MuddleTimeline(MuddleConfig(n, 2, k, 2, 32), g)
    delivered = 0
    for u, v in ((3, 4), (7, 8), (3, 4), (0, 1), (7, 8), (5, 6)):
        present = tl.shadow.graph.has_edge(u, v)
        tl.step(batch(("delete" if present else "insert", u, v)))
        delivered += tl.trace[-1].delivered
        _assert_zeros_shared(tl.served)
        _assert_zeros_shared(tl.shadow)
    assert delivered


# -- property tests against the oracles --------------------------------------------------


def _assert_matches_oracles(state):
    """G against the oracle power sum and walk DP, both from the graph."""
    n, k = state.n, state.K
    a = lazy_transition(state.graph)
    b = bipartite_embed(PolyMatrix.from_rational(a))
    assert state.B == b
    assert state.G == exact_power_sum(b, k)
    for s in range(n):
        for t in range(n):
            dp = walk_count_dp(a, s, t, k // 2 + 1)
            for j in range(k // 2 + 1):
                assert state.G.rows[s][t][2 * j] == dp[j]
                if 2 * j + 1 <= k:
                    assert state.G.rows[s][n + t][2 * j + 1] == dp[j + 1]


@settings(max_examples=30, deadline=None)
@given(
    hst.integers(2, 8),
    hst.integers(1, 3),
    hst.integers(1, 6),
    hst.randoms(use_true_random=False),
)
def test_property_small_batches_match_oracles(n, d, k, rng):
    st = state_from_graph(random_graph(rng, n, d, fill=rng.random()), k)
    for _ in range(3):
        st = apply_batch(st, random_batch(rng, st.graph, 3))
        _assert_matches_oracles(st)


@settings(max_examples=10, deadline=None)
@given(
    hst.integers(4, 8),
    hst.integers(2, 3),
    hst.integers(1, 6),
    hst.randoms(use_true_random=False),
)
def test_property_cascade_route_matches_oracles(n, d, k, rng):
    st = state_from_graph(random_graph(rng, n, d, fill=rng.random()), k, cascade_threshold=0)
    for _ in range(2):
        st = apply_batch(st, random_batch(rng, st.graph, 5, min_ops=4))
        _assert_matches_oracles(st)


def _churn_batch(rng, graph, kind):
    """A random batch against graph of one kind, and whether it is valid.

    "mixed" is a valid batch of inserts and deletes; "cancel" starts with
    an op and its undo, then more valid ops; "reject" is a valid batch
    with one bad op put in at a random place.
    """
    ops = list(random_batch(rng, graph, 3).ops)
    if kind == "cancel":
        first = random_batch(rng, graph, 1).ops
        undo = [EdgeOp("delete" if op.kind == "insert" else "insert", op.u, op.v) for op in first]
        ops = [*first, *undo, *ops]
    elif kind == "reject":
        n = graph.n
        bad = rng.choice([("insert", 0, 0), ("insert", 0, n), ("delete", n - 1, n)])
        ops.insert(rng.randint(0, len(ops)), EdgeOp(*bad))
    return EdgeBatch(tuple(ops)), kind != "reject"


def _stored(st):
    """A copy of what a state stores, rows and all."""
    return st.version, [list(r) for r in st.N], [list(r) for r in st.P.rows]


@pytest.mark.parametrize("threshold", [0, DEFAULT_CASCADE_THRESHOLD])
@settings(max_examples=15, deadline=None)
@given(
    hst.integers(2, 8),
    hst.integers(1, 3),
    hst.integers(1, 6),
    hst.lists(hst.sampled_from(["mixed", "cancel", "reject"]), min_size=1, max_size=5),
    hst.randoms(use_true_random=False),
)
def test_property_graph_batches_keep_n_t_and_p_exact(threshold, n, d, k, kinds, rng):
    """After every accepted graph batch, on both core routes, the stored N
    is 2d T of the graph int for int, the T view is the graph's lazy walk
    and P is a fresh state's; a rejected batch leaves the state alone."""
    st = state_from_graph(random_graph(rng, n, d, fill=rng.random()), k, cascade_threshold=threshold)
    for kind in kinds:
        b, valid = _churn_batch(rng, st.graph, kind)
        if not valid:
            before = _stored(st)
            with pytest.raises(BatchRejected):
                apply_batch(st, b)
            assert _stored(st) == before
            continue
        st = apply_batch(st, b)
        t = lazy_transition(st.graph)
        assert st.N == [[int(2 * d * v) for v in row] for row in t.rows]
        assert all(type(v) is int for row in st.N for v in row)
        assert st.T == t
        assert st.P == state_from_graph(st.graph, k).P


def _assert_symmetric_at_norm_2d(st):
    """What the graph path of apply_gadget relies on: P symmetric, every
    row norm of N = 2d T equal to 2d, and the slot width those norms give."""
    p, d = st.P, st.graph.d
    assert all(p.rows[s][t] == p.rows[t][s] for s in range(st.n) for t in range(s))
    assert p.norms == [2 * d] * st.n
    assert p.width == width_for(p.scale, 2 * d, 2 * d, p.slots)


@settings(max_examples=15, deadline=None)
@given(
    hst.integers(2, 8),
    hst.integers(1, 3),
    hst.integers(1, 6),
    hst.integers(24, 48),
    hst.randoms(use_true_random=False),
)
def test_property_graph_states_stay_symmetric_at_norm_2d(n, d, k, bits, rng):
    """Over a timeline of batches, every exact state, bits state and
    muddled served state of a graph keeps the structure the symmetric
    fold takes for granted."""
    g = random_graph(rng, n, d, fill=rng.random())
    exact = state_from_graph(g, k)
    dirty = state_from_graph(g, k, bits=bits)
    tl = MuddleTimeline(MuddleConfig(n, d, k, 2, bits), g)
    for st in (exact, dirty, tl.served):
        _assert_symmetric_at_norm_2d(st)
    for _ in range(5):
        b = random_batch(rng, exact.graph, 3)
        exact = apply_batch(exact, b)
        dirty = apply_batch(dirty, b)
        tl.step(b)
        for st in (exact, dirty, tl.served):
            _assert_symmetric_at_norm_2d(st)
    assert exact.P == state_from_graph(exact.graph, k).P


def _bits_fold_reference(state, batch):
    """F after one bits-mode batch by definition: the Rat fold of the stored F, then every coefficient truncated."""
    if len(batch) == 0:
        return state.F
    _, ndeltas = validate_and_apply(state.graph, batch)
    return truncate_all(woodbury_fold(state.F, ndeltas, state.K, 2 * state.graph.d), state.bits)


@settings(max_examples=20, deadline=None)
@given(
    hst.integers(2, 8),
    hst.integers(1, 3),
    hst.integers(1, 6),
    hst.integers(24, 64),
    hst.randoms(use_true_random=False),
)
def test_property_bits_mode_within_certified_bound(n, d, k, bits, rng):
    g = random_graph(rng, n, d, fill=rng.random())
    exact = state_from_graph(g, k)
    dirty = state_from_graph(g, k, bits=bits)
    for _ in range(4):
        b = random_batch(rng, exact.graph, 3)
        exact = apply_batch(exact, b)
        want = _bits_fold_reference(dirty, b)
        dirty = apply_batch(dirty, b)
        assert dirty.F == want
        spent = dirty.budget.bits_spent
        bound = pow2(-(bits - spent - 2))
        for row_e, row_d in zip(exact.G.rows, dirty.G.rows):
            for e, dd in zip(row_e, row_d):
                for j in range(k + 1):
                    assert abs(e[j] - dd[j]) <= bound
    _assert_matches_oracles(exact)


@pytest.mark.parametrize("threshold", [0, 12])
@settings(max_examples=15, deadline=None)
@given(
    hst.integers(2, 6),
    hst.integers(1, 6),
    hst.integers(24, 64),
    hst.randoms(use_true_random=False),
)
def test_property_bits_mode_on_weighted_digraphs(threshold, n, k, bits, rng):
    """Bits mode on non-symmetric T with signed weights and mixed
    denominators, on both core routes (a gadget here has at most 8
    indices, so threshold 12 is the direct route): each batch gives the
    Rat fold of the stored F with every coefficient truncated, through
    repacks."""

    def weight():
        return rand_rat(rng, 3, 6)

    a = [[weight() if rng.random() < 0.5 else Rat(0) for _ in range(n)] for _ in range(n)]
    st = state_from_matrix(RatMatrix(a), k, bits=bits, cascade_threshold=threshold)
    for _ in range(3):
        deltas = [(rng.randrange(n), rng.randrange(n), weight()) for _ in range(rng.randint(1, 4))]
        want = truncate_all(woodbury_fold(st.F, deltas, k), bits)
        st = apply_entry_deltas(st, [(r, n + c, dl) for r, c, dl in deltas])
        assert st.P.scale == 1 << bits
        assert st.F == want


@pytest.mark.parametrize("threshold", [0, 12])
@settings(max_examples=15, deadline=None)
@given(hst.integers(2, 6), hst.integers(1, 6), hst.randoms(use_true_random=False))
def test_property_weighted_digraph_matches_oracle(threshold, n, k, rng):
    """Non-symmetric T with mixed denominators, on both core routes (a
    gadget here has at most 8 indices, so threshold 12 is the direct
    route)."""

    def weight():
        return rand_rat(rng, 3, 6)

    a = [[weight() if rng.random() < 0.5 else Rat(0) for _ in range(n)] for _ in range(n)]
    st = state_from_matrix(RatMatrix(a), k, cascade_threshold=threshold)
    for _ in range(3):
        deltas = [(rng.randrange(n), rng.randrange(n), weight()) for _ in range(rng.randint(1, 4))]
        for r, c, dl in deltas:
            a[r][c] += dl
        st = apply_entry_deltas(st, [(r, n + c, dl) for r, c, dl in deltas])
        b = bipartite_embed(PolyMatrix.from_rational(RatMatrix(a)))
        assert st.B == b
        assert st.G == exact_power_sum(b, k)
