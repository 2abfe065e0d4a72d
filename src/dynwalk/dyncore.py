"""Incremental maintenance of the truncated walk generating function.

The maintained object is G(x) = sum of (xB)^i for i = 0..K, where B is the
bipartite embedding [[0, A], [I, 0]] of the current transition matrix A.
Batch changes to A land in the top-right block of B; each batch is split
into its negative and positive entry deltas, and each half becomes a delta
gadget: a small structured matrix over the affected rows and columns plus
two portal slots whose truncated power sum is exactly the correction that
G needs.  The gadget is never materialized in full on the production path.
Writing R for the G-columns of the affected rows, D for the G-rows of the
affected columns, C for their crossing block, and W for the x-scaled delta
weights, the accumulated portal sum collapses to

    correction = R * W * (I + CW + (CW)^2 + ...) * D   (mod x^(K+1)),

three small matrix products around one truncated power sum.  All of it
runs on integers: the blocks R, C, D read off G and the weights W each
become integer coefficient lists over one common denominator
(``linalg.ScaledMatrix``), the products and ``matpow.power_sum`` on either
route stay in integers, and Rat comes back only when a corrected
coefficient is added into G, once per coefficient.  G itself stays a
matrix of Rat polynomials.

The fold is local: R is nonzero only on the rows of G that reach an affected row and
D only on the columns an affected column reaches (the K-hop balls around
the batch), so the product is formed over those support rows and
columns alone and added into them.  The new G and B replace only the
rows they touch and share every other row list with the parent
snapshot; nothing may mutate G.rows or B.rows in place.

Exact mode keeps G coefficient-identical to a from-scratch recomputation.
Bits mode charges the precision budget one bit per batch and keeps G on
the 2^-b grid: the first batch of a fresh bits state rounds every
coefficient to b bits, and each later batch rounds only the entries its
gadgets changed, since every other entry is on the grid already
(truncate_rows).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .numerics import (
    BudgetExhausted,
    PrecisionBudget,
    R0,
    Rat,
    truncate_to_bits,
)
from .poly import UniPoly
from .linalg import PolyMatrix, RatMatrix, ScaledMatrix
from . import matpow
from .graph import DynGraph, EdgeBatch, lazy_transition, validate_and_apply
from .oracle import exact_power_sum

__all__ = [
    "DynState",
    "DeltaGadget",
    "StaleGadgetError",
    "bipartite_embed",
    "initial_state",
    "state_from_graph",
    "state_from_matrix",
    "build_delta_gadgets",
    "apply_gadget",
    "apply_entry_deltas",
    "apply_batch",
    "read_power_entry",
    "truncate_rows",
]

# Gadgets with more affected indices than this route their core power sum
# through the characteristic-polynomial cascade instead of direct
# accumulation.  12 keeps every batch of up to three edge changes (at most
# six affected rows plus six affected columns) on the direct route, which
# is what the desk-scale timing budgets assume; bigger batches exercise
# the cascade.
DEFAULT_CASCADE_THRESHOLD = 12


class StaleGadgetError(Exception):
    """A gadget was applied to a state it was not built against."""


@dataclass(frozen=True)
class DeltaGadget:
    """One sign's worth of a batch, as a correction gadget.

    u_in holds the affected rows of B (first-copy vertices), u_out the
    affected columns (second-copy slots), both sorted.  weights is the
    |u_in| x |u_out| block of signed entry deltas; its x-scaled form is the
    only part of the gadget fixed at build time.  The remaining gadget
    entries are rows and columns of G and are read off the state at apply
    time, which is what expected_version pins down: the minus gadget of a
    batch expects the pre-batch version and the plus gadget expects the
    version after the minus gadget has landed.
    """

    sigma: str
    u_in: tuple
    u_out: tuple
    weights: RatMatrix
    deltas: tuple
    expected_version: int

    @property
    def size(self) -> int:
        return len(self.u_in) + len(self.u_out)

    def is_empty(self) -> bool:
        return not self.deltas


@dataclass
class DynState:
    """Snapshot of the maintained dynamic program.

    Treated as immutable: every update operation returns a fresh state and
    never touches its input, so older snapshots stay valid (the muddled
    scheduler leans on this).  Successive snapshots share the row lists
    of G and B that an update did not touch, so no one may mutate
    G.rows or B.rows in place; build a new matrix instead.
    """

    n: int
    d: int
    K: int
    mode: str
    bits: int | None
    graph: DynGraph | None
    B: PolyMatrix
    G: PolyMatrix
    budget: PrecisionBudget | None
    version: int = 0
    step_count: int = 0
    cascade_threshold: int = DEFAULT_CASCADE_THRESHOLD

    @property
    def is_bits(self) -> bool:
        return self.mode == "bits"


def bipartite_embed(a: PolyMatrix) -> PolyMatrix:
    """The block matrix [[0, A], [I, 0]]; its even powers are diag(A^k, A^k).

    Walks in the embedding alternate between the two copies, so every
    change to A sits in the top-right block and every length-2k closed
    tour reads off a length-k walk of A.
    """
    if not a.is_square:
        raise ValueError("embedding needs a square matrix")
    n = a.nrows
    zero, one = UniPoly.zero(), UniPoly.one()
    rows = []
    for i in range(n):
        rows.append([zero] * n + list(a.rows[i]))
    for i in range(n):
        rows.append([one if j == i else zero for j in range(n)] + [zero] * n)
    return PolyMatrix(rows)


def _validate_mode(mode: str, bits: int | None):
    if mode == "exact":
        if bits is not None:
            raise ValueError("exact mode takes no bit width")
        return None
    if mode == "bits":
        if bits is None or bits < 1:
            raise ValueError("bits mode needs a positive bit width")
        return PrecisionBudget(bits)
    raise ValueError(f"unknown mode {mode!r}")


def state_from_matrix(
    a: RatMatrix,
    k: int,
    mode: str = "exact",
    bits: int | None = None,
    cascade_threshold: int = DEFAULT_CASCADE_THRESHOLD,
) -> DynState:
    """Dynamic state over an arbitrary square weight matrix (no graph).

    This is the raw engine entry point the tests use for weighted digraph
    instances; graph-driven states go through state_from_graph.
    """
    if not a.is_square:
        raise ValueError("needs a square matrix")
    if k < 1:
        raise ValueError("truncation degree must be at least one")
    budget = _validate_mode(mode, bits)
    b = bipartite_embed(PolyMatrix.from_rational(a))
    g = exact_power_sum(b, k)
    return DynState(
        n=a.nrows,
        d=0,
        K=k,
        mode=mode,
        bits=bits,
        graph=None,
        B=b,
        G=g,
        budget=budget,
        cascade_threshold=cascade_threshold,
    )


def state_from_graph(
    graph: DynGraph,
    k: int,
    mode: str = "exact",
    bits: int | None = None,
    cascade_threshold: int = DEFAULT_CASCADE_THRESHOLD,
) -> DynState:
    """Dynamic state maintaining the lazy walk of an existing graph."""
    st = state_from_matrix(
        lazy_transition(graph), k, mode, bits, cascade_threshold
    )
    st.graph = graph.copy()
    st.d = graph.d
    return st


def initial_state(
    n: int,
    d: int,
    k: int,
    mode: str = "exact",
    bits: int | None = None,
    cascade_threshold: int = DEFAULT_CASCADE_THRESHOLD,
) -> DynState:
    """Dynamic state over the empty n-vertex graph with degree bound d."""
    return state_from_graph(DynGraph.empty(n, d), k, mode, bits, cascade_threshold)


def build_delta_gadgets(state: DynState, entry_deltas) -> tuple:
    """Split entry deltas by sign into the two gadgets of a batch.

    entry_deltas are (row, col, delta) triples in B coordinates and must
    lie in the top-right block; anything else is a contract violation.
    Negative deltas populate the minus gadget, positive the plus gadget.
    The minus gadget is built against the current version and the plus
    gadget against the version the minus application will produce, since
    its G-dependent entries must be read after deletions have landed.
    """
    n = state.n
    by_sign = {"-": [], "+": []}
    for row, col, delta in entry_deltas:
        delta = Rat(delta)
        if delta == 0:
            continue
        if not (0 <= row < n and n <= col < 2 * n):
            raise ValueError(
                f"delta at ({row}, {col}) is outside the top-right block"
            )
        by_sign["-" if delta < 0 else "+"].append((row, col, delta))

    def make(sigma: str, triples, expected_version: int) -> DeltaGadget:
        u_in = tuple(sorted({r for r, _, _ in triples}))
        u_out = tuple(sorted({c for _, c, _ in triples}))
        pos = {u: i for i, u in enumerate(u_in)}
        qos = {v: j for j, v in enumerate(u_out)}
        w = [[R0] * len(u_out) for _ in u_in]
        for r, c, delta in triples:
            w[pos[r]][qos[c]] += delta
        return DeltaGadget(
            sigma=sigma,
            u_in=u_in,
            u_out=u_out,
            weights=RatMatrix(w) if u_in else RatMatrix.zeros(0, 0),
            deltas=tuple(sorted(triples)),
            expected_version=expected_version,
        )

    minus = make("-", by_sign["-"], state.version)
    plus = make("+", by_sign["+"], state.version + 1)
    return minus, plus


def _updated_embedding(b: PolyMatrix, deltas) -> PolyMatrix:
    zero = UniPoly.zero()
    touched = {}
    for r, c, delta in deltas:
        row = touched.setdefault(r, list(b.rows[r]))
        row[c] = row[c] + UniPoly.constant(delta) or zero
    return b.with_rows(touched)


def _folded(e: UniPoly, corr, den: int) -> UniPoly:
    """e + corr/den for integer coefficients corr: one Rat per changed coefficient."""
    coeffs = list(e.coeffs)
    coeffs += [R0] * (len(corr) - len(coeffs))
    for j, v in enumerate(corr):
        if v:
            a = coeffs[j]
            coeffs[j] = Rat(a.numerator * den + v * a.denominator, a.denominator * den)
    return UniPoly.of_rats(coeffs)


def apply_gadget(state: DynState, gadget: DeltaGadget) -> DynState:
    """Fold one gadget's correction into G and its deltas into B.

    The correction R*P*D is nonzero only on the support rows S (those
    whose G-row reaches some u_in) and support columns T (those some
    u_out reaches), so R is built over S, D over T, and the |S| x |T|
    product is added into those entries alone; every other entry gets a
    zero correction, so the result is exact.  Rows of G outside S and
    rows of B without a delta are shared with the input state, never
    copied.

    Rat leaves at the block reads: R, C, D and the weights W each become
    integer coefficient lists over their own common denominator.  C*W,
    the core power sum, W*x*core and R*P*D are integer products, the
    denominators multiply alongside, and the correction is reduced to
    its least common denominator.  Rat enters again in the fold, where
    each changed coefficient of G becomes one Rat: old value plus
    correction numerator over that denominator.

    The version token must match: gadgets encode which G their entries
    are meant to be read from, and applying against anything else would
    silently compute garbage.
    """
    if gadget.expected_version != state.version:
        raise StaleGadgetError(
            f"gadget built for version {gadget.expected_version}, "
            f"state is at {state.version}"
        )
    if gadget.is_empty():
        return replace(state, version=state.version + 1)
    k = state.K
    g = state.G.rows
    u_in, u_out = gadget.u_in, gadget.u_out
    support_rows = [s for s, row in enumerate(g) if any(row[u] for u in u_in)]
    support_cols = sorted({t for v in u_out for t, e in enumerate(g[v]) if e})
    r_blk = ScaledMatrix.of_polys([[g[s][u] for u in u_in] for s in support_rows])
    c_blk = ScaledMatrix.of_polys([[g[v][u] for u in u_in] for v in u_out])
    d_blk = ScaledMatrix.of_polys([[g[v][t] for t in support_cols] for v in u_out])
    w0 = ScaledMatrix.of_polys(PolyMatrix.from_rational(gadget.weights).rows)
    core = matpow.power_sum(
        c_blk.mul(w0, k),
        k,
        method="charpoly" if gadget.size > state.cascade_threshold else "direct",
    )
    p_blk = w0.times_x(k).mul(core, k)
    correction = r_blk.mul(p_blk, k).mul(d_blk, k).reduced()
    den = correction.den
    # an entry the correction cancels goes back to the shared zero, so the
    # count of live zero objects in G does not grow as the graph churns
    zero = UniPoly.zero()
    touched = {}
    for s, crow in zip(support_rows, correction.rows):
        row = list(g[s])
        for t, c in zip(support_cols, crow):
            if c:
                row[t] = _folded(row[t], c, den) or zero
        touched[s] = row
    new_g = state.G.with_rows(touched)
    new_b = _updated_embedding(state.B, gadget.deltas)
    return replace(state, G=new_g, B=new_b, version=state.version + 1)


def truncate_rows(
    m: PolyMatrix,
    bits: int,
    source: PolyMatrix | None = None,
    truncated: PolyMatrix | None = None,
) -> PolyMatrix:
    """m with every coefficient rounded to b bits, reusing work done before.

    truncated must be source with every coefficient rounded to b bits;
    it defaults to source itself, for a source already on the 2^-b grid.
    A row of m that is the very list object of the same row of source is
    taken from truncated as it is, with no work, and so is an entry that
    is the very object of the same entry of source.  Snapshots share
    exactly the rows an update left alone, and a replaced row keeps the
    entry objects the update did not change, so after a local update only
    the entries it changed are rounded.  Without a source every entry is
    rounded.
    """

    def rounded(e):
        return UniPoly([truncate_to_bits(c, bits) for c in e.coeffs])

    if source is None:
        return PolyMatrix([[rounded(e) for e in row] for row in m.rows])
    done = source if truncated is None else truncated
    fresh = {
        i: [d if e is o else rounded(e) for e, o, d in zip(row, old, done.rows[i])]
        for i, (row, old) in enumerate(zip(m.rows, source.rows))
        if row is not old
    }
    return done.with_rows(fresh)


def apply_entry_deltas(state: DynState, entry_deltas) -> DynState:
    """Run one batch of raw B entry deltas through both gadgets.

    Deletions land first: negative deltas, then positive, per the two-step
    correction order.  In bits mode the budget is charged one bit and the
    result is put back on the 2^-b grid.  A state that has spent a bit
    already holds a G on that grid (it came from a truncating batch or a
    muddled delivery), and rounding is idempotent there, so only the
    entries the gadgets changed are rounded; a fresh bits state, whose G
    is still exact, has every coefficient rounded.
    """
    minus, plus = build_delta_gadgets(state, entry_deltas)
    st = apply_gadget(state, minus)
    st = apply_gadget(st, plus)
    if state.is_bits:
        st.budget = state.budget.copy()
        st.budget.spend(1)
        if state.budget.bits_spent:
            st.G = truncate_rows(st.G, state.bits, state.G)
        else:
            st.G = truncate_rows(st.G, state.bits)
    return st


def apply_batch(state: DynState, batch: EdgeBatch) -> DynState:
    """Validate a batch against the graph and fold it into the state.

    An empty batch only advances the step counter.  A rejected batch
    raises BatchRejected before anything is touched; in bits mode an
    exhausted budget raises BudgetExhausted, the signal that answers can
    no longer be served at the promised precision.
    """
    if state.graph is None:
        raise ValueError("state has no graph; use apply_entry_deltas")
    if len(batch) == 0:
        return replace(state, step_count=state.step_count + 1)
    new_graph, tdeltas = validate_and_apply(state.graph, batch)
    if state.is_bits and not state.budget.can_spend(1):
        raise BudgetExhausted(
            f"precision budget exhausted after {state.step_count} steps"
        )
    n = state.n
    bdeltas = [(r, n + c, delta) for (r, c, delta) in tdeltas]
    st = apply_entry_deltas(state, bdeltas)
    st.graph = new_graph
    st.step_count = state.step_count + 1
    return st


def read_power_entry(state: DynState, s: int, t: int, j: int) -> Rat:
    """Coefficient of x^(2j) in G[s, t]: the (s, t) entry of T^j.

    Both endpoints are first-copy vertices; the bipartite doubling means
    power j of the transition matrix lives at degree 2j.
    """
    n = state.n
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("vertex out of range")
    if j < 0 or 2 * j > state.K:
        raise ValueError(f"power {j} out of range for truncation {state.K}")
    return state.G.rows[s][t][2 * j]
