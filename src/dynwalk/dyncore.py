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

F is stored packed, one Python int per entry whose slot j holds
m delta^j F[s][t][j] for a common denominator delta of T and a scale m
(``packed``), and every update runs on those ints; Rat remains only at
the edges, listed below.

A batch of changes to T (the top-right block of B) becomes one delta
gadget over the affected rows u_in and columns u_out.  With T' = T + U W V
for the signed delta weights W, where U holds the identity columns u_in
and V the identity rows u_out, the Woodbury identity in z = x^2 gives

    F' = F + F[:, u_in] * zW * (I + zCW + (zCW)^2 + ...) * F[u_out, :],

mod z^(J+1), where C = F[u_out, u_in].  The identity holds for any W,
so a batch's insertions and deletions fold together in one correction.
Written R for F[:, u_in] and D for F[u_out, :], that is three small
matrix products around one truncated power sum.  Substituting z by
delta z turns it into the same identity on the packed digits with the
integer weights delta W, so the whole fold runs on packed ints; only
the low J + 1 slots of the correction are decoded and added in.

The fold is local.  The middle factor zW * (...) carries a factor z, so
only R, D and the power sum mod z^J reach F' mod z^(J+1), and that power
sum reads C only mod z^(J-1).  R mod z^J is nonzero only on the rows of F
that reach an affected row within J - 1 steps, and D mod z^J only on the
columns an affected column reaches within J - 1 steps (the (J-1)-hop
balls around the batch), so the product is formed over those support
rows and columns alone and added into them.  The core is split before
its power sum, into the connected components of the pattern of W and
C^T (on a graph state row a and column a are one node): changes too far
apart to interact fall into different blocks, over which W, C, the
power sum and M are all block-diagonal, so each block's power sum is
formed on its own and each block's product over its own ball alone.
The route of the power sum is chosen once per gadget.  A block's
candidates are the nonzero entries of its rows of F, found by C-level
truthiness scans, and its support is the candidates whose cut entries
are nonzero.  On a graph state T is symmetric, and so is every block's
product, so the rows give the support on both sides and each unordered
pair of support entries is formed once; a state built from a matrix
scans the block's columns of F for its support rows as well.

Besides F the state stores the integer matrix N = delta T, the matrix
the batches edit, as rows of ints; T is a view built from N on access,
and B from T, as G is from F.  A graph batch is integer from the edge op
to the fold: the graph reports its deltas of N (units of 1/(2d)), the
gadget's weights and N's new rows are ints, and the fold runs on packed
ints.  Rat remains only at the edges: state_from_matrix's input, the Rat
deltas apply_entry_deltas takes on a state built from a matrix (one that
brings a new denominator rescales N and repacks F first), readout and
the T, B, F and G views.  A graph state takes only edge batches, so its
P.den stays 2d.
The new F and N copy only the rows the gadget changes (F's rows with a
nonzero correction, N's rows with a delta) and share every other row
list with the parent snapshot; nothing may mutate stored rows in place.

The from-scratch rebuild still runs the oracle's 2n x 2n power sum of B,
reads F off its top-right block and packs it.  Building F straight from
N would be several times cheaper, but the benchmark gates the ratio of
fold time to this rebuild's time, which a faster rebuild would raise;
that change waits for the ratio to be redefined.

Exact mode keeps F coefficient-identical to a from-scratch recomputation.
Bits mode charges the precision budget one bit per batch and keeps F on
the 2^-b grid: the first batch of a fresh bits state rounds every
coefficient to b bits (m goes from 1 to 2^b), and each later batch
rounds only the entries its gadget changed, since every other entry is
on the grid already.  Rounding F rounds every coefficient of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice
from operator import index, itemgetter, mul, or_

# truncate_to_bits is unused here but stays bound: the layer tracer in
# bench/layers.py wraps dyncore.truncate_to_bits by name
from .numerics import (  # noqa: F401
    BudgetExhausted,
    PrecisionBudget,
    R0,
    Rat,
    truncate_to_bits,
)
from .poly import IntPoly, UniPoly
from .linalg import PolyMatrix, RatMatrix, ScaledMatrix
from .packed import (
    PackedF,
    coefficient,
    cut,
    digits,
    grid_rounding,
    pack,
    refit,
    truncate_rows,
    unpacked,
    width_for,
)
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

# Gadgets with more affected indices than a state's cascade_threshold
# route every block's core power sum through the characteristic-
# polynomial cascade instead of direct accumulation.  The direct route
# is faster at every gadget size measured with the core split into
# blocks (2 to 16 edge changes at K = 4 and 8, 2 to 8 at K = 12): about
# 3x at K = 4, where changes on distinct vertices never share a block,
# and more as K grows and the blocks merge.  So by default no gadget
# takes the cascade; a state opts in by setting a finite threshold.
DEFAULT_CASCADE_THRESHOLD = math.inf


class StaleGadgetError(Exception):
    """A gadget was applied to a state it was not built against."""


@dataclass(frozen=True)
class DeltaGadget:
    """A batch of entry deltas, as one correction gadget.

    u_in holds the affected rows of B (first-copy vertices), u_out the
    affected columns (second-copy slots), both sorted.  weights is the
    |u_in| x |u_out| block of signed deltas of N = delta T, as rows of
    ints, and new_rows maps each row of N with a delta to that row after
    the deltas.  The remaining gadget entries are rows and columns of F
    and are read off the state at apply time, which is what
    expected_version pins down: it is the version of the state the
    gadget was built against.
    """

    u_in: tuple
    u_out: tuple
    weights: tuple
    expected_version: int
    new_rows: dict

    @property
    def size(self) -> int:
        return len(self.u_in) + len(self.u_out)

    def is_empty(self) -> bool:
        return not self.u_in


@dataclass
class DynState:
    """Snapshot of the maintained dynamic program.

    P is the stored state: the n x n matrix F = sum of (zT)^j for
    j = 0..ceil(K/2), packed one int per entry (see PackedF), so the
    digit j of P.rows[s][t] is the (s, t) entry of T^j times
    P.scale * P.den^j.  N holds the rows of the integer matrix
    P.den * T, the matrix the batches edit (2d T on a graph state).
    The transition matrix T = N / P.den, F as Rat polynomials, the
    2n x 2n embedding B = [[0, T], [I, 0]] and G, the 2n x 2n sum of
    (xB)^i for i <= K, are not stored; their properties build them on
    every access, for comparisons against the oracles.  Rat appears in
    those views only.  A state is in bits mode exactly when it carries
    a budget, and its bit width b is the budget's allowance; mode and
    bits are both read off budget.

    Treated as immutable: every update operation returns a fresh state and
    never touches its input, so older snapshots stay valid (the muddled
    scheduler leans on this).  Successive snapshots share the row lists
    of P and N that an update did not touch, so no one may mutate
    P.rows or N in place; build a new matrix instead.
    """

    n: int
    K: int
    graph: DynGraph | None
    N: list
    P: PackedF
    budget: PrecisionBudget | None
    version: int = 0
    step_count: int = 0
    cascade_threshold: float = DEFAULT_CASCADE_THRESHOLD

    @property
    def is_bits(self) -> bool:
        return self.budget is not None

    @property
    def mode(self) -> str:
        """The mode name, "bits" for a state with a precision budget, else "exact"."""
        return "bits" if self.budget is not None else "exact"

    @property
    def bits(self) -> int | None:
        """The coefficient width b of a bits state, its budget's allowance; None when exact."""
        return None if self.budget is None else self.budget.initial_bits

    @property
    def T(self) -> RatMatrix:
        """The n x n transition matrix N / P.den, built from N (not cached)."""
        den = self.P.den
        rats = {v: Rat(v, den) for v in set(chain.from_iterable(self.N))}
        return RatMatrix.from_rat_rows([list(map(rats.__getitem__, row)) for row in self.N])

    @property
    def F(self) -> PolyMatrix:
        """The n x n sum of (zT)^j, j <= ceil(K/2), unpacked from P (not cached)."""
        return unpacked(self.P)

    @property
    def B(self) -> PolyMatrix:
        """The 2n x 2n embedding [[0, T], [I, 0]], built from T (not cached)."""
        return bipartite_embed(PolyMatrix.from_rational(self.T))

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


def _build(a: RatMatrix, k, mode, bits, cascade_threshold, den: int) -> DynState:
    """The from-scratch state over a, with den a multiple of every denominator of a."""
    if not a.is_square:
        raise ValueError("needs a square matrix")
    if k < 1:
        raise ValueError("truncation degree must be at least one")
    budget = _validate_mode(mode, bits)
    b = bipartite_embed(PolyMatrix.from_rational(a))
    g = exact_power_sum(b, k).rows
    n, slots = a.nrows, (k + 1) // 2 + 1
    int_rows = [[v.numerator * (den // v.denominator) for v in row] for row in a.rows]
    norms = [sum(map(abs, row)) for row in int_rows]
    w = width_for(1, max(norms, default=0), den, slots)
    # T^j is the x^(2j-1) coefficient of the top-right block for j >= 1,
    # and T^0 = I
    slot = [(den**j, w * j) for j in range(1, slots)]
    rows = []
    for s in range(n):
        row = [
            sum((c.numerator * (dj // c.denominator)) << shift
                for c, (dj, shift) in zip(e.coeffs[1::2], slot) if c)
            if e else 0
            for e in g[s][n:]
        ]
        row[s] += 1
        rows.append(row)
    return DynState(
        n=n,
        K=k,
        graph=None,
        N=int_rows,
        P=PackedF(rows, w, den, 1, norms, slots),
        budget=budget,
        cascade_threshold=cascade_threshold,
    )


def state_from_matrix(
    a: RatMatrix,
    k: int,
    mode: str = "exact",
    bits: int | None = None,
    cascade_threshold: float = DEFAULT_CASCADE_THRESHOLD,
) -> DynState:
    """Dynamic state over an arbitrary square weight matrix (no graph).

    This is the raw engine entry point the tests use for weighted digraph
    instances; graph-driven states go through state_from_graph.  Its
    packing denominator is the lcm of a's denominators.
    """
    den = math.lcm(*(v.denominator for row in a.rows for v in row))
    return _build(a, k, mode, bits, cascade_threshold, den)


def state_from_graph(
    graph: DynGraph,
    k: int,
    mode: str = "exact",
    bits: int | None = None,
    cascade_threshold: float = DEFAULT_CASCADE_THRESHOLD,
) -> DynState:
    """Dynamic state maintaining the lazy walk of an existing graph.

    Its packing denominator is 2d, which every lazy walk under the
    degree bound shares, so no batch ever repacks it.
    """
    st = _build(
        lazy_transition(graph), k, mode, bits, cascade_threshold, 2 * graph.d
    )
    st.graph = graph.copy()
    return st


def initial_state(
    n: int,
    d: int,
    k: int,
    mode: str = "exact",
    bits: int | None = None,
    cascade_threshold: float = DEFAULT_CASCADE_THRESHOLD,
) -> DynState:
    """Dynamic state over the empty n-vertex graph with degree bound d."""
    return state_from_graph(DynGraph.empty(n, d), k, mode, bits, cascade_threshold)


def build_delta_gadgets(state: DynState, entry_deltas) -> tuple:
    """The batch's gadgets: one DeltaGadget over every nonzero delta, as a 1-tuple.

    entry_deltas are (row, col, delta) triples in B coordinates with
    integer deltas of N = P.den * T, so units of 1/P.den of T (1/(2d) on
    a graph state, the units ``validate_and_apply`` reports).  They must
    lie in the top-right block; anything else is a contract violation.
    Deltas of both signs share the gadget as signed weights, and it is
    built against the current version, whose N it updates.  The tuple
    keeps working callers that iterate over a batch's gadgets, such as
    the benchmark's route check.
    """
    n, rows = state.n, state.N
    net, new_rows = {}, {}
    for row, col, delta in entry_deltas:
        delta = index(delta)
        if not delta:
            continue
        if not (0 <= row < n and n <= col < 2 * n):
            raise ValueError(
                f"delta at ({row}, {col}) is outside the top-right block"
            )
        net[row, col] = net.get((row, col), 0) + delta
        new = new_rows.get(row)
        if new is None:
            new = new_rows[row] = list(rows[row])
        new[col - n] += delta
    u_in = tuple(sorted(new_rows))
    u_out = tuple(sorted({c for _, c in net}))
    gadget = DeltaGadget(
        u_in=u_in,
        u_out=u_out,
        weights=tuple(tuple(net.get((r, c), 0) for c in u_out) for r in u_in),
        expected_version=state.version,
        new_rows=new_rows,
    )
    return (gadget,)


def _fitted(p: PackedF, gadget: DeltaGadget) -> PackedF:
    """p with the row norms of N after the gadget, repacked if they outgrow its width.

    Only the gadget's rows of N can move a norm, so this sums those
    alone, and p comes back as it is when no norm moves.
    """
    norms = list(p.norms)
    for r, row in gadget.new_rows.items():
        norms[r] = sum(map(abs, row))
    return p if norms == p.norms else refit(p, p.den, norms)


def _packed_power_sum(x, terms: int, scale: int, mask: int) -> list:
    """The sum of X^i scale^(terms - i) for i = 0..terms, mod mask + 1, by Horner.

    x is a square matrix of packed ints; mask + 1 is a power of two.
    Horner starts at X + scale I, so one term forms no product.
    """
    size = len(x)
    if terms < 1:
        return [[int(a == b) for b in range(size)] for a in range(size)]
    acc = [list(row) for row in x]
    for i in range(1, terms + 1):
        if i > 1:
            cols = list(zip(*acc))
            acc = [[sum(map(mul, xrow, col)) & mask for col in cols] for xrow in x]
        for a, row in enumerate(acc):
            row[a] = (row[a] + scale**i) & mask
    return acc


def _core(c_cut, wts, p: PackedF, cascade: bool) -> list:
    """The core power sum S_m = sum of (yCW)^i m^(J-1-i), i < J, mod y^J, of one block.

    c_cut is the block's C cut mod y^(J-1) and wts its integer weights
    delta W; m is the state's scale.  The direct route runs on packed
    ints.  The cascade forms CW over m from the digits of C, as IntPoly
    entries, and hands zCW/m to ``matpow.power_sum``, which returns sum
    of (zCW/m)^i mod z^J over some denominator dividing m^(J-1), then
    packs m^(J-1) times that back.
    """
    w, m, k = p.width, p.scale, p.slots - 1
    mask = (1 << (w * k)) - 1
    wcols = list(zip(*wts))
    if not cascade:
        # yCW', mod y^J
        x = [[(sum(map(mul, crow, wc)) << w) & mask for wc in wcols] for crow in c_cut]
        return _packed_power_sum(x, k - 1, m, mask)
    # CW' slot by slot, from each row of C as its digits grouped by slot
    by_slot = [list(zip(*[digits(e, w, k - 1) for e in row])) for row in c_cut]
    x = [[IntPoly(sum(map(mul, cj, wc)) for cj in row) for wc in wcols] for row in by_slot]
    s = matpow.power_sum(ScaledMatrix(x, m), k - 1)
    lift, rest = divmod(m ** (k - 1), s.den)
    if rest:
        raise AssertionError("the core's denominator does not divide m^(J-1)")
    return [[pack([v * lift for v in e], w) & mask for e in row] for row in s.rows]


def _blocks(m: list, tied: bool) -> list:
    """The connected components of m's nonzero pattern, as (rows, cols) position lists.

    The rows and the columns of m are the two sides of a bipartite graph
    with an edge for each nonzero entry.  With tied, row a and column a
    are one node, so every block has equal rows and cols: the pattern
    of a graph state's W' and C^T, whose u_in and u_out are the same
    vertices.  A row or column with no nonzero entry is in no block.
    """
    nr, shift = len(m), 0 if tied else len(m)
    groups = []
    for a, row in enumerate(m):
        if any(row):
            nodes = {a, *compress(count(shift), row)}
            for g in [g for g in groups if not nodes.isdisjoint(g)]:
                groups.remove(g)
                nodes |= g
            groups.append(nodes)
    if tied:
        return sorted((xs, xs) for xs in map(sorted, groups))
    return sorted(
        ([x for x in xs if x < nr], [x - nr for x in xs if x >= nr])
        for xs in map(sorted, groups)
    )


def _live(cand: list, block: list, width: int, slots: int) -> tuple:
    """The candidates whose rows of block are not all zero once cut to slots, and those cut rows."""
    rows = cut(block, width, slots)
    live = list(map(any, rows))
    return list(compress(cand, live)), list(compress(rows, live))


def _support_products(left: list, right: list, upper: bool) -> list:
    """The dot product of each row of left with each row of right, by rows of left.

    With upper, row i of left meets only right[i:], which is the upper
    triangle of a symmetric product.
    """
    if upper:
        return [[sum(map(mul, q, r)) for r in right[i:]] for i, q in enumerate(left)]
    return [[sum(map(mul, q, r)) for r in right] for q in left]


def apply_gadget(state: DynState, gadget: DeltaGadget) -> DynState:
    """Fold one gadget's correction into F and its deltas into T.

    With J = ceil(K/2), y = 2^w the packed stand-in for z and the u_out
    slots shifted down by n to columns of T, the correction to the
    digits is V = R * M * D mod y^(J+1), where M = yW'S, W' = delta W is
    the gadget's integer weight block, R = P[:, u_in], C = P[u_out,
    u_in], D = P[u_out, :] and S = sum of (yCW')^i for i < J.  R and D
    are cut mod y^J and C mod y^(J-1) by bias and mask, and S is kept
    mod 2^(wJ), since only the low slots of the result are read.

    The core is split before its power sum, into blocks: the connected
    components of the pattern of W' and C^T, rows I_c of W' and columns
    J_c.  W' and C are block-diagonal over them, so S is too, and each
    block runs its own S_c over C[J_c, I_c] W'_c, on the route chosen
    once for the gadget, and forms M_c = yW'_c S_c; the power sum of a
    block-diagonal core is the block-diagonal of its blocks' power sums,
    so this is exact.  V is the sum over blocks c of
    R[:, I_c] * M_c * D[J_c, :], and a block's support (see the module
    docstring) is the ball around its own indices, so changes far apart
    are formed over their own balls and not over the product of both.
    Each entry's corrections from all blocks are added up, and its low
    J + 1 slots, decoded by bias and mask, are the true change of the
    digits; the junk above them is dropped.

    A state takes one of two paths through each block.  A graph state's
    T is the lazy walk of an undirected graph, so T, P and W' are
    symmetric and u_in = u_out as vertices; then M is symmetric, R is
    D transposed and V = R M R^T.  Its support is the nonzero entries
    of the block's rows of P, found by one scan and cut once, and each
    unordered support pair (s, t) is formed once and written to both
    (s, t) and (t, s).  Its row norms are 2d after every batch, so it
    never repacks.  A state built from a matrix may have any T, so it
    takes the general path: the support rows come from a scan of the
    block's columns of P, the support columns from a scan of its rows,
    each is cut, and every support pair is formed; a gadget that brings
    a row norm of N past the slot width repacks every entry first.

    A row of P gets a new list only if some entry of it changes; every
    other row of P, and every row of T without a delta, is shared with
    the input state.  On a state with scale m = 2^b (a bits state on its
    grid) the core is S_m = sum of (yCW')^i m^(J-1-i), which makes the
    low slots of V m^J times the change of the digits, and each changed
    digit is rounded back to the grid once, on the sum over blocks:
    H'_j = round((H_j m^J + V_j) / (m^J delta^j)) delta^j, to nearest
    with ties toward zero.  The rounding takes the entry P[s][t] m^J + V,
    whose digits H_j m^J + V_j fit the slot width, as packed on scale
    m^(J+1) and goes through that packing's rounding memo
    (``grid_rounding``), so each distinct sum is rounded once.  No Rat
    is built on either scale.

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
    u_in, wts = gadget.u_in, gadget.weights
    u_out = [v - state.n for v in gadget.u_out]
    tied = state.graph is not None
    p = state.P if tied else _fitted(state.P, gadget)
    f, w, slots = p.rows, p.width, p.slots
    k = slots - 1
    c_cut = cut([[f[v][u] for u in u_in] for v in u_out], w, k - 1)
    cascade = gadget.size > state.cascade_threshold
    mask = (1 << (w * k)) - 1
    # V by rows, summed over the blocks; a graph state's holds t >= s only
    v_rows = {}
    # the pattern of W' and C^T: an int or'ed with another is 0 only if both are
    pattern = [list(map(or_, wrow, ccol)) for wrow, ccol in zip(wts, zip(*c_cut))]
    for ins, outs in _blocks(pattern, tied):
        wc = [[wts[a][b] for b in outs] for a in ins]
        core = _core([[c_cut[b][a] for a in ins] for b in outs], wc, p, cascade)
        # M_c = yW'_c S_c mod y^(J+1), by columns
        mid = [[(sum(map(mul, wrow, sc)) & mask) << w for wrow in wc] for sc in zip(*core)]
        vs = [u_out[b] for b in outs]
        # the support columns, and D[J_c, :] on them by columns
        cand = sorted(set().union(*(compress(count(), f[v]) for v in vs)))
        cols, d_cols = _live(cand, list(zip(*[[f[v][t] for t in cand] for v in vs])), w, k)
        if tied:
            # R[:, I_c] is D[J_c, :] transposed
            rows, r_rows = cols, d_cols
        else:
            us = [u_in[a] for a in ins]
            cand = sorted(set().union(*(compress(count(), map(itemgetter(u), f)) for u in us)))
            rows, r_rows = _live(cand, [[f[s][u] for u in us] for s in cand], w, k)
        rm = [[sum(map(mul, rrow, mc)) for mc in mid] for rrow in r_rows]
        for i, (s, prods) in enumerate(zip(rows, _support_products(rm, d_cols, tied))):
            add = dict(zip(cols[i:] if tied else cols, prods))
            have = v_rows.get(s)
            if have is None:
                v_rows[s] = add
            else:
                for t, v in add.items():
                    have[t] = have.get(t, 0) + v
    flat = [v for row in v_rows.values() for v in row.values()]
    lows = iter(cut([flat], w, slots)[0] if flat else ())
    m = p.scale
    if m != 1:
        # f[s][t] m^J + v has digits m^J times the new digit on scale m,
        # which width_for sizes a slot for: rounded from scale m^(J+1)
        top = m**k
        grid = grid_rounding(w, slots, m * top, m.bit_length() - 1, p.den, w)
    touched = {}
    for s, row_v in v_rows.items():
        for t, v in zip(row_v, islice(lows, len(row_v))):
            if not v:
                continue
            e = f[s][t] + v if m == 1 else grid[f[s][t] * top + v]
            row = touched.get(s) or touched.setdefault(s, list(f[s]))
            row[t] = e
            if tied and t != s:
                row = touched.get(t) or touched.setdefault(t, list(f[t]))
                row[s] = e
    new_n = list(state.N)
    for r, row in gadget.new_rows.items():
        new_n[r] = row
    # built directly, not by dataclasses.replace, which is several times dearer
    return DynState(
        state.n,
        state.K,
        state.graph,
        new_n,
        p.with_rows(touched),
        state.budget,
        state.version + 1,
        state.step_count,
        state.cascade_threshold,
    )


def _folded(state: DynState, gadget: DeltaGadget) -> DynState:
    """Fold one gadget of integer deltas of N into the state, in either mode.

    In bits mode the budget is charged one bit and F stays on the 2^-b
    grid.  A state on the grid (it came from a truncating batch or a
    muddled delivery) has its changed entries rounded by the fold
    itself; a fresh bits state, whose F is still exact, has every
    coefficient rounded after the fold.
    """
    st = apply_gadget(state, gadget)
    if state.is_bits:
        st.budget = state.budget.copy()
        st.budget.spend(1)
        if st.P.scale == 1:
            st.P = truncate_rows(st.P, state.bits)
    return st


def apply_entry_deltas(state: DynState, entry_deltas) -> DynState:
    """Fold one batch of raw B entry deltas, Rat deltas of T, into the state.

    entry_deltas are (row, col, delta) triples in B coordinates.  A delta
    whose denominator does not divide P.den first moves the state to the
    lcm: N is rescaled and every entry of F repacked once, to the new
    denominator and the row norms of N after the batch.  The deltas then
    fold as integer deltas of N, as a graph batch does; bits mode is
    handled as there.  A graph state is refused: its T must stay the
    lazy walk of its graph, so it changes only through apply_batch.
    """
    if state.graph is not None:
        raise ValueError("state has a graph; use apply_batch")
    triples = [(r, c, Rat(dl)) for r, c, dl in entry_deltas]
    den = math.lcm(state.P.den, *(dl.denominator for _, _, dl in triples))
    up = den // state.P.den
    if up != 1:
        state = replace(state, N=[[v * up for v in row] for row in state.N])
    (gadget,) = build_delta_gadgets(
        state, [(r, c, dl.numerator * (den // dl.denominator)) for r, c, dl in triples]
    )
    if up != 1:
        norms = [v * up for v in state.P.norms]
        for r, row in gadget.new_rows.items():
            norms[r] = sum(map(abs, row))
        state = replace(state, P=refit(state.P, den, norms))
    return _folded(state, gadget)


def apply_batch(state: DynState, batch: EdgeBatch) -> DynState:
    """Validate a batch against the graph and fold it into the state.

    The graph reports its deltas of N in units of 1/(2d), which are the
    state's own units, so the batch builds no Rat on its way to the
    fold.  An empty batch only advances the step counter.  A rejected
    batch raises BatchRejected before anything is touched; in bits mode
    an exhausted budget raises BudgetExhausted, the signal that answers
    can no longer be served at the promised precision.
    """
    if state.graph is None:
        raise ValueError("state has no graph; use apply_entry_deltas")
    if len(batch) == 0:
        return replace(state, step_count=state.step_count + 1)
    new_graph, ndeltas = validate_and_apply(state.graph, batch)
    if state.is_bits and not state.budget.can_spend(1):
        raise BudgetExhausted(
            f"precision budget exhausted after {state.step_count} steps"
        )
    n = state.n
    (gadget,) = build_delta_gadgets(state, [(r, n + c, delta) for r, c, delta in ndeltas])
    st = _folded(state, gadget)
    st.graph = new_graph
    st.step_count = state.step_count + 1
    return st


def read_power_entry(state: DynState, s: int, t: int, j: int) -> Rat:
    """The (s, t) entry of T^j, j <= ceil(K/2): digit j of P[s][t] over scale * den^j."""
    n = state.n
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("vertex out of range")
    if j < 0 or j >= state.P.slots:
        raise ValueError(f"power {j} out of range for truncation {state.K}")
    p = state.P
    # the memo's hit path inline: a read round is mostly hits
    r = p.reads.get((p.rows[s][t], j))
    return coefficient(p, s, t, j) if r is None else r
