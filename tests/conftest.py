"""Shared builders for the suite: seeded graphs, matrices, batches."""

import random

from dynwalk.numerics import Rat, truncate_to_bits
from dynwalk.poly import UniPoly
from dynwalk.linalg import PolyMatrix, RatMatrix
from dynwalk.graph import DynGraph, EdgeBatch, EdgeOp, validate_and_apply
from dynwalk.expander import TesterConfig

# the name matches pytest's Test* collection glob
TesterConfig.__test__ = False


def pow2(exponent):
    """2**exponent as an exact rational; exponent may be negative."""
    if exponent >= 0:
        return Rat(1 << exponent)
    return Rat(1, 1 << (-exponent))


def rand_rat(rng, num_bound=9, den_bound=9):
    return Rat(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_rat_matrix(rng, size, num_bound=9, den_bound=9):
    return RatMatrix(
        [[rand_rat(rng, num_bound, den_bound) for _ in range(size)] for _ in range(size)]
    )


def resolvent(a):
    """The polynomial matrix I - xA of a RatMatrix A."""
    return PolyMatrix.identity(a.nrows).add(
        PolyMatrix.from_rational(a).scale_poly(-UniPoly.x())
    )


def small_entry_matrix(rng, size):
    """Square matrix with every entry below 1/(3*size) in magnitude.

    Entries are sign * p / (3*size*q) with p < q, so the bound is strict.
    """
    bound = 3 * size
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            q = rng.randint(2, 9)
            p = rng.randint(0, q - 1)
            sign = rng.choice((-1, 1))
            row.append(Rat(sign * p, bound * q))
        rows.append(row)
    return RatMatrix(rows)


# -- graph builders ------------------------------------------------------


def cycle_graph(n, d=2):
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    return DynGraph(n, d, frozenset(edges))


def matching_graph(n, d=1):
    """Disconnected pairs: 0-1, 2-3, ...  n must be even."""
    assert n % 2 == 0
    return DynGraph(n, d, frozenset((2 * i, 2 * i + 1) for i in range(n // 2)))


def complete_graph(n):
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n))
    return DynGraph(n, n - 1, edges)


def blowup_graph(groups, size):
    """Complete multipartite graph: `groups` groups of `size` vertices.

    Every vertex connects to all vertices outside its own group, so the
    graph is (groups-1)*size regular.
    """
    n = groups * size
    d = (groups - 1) * size
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if u // size != v // size:
                edges.add((u, v))
    return DynGraph(n, d, frozenset(edges))


def complete_bipartite(a, b):
    edges = frozenset((u, a + v) for u in range(a) for v in range(b))
    return DynGraph(a + b, max(a, b), edges)


def two_cliques_bridged(half):
    """Two complete graphs on `half` vertices joined by a single edge."""
    edges = set()
    for base in (0, half):
        for u in range(half):
            for v in range(u + 1, half):
                edges.add((base + u, base + v))
    edges.add((0, half))
    return DynGraph(2 * half, half, frozenset(edges))


def random_regular_graph(rng, n, d):
    """Union of d random perfect matchings, retried until simple.

    Needs even n.  The result is exactly d-regular.
    """
    assert n % 2 == 0
    for _ in range(2000):
        edges = set()
        ok = True
        for _ in range(d):
            verts = list(range(n))
            rng.shuffle(verts)
            for i in range(0, n, 2):
                u, v = sorted((verts[i], verts[i + 1]))
                if (u, v) in edges:
                    ok = False
                    break
                edges.add((u, v))
            if not ok:
                break
        if ok:
            return DynGraph(n, d, frozenset(edges))
    raise RuntimeError(f"no simple {d}-regular graph found for n={n}")


def random_graph(rng, n, d, fill=0.6):
    """Random graph under the degree bound, roughly `fill` of capacity."""
    g = DynGraph.empty(n, d)
    target = int(fill * n * d / 2)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = set()
    deg = [0] * n
    for u, v in pairs:
        if len(adj) >= target:
            break
        if deg[u] < d and deg[v] < d:
            adj.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return DynGraph(n, d, frozenset(adj))


def random_batch(rng, graph, max_ops, min_ops=1):
    """Valid batch against `graph`: ops checked against a working copy."""
    work = graph.copy()
    ops = []
    for _ in range(rng.randint(min_ops, max_ops)):
        for _ in range(60):
            u, v = rng.sample(range(graph.n), 2)
            a, b = min(u, v), max(u, v)
            if work.has_edge(a, b):
                op = EdgeOp("delete", a, b)
            elif work.degree(a) < work.d and work.degree(b) < work.d:
                op = EdgeOp("insert", a, b)
            else:
                continue
            work, _ = validate_and_apply(work, EdgeBatch((op,)))
            ops.append(op)
            break
    return EdgeBatch(tuple(ops))


# -- folds by definition ---------------------------------------------------


def woodbury_fold(f, tdeltas, k, den=1):
    """F + F[:, u_in] zW (sum of (zCW)^i) F[u_out, :] mod z^(J+1), in Rat polynomials.

    f is F as a PolyMatrix in z, tdeltas are (row, col, delta) entry
    deltas of T in units of 1/den (den = 2d for the deltas
    ``validate_and_apply`` reports), C = F[u_out, u_in] and J = ceil(k/2).  This is the fold
    of one batch written out with PolyMatrix products, for any F at all,
    so it is the reference for bits mode too, where F is rounded.
    """
    deg = (k + 1) // 2
    u_in = sorted({r for r, _, _ in tdeltas})
    u_out = sorted({c for _, c, _ in tdeltas})
    if not u_in:
        return f
    w = [[Rat(0)] * len(u_out) for _ in u_in]
    for r, c, delta in tdeltas:
        w[u_in.index(r)][u_out.index(c)] += Rat(delta) / den
    zw = PolyMatrix([[UniPoly([0, v]) for v in row] for row in w])
    n = f.nrows
    r = PolyMatrix([[f.rows[s][u] for u in u_in] for s in range(n)])
    c = PolyMatrix([[f.rows[v][u] for u in u_in] for v in u_out])
    d = PolyMatrix([[f.rows[v][t] for t in range(n)] for v in u_out])
    czw = c.mul(zw, trunc=deg)
    total = term = PolyMatrix.identity(len(u_out))
    for _ in range(deg):
        term = term.mul(czw, trunc=deg)
        total = total.add(term)
    return f.add(r.mul(zw, trunc=deg).mul(total, trunc=deg).mul(d, trunc=deg))


def truncate_all(m, bits):
    """Every coefficient of a PolyMatrix rounded to b bits by truncate_to_bits."""
    return PolyMatrix(
        [[UniPoly([truncate_to_bits(c, bits) for c in e.coeffs]) for e in row] for row in m.rows]
    )


def poly_matrix_entries_flat(m):
    return [c for row in m.rows for e in row for c in e.coeffs]


def vandermonde_inverse_norm(points):
    """Max absolute row sum of the inverse Vandermonde matrix on `points`.

    Row j of the inverse holds coefficient j of each Lagrange basis
    polynomial, so the norm comes from those bases directly.  This is
    the exact factor by which value noise can inflate into coefficient
    noise under interpolation on the points.
    """
    bases = []
    for i, xi in enumerate(points):
        num = UniPoly.one()
        den = Rat(1)
        for k, xk in enumerate(points):
            if k != i:
                num = num * UniPoly([-xk, Rat(1)])
                den *= xi - xk
        bases.append(num * UniPoly.constant(1 / den))
    return max(
        sum(abs(b[j]) for b in bases) for j in range(len(points))
    )
