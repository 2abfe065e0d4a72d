"""Brute-force reference implementations.

Everything here recomputes from scratch with exact arithmetic and no shared
machinery with the incremental layer beyond the base types, so agreement
between the two is evidence rather than tautology.  These oracles are the
ground truth behind the test suite: naive truncated power sums, walk-count
dynamic programming, fraction-free determinants, exhaustive conductance,
and a characteristic-polynomial eigenvalue bracketer with exact rational
sign tests (no floating point anywhere).  The characteristic polynomial
comes from the Faddeev-LeVerrier trace recurrence on integers, so the
eigenvalue oracle takes none of the determinant, interpolation or series
kernels the power machinery runs on; from ``poly`` and ``linalg`` this
module takes only the container types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import R0, R1, Rat
from .poly import UniPoly
from .linalg import PolyMatrix, RatMatrix
from .graph import DynGraph

__all__ = [
    "exact_power_sum",
    "walk_count_dp",
    "det_bareiss",
    "CutReport",
    "conductance_bruteforce",
    "EigenBracket",
    "second_eigenvalue",
    "eigencompare",
]


# -- truncated power sums -------------------------------------------------


def exact_power_sum(mat: PolyMatrix, k: int) -> PolyMatrix:
    """I + (xM) + ... + (xM)^k mod x^(k+1), recomputed from scratch.

    General route is Horner accumulation S <- I + (xM)S.  Matrices of
    constant rationals (the only shape the dynamic layer ever recomputes)
    take a scaled-integer route instead: with M = N/D for an integer matrix
    N, the x^i coefficient of the sum is N^i/D^i, so the whole object falls
    out of integer matrix powers.
    """
    if not mat.is_square:
        raise ValueError("power sum of a non-square matrix")
    n = mat.nrows
    if k < 0:
        raise ValueError("negative truncation")
    if n == 0 or k == 0:
        return PolyMatrix.identity(n)
    if mat.max_degree <= 0:
        return _power_sum_constant(mat, k)
    ident = PolyMatrix.identity(n)
    shifted = mat.scale_poly(UniPoly.x(), trunc=k)
    total = ident
    for _ in range(k):
        total = ident.add(shifted.mul(total, trunc=k))
    return total


def _power_sum_constant(mat: PolyMatrix, k: int) -> PolyMatrix:
    n = mat.nrows
    scale = 1
    for row in mat.rows:
        for e in row:
            scale = math.lcm(scale, int(Rat(e[0]).denominator))
    ints = [[int(Rat(e[0]) * scale) for e in row] for row in mat.rows]
    coeff_lists = [[[R0] * (k + 1) for _ in range(n)] for _ in range(n)]
    cur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    denom = 1
    for power in range(k + 1):
        if power:
            denom *= scale
        alive = False
        for s in range(n):
            crow = cur[s]
            for t in range(n):
                v = crow[t]
                if v:
                    alive = True
                    coeff_lists[s][t][power] = Rat(v, denom)
        if not alive:
            break
        if power < k:
            nxt = [[0] * n for _ in range(n)]
            for s in range(n):
                crow = cur[s]
                orow = nxt[s]
                for m in range(n):
                    a = crow[m]
                    if a:
                        irow = ints[m]
                        for t in range(n):
                            b = irow[t]
                            if b:
                                orow[t] += a * b
            cur = nxt
    # entries no walk of length <= k reaches share the zero polynomial, so
    # a stored power sum holds no per-entry zero objects
    zero = UniPoly.zero()
    return PolyMatrix(
        [[p if p else zero for p in map(UniPoly, row)] for row in coeff_lists]
    )


# -- walk counting --------------------------------------------------------


def walk_count_dp(weights: RatMatrix, s: int, t: int, ell: int) -> UniPoly:
    """Generating polynomial of s-to-t walk weights up to length ell.

    weights is the (possibly directed, possibly non-stochastic) adjacency
    weight matrix; the coefficient of x^j is the total weight of length-j
    walks, computed by the obvious dynamic program over walk length.
    """
    if not weights.is_square:
        raise ValueError("walk counting needs a square weight matrix")
    n = weights.nrows
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("walk endpoints out of range")
    if ell < 0:
        raise ValueError("negative walk length")
    vec = [R1 if v == s else R0 for v in range(n)]
    coeffs = [vec[t]]
    for _ in range(ell):
        nxt = [R0] * n
        for u in range(n):
            a = vec[u]
            if a == 0:
                continue
            wrow = weights.rows[u]
            for v in range(n):
                w = wrow[v]
                if w != 0:
                    nxt[v] += a * w
        vec = nxt
        coeffs.append(vec[t])
    return UniPoly(coeffs)


# -- determinants ---------------------------------------------------------


def det_bareiss(m: RatMatrix) -> Rat:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first; Bareiss keeps every intermediate an
    integer minor, so the only divisions are exact.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return R1
    denom = 1
    a = []
    for row in m.rows:
        scale = 1
        for v in row:
            scale = math.lcm(scale, int(Rat(v).denominator))
        denom *= scale
        a.append([int(Rat(v) * scale) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return R0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return Rat(sign * a[n - 1][n - 1], denom)


# -- conductance ----------------------------------------------------------


@dataclass(frozen=True)
class CutReport:
    best_set: tuple
    phi: Rat


def conductance_bruteforce(g: DynGraph) -> CutReport:
    """Exact conductance by enumerating every cut with |S| <= n/2.

    Phi(S) = cut(S) / (2 d |S|), minimized exhaustively.  Refuses above 20
    vertices; the enumeration is exponential and meant for desk sizes only.
    """
    n = g.n
    if n > 20:
        raise ValueError(f"refusing conductance enumeration for n={n} > 20")
    if n < 2:
        raise ValueError("conductance needs at least two vertices")
    adj_mask = [0] * n
    for u, v in g.adjacency:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    full = (1 << n) - 1
    best_phi = None
    best_mask = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if 2 * size > n:
            continue
        outside = full & ~mask
        cut = 0
        rest = mask
        while rest:
            low = rest & -rest
            cut += (adj_mask[low.bit_length() - 1] & outside).bit_count()
            rest ^= low
        phi = Rat(cut, 2 * g.d * size)
        if best_phi is None or phi < best_phi:
            best_phi = phi
            best_mask = mask
    members = tuple(v for v in range(n) if best_mask >> v & 1)
    return CutReport(members, best_phi)


# -- second eigenvalue ----------------------------------------------------


@dataclass(frozen=True)
class EigenBracket:
    lower: Rat
    upper: Rat

    @property
    def width(self) -> Rat:
        return self.upper - self.lower


def _polydivmod(f: list, g: list):
    # plain long division over the rationals, ascending coefficient lists
    f = list(f)
    dg = len(g) - 1
    while g and g[-1] == 0:
        g = g[:-1]
        dg -= 1
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = 1 / g[-1]
    q = [R0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and any(c != 0 for c in f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        shift = len(f) - 1 - dg
        c = f[-1] * inv_lead
        q[shift] = c
        for i in range(dg + 1):
            f[shift + i] -= c * g[i]
        f.pop()
    return q, f


def _primitive(coeffs: list) -> list:
    """Scale a rational coefficient list to coprime integers, keeping signs."""
    denom = 1
    for c in coeffs:
        denom = math.lcm(denom, int(Rat(c).denominator))
    ints = [int(Rat(c) * denom) for c in coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _trimmed(ints: list) -> list:
    while ints and ints[-1] == 0:
        ints = ints[:-1]
    return ints


def _poly_gcd(a: list, b: list) -> list:
    # primitive remainder sequence on integer coefficient lists
    a, b = _trimmed(a), _trimmed(b)
    while b:
        _, r = _polydivmod([Rat(c) for c in a], [Rat(c) for c in b])
        a, b = b, _trimmed(_primitive(r))
    return a


def _square_free(p: UniPoly) -> list:
    ints = _primitive(list(p.coeffs))
    deriv = _trimmed([i * c for i, c in enumerate(ints)][1:] or [])
    g = _poly_gcd(ints, deriv)
    if len(g) <= 1:
        return ints
    q, r = _polydivmod([Rat(c) for c in ints], [Rat(c) for c in g])
    if any(c != 0 for c in r):
        raise AssertionError("gcd failed to divide its polynomial")
    return _primitive(q)


def _sturm_chain(sf_ints: list) -> list:
    chain = [sf_ints]
    deriv = _trimmed([i * c for i, c in enumerate(sf_ints)][1:] or [])
    if deriv:
        chain.append(_primitive([Rat(c) for c in deriv]))
    while len(chain[-1]) > 1:
        _, r = _polydivmod(
            [Rat(c) for c in chain[-2]], [Rat(c) for c in chain[-1]]
        )
        r = _trimmed(r)
        if not any(c != 0 for c in r):
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _sign_at(ints: list, x: Rat) -> int:
    acc = R0
    for c in reversed(ints):
        acc = acc * x + c
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


def _variations(chain: list, x: Rat) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _charpoly(t: RatMatrix) -> UniPoly:
    """Monic det(zI - T) by the Faddeev-LeVerrier trace recurrence.

    With D the lcm of T's denominators, N = D T is an integer matrix whose
    characteristic polynomial sum_l c_l z^l has integer coefficients:
    M_1 = I, c_n = 1, and for k = 1..n, c_(n-k) = -tr(N M_k)/k and
    M_(k+1) = N M_k + c_(n-k) I.  Every M_k is an integer polynomial in
    N, so each division by k is exact, and M_(n+1) = 0 by Cayley-Hamilton.
    Then det(zI - T) = det(DzI - N)/D^n has coefficient l equal to
    c_l / D^(n-l).
    """
    n = t.nrows
    den = math.lcm(*(int(v.denominator) for row in t.rows for v in row))
    # N by rows, each row as its nonzero (column, value) pairs
    nz = [
        [(j, int(v * den)) for j, v in enumerate(row) if v != 0] for row in t.rows
    ]
    c = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = []
        for row in nz:
            acc = [0] * n
            for j, v in row:
                acc = [a + v * b for a, b in zip(acc, m[j])]
            prod.append(acc)
        c_k, rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        if rem:
            raise AssertionError("trace recurrence left a remainder")
        c[n - k] = c_k
        for i in range(n):
            prod[i][i] += c_k
        m = prod
    if any(any(row) for row in m):
        raise AssertionError("characteristic polynomial fails Cayley-Hamilton")
    return UniPoly([Rat(c_l, den ** (n - l)) for l, c_l in enumerate(c)])


def _deflated_charpoly(t: RatMatrix) -> UniPoly:
    n = t.nrows
    if not t.is_square or n < 2:
        raise ValueError("needs a square matrix with at least two rows")
    for i in range(n):
        if sum(t.rows[i], R0) != 1:
            raise ValueError("matrix is not row-stochastic")
        for j in range(i + 1, n):
            if t.rows[i][j] != t.rows[j][i]:
                raise ValueError("matrix is not symmetric")
    q, r = _polydivmod(list(_charpoly(t).coeffs), [-R1, R1])
    if any(c != 0 for c in r):
        raise AssertionError("eigenvalue one missing from a stochastic matrix")
    return UniPoly(q)


def second_eigenvalue(t: RatMatrix, tol: Rat) -> EigenBracket:
    """Bracket the second largest eigenvalue of a symmetric stochastic T.

    The characteristic polynomial is deflated by its guaranteed root at
    one, and the largest root of the quotient (all roots are real, by
    symmetry) is isolated by bisection with exact Sturm-chain root counts.
    The returned bracket satisfies lower <= lambda <= upper with width at
    most tol, collapsing to zero width when the root is hit exactly.
    """
    tol = Rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    q = _deflated_charpoly(t)
    if q.eval(R1) == 0:
        return EigenBracket(R1, R1)
    chain = _sturm_chain(_square_free(q))
    hi = R1
    lo = Rat(-2)
    v_hi = _variations(chain, hi)
    if _variations(chain, lo) - v_hi < 1:
        raise AssertionError("no eigenvalue found below one")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _variations(chain, mid) - v_hi >= 1:
            lo = mid
        elif _sign_at(chain[0], mid) == 0:
            # no roots above mid and mid itself is one: the root is hit
            return EigenBracket(mid, mid)
        else:
            hi = mid
    if lo < -1:
        lo = Rat(-1)
    return EigenBracket(lo, hi)


def eigencompare(t: RatMatrix, x: Rat) -> int:
    """Exact sign of (second eigenvalue - x): -1, 0, or +1.

    Powered by the same Sturm machinery as the bracketer but with no
    tolerance in sight, so spectral inequalities can be asserted exactly.
    """
    x = Rat(x)
    q = _deflated_charpoly(t)
    if q.eval(R1) == 0:
        return (1 > x) - (1 < x)
    sf = _square_free(q)
    chain = _sturm_chain(sf)
    if x >= 1:
        return -1
    if _variations(chain, x) - _variations(chain, R1) >= 1:
        return 1
    if _sign_at(sf, x) == 0:
        return 0
    return -1
