"""Matrix powers through determinants, remainders, and interpolation.

Three layers, each reused by the next:

* ``small_powers_via_series``: entries of A^0..A^m read off from the power
  series expansion of (I - zA)^{-1}.  Each entry series is a Cramer ratio
  adj(I - zA)[s, t] / det(I - zA); both polynomials are interpolated from
  one fraction-free Gauss-Jordan elimination per grid point, and the
  series coefficients come out of a unit lower triangular convolution
  solve, never an explicit inverse of a polynomial matrix.
* ``power_large``: M(x)^k for a polynomial matrix by evaluating on a
  rational grid, reducing z^k modulo the characteristic polynomial at each
  point (so only powers below the dimension are ever formed), and
  interpolating the entries back.  The characteristic polynomial is the
  coefficient reversal of det(I - zM), which the power table at that point
  has already interpolated, so no separate determinant is taken.
* ``power_sum``: the truncated resolvent sum I + xM + (xM)^2 + ... used by
  the dynamic layer, computable either directly or through ``power_large``.

``power_sum`` brings any input within the magnitude preconditions of the
charpoly route by an exact power-of-two prescale.  ``power_large`` and
``small_powers_via_series`` enforce their bounds (constant terms at most
1/(3n), absolute row sums below one after evaluation) and do not repair
them: an input outside them is a contract error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import R0, Rat
from .poly import UniPoly, divide_monic, EvalGrid, interpolate
from .linalg import (
    PolyMatrix,
    RatMatrix,
    charpoly,  # noqa: F401 - unused here; bench/layers.py traces matpow.charpoly
    det_poly,  # noqa: F401 - unused here; bench/layers.py traces matpow.det_poly
    solve_unit_lower_triangular,
)

__all__ = [
    "PowerTable",
    "small_powers_via_series",
    "series_convolution_matrix",
    "power_large",
    "power_sum",
    "naive_power",
]


@dataclass
class PowerTable:
    """Matrix powers A^0 .. A^m, all exact, with det(I - zA).

    ``det_series`` is the degree <= n polynomial det(I - zA) the powers
    were solved from; its reversal of order n is the characteristic
    polynomial det(zI - A).
    """

    det_series: UniPoly
    powers: list

    def __getitem__(self, i: int) -> RatMatrix:
        return self.powers[i]

    def __len__(self) -> int:
        return len(self.powers)


def series_convolution_matrix(d_series: UniPoly, size: int) -> RatMatrix:
    """The unit lower triangular matrix M with M[i][k] = d_series[i-k].

    d_series must have constant term one (it is det(I - zA), whose constant
    term is det(I) = 1), which makes the matrix unit diagonal and its
    determinant one regardless of the entries of A.
    """
    if d_series[0] != 1:
        raise ValueError("series must have constant term one")
    rows = []
    for i in range(size):
        rows.append([d_series[i - k] if k <= i else Rat(0) for k in range(size)])
    return RatMatrix(rows)


def _det_and_adjugate(mat: RatMatrix):
    """det(mat) and adj(mat) from one fraction-free Gauss-Jordan elimination.

    The matrix is scaled to integers by its common denominator c and the
    augmented [c*mat | I] is eliminated Bareiss-style: every division is
    exact, and at the end the left block is det(c*mat) * I and the right
    block is adj(c*mat).  No row exchanges are made, so every leading
    principal minor must be nonzero; callers pass strictly diagonally
    dominant matrices, for which that always holds.
    """
    n = mat.nrows
    c = math.lcm(*(v.denominator for row in mat.rows for v in row))
    a = [
        [v.numerator * (c // v.denominator) for v in row]
        + [1 if j == i else 0 for j in range(n)]
        for i, row in enumerate(mat.rows)
    ]
    prev = 1
    for k in range(n):
        krow = a[k]
        p = krow[k]
        if p == 0:
            raise AssertionError("zero pivot in a diagonally dominant matrix")
        for i in range(n):
            if i == k:
                continue
            irow = a[i]
            f = irow[k]
            for j in range(2 * n):
                irow[j] = (p * irow[j] - f * krow[j]) // prev
        prev = p
    det = Rat(prev, c**n)
    adj_den = c ** (n - 1)
    adj = [[Rat(v, adj_den) for v in row[n:]] for row in a]
    return det, adj


def small_powers_via_series(mat: RatMatrix, max_power: int) -> PowerTable:
    """Entries of mat^0..mat^max_power via the resolvent series.

    Preconditions: the matrix is square, max_power <= n, and every absolute
    row sum is below one (strict contraction, so the resolvent series is
    honest; raw transition matrices sit exactly at one and must be rescaled
    or evaluated first).  For each entry (s, t) the series
    (I - zA)^{-1}[s, t] equals the Cramer numerator adj(I - zA)[s, t]
    divided by det(I - zA); matching coefficients of that identity gives a
    unit lower triangular system whose solution lists the walk sums
    A^i[s, t].  Both polynomials have degree at most n, so they are
    interpolated from the n+1 points z_i = i/(3n)^2 of one grid, at each
    of which one elimination yields the determinant and all n^2 Cramer
    numerators.  Every z_i is below one, so I - z_i A is strictly
    diagonally dominant and invertible.
    """
    if not mat.is_square:
        raise ValueError("power table needs a square matrix")
    n = mat.nrows
    if n < 1:
        raise ValueError("empty matrix")
    if max_power > n:
        raise ValueError("max_power exceeds the dimension")
    if max_power < 0:
        raise ValueError("negative power")
    for row in mat.rows:
        if sum(abs(v) for v in row) >= 1:
            raise ValueError(
                "row sum reaches one; evaluate or rescale before powering"
            )
    grid = EvalGrid(n + 1)
    dets, adjs = [], []
    for z in grid.points:
        resolvent = RatMatrix(
            [
                [(1 if i == j else 0) - z * a for j, a in enumerate(row)]
                for i, row in enumerate(mat.rows)
            ]
        )
        det, adj = _det_and_adjugate(resolvent)
        dets.append(det)
        adjs.append(adj)
    d_series = interpolate(grid, dets)
    if d_series[0] != 1:
        raise AssertionError("det(I - zA) lost its unit constant term")
    conv = series_convolution_matrix(d_series, max_power + 1)
    powers = [RatMatrix.zeros(n, n) for _ in range(max_power + 1)]
    for s in range(n):
        for t in range(n):
            numer = interpolate(grid, [adj[s][t] for adj in adjs])
            rhs = [numer[i] for i in range(max_power + 1)]
            series = solve_unit_lower_triangular(conv, rhs)
            for i, v in enumerate(series):
                powers[i].rows[s][t] = v
    table = PowerTable(d_series, powers)
    if table.powers[0] != RatMatrix.identity(n):
        raise AssertionError("zeroth power failed to come out as identity")
    return table


def naive_power(mat: PolyMatrix, k: int) -> PolyMatrix:
    """Plain repeated multiplication, used as the cross-checking route."""
    if not mat.is_square:
        raise ValueError("powering a non-square matrix")
    out = PolyMatrix.identity(mat.nrows)
    for _ in range(k):
        out = out.mul(mat)
    return out


def power_large(mat: PolyMatrix, k: int) -> PolyMatrix:
    """mat(x)^k for a polynomial matrix, without forming k products.

    Preconditions: entries have degree at most d with constant terms of
    magnitude at most 1/(3n), and k >= 1.  At each point x_i = i/(3dk)^2 of
    the evaluation grid the scalar matrix M_i gets one power table
    M_i^0..M_i^min(k, n-1).  For k < n the answer at that point is the
    table's last entry.  Otherwise z^k is reduced modulo the characteristic
    polynomial chi_i (Cayley-Hamilton: the remainder r_i has degree below
    n, so r_i(M_i) needs only the table), and chi_i is read off the table
    as the reversal of det(I - zM_i) = z^n chi_i(1/z).  The degree <= dk
    entries of the result are recovered by exact interpolation.

    Contract errors from the inner layers propagate: if an evaluated matrix
    violates the small-power magnitude bound, that is the caller's instance
    to fix.
    """
    if not mat.is_square:
        raise ValueError("powering a non-square matrix")
    n = mat.nrows
    if n < 1:
        raise ValueError("empty matrix")
    if k < 1:
        raise ValueError("power must be at least one")
    d = max(mat.max_degree, 0)
    cap = Rat(1, 3 * n)
    for row in mat.rows:
        for e in row:
            if abs(e[0]) > cap:
                raise ValueError(
                    "constant term exceeds 1/(3n); not an admissible instance"
                )
    target = d * k
    grid = EvalGrid(target + 1, max(1, 3 * target))
    z_to_k = UniPoly.monomial(1, k)
    per_point = []
    for x in grid.points:
        table = small_powers_via_series(mat.eval_at(x), min(k, n - 1))
        if k < n:
            per_point.append(table[k])
            continue
        _, remainder = divide_monic(z_to_k, table.det_series.reversed_at(n))
        acc = RatMatrix.zeros(n, n)
        for j in range(remainder.degree + 1):
            c = remainder[j]
            if c == 0:
                continue
            pj = table[j]
            for s in range(n):
                arow = acc.rows[s]
                prow = pj.rows[s]
                for t in range(n):
                    arow[t] += c * prow[t]
        per_point.append(acc)
    rows = []
    for s in range(n):
        row = []
        for t in range(n):
            row.append(interpolate(grid, [pp.rows[s][t] for pp in per_point]))
        rows.append(row)
    return PolyMatrix(rows)


def power_sum(mat: PolyMatrix, k: int, method: str = "direct") -> PolyMatrix:
    """I + (xM) + (xM)^2 + ... + (xM)^k with entries cut mod x^(k+1).

    ``method="direct"`` accumulates successive truncated products and stops
    early once a power vanishes under the truncation (each factor of xM
    raises the minimum degree, so termination is certain).
    ``method="charpoly"`` routes every power through ``power_large``; this is
    the cascade path, selected by the dynamic layer for oversized gadget
    cores.  Those carry walk sums and need not meet ``power_large``'s
    magnitude preconditions, so M is first divided by the least power of
    two c = 2^e with sum of |coefficients| <= c/(3n) in every entry, which
    bounds every evaluation on [0, 1] by 1/(3n).  Each term (xM)^i is then
    reassembled exactly as (c^i x^i) (M/c)^i, so any input gives the same
    sum as the direct route.
    """
    if not mat.is_square:
        raise ValueError("power sum of a non-square matrix")
    n = mat.nrows
    if k < 0:
        raise ValueError("negative truncation")
    total = PolyMatrix.identity(n)
    if n == 0 or k == 0 or mat.is_zero():
        return total
    if method == "direct":
        shifted = mat.scale_poly(UniPoly.x(), trunc=k)
        term = shifted
        i = 1
        while i <= k and not term.is_zero():
            total = total.add(term)
            i += 1
            if i <= k:
                term = term.mul(shifted, trunc=k)
        return total
    if method == "charpoly":
        entries = [e for row in mat.rows for e in row if e]
        bound = max(sum((abs(c) for c in e.coeffs), R0) for e in entries)
        c = 1
        while bound * 3 * n > c:
            c *= 2
        scaled = PolyMatrix([[e.scale(Rat(1, c)) for e in row] for row in mat.rows])
        # x^i M^i contributes nothing once the minimum entry degree pushes
        # every coefficient past the truncation
        min_low = min(e.low_degree() for e in entries)
        for i in range(1, k // (1 + min_low) + 1):
            mk = power_large(scaled, i)
            term = mk.scale_poly(UniPoly.monomial(Rat(c) ** i, i), trunc=k)
            total = total.add(term)
        return total
    raise ValueError(f"unknown power_sum method {method!r}")
