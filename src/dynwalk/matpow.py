"""Matrix powers through determinants, remainders, and interpolation.

Two layers, the second reusing the first:

* ``small_powers_via_series``: entries of A^0..A^m read off from the power
  series expansion of (I - zA)^{-1}.  Each entry series is a Cramer ratio
  adj(I - zA)[s, t] / det(I - zA); both polynomials are interpolated from
  one fraction-free Gauss-Jordan elimination per grid point, and the
  series is the adjugate entry times ``poly.series_inverse`` of the
  determinant, never an explicit inverse of a polynomial matrix.
* ``_grid_power_sum``: sum_i w_i(x) M(x)^i for a polynomial matrix, from
  one power table per point of one rational grid.  A polynomial
  sum_i w_i z^i of degree at least the dimension is first reduced modulo
  the characteristic polynomial, the reversal of the table's det(I - zM),
  so only powers below the dimension are formed.  ``power_large`` (one
  power M(x)^k) and the cascade route of ``power_sum`` (the truncated
  resolvent sum used by the dynamic layer) are both this one loop.

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
from .poly import UniPoly, divide_monic, EvalGrid, interpolate, series_inverse
from .linalg import (
    PolyMatrix,
    RatMatrix,
    charpoly,  # noqa: F401 - unused here; bench/layers.py traces matpow.charpoly
    det_poly,  # noqa: F401 - unused here; bench/layers.py traces matpow.det_poly
)

__all__ = [
    "PowerTable",
    "small_powers_via_series",
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
    divided by det(I - zA), whose constant term is det(I) = 1, so its
    coefficients up to z^max_power, the walk sums A^i[s, t], are the
    numerator times the truncated series inverse of the determinant.  Both
    polynomials have degree at most n, so they are interpolated from the
    n+1 points z_i = i/(3n)^2 of one grid, at each of which one elimination
    yields the determinant and all n^2 Cramer numerators.  Every z_i is
    below one, so I - z_i A is strictly diagonally dominant and invertible.
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
    inv = series_inverse(d_series, max_power)
    powers = [RatMatrix.zeros(n, n) for _ in range(max_power + 1)]
    for s in range(n):
        for t in range(n):
            numer = interpolate(grid, [adj[s][t] for adj in adjs])
            series = numer.mul_mod_deg(inv, max_power)
            for i in range(max_power + 1):
                powers[i].rows[s][t] = series[i]
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


def _grid_power_sum(mat: PolyMatrix, poly_at, degree: int) -> PolyMatrix:
    """sum_i w_i(x) mat(x)^i, interpolated from one grid of degree + 1 points.

    poly_at(x) is p_x(z) = sum_i w_i(x) z^i, and degree bounds the degree
    in x of every entry of the result.  At each point with p_x nonzero,
    M_x = mat(x) gets one power table up to min(deg p_x, n-1).  When
    deg p_x >= n, p_x is first reduced modulo the characteristic polynomial
    chi_x, the reversal of the table's det(I - zM_x) = z^n chi_x(1/z):
    by Cayley-Hamilton the remainder, of degree below n, takes the same
    value at M_x.  Each entry is then interpolated once.
    """
    n = mat.nrows
    grid = EvalGrid(degree + 1)
    per_point = []
    for x in grid.points:
        p = poly_at(x)
        terms = []
        if p:
            table = small_powers_via_series(mat.eval_at(x), min(p.degree, n - 1))
            if p.degree >= n:
                _, p = divide_monic(p, table.det_series.reversed_at(n))
            terms = [(c, table[j].rows) for j, c in enumerate(p.coeffs) if c]
        per_point.append(
            [
                [sum((c * m[s][t] for c, m in terms), R0) for t in range(n)]
                for s in range(n)
            ]
        )
    return PolyMatrix(
        [
            [interpolate(grid, [v[s][t] for v in per_point]) for t in range(n)]
            for s in range(n)
        ]
    )


def power_large(mat: PolyMatrix, k: int) -> PolyMatrix:
    """mat(x)^k for a polynomial matrix, without forming k products.

    Preconditions: entries have degree at most d with constant terms of
    magnitude at most 1/(3n), and k >= 1.  This is ``_grid_power_sum`` of
    p_x(z) = z^k on the d*k + 1 points x_i = i/(3dk)^2.  Contract errors
    from the inner layers propagate: if an evaluated matrix violates the
    small-power magnitude bound, that is the caller's instance to fix.
    """
    if not mat.is_square:
        raise ValueError("powering a non-square matrix")
    n = mat.nrows
    if n < 1:
        raise ValueError("empty matrix")
    if k < 1:
        raise ValueError("power must be at least one")
    cap = Rat(1, 3 * n)
    for row in mat.rows:
        for e in row:
            if abs(e[0]) > cap:
                raise ValueError(
                    "constant term exceeds 1/(3n); not an admissible instance"
                )
    z_to_k = UniPoly.monomial(1, k)
    return _grid_power_sum(mat, lambda x: z_to_k, max(mat.max_degree, 0) * k)


def power_sum(mat: PolyMatrix, k: int, method: str = "direct") -> PolyMatrix:
    """I + (xM) + (xM)^2 + ... + (xM)^k with entries cut mod x^(k+1).

    ``method="direct"`` accumulates successive truncated products and stops
    early once a power vanishes under the truncation (each factor of xM
    raises the minimum degree, so termination is certain).
    ``method="charpoly"`` is the cascade path, selected by the dynamic
    layer for oversized gadget cores.  Those carry walk sums and need not
    meet ``power_large``'s magnitude preconditions, so M is first divided
    by the least power of two c = 2^e with sum of |coefficients| <= c/(3n)
    in every entry, which bounds every evaluation on [0, 1] by 1/(3n).
    The terms i = 1..i_max that survive the truncation are then one
    ``_grid_power_sum`` of p_x(z) = sum_i (c x z)^i over M/c, since
    (c x)^i (M/c)(x)^i = x^i M(x)^i exactly; its entries have degree at
    most (d+1) i_max and are cut mod x^(k+1).  Any input therefore gives
    the same sum as the direct route.
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
        i_max = k // (1 + min(e.low_degree() for e in entries))

        def poly_at(x):  # sum of (c x z)^i for i = 1..i_max
            return UniPoly([R0] + [(c * x) ** i for i in range(1, i_max + 1)])

        degree = (max(mat.max_degree, 0) + 1) * i_max
        return total.add(_grid_power_sum(scaled, poly_at, degree).truncated(k))
    raise ValueError(f"unknown power_sum method {method!r}")
