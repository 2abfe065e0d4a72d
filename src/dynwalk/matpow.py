"""Matrix powers through determinants, remainders, and interpolation.

Everything here runs on integer matrices over one common denominator
(``linalg.ScaledMatrix``).  Two layers, the second reusing the first:

* ``small_powers_via_series``: for an integer matrix A over a denominator
  delta, the powers A^0..A^m read off from the power series expansion of
  (I - uA)^{-1}, with u = z/delta.  Each entry series is a Cramer ratio
  adj(I - uA)[s, t] / det(I - uA); both are integer polynomials in u,
  interpolated from one fraction-free Gauss-Jordan elimination of the
  integer matrix s^2 delta I - jA per grid point j; the determinant and
  all n^2 adjugate entries go through one ``poly.newton_ints`` pass.
  Power i is the vector sum over l of the u^l adjugate coefficients times
  coefficient i - l of the integer ``poly.series_inverse`` of the
  determinant, whose constant term is one.  No step divides inexactly,
  and (A/delta)^i = A^i / delta^i.
* ``_grid_power_sum``: sum_l a x^b M(x)^l for a polynomial matrix
  M = N/Delta, from one power table per point of one grid x_g = g/X.
  There M(x_g) = A_g/delta with the integer matrix A_g = X^d N(g/X) and
  delta = Delta X^d, the same at every point, so every point's value is
  an integer matrix over one shared denominator and all n^2 entries are
  interpolated in one ``poly.newton_ints`` pass.  A polynomial of degree at
  least the dimension is first reduced modulo the monic integer
  characteristic polynomial of A_g, the reversal of the table's
  det(I - uA_g), so only powers below the dimension are formed.
  ``power_large`` (one power M(x)^k) and ``power_sum`` (the truncated
  resolvent sum, which the dynamic layer takes only for gadget cores
  above its opt-in ``cascade_threshold``) are both this one loop;
  ``power_sum`` first cuts M mod x^k, all that its truncation reads, so
  its grid is sized to the answer.

Rat enters and leaves only at the public edges: a RatMatrix or PolyMatrix
argument is brought to integers over its common denominator once;
``PowerTable`` indexing hands back Rat objects; and
``power_large``, and ``power_sum`` given a PolyMatrix, return a
PolyMatrix.  The dynamic layer's cascade hands ``power_sum`` a
ScaledMatrix and gets one back, so its core power sum builds no Rat.

``power_sum`` brings any input within the magnitude preconditions of
``_grid_power_sum`` by an exact power-of-two prescale.  ``power_large`` and
``small_powers_via_series`` enforce their bounds (constant terms at most
1/(3n), absolute row sums below one after evaluation) and do not repair
them: an input outside them is a contract error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import Rat
from .poly import (
    IntPoly,
    divide_monic,
    EvalGrid,
    interpolate,  # noqa: F401 - unused here; bench/layers.py traces matpow.interpolate
    newton_ints,
    series_inverse,
)
from .linalg import (
    PolyMatrix,
    RatMatrix,
    ScaledMatrix,
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
    """Powers of A/delta for an integer matrix A, with det(I - zA/delta).

    Integers inside: ``powers[i]`` is the integer matrix A^i (rows of
    ints), ``den`` is delta, and ``det`` is the IntPoly det(I - uA) in
    u = z/delta, whose reversal of order n, ``charpoly()``, is the monic
    integer characteristic polynomial det(wI - A).  Rat leaves only here:
    indexing returns the RatMatrix (A/delta)^i.
    """

    det: IntPoly
    powers: list
    den: int

    def charpoly(self) -> IntPoly:
        n = len(self.powers[0])
        return IntPoly((tuple(self.det) + (0,) * (n + 1 - len(self.det)))[::-1])

    def __getitem__(self, i: int) -> RatMatrix:
        scale = self.den**i
        return RatMatrix.from_rat_rows(
            [[Rat(v, scale) for v in row] for row in self.powers[i]]
        )

    def __len__(self) -> int:
        return len(self.powers)


def _det_and_adjugate(a):
    """det(a) and adj(a) of a square integer matrix, by one elimination.

    The augmented [a | I] is eliminated fraction-free, Bareiss-style,
    Gauss-Jordan: every division is exact, the last pivot is det(a) and
    the right block ends as adj(a).  Step k reads only columns right of k,
    so only those are updated.  No row exchanges are made, so every
    leading principal minor must be nonzero; callers pass strictly
    diagonally dominant matrices, for which that always holds.
    """
    n = len(a)
    aug = [
        list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(a)
    ]
    prev = 1
    for k in range(n):
        krow = aug[k]
        p = krow[k]
        if p == 0:
            raise AssertionError("zero pivot in a diagonally dominant matrix")
        tail = krow[k + 1 :]
        for i in range(n):
            if i != k:
                irow = aug[i]
                f = irow[k]
                irow[k + 1 :] = [
                    (p * x - f * y) // prev for x, y in zip(irow[k + 1 :], tail)
                ]
        prev = p
    return prev, [row[n:] for row in aug]


def small_powers_via_series(mat, max_power: int) -> PowerTable:
    """Entries of mat^0..mat^max_power via the resolvent series.

    mat is a RatMatrix, or a ScaledMatrix of ints A over delta.
    Preconditions: the matrix is square, max_power <= n, and every
    absolute row sum is below one (strict contraction, so the resolvent
    series is honest; raw transition matrices sit exactly at one and must
    be rescaled or evaluated first).  For each entry (s, t) the series
    (I - uA)^{-1}[s, t] equals the Cramer numerator adj(I - uA)[s, t]
    divided by det(I - uA), whose constant term is det(I) = 1, so its
    coefficients up to u^max_power, the integer walk sums A^i[s, t], are
    the numerator times the truncated series inverse of the determinant.
    Both are integer polynomials of degree at most n, interpolated from
    the n+1 points z_j = j/(3n)^2 of one grid: there
    (3n)^2 delta (I - z_j A/delta) = (3n)^2 delta I - jA is an integer
    matrix, and one elimination of it yields its determinant and all n^2
    adjugate entries, polynomials in j whose coefficients are those in u
    times powers of (3n)^2 delta.  Every z_j is below one, so the matrix
    is strictly diagonally dominant and invertible.  The determinant and
    the n^2 adjugate entries are interpolated together by one
    ``newton_ints`` call, and power i is formed as one vector sum over
    l <= min(i, n-1) of inv[i-l] times the u^l adjugate coefficients.
    """
    if isinstance(mat, RatMatrix):
        mat = ScaledMatrix.of_rats(mat.rows)
    a, den = mat.rows, mat.den
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("power table needs a square matrix")
    if n < 1:
        raise ValueError("empty matrix")
    if max_power > n:
        raise ValueError("max_power exceeds the dimension")
    if max_power < 0:
        raise ValueError("negative power")
    for row in a:
        if sum(map(abs, row)) >= den:
            raise ValueError(
                "row sum reaches one; evaluate or rescale before powering"
            )
    s2d = EvalGrid(n + 1).scale ** 2 * den
    dets, adjs = [], []
    for j in range(n + 1):
        det, adj = _det_and_adjugate(
            [
                [(s2d if s == t else 0) - j * v for t, v in enumerate(row)]
                for s, row in enumerate(a)
            ]
        )
        dets.append(det)
        adjs.append(adj)
    # one interpolation for det and all n^2 adjugate entries; coefficient
    # l in j of det (of adj) is n! s2d^(n-l) (n! s2d^(n-1-l)) times
    # coefficient l in u
    coeffs = newton_ints(
        [[det] + [v for row in adj for v in row] for det, adj in zip(dets, adjs)]
    )
    fact = math.factorial(n)
    unscale = [fact * s2d ** (n - l) for l in range(n + 1)]
    d_series = IntPoly(vec[0] // q for vec, q in zip(coeffs, unscale))
    if d_series[:1] != (1,):
        raise AssertionError("det(I - zA) lost its unit constant term")
    inv = series_inverse(d_series, max_power)
    # numers[l][s n + t] is the u^l coefficient of adj(I - uA)[s, t]
    numers = [[v // q for v in vec[1:]] for vec, q in zip(coeffs, unscale[1:])]
    powers = []
    for i in range(max_power + 1):
        flat = [0] * (n * n)
        for l in range(max(i - inv.degree, 0), min(i, n - 1) + 1):
            c = inv[i - l]
            if c:
                flat = [f + c * v for f, v in zip(flat, numers[l])]
        powers.append([flat[s * n : (s + 1) * n] for s in range(n)])
    if powers[0] != [[int(s == t) for t in range(n)] for s in range(n)]:
        raise AssertionError("zeroth power failed to come out as identity")
    return PowerTable(d_series, powers, den)


def naive_power(mat: PolyMatrix, k: int) -> PolyMatrix:
    """Plain repeated multiplication, used as the cross-checking route."""
    if not mat.is_square:
        raise ValueError("powering a non-square matrix")
    out = PolyMatrix.identity(mat.nrows)
    for _ in range(k):
        out = out.mul(mat)
    return out


def _grid_power_sum(mat: ScaledMatrix, terms, degree: int) -> ScaledMatrix:
    """sum of a x^b mat(x)^l over terms (l, a, b), from one grid of degree + 1 points.

    mat = N/Delta has IntPoly entries of degree at most d, the a are
    integers, and degree bounds the degree in x of every entry of the
    result.  On the grid x_g = g/X (X = scale^2) mat(x_g) = A_g/delta for
    the integer matrix A_g = X^d N(g/X) and delta = Delta X^d.  With l*
    and b* the largest exponents, the sum at x_g is q_g(A_g)/E for
    E = X^b* delta^l* and the integer polynomial
    q_g(w) = sum a g^b X^(b*-b) delta^(l*-l) w^l.  At each point with q_g
    nonzero, A_g gets one power table up to min(deg q_g, n-1).  When
    deg q_g >= n, q_g is first reduced modulo the monic integer
    characteristic polynomial of A_g (by Cayley-Hamilton the remainder
    takes the same value at A_g).  Every point's value is then an integer
    matrix over the same E, so all n^2 entries are interpolated by one
    ``newton_ints`` call: for P an entry's output, its x^j coefficient is
    P_j X^j / ((m-1)! E).
    """
    n = mat.nrows
    m = degree + 1
    x_den = EvalGrid(m).scale ** 2
    d = max(max(len(e) for row in mat.rows for e in row) - 1, 0)
    delta = mat.den * x_den**d
    l_top = max(l for l, _, _ in terms)
    b_top = max(b for _, _, b in terms)
    zero = [0] * (n * n)
    per_point = []
    for g in range(m):
        q = [0] * (l_top + 1)
        for l, a, b in terms:
            q[l] += a * g**b * x_den ** (b_top - b) * delta ** (l_top - l)
        q = IntPoly(q)
        if not q:
            per_point.append(zero)
            continue
        at_g = [g**j * x_den ** (d - j) for j in range(d + 1)]
        a_g = [[sum(c * w for c, w in zip(e, at_g)) for e in row] for row in mat.rows]
        table = small_powers_via_series(ScaledMatrix(a_g, delta), min(q.degree, n - 1))
        if q.degree >= n:
            _, q = divide_monic(q, table.charpoly())
        terms_g = [(c, table.powers[j]) for j, c in enumerate(q) if c]
        per_point.append(
            [sum(c * p[s][t] for c, p in terms_g) for s in range(n) for t in range(n)]
        )
    x_pows = [x_den**j for j in range(m)]
    coeffs = [[v * xp for v in vec] for vec, xp in zip(newton_ints(per_point), x_pows)]
    entries = [IntPoly(e) for e in zip(*coeffs)]
    rows = [entries[s * n : (s + 1) * n] for s in range(n)]
    return ScaledMatrix(rows, math.factorial(m - 1) * x_den**b_top * delta**l_top)


def power_large(mat: PolyMatrix, k: int) -> PolyMatrix:
    """mat(x)^k for a polynomial matrix, without forming k products.

    Preconditions: entries have degree at most d with constant terms of
    magnitude at most 1/(3n), and k >= 1.  This is ``_grid_power_sum`` of
    the single term z^k on the d*k + 1 points x_i = i/(3dk)^2.  Contract
    errors from the inner layers propagate: if an evaluated matrix
    violates the small-power magnitude bound, that is the caller's
    instance to fix.
    """
    if not mat.is_square:
        raise ValueError("powering a non-square matrix")
    n = mat.nrows
    if n < 1:
        raise ValueError("empty matrix")
    if k < 1:
        raise ValueError("power must be at least one")
    scaled = ScaledMatrix.of_polys(mat.rows, mat.max_degree)
    for row in scaled.rows:
        for e in row:
            if e and abs(e[0]) * 3 * n > scaled.den:
                raise ValueError(
                    "constant term exceeds 1/(3n); not an admissible instance"
                )
    degree = max(mat.max_degree, 0) * k
    return _grid_power_sum(scaled, [(k, 1, 0)], degree).to_poly()


def _identity(n: int) -> ScaledMatrix:
    one, zero = IntPoly((1,)), IntPoly()
    return ScaledMatrix([[one if s == t else zero for t in range(n)] for s in range(n)])


def power_sum(mat, k: int):
    """I + (xM) + (xM)^2 + ... + (xM)^k with entries cut mod x^(k+1).

    M is a PolyMatrix, for which the answer is a PolyMatrix, or a
    polynomial ScaledMatrix, for which it is a ScaledMatrix over the
    least common denominator of its entries; both compute in integers.
    This is the cascade, which the dynamic layer takes for gadget cores
    larger than its opt-in ``cascade_threshold``.  Those carry walk sums
    and need not meet ``power_large``'s magnitude preconditions.  Term i,
    x^i M^i mod x^(k+1), reads only M mod x^(k+1-i), so M is first cut
    mod x^k, which serves every i >= 1; a cut that leaves M zero gives
    the identity.  The cut M is divided by the least power of two c = 2^e
    with sum of |coefficients| <= c/(3n) in every entry, which bounds
    every evaluation on [0, 1] by 1/(3n).  The terms i = 1..i_max that
    survive the truncation are then one ``_grid_power_sum`` of the terms
    (c x)^i z^i over M/c, since (c x)^i (M/c)(x)^i = x^i M(x)^i exactly;
    with d the degree of M, its entries have degree at most
    (min(d, k-1) + 1) i_max and are cut mod x^(k+1).
    """
    if isinstance(mat, PolyMatrix):
        return power_sum(ScaledMatrix.of_polys(mat.rows, k - 1), k).to_poly()
    n = mat.nrows
    if any(len(row) != n for row in mat.rows):
        raise ValueError("power sum of a non-square matrix")
    if k < 0:
        raise ValueError("negative truncation")
    total = _identity(n)
    if n == 0 or k == 0:
        return total
    # x^i M^i mod x^(k+1) reads only M mod x^(k+1-i), so for every
    # i >= 1 the grid needs M only mod x^k
    mat = mat.truncated(k - 1)
    entries = [e for row in mat.rows for e in row if e]
    if not entries:
        return total
    bound = max(sum(map(abs, e)) for e in entries)
    c = 1
    while bound * 3 * n > c * mat.den:
        c *= 2
    # x^i M^i contributes nothing once the minimum entry degree pushes
    # every coefficient past the truncation; every entry left by the cut
    # has low <= k - 1, so i_max >= 1
    low = min(next(j for j, v in enumerate(e) if v) for e in entries)
    i_max = k // (1 + low)
    degree = max(len(e) for e in entries) * i_max
    terms = [(i, c**i, i) for i in range(1, i_max + 1)]
    core = _grid_power_sum(ScaledMatrix(mat.rows, c * mat.den), terms, degree)
    return total.add(core.truncated(k)).reduced()
