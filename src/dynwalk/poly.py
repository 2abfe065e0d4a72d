"""Dense univariate polynomials over exact rationals and over integers.

Everything here is exact.  Polynomials are immutable coefficient tuples in
ascending order with no trailing zeros; the zero polynomial is the empty
tuple and reports degree -1 (standing in for minus infinity).  ``UniPoly``
holds Rat coefficients, ``IntPoly`` ints.

The nontrivial algorithms are integer kernels, which the power machinery
calls directly, with thin Rat boundaries for everyone else:

* ``newton_ints``: the unique degree < m polynomials through integer
  values at t = 0..m-1, as integers over (m-1)!, for a whole vector of
  polynomials at once.  The points are equally spaced, so the Newton form
  of the Vandermonde solve reduces to integer forward differences expanded
  in falling factorials (signed Stirling numbers of the first kind), each
  step one pass across all the polynomials.  ``interpolate`` is its Rat
  boundary for a single polynomial: it brings values on a grid i/scale^2
  to one common denominator and makes one Rat per coefficient.
* ``series_inverse``: the truncated power-series inverse of a polynomial
  with constant term one, by its linear recurrence.  On an IntPoly it runs
  in integers; a UniPoly is rescaled to an integer polynomial first.
* ``divide_monic``: division with remainder by a monic polynomial through
  coefficient reversal and ``series_inverse``.  On IntPoly operands it
  runs in integers; UniPoly operands are rescaled to integer ones and the
  quotient and remainder rescaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import R0, R1, Rat

__all__ = [
    "UniPoly",
    "IntPoly",
    "EvalGrid",
    "interpolate",
    "newton_ints",
    "mul_mod_ints",
    "series_inverse",
    "divide_monic",
]


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class IntPoly(tuple):
    """A polynomial with integer coefficients: what the integer kernels pass.

    An immutable tuple of ints in ascending order with no trailing zeros,
    so ``degree`` is -1 for the zero polynomial as for UniPoly.
    ``series_inverse`` and ``divide_monic`` take either kind and answer
    in the kind they were given.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        return super().__new__(cls, _trim(list(coeffs)))

    @property
    def degree(self) -> int:
        return len(self) - 1


class UniPoly:
    """A univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_trim([Rat(c) for c in coeffs]))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return _ZERO

    @staticmethod
    def one() -> "UniPoly":
        return _ONE

    @staticmethod
    def x() -> "UniPoly":
        return _X

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly([Rat(c)])

    @staticmethod
    def of_rats(coeffs) -> "UniPoly":
        """A polynomial over a list whose entries are all Rat already.

        The entries are kept as they are, not coerced; trailing zeros are
        trimmed as usual.
        """
        p = UniPoly.__new__(UniPoly)
        p.coeffs = tuple(_trim(coeffs))
        return p

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return R0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly.of_rats(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly.of_rats([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [R0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj != 0:
                    out[i + j] += ai * bj
        return UniPoly.of_rats(out)

    def mul_mod_deg(self, other: "UniPoly", k: int) -> "UniPoly":
        """Product truncated to degree k: self*other mod x^(k+1)."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        top = min(len(a) + len(b) - 2, k)
        if top < 0:
            return _ZERO
        out = [R0] * (top + 1)
        for i, ai in enumerate(a):
            if ai == 0 or i > top:
                continue
            jmax = min(len(b) - 1, top - i)
            for j in range(jmax + 1):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return UniPoly.of_rats(out)

    def truncated(self, k: int) -> "UniPoly":
        """Drop every term of degree above k."""
        if self.degree <= k:
            return self
        return UniPoly.of_rats(self.coeffs[: k + 1])

    def eval(self, point):
        """Horner evaluation at an exact rational point."""
        point = Rat(point)
        acc = R0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc


_ZERO = UniPoly()
_ONE = UniPoly([R1])
_X = UniPoly([R0, R1])


@dataclass(frozen=True)
class EvalGrid:
    """Rational evaluation points x_i = i / scale**2 for i in 0..count-1.

    The default scale for a grid supporting degree-m interpolation is 3*m,
    giving points i/(3m)^2 in [0, 1) that keep evaluated matrix entries
    small.  Interpolating perturbed values on this grid amplifies the
    perturbation by the Vandermonde inverse norm, which grows with the
    degree; the tests measure that norm exactly per grid and bound the
    coefficient error by norm * 2^-B rather than by 2^-B alone (a plain
    2^-B bound already fails at degree one: noise at the point 1/9 lands
    on the slope multiplied by nine).
    """

    count: int
    scale: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("grid needs at least one point")
        if self.scale == 0:
            object.__setattr__(self, "scale", max(1, 3 * (self.count - 1)))
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    @property
    def points(self):
        s2 = self.scale * self.scale
        return [Rat(i, s2) for i in range(self.count)]


def interpolate(grid: EvalGrid, values) -> UniPoly:
    """The unique polynomial of degree < grid.count through the grid values.

    The Rat boundary of ``newton_ints``, for one polynomial (each value
    is a one-element vector).  With points x_i = i*h,
    h = 1/scale**2, write t = x/h.  The values are brought to integers
    over their common denominator D, and ``newton_ints`` gives integers
    P_j with D*p(x) = sum_j P_j t^j / (m-1)!, so coefficient j is one
    rational: P_j * scale**(2j) / (D * (m-1)!).
    """
    values = [Rat(v) for v in values]
    m = grid.count
    if len(values) != m:
        raise ValueError(f"expected {m} values on the grid, got {len(values)}")
    den = math.lcm(*(v.denominator for v in values))
    acc = newton_ints([[v.numerator * (den // v.denominator)] for v in values])
    total_den = den * math.factorial(m - 1)
    s2 = grid.scale * grid.scale
    coeffs = []
    step = 1
    for (c,) in acc:
        coeffs.append(Rat(c * step, total_den))
        step *= s2
    return UniPoly(coeffs)


def newton_ints(values) -> list:
    """Interpolate many integer polynomials on t = 0..m-1 in one pass.

    values are m integer vectors: vector i holds p(i) for every
    polynomial p, in one fixed order.  The answer is m integer vectors in
    the same order, vector j holding the P_j with
    p(t) = sum_j P_j t^j / (m-1)!.  In Newton form

        p(t) = sum_k (Delta^k p(0) / k!) * t(t-1)...(t-k+1),

    the forward differences Delta^k are integers, and scaling by (m-1)!
    makes every term integral.  The falling factorials are expanded by
    Horner's rule in t (their coefficients are the signed Stirling
    numbers of the first kind), so no step divides.  Each difference and
    each Horner step is one pass over all the polynomials at once.  A
    polynomial with integer coefficients has every P_j divisible by
    (m-1)!.
    """
    m = len(values)
    # leading[k] = Delta^k p(0) * (m-1)!/k!, all integers
    scale = [1] * m
    for k in range(m - 2, -1, -1):
        scale[k] = scale[k + 1] * (k + 1)
    diffs = values
    leading = []
    for f in scale:
        leading.append([f * v for v in diffs[0]])
        diffs = [[b - a for a, b in zip(u, w)] for u, w in zip(diffs, diffs[1:])]
    # Horner over falling factorials: acc <- acc * (t - k) + leading[k]
    acc = [leading[m - 1]]
    for k in range(m - 2, -1, -1):
        nxt = [[c - k * a for c, a in zip(leading[k], acc[0])]]
        for lo, hi in zip(acc, acc[1:]):
            nxt.append([a - k * b for a, b in zip(lo, hi)])
        nxt.append(acc[-1])
        acc = nxt
    return acc


def mul_mod_ints(a, b, k: int) -> list:
    """Integer coefficients of a*b mod x^(k+1), for integer sequences a, b.

    The list has min(len(a) + len(b) - 2, k) + 1 entries and may end in
    zeros; empty when either factor is.
    """
    top = min(len(a) + len(b) - 2, k)
    if top < 0:
        return []
    out = [0] * (top + 1)
    for i, ai in enumerate(a[: top + 1]):
        if ai:
            for j, bj in enumerate(b[: top + 1 - i]):
                out[i + j] += ai * bj
    return out


def series_inverse(f, j: int):
    """The power series 1/f truncated to degree j, for f with f[0] == 1.

    For an IntPoly the unit constant term makes the inverse a linear
    recurrence of order m = deg f: inv[0] = 1 and
    inv[i] = -sum_{l=1..min(i,m)} f[l] * inv[i-l], at O(jm) cost, in
    integers and with no division.  A UniPoly is the Rat boundary: with D
    the common denominator of f, f(Dw) = sum_l f[l] D^l w^l is an integer
    polynomial with constant term one, and 1/f(z) = sum_i inv[i] z^i / D^i
    for inv its inverse.
    """
    if isinstance(f, UniPoly):
        if f[0] != 1:
            raise ValueError("series inverse needs constant term one")
        den = math.lcm(*(c.denominator for c in f.coeffs))
        scaled = [c.numerator * den**l // c.denominator for l, c in enumerate(f.coeffs)]
        inv = series_inverse(IntPoly(scaled), j)
        return UniPoly([Rat(v, den**i) for i, v in enumerate(inv)])
    if f[:1] != (1,):
        raise ValueError("series inverse needs constant term one")
    m = f.degree
    inv = [1]
    for i in range(1, j + 1):
        acc = 0
        for l in range(1, min(i, m) + 1):
            acc -= f[l] * inv[i - l]
        inv.append(acc)
    return IntPoly(inv)


def divide_monic(g, f):
    """Quotient and remainder of g by monic f, with deg r < deg f.

    f must be monic and deg g >= deg f >= 1; g need not be monic.  For
    IntPoly operands the quotient is found by reversing coefficients: the
    reversed quotient is the reversed dividend times the series inverse
    of the reversed divisor f_R, truncated at degree j = deg g - deg f.
    f_R has constant term one because f is monic, so ``series_inverse``
    applies, and every step stays in integers; the remainder falls out as
    g - q*f.

    UniPoly operands are the Rat boundary.  With D and E the common
    denominators of f and g, f~(w) = D^m f(w/D) is a monic integer
    polynomial and g~(w) = E D^n g(w/D) an integer one (m, n the
    degrees).  Dividing g~ by f~ in integers gives q~ and r~, and
    q[l] = q~[l] / (E D^(n-m-l)), r[l] = r~[l] / (E D^(n-l)).
    """
    if isinstance(f, UniPoly):
        if not f.is_monic():
            raise ValueError("divide_monic needs a monic divisor")
        m, n = f.degree, g.degree
        df = math.lcm(*(c.denominator for c in f.coeffs))
        eg = math.lcm(*(c.denominator for c in g.coeffs))
        fi = IntPoly(
            c.numerator * df ** (m - l) // c.denominator for l, c in enumerate(f.coeffs)
        )
        gi = IntPoly(
            c.numerator * (eg // c.denominator) * df ** (n - l)
            for l, c in enumerate(g.coeffs)
        )
        q, r = divide_monic(gi, fi)
        return (
            UniPoly([Rat(v, eg * df ** (n - m - l)) for l, v in enumerate(q)]),
            UniPoly([Rat(v, eg * df ** (n - l)) for l, v in enumerate(r)]),
        )
    if f[-1:] != (1,):
        raise ValueError("divide_monic needs a monic divisor")
    n, m = g.degree, f.degree
    if m < 1:
        raise ValueError("divisor must have degree at least one")
    if n < m:
        raise ValueError("dividend degree below divisor degree")
    j = n - m
    q_rev = mul_mod_ints(series_inverse(IntPoly(f[::-1]), j), g[::-1], j)
    q = q_rev[::-1]
    r = list(g)
    for a, qa in enumerate(q):
        if qa:
            for b, fb in enumerate(f):
                r[a + b] -= qa * fb
    r = IntPoly(r)
    if r.degree >= m:
        raise AssertionError("division produced an oversized remainder")
    return IntPoly(q), r
