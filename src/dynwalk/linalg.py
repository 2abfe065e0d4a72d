"""Exact matrix kernels: rational, polynomial, and prime-field matrices.

Three determinant routes live here:

* ``det_mod_p``: Gaussian elimination over Z_p.
* ``det_rational_crt``: exact rational determinant by clearing denominators,
  taking residues modulo enough primes above 2**16 to cover twice the
  Hadamard bound, and CRT reconstruction.
* ``det_poly``: determinant of a polynomial matrix by evaluation on a
  rational grid, rational determinants per point, and exact interpolation.

``charpoly`` (built on ``det_poly``) is tested API off the production
path: nothing in the library calls it, and it stays because the
benchmark's layer trace binds it as ``matpow.charpoly``.  The oracle
computes its own characteristic polynomial by a trace recurrence.  The
power machinery in :mod:`dynwalk.matpow` takes none of these
determinants, only the matrix containers: one fraction-free
elimination per grid point yields det(I - uA) and all n^2 Cramer
numerators at once, and the characteristic polynomial is the reversal of
det(I - uA).

``ScaledMatrix`` is the integer working form of the power machinery and
of the dynamic layer's cascade: integer entries, or integer coefficient
lists, over one common denominator, so that a product costs integer
multiplications only and no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import R0, R1, Rat
from .poly import EvalGrid, IntPoly, UniPoly, interpolate

__all__ = [
    "RatMatrix",
    "PolyMatrix",
    "ScaledMatrix",
    "ModMatrix",
    "det_mod_p",
    "det_rational_crt",
    "det_poly",
    "charpoly",
    "primes_above",
]


class RatMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [[Rat(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def from_rat_rows(rows) -> "RatMatrix":
        """A matrix over ``rows`` as given, without coercing each entry.

        Every entry must already be a Rat; the row lists are kept, not
        copied, so the caller must not reuse them.
        """
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        if not all(type(v) is Rat for r in rows for v in r):
            raise TypeError("entries must be Rat")
        out = RatMatrix.__new__(RatMatrix)
        out.rows, out.nrows, out.ncols = rows, len(rows), ncols
        return out

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[R1 if i == j else R0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix([[R0] * ncols for _ in range(nrows)])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if isinstance(other, RatMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        return f"RatMatrix({self.rows!r})"

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        out = [[R0] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            srow = self.rows[i]
            orow = out[i]
            for k in range(self.ncols):
                a = srow[k]
                if a == 0:
                    continue
                brow = other.rows[k]
                for j in range(other.ncols):
                    b = brow[j]
                    if b != 0:
                        orow[j] += a * b
        return RatMatrix(out)

    def add(self, other: "RatMatrix") -> "RatMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def max_denominator_bits(self) -> int:
        bits = 0
        for row in self.rows:
            for v in row:
                bits = max(bits, (int(v.denominator) - 1).bit_length())
        return bits


class PolyMatrix:
    """Dense matrix with UniPoly entries; may be rectangular."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [
            [e if isinstance(e, UniPoly) else UniPoly.constant(e) for e in row]
            for row in rows
        ]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        one, zero = UniPoly.one(), UniPoly.zero()
        return PolyMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "PolyMatrix":
        zero = UniPoly.zero()
        return PolyMatrix([[zero] * ncols for _ in range(nrows)])

    @staticmethod
    def from_rational(m: RatMatrix) -> "PolyMatrix":
        """Constant polynomials; zero entries share the zero polynomial."""
        zero = UniPoly.zero()
        return PolyMatrix(
            [[UniPoly.constant(v) if v else zero for v in row] for row in m.rows]
        )

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def max_degree(self) -> int:
        d = -1
        for row in self.rows:
            for e in row:
                if e.degree > d:
                    d = e.degree
        return d

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if isinstance(other, PolyMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"

    def mul(self, other: "PolyMatrix", trunc: int | None = None) -> "PolyMatrix":
        """Matrix product; with ``trunc`` every entry is cut mod x^(trunc+1)."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        zero = UniPoly.zero()
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            srow = self.rows[i]
            orow = out[i]
            for k in range(self.ncols):
                a = srow[k]
                if not a:
                    continue
                brow = other.rows[k]
                for j in range(other.ncols):
                    b = brow[j]
                    if b:
                        p = a.mul_mod_deg(b, trunc) if trunc is not None else a * b
                        orow[j] = orow[j] + p
        return PolyMatrix(out)

    def add(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def scale_poly(self, p: UniPoly, trunc: int | None = None) -> "PolyMatrix":
        if trunc is not None:
            return PolyMatrix(
                [[p.mul_mod_deg(e, trunc) for e in row] for row in self.rows]
            )
        return PolyMatrix([[p * e for e in row] for row in self.rows])

    def eval_at(self, point) -> RatMatrix:
        point = Rat(point)
        return RatMatrix([[e.eval(point) for e in row] for row in self.rows])


class ScaledMatrix:
    """A matrix of integers over one positive common denominator.

    The exact matrix is rows / den.  A constant matrix holds ints (the
    form a power table takes); a polynomial matrix holds IntPoly entries,
    the zero entry being the empty IntPoly (the form ``power_sum`` takes).
    Rationals enter through ``of_rats`` and ``of_polys``, which clear one
    denominator for the whole block, and leave through ``to_poly``; the
    dynamic layer's cascade builds its core from packed ints and packs the
    result's integer rows back, so it crosses no Rat at all.  Every
    product in between is integer arithmetic, and a product's denominator
    is the product of its factors' denominators.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows, den: int = 1):
        self.rows = rows
        self.den = den

    @staticmethod
    def of_rats(rows) -> "ScaledMatrix":
        """Rows of rationals as ints over their common denominator."""
        den = math.lcm(*(v.denominator for row in rows for v in row))
        return ScaledMatrix(
            [[v.numerator * (den // v.denominator) for v in row] for row in rows], den
        )

    @staticmethod
    def of_polys(rows, trunc: int) -> "ScaledMatrix":
        """Rows of UniPoly cut mod x^(trunc+1), as IntPoly entries over one denominator.

        The common denominator clears only the coefficients the cut keeps.
        Zero entries, and entries the cut leaves zero, all share the one
        empty IntPoly.
        """
        top = max(trunc + 1, 0)
        cut = [[e.coeffs[:top] for e in row] for row in rows]
        den = math.lcm(*(c.denominator for row in cut for e in row for c in e))
        return ScaledMatrix(
            [
                [
                    IntPoly([c.numerator * (den // c.denominator) for c in e]) or _EMPTY
                    if e
                    else _EMPTY
                    for e in row
                ]
                for row in cut
            ],
            den,
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def to_poly(self) -> PolyMatrix:
        """The PolyMatrix of a polynomial ScaledMatrix; zeros share one object."""
        zero, den = UniPoly.zero(), self.den
        return PolyMatrix(
            [
                [UniPoly([Rat(v, den) for v in e]) if e else zero for e in row]
                for row in self.rows
            ]
        )

    def mul(self, other: "ScaledMatrix", trunc: int) -> "ScaledMatrix":
        """Polynomial matrix product with every entry cut mod x^(trunc+1)."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        top = trunc + 1
        out = []
        for arow in self.rows:
            acc = [None] * other.ncols
            for a, brow in zip(arow, other.rows):
                if not a:
                    continue
                a = a[:top]
                for t, b in enumerate(brow):
                    if not b:
                        continue
                    c = acc[t]
                    if c is None:
                        c = acc[t] = [0] * top
                    for i, ai in enumerate(a):
                        if ai:
                            for j, bj in enumerate(b[: top - i], i):
                                c[j] += ai * bj
            out.append([IntPoly(c) if c else _EMPTY for c in acc])
        return ScaledMatrix(out, self.den * other.den)

    def add(self, other: "ScaledMatrix") -> "ScaledMatrix":
        """Polynomial matrix sum, over the lcm of the two denominators."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = []
            for a, b in zip(ra, rb):
                out = [fa * v for v in a] + [0] * (len(b) - len(a))
                for i, v in enumerate(b):
                    out[i] += fb * v
                row.append(IntPoly(out))
            rows.append(row)
        return ScaledMatrix(rows, den)

    def truncated(self, k: int) -> "ScaledMatrix":
        return ScaledMatrix(
            [[IntPoly(e[: k + 1]) for e in row] for row in self.rows], self.den
        )

    def reduced(self) -> "ScaledMatrix":
        """The same matrix over the least common denominator of its entries."""
        rows = self.rows
        g = math.gcd(self.den, *(v for row in rows for e in row for v in e))
        if g == 1:
            return self
        return ScaledMatrix(
            [[IntPoly([v // g for v in e]) if e else e for e in row] for row in rows],
            self.den // g,
        )


_EMPTY = IntPoly()


@dataclass(frozen=True)
class ModMatrix:
    """Square integer matrix with entries reduced modulo a prime."""

    rows: tuple
    p: int

    @staticmethod
    def make(rows, p: int) -> "ModMatrix":
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        reduced = tuple(tuple(int(v) % p for v in row) for row in rows)
        n = len(reduced)
        if any(len(r) != n for r in reduced):
            raise ValueError("ModMatrix must be square")
        return ModMatrix(reduced, p)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def primes_above(floor: int):
    """Yield primes strictly above ``floor`` in increasing order."""
    candidate = floor + 1
    if candidate % 2 == 0:
        candidate += 1
    if floor < 2:
        yield 2
    while True:
        if _is_prime(candidate):
            yield candidate
        candidate += 2


# Residue moduli for CRT determinants: primes above 2**16 so that pivots
# stay invertible for the scaled integer matrices we feed in.  The pool is
# shared and grown on demand; determinants are called in inner loops.
_PRIME_POOL: list[int] = []
_PRIME_GEN = primes_above(1 << 16)


def _primes_with_product_exceeding(target: int):
    out = []
    prod = 1
    i = 0
    while prod <= target:
        if i == len(_PRIME_POOL):
            _PRIME_POOL.append(next(_PRIME_GEN))
        p = _PRIME_POOL[i]
        out.append(p)
        prod *= p
        i += 1
    return out


def det_mod_p(m: ModMatrix) -> int:
    """Determinant over Z_p by Gaussian elimination with row pivoting."""
    p = m.p
    n = len(m.rows)
    if n == 0:
        return 1 % p
    a = [list(row) for row in m.rows]
    det = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = (-det) % p
        pv = a[col][col] % p
        det = (det * pv) % p
        inv = pow(pv, p - 2, p)
        for r in range(col + 1, n):
            factor = (a[r][col] * inv) % p
            if factor == 0:
                continue
            arow = a[r]
            crow = a[col]
            for j in range(col, n):
                arow[j] = (arow[j] - factor * crow[j]) % p
    return det % p


def _hadamard_bound(int_rows) -> int:
    """Integer upper bound on |det| via row norms."""
    bound = 1
    for row in int_rows:
        s = sum(v * v for v in row)
        bound *= math.isqrt(s) + 1
    return bound


def det_rational_crt(m: RatMatrix, b: int) -> Rat:
    """Exact determinant of a rational matrix via residues and CRT.

    ``b`` declares the per-entry denominator budget: every entry must be
    representable with a denominator of at most b bits.  The matrix is
    scaled by the common denominator D, the integer determinant is
    recovered from its residues modulo fresh primes above 2**16 whose
    product exceeds twice the Hadamard bound, and the result is divided
    by D**n.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return R1
    cap = 1 << b
    d = 1
    for row in m.rows:
        for v in row:
            den = int(v.denominator)
            if den > cap:
                raise ValueError(
                    f"entry denominator {den} exceeds the declared {b}-bit budget"
                )
            d = d * den // math.gcd(d, den)
    int_rows = [[int(v * d) for v in row] for row in m.rows]
    bound = _hadamard_bound(int_rows)
    # enough primes that their product certifies the signed value
    primes = _primes_with_product_exceeding(2 * bound)
    # residues and incremental CRT
    det = 0
    modulus = 1
    for p in primes:
        rp = det_mod_p(ModMatrix.make(int_rows, p))
        if modulus == 1:
            det, modulus = rp, p
            continue
        # lift: det' = det + modulus * t with t = (rp - det)/modulus mod p
        t = ((rp - det) * pow(modulus % p, p - 2, p)) % p
        det = det + modulus * t
        modulus *= p
    if det > modulus // 2:
        det -= modulus
    if abs(det) > bound:
        raise AssertionError("reconstructed determinant exceeds its bound")
    return Rat(det, 1) / Rat(d, 1) ** n


def det_poly(m: PolyMatrix) -> UniPoly:
    """Determinant of a square polynomial matrix, exactly.

    Evaluates the matrix on the rational grid i/(3*n*d)^2 with n*d+1 points
    (n the dimension, d the maximum entry degree), takes exact rational
    determinants per point, and interpolates the degree <= n*d result.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return UniPoly.one()
    d = max(m.max_degree, 0)
    target = n * d
    grid = EvalGrid(target + 1, max(1, 3 * target))
    values = []
    for x in grid.points:
        mx = m.eval_at(x)
        values.append(det_rational_crt(mx, mx.max_denominator_bits()))
    return interpolate(grid, values)


def charpoly(m: RatMatrix) -> UniPoly:
    """Monic characteristic polynomial det(zI - M)."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(UniPoly([-m.rows[i][j], R1]))
            else:
                row.append(UniPoly.constant(-m.rows[i][j]))
        rows.append(row)
    out = det_poly(PolyMatrix(rows)) if n else UniPoly.one()
    if not out.is_monic() or out.degree != n:
        raise AssertionError("characteristic polynomial came out non-monic")
    return out

