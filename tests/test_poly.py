"""Truncated polynomial arithmetic, interpolation, monic division."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dynwalk.numerics import Rat, rat, truncate_to_bits
from dynwalk.poly import (
    EvalGrid,
    IntPoly,
    UniPoly,
    divide_monic,
    interpolate,
    mul_mod_ints,
    newton_ints,
    series_inverse,
)

from conftest import pow2, vandermonde_inverse_norm

small_rats = st.builds(lambda p, q: Rat(p, q), st.integers(-50, 50), st.integers(1, 50))
polys = st.lists(small_rats, min_size=0, max_size=13).map(UniPoly)


def poly_from(*coeffs):
    return UniPoly([Rat(c) for c in coeffs])


def test_constructors_and_degree():
    assert UniPoly().degree == -1
    assert UniPoly.zero() == UniPoly([])
    assert UniPoly.one().degree == 0
    assert UniPoly.x() == poly_from(0, 1)
    assert UniPoly.constant(5) == poly_from(5)
    # trailing zeros trim away
    assert UniPoly([rat(1), rat(0)]).degree == 0


def test_getitem_out_of_range_is_zero():
    p = poly_from(1, 2)
    assert p[5] == 0
    assert p[0] == 1


def test_eval_examples():
    assert poly_from(1, 1).eval(0) == 1
    assert poly_from(1, 0, rat(-1, 4)).eval(2) == 0
    assert poly_from(0, 1, 1).eval(rat(1, 9)) == rat(10, 81)


def test_mul_mod_deg_examples():
    one_plus_x = poly_from(1, 1)
    assert one_plus_x.mul_mod_deg(UniPoly.one(), 4) == one_plus_x
    x2 = poly_from(0, 0, 1)
    assert x2.mul_mod_deg(x2, 3) == UniPoly.zero()
    assert one_plus_x.mul_mod_deg(poly_from(1, -1), 2) == poly_from(1, 0, -1)
    assert one_plus_x.mul_mod_deg(one_plus_x, 1) == poly_from(1, 2)


def test_arithmetic_basics():
    p = poly_from(1, 2, 3)
    q = poly_from(0, -2)
    assert p + q == poly_from(1, 0, 3)
    assert p - p == UniPoly.zero()
    assert -q == poly_from(0, 2)
    assert p * UniPoly.zero() == UniPoly.zero()
    assert p * UniPoly.constant(rat(1, 2)) == poly_from(rat(1, 2), 1, rat(3, 2))
    assert p.truncated(1) == poly_from(1, 2)
    assert p.truncated(9) == p


def test_coefficient_probes():
    p = poly_from(0, 0, rat(-5, 3), 1)
    assert p.is_monic()
    assert not poly_from(1, 2).is_monic()


def test_grid_points():
    g = EvalGrid(2, 3)
    assert g.points == [rat(0), rat(1, 9)]
    # default scale for m+1 points is 3m
    g9 = EvalGrid(9)
    assert g9.scale == 24
    assert g9.points[1] == rat(1, 576)
    assert EvalGrid(1).scale == 1
    with pytest.raises(ValueError):
        EvalGrid(0)
    with pytest.raises(ValueError):
        EvalGrid(3, -2)


def test_interpolate_examples():
    assert interpolate(EvalGrid(1), [rat(5, 8)]) == poly_from(rat(5, 8))
    got = interpolate(EvalGrid(2, 3), [rat(1), rat(10, 9)])
    assert got == poly_from(1, 1)
    with pytest.raises(ValueError):
        interpolate(EvalGrid(2), [rat(1)])


def test_interpolate_roundtrip_degree_8():
    rng = random.Random(88)
    coeffs = [Rat(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(9)]
    coeffs[8] = rat(1)
    p = UniPoly(coeffs)
    grid = EvalGrid(9)
    values = [p.eval(x) for x in grid.points]
    assert interpolate(grid, values) == p


def test_interpolate_roundtrip_degree_128():
    """The size power_large drives: d*k = 128 on the default grid."""
    rng = random.Random(128)
    coeffs = [Rat(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(129)]
    coeffs[128] = rat(-7, 5)
    p = UniPoly(coeffs)
    grid = EvalGrid(129)
    assert grid.scale == 384
    assert interpolate(grid, [p.eval(x) for x in grid.points]) == p


@pytest.mark.parametrize("count,scale", [(1, 7), (2, 1), (6, 2), (12, 5), (17, 1000)])
def test_interpolate_roundtrip_non_default_scale(count, scale):
    rng = random.Random(count * scale)
    p = UniPoly([Rat(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(count)])
    grid = EvalGrid(count, scale)
    assert grid.points[-1] == Rat(count - 1, scale * scale)
    assert interpolate(grid, [p.eval(x) for x in grid.points]) == p


def test_series_inverse_examples():
    # 1/(1 - x) = 1 + x + x^2 + ...
    assert series_inverse(poly_from(1, -1), 4) == poly_from(1, 1, 1, 1, 1)
    # 1/(1 + x)^2 = 1 - 2x + 3x^2 - 4x^3 + ...
    assert series_inverse(poly_from(1, 2, 1), 3) == poly_from(1, -2, 3, -4)
    assert series_inverse(poly_from(1, rat(1, 3)), 0) == UniPoly.one()
    assert series_inverse(UniPoly.one(), 5) == UniPoly.one()
    with pytest.raises(ValueError):
        series_inverse(poly_from(2, 1), 3)
    with pytest.raises(ValueError):
        series_inverse(poly_from(0, 1), 3)


@given(st.lists(small_rats, min_size=0, max_size=12), st.integers(0, 20))
def test_series_inverse_inverts(tail, j):
    f = UniPoly([Rat(1)] + tail)
    assert series_inverse(f, j).mul_mod_deg(f, j) == UniPoly.one()


def test_divide_monic_examples():
    z3 = poly_from(0, 0, 0, 1)
    q, r = divide_monic(z3, poly_from(0, rat(1, 2), 1))
    assert q == poly_from(rat(-1, 2), 1)
    assert r == poly_from(0, rat(1, 4))
    f = poly_from(rat(3, 7), 1)
    q, r = divide_monic(f, f)
    assert q == UniPoly.one()
    assert r == UniPoly.zero()
    q, r = divide_monic(z3, poly_from(rat(-1, 4), 1))
    assert q == poly_from(rat(1, 16), rat(1, 4), 1)
    assert r == poly_from(rat(1, 64))
    # only the divisor has to be monic
    q, r = divide_monic(poly_from(1, 0, 0, 2), poly_from(rat(-1, 2), 1))
    assert q == poly_from(rat(1, 2), 1, 2)
    assert r == poly_from(rat(5, 4))
    q, r = divide_monic(poly_from(0, 0, -3), poly_from(0, 1, 1))
    assert q == poly_from(-3)
    assert r == poly_from(0, 3)


def test_divide_monic_z64_by_degree_5():
    """The size power_large drives: z^k mod a 5x5 charpoly, k = 64."""
    rng = random.Random(64)
    f = UniPoly([Rat(rng.randint(-9, 9), rng.randint(1, 90)) for _ in range(5)] + [rat(1)])
    g = poly_from(*[0] * 64, 1)
    q, r = divide_monic(g, f)
    assert q * f + r == g
    assert r.degree < 5
    assert q.is_monic()
    assert q.degree == 59


def test_divide_monic_rejections():
    with pytest.raises(ValueError):
        divide_monic(UniPoly.one(), poly_from(0, 2))
    with pytest.raises(ValueError):
        divide_monic(UniPoly.one(), poly_from(5))


@given(polys, polys, st.integers(0, 20))
def test_mul_mod_deg_is_truncated_product(a, b, k):
    assert a.mul_mod_deg(b, k) == (a * b).truncated(k)


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(0, 20))
def test_arithmetic_results_are_normalized(a, b, k):
    """Sums and products skip the coercing constructor, so each result is
    checked against it: Rat coefficients, no trailing zero."""
    for p in (a + b, -a, a - b, a * b, a.mul_mod_deg(b, k), a.truncated(k)):
        assert all(type(c) is Rat for c in p.coeffs)
        assert p == UniPoly(p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0


@given(polys, small_rats)
def test_eval_is_ring_hom(p, x):
    q = poly_from(1, -2, 1)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)


@settings(deadline=None)
@given(
    st.lists(small_rats, min_size=0, max_size=24),
    st.lists(small_rats, min_size=1, max_size=12),
    st.data(),
)
def test_division_identity(extra, fc, data):
    f = UniPoly(fc + [Rat(1)])
    low = data.draw(st.lists(small_rats, min_size=f.degree, max_size=f.degree))
    g = UniPoly(low + extra + [Rat(1)])
    q, r = divide_monic(g, f)
    assert q * f + r == g
    assert r.degree < f.degree
    assert q.is_monic()
    assert q.degree == g.degree - f.degree


@settings(deadline=None, max_examples=40)
@given(st.lists(small_rats, min_size=1, max_size=21))
def test_interpolation_roundtrip(coeffs):
    p = UniPoly(coeffs)
    grid = EvalGrid(len(coeffs))
    assert interpolate(grid, [p.eval(x) for x in grid.points]) == p


def test_interpolation_noise_bounded_by_inverse_norm():
    """Value noise of 2**-B inflates coefficients by at most the exact
    Vandermonde-inverse norm of the grid, and that bound is the truth:
    no per-grid constant smaller than it works (see the pinned
    counterexample below for the unit-constant claim).
    """
    rng = random.Random(1212)
    for _ in range(25):
        deg = rng.randint(1, 8)
        bits = rng.randint(16, 48)
        coeffs = [Rat(rng.randint(-99, 99), rng.randint(100, 300)) for _ in range(deg + 1)]
        p = UniPoly(coeffs)
        grid = EvalGrid(deg + 1)
        amp = vandermonde_inverse_norm(grid.points)
        noisy = [truncate_to_bits(p.eval(x), bits) for x in grid.points]
        for x, v in zip(grid.points, noisy):
            assert abs(v - p.eval(x)) <= pow2(-bits)
        back = interpolate(grid, noisy)
        for j in range(deg + 1):
            assert abs(back[j] - p[j]) <= amp * pow2(-bits)


def test_interpolation_noise_can_exceed_input_noise():
    """Pinned counterexample: the contracted grid {0, 1/9} turns value
    noise epsilon into slope noise 9*epsilon, so no grid-independent
    unit bound exists.  Interpolation here costs log2(norm) bits of
    precision, which callers must budget for.
    """
    grid = EvalGrid(2, 3)
    assert grid.points == [rat(0), rat(1, 9)]
    assert vandermonde_inverse_norm(grid.points) == 18
    eps = pow2(-20)
    wiggly = interpolate(grid, [rat(0), eps])
    assert wiggly[1] == 9 * eps
    assert abs(wiggly[1]) > eps


def test_spread_out_grid_has_unit_inverse_norm():
    """Flipping the grid from i/s**2 to i*s**2 makes the inverse norm
    exactly one through degree 12, so value noise passes through
    interpolation unamplified there.  Recorded as the stable
    alternative; the package grid keeps the contracted form its
    examples freeze.
    """
    for deg in (1, 2, 4, 8, 12):
        pts = [Rat(i * (3 * deg) ** 2) for i in range(deg + 1)]
        assert vandermonde_inverse_norm(pts) == 1


# -- the integer kernels, against UniPoly references --------------------------------

int_coeffs = st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12)


@settings(deadline=None, max_examples=60)
@given(int_coeffs)
def test_newton_ints_roundtrip(coeffs):
    """Integer values of an integer polynomial at t = 0..m-1 give back its
    coefficients times (m-1)!."""
    p = UniPoly(coeffs)
    m = len(coeffs)
    values = [[int(p.eval(t))] for t in range(m)]
    fact = math.factorial(m - 1)
    got = newton_ints(values)
    assert len(got) == m
    assert got == [[fact * Rat(c)] for c in coeffs]


def lagrange_scaled(values):
    """(m-1)! times the coefficients of the Lagrange interpolant through
    values at t = 0..m-1, built in exact rationals, one polynomial."""
    m = len(values)
    total = [Rat(0)] * m
    for i, v in enumerate(values):
        basis, den = [Rat(1)], 1
        for j in range(m):
            if j != i:
                basis = [Rat(0)] + basis
                for l in range(len(basis) - 1):
                    basis[l] -= j * basis[l + 1]
                den *= i - j
        for l, b in enumerate(basis):
            total[l] += v * b / den
    fact = math.factorial(m - 1)
    scaled = [fact * c for c in total]
    assert all(c.denominator == 1 for c in scaled)
    return [int(c) for c in scaled]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 10).flatmap(
        lambda m: st.integers(1, 20).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.integers(-(2**200), 2**200), min_size=width, max_size=width
                ),
                min_size=m,
                max_size=m,
            )
        )
    )
)
def test_newton_ints_interpolates_every_column(values):
    """The vector kernel on m points and many polynomials at once agrees,
    column by column, with an independent Lagrange interpolation."""
    got = newton_ints(values)
    assert len(got) == len(values)
    assert all(len(vec) == len(values[0]) for vec in got)
    for col in range(len(values[0])):
        assert [vec[col] for vec in got] == lagrange_scaled([v[col] for v in values])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=12),
    st.sampled_from([1, 7, 360, 2**64, 3 * 2**64]),
)
def test_interpolate_roundtrip_over_a_shared_denominator(nums, den):
    """Values over one denominator, up to 2^64 as bits-mode G carries, come
    back as the polynomial they were evaluated from."""
    p = UniPoly([Rat(v, den) for v in nums])
    grid = EvalGrid(len(nums))
    assert interpolate(grid, [p.eval(x) for x in grid.points]) == p


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=10), st.integers(0, 16))
def test_integer_series_inverse_inverts(tail, j):
    f = IntPoly([1] + tail)
    inv = series_inverse(f, j)
    assert type(inv) is IntPoly
    assert UniPoly(inv).mul_mod_deg(UniPoly(f), j) == UniPoly.one()
    assert mul_mod_ints(inv, f, j)[:1] == [1]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=6),
    st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=10),
)
def test_integer_division_matches_rational_division(fc, extra):
    f = IntPoly(fc + [1])
    g = IntPoly(fc + extra + [3])
    q, r = divide_monic(g, f)
    assert type(q) is IntPoly and type(r) is IntPoly
    uq, ur = divide_monic(UniPoly(g), UniPoly(f))
    assert (UniPoly(q), UniPoly(r)) == (uq, ur)
    assert UniPoly(q) * UniPoly(f) + UniPoly(r) == UniPoly(g)
    assert r.degree < f.degree
