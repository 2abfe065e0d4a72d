"""Exact determinants: residue CRT, polynomial matrices, charpoly."""

import random

import pytest

from dynwalk.numerics import Rat, rat
from dynwalk.poly import UniPoly, EvalGrid
from dynwalk.linalg import (
    ModMatrix,
    PolyMatrix,
    RatMatrix,
    charpoly,
    det_mod_p,
    det_poly,
    det_rational_crt,
    primes_above,
)
from dynwalk.oracle import det_bareiss

from conftest import pow2, rand_rat_matrix, resolvent, small_entry_matrix


def poly_from(*coeffs):
    return UniPoly([Rat(c) for c in coeffs])


def swap_matrix():
    return RatMatrix([[rat(0), rat(1, 2)], [rat(1, 2), rat(0)]])


# -- RatMatrix / PolyMatrix plumbing --------------------------------------


def test_rat_matrix_basics():
    m = RatMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.is_square
    assert RatMatrix.identity(2).mul(m) == m
    assert m.add(m) == RatMatrix([[2, 4], [6, 8]])
    assert RatMatrix([[rat(1, 2), rat(-3, 8)], [rat(1, 3), 0]]).max_denominator_bits() == 3
    with pytest.raises(ValueError):
        m.add(RatMatrix([[1]]))
    with pytest.raises(ValueError):
        m.mul(RatMatrix([[1]]))


def test_poly_matrix_basics():
    a = PolyMatrix([[poly_from(0, 1), poly_from(1)], [poly_from(0), poly_from(2)]])
    assert a.max_degree == 1
    assert a[0, 0] == poly_from(0, 1)
    i2 = PolyMatrix.identity(2)
    assert i2.mul(a) == a
    assert a.add(a) == a.scale_poly(UniPoly.constant(2))
    assert a.eval_at(rat(1, 2)) == RatMatrix([[rat(1, 2), 1], [0, 2]])
    assert PolyMatrix.from_rational(RatMatrix([[1]])) == PolyMatrix([[poly_from(1)]])
    # truncating product mod x^1 keeps only constant terms
    assert a.mul(a, trunc=0) == PolyMatrix.from_rational(
        a.eval_at(0).mul(a.eval_at(0))
    )
    assert a.scale_poly(poly_from(0, 1), trunc=1)[0, 0] == poly_from(0, 0)
    assert a.scale_poly(poly_from(0, 1))[0, 0] == poly_from(0, 0, 1)


def _three_rows():
    return PolyMatrix(
        [[poly_from(i, j) for j in range(3)] for i in range(3)]
    )


def test_with_rows_equals_dense_build_and_shares_the_rest():
    a = _three_rows()
    new_row = [poly_from(7), UniPoly.zero(), poly_from(0, 0, 1)]
    b = a.with_rows({1: new_row})
    dense = PolyMatrix([a.rows[0], new_row, a.rows[2]])
    assert b == dense
    assert (b.nrows, b.ncols) == (dense.nrows, dense.ncols)
    assert b.rows[0] is a.rows[0] and b.rows[2] is a.rows[2]
    assert a.with_rows({}) == a


def test_with_rows_leaves_the_source_unchanged():
    a = _three_rows()
    before = [list(r) for r in a.rows]
    row_ids = [id(r) for r in a.rows]
    a.with_rows({0: [UniPoly.one()] * 3, 2: [UniPoly.zero()] * 3})
    assert a.rows == before
    assert [id(r) for r in a.rows] == row_ids


def test_with_rows_rejects_bad_rows():
    # only a replaced row's index and width are checked, on both kinds
    for a, e in ((_three_rows(), UniPoly.one()), (RatMatrix.identity(3), rat(1, 2))):
        with pytest.raises(ValueError, match="ragged"):
            a.with_rows({1: [e] * 2})
        with pytest.raises(ValueError, match="ragged"):
            a.with_rows({1: [e] * 4})
        with pytest.raises(ValueError, match="out of range"):
            a.with_rows({3: [e] * 3})
        with pytest.raises(ValueError, match="out of range"):
            a.with_rows({-1: [e] * 3})


def test_rat_with_rows_shares_the_rest():
    a = RatMatrix([[1, 2], [3, 4]])
    b = a.with_rows({0: [rat(1, 2), Rat(0)]})
    assert type(b) is RatMatrix
    assert b == RatMatrix([[rat(1, 2), 0], [3, 4]])
    assert b.rows[1] is a.rows[1]
    assert a == RatMatrix([[1, 2], [3, 4]])


def test_from_rat_rows_equals_the_coercing_build():
    rows = [[rat(1, 2), rat(0)], [rat(-3, 4), rat(5)]]
    m = RatMatrix.from_rat_rows([list(r) for r in rows])
    assert m == RatMatrix(rows)
    assert (m.nrows, m.ncols) == (2, 2)
    assert RatMatrix.from_rat_rows([]) == RatMatrix([])


def test_from_rat_rows_rejects_bad_rows():
    with pytest.raises(ValueError, match="ragged"):
        RatMatrix.from_rat_rows([[rat(1)], [rat(1), rat(2)]])
    with pytest.raises(TypeError, match="Rat"):
        RatMatrix.from_rat_rows([[rat(1), 2]])


# -- determinants over Z_p -------------------------------------------------


def test_det_mod_p_examples():
    assert det_mod_p(ModMatrix.make([[1, 2], [3, 4]], 5)) == 3
    assert det_mod_p(ModMatrix.make([[1, 0], [0, 1]], 7)) == 1
    assert det_mod_p(ModMatrix.make([[2, 3], [2, 3]], 11)) == 0
    assert det_mod_p(ModMatrix.make([], 5)) == 1


def test_mod_matrix_validation():
    with pytest.raises(ValueError):
        ModMatrix.make([[1]], 6)
    with pytest.raises(ValueError):
        ModMatrix.make([[1, 2]], 5)


def test_primes_above():
    gen = primes_above(1 << 16)
    first = next(gen)
    assert first == 65537
    assert next(gen) == 65539


# -- rational determinants --------------------------------------------------


def test_det_rational_crt_examples():
    m = RatMatrix([[rat(1, 2), 0], [0, rat(1, 2)]])
    assert det_rational_crt(m, 1) == rat(1, 4)
    assert det_rational_crt(swap_matrix(), 1) == rat(-1, 4)
    assert det_rational_crt(RatMatrix([[rat(-3, 7)]]), 3) == rat(-3, 7)
    assert det_rational_crt(RatMatrix([]), 1) == 1


def test_det_rational_crt_rejects_oversized_denominator():
    m = RatMatrix([[rat(1, 2)]])
    with pytest.raises(ValueError):
        det_rational_crt(m, 0)
    with pytest.raises(ValueError):
        det_rational_crt(RatMatrix([[1, 2]]), 4)


def test_crt_matches_bareiss_seeded():
    rng = random.Random(501)
    for _ in range(40):
        size = rng.randint(1, 8)
        m = rand_rat_matrix(rng, size)
        assert det_rational_crt(m, 8) == det_bareiss(m)


# -- polynomial determinants ------------------------------------------------


def test_det_poly_examples():
    a = swap_matrix()
    assert det_poly(resolvent(a)) == poly_from(1, 0, rat(-1, 4))
    assert det_poly(PolyMatrix.identity(3)) == UniPoly.one()
    assert det_poly(PolyMatrix.zeros(0, 0)) == UniPoly.one()


def test_det_poly_constant_term_is_one_for_walk_generating_matrices():
    rng = random.Random(502)
    for _ in range(20):
        size = rng.randint(1, 5)
        a = small_entry_matrix(rng, size)
        d = det_poly(resolvent(a))
        assert d[0] == 1


def test_det_poly_agrees_with_pointwise_determinants():
    rng = random.Random(503)
    for _ in range(10):
        size = rng.randint(1, 3)
        deg = rng.randint(0, 2)
        m = PolyMatrix(
            [
                [
                    UniPoly([Rat(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(deg + 1)])
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
        )
        d = det_poly(m)
        grid = EvalGrid(size * max(m.max_degree, 0) + 1, max(1, 3 * size * max(m.max_degree, 0)))
        for x in grid.points:
            mx = m.eval_at(x)
            assert d.eval(x) == det_rational_crt(mx, mx.max_denominator_bits())


def test_entry_magnitudes_stay_small_on_the_grid():
    """Entries with constant term below 1/(3l) stay below 1/(l+1) at
    every determinant grid point, which keeps the interpolation data
    bounded regardless of dimension."""
    rng = random.Random(504)
    for _ in range(15):
        size = rng.randint(1, 5)
        deg = rng.randint(1, 4)
        rows = []
        for _ in range(size):
            row = []
            for _ in range(size):
                coeffs = [Rat(rng.choice((-1, 1)) * rng.randint(0, 99), 100 * 3 * size)]
                coeffs += [
                    Rat(rng.choice((-1, 1)) * rng.randint(0, 99), 100)
                    for _ in range(deg)
                ]
                row.append(UniPoly(coeffs))
            rows.append(row)
        m = PolyMatrix(rows)
        target = size * deg
        grid = EvalGrid(target + 1, 3 * target)
        for x in grid.points:
            mx = m.eval_at(x)
            assert max(abs(v) for row in mx.rows for v in row) < Rat(1, size + 1)


def test_charpoly_coefficients_below_one_for_contracting_matrices():
    rng = random.Random(505)
    for _ in range(15):
        size = rng.randint(1, 5)
        a = small_entry_matrix(rng, size)
        d = det_poly(resolvent(a))
        assert d[0] == 1
        for j in range(1, d.degree + 1):
            assert abs(d[j]) < 1


def test_determinant_of_randomly_perturbed_matrix_stays_close():
    """Entrywise noise below 2**-B moves the determinant by at most
    2**-B on seeded contracting instances, with B = l*l + 8."""
    rng = random.Random(506)
    for _ in range(20):
        size = rng.randint(1, 4)
        bits = size * size + 8
        a = RatMatrix(
            [
                [
                    Rat(rng.choice((-1, 1)) * rng.randint(0, 99), 100 * size)
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
        )
        noise = RatMatrix(
            [
                [
                    Rat(rng.choice((-1, 1)) * rng.randint(0, 99), 100) * pow2(-bits)
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
        )
        da = det_rational_crt(a, 16)
        dp = det_rational_crt(a.add(noise), 16 + bits)
        assert abs(dp - da) <= pow2(-bits)


# -- characteristic polynomials ---------------------------------------------


def test_charpoly_examples():
    assert charpoly(RatMatrix([[rat(1, 4)]])) == poly_from(rat(-1, 4), 1)
    assert charpoly(swap_matrix()) == poly_from(rat(-1, 4), 0, 1)
    assert charpoly(RatMatrix([])) == UniPoly.one()


def test_cayley_hamilton_3x3():
    rng = random.Random(507)
    a = rand_rat_matrix(rng, 3, num_bound=4, den_bound=4)
    p = charpoly(a)
    acc = RatMatrix.zeros(3, 3)
    power = RatMatrix.identity(3)
    for j in range(p.degree + 1):
        acc = acc.add(RatMatrix([[p[j] * v for v in row] for row in power.rows]))
        power = power.mul(a)
    assert acc == RatMatrix.zeros(3, 3)
