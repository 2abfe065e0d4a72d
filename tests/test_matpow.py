"""Two-stage matrix powering: series extraction and remainder powering."""

import random

import pytest
from hypothesis import given, settings, strategies as hst

from dynwalk import linalg, matpow
from dynwalk.numerics import Rat, rat
from dynwalk.poly import UniPoly
from dynwalk.linalg import PolyMatrix, RatMatrix, ScaledMatrix, det_poly
from dynwalk.matpow import (
    naive_power,
    power_large,
    power_sum,
    small_powers_via_series,
)
from dynwalk.oracle import det_bareiss, exact_power_sum
from dynwalk.graph import DynGraph, lazy_transition
from dynwalk.dyncore import apply_batch, bipartite_embed, state_from_graph

from conftest import random_batch, random_graph, resolvent, small_entry_matrix


def poly_from(*coeffs):
    return UniPoly([Rat(c) for c in coeffs])


def admissible_poly_matrix(rng, size, deg):
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            q = rng.randint(2, 9)
            coeffs = [Rat(rng.choice((-1, 1)) * rng.randint(0, q - 1), 3 * size * q)]
            coeffs += [
                Rat(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(deg)
            ]
            row.append(UniPoly(coeffs))
        rows.append(row)
    return PolyMatrix(rows)


def heavy_poly_matrix(rng, size, deg):
    """Constant terms from 1/(3*size) to 3/(2*size), as gadget cores carry."""
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            coeffs = [Rat(rng.choice((-1, 1)) * rng.randint(4, 18), 12 * size)]
            coeffs += [Rat(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(deg)]
            row.append(UniPoly(coeffs))
        rows.append(row)
    return PolyMatrix(rows)


# -- small powers -----------------------------------------------------------


def test_small_powers_of_zero():
    t = small_powers_via_series(RatMatrix.zeros(2, 2), 2)
    assert t[0] == RatMatrix.identity(2)
    assert t[1] == RatMatrix.zeros(2, 2)
    assert t[2] == RatMatrix.zeros(2, 2)
    assert len(t) == 3


def test_small_powers_quarter_swap():
    a = RatMatrix([[rat(0), rat(1, 4)], [rat(1, 4), rat(0)]])
    t = small_powers_via_series(a, 2)
    assert [t[i][0, 0] for i in range(3)] == [1, 0, rat(1, 16)]
    assert [t[i][0, 1] for i in range(3)] == [0, rat(1, 4), 0]


def test_small_powers_validation():
    a = RatMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        small_powers_via_series(a, 3)
    with pytest.raises(ValueError):
        small_powers_via_series(a, -1)
    with pytest.raises(ValueError):
        small_powers_via_series(RatMatrix([]), 0)
    with pytest.raises(ValueError):
        small_powers_via_series(RatMatrix([[1, 2]]), 1)


def test_small_powers_reject_unit_row_sums():
    g = DynGraph(2, 1, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="rescale"):
        small_powers_via_series(lazy_transition(g), 1)


def test_small_powers_match_naive_4x4():
    rng = random.Random(601)
    for _ in range(10):
        a = small_entry_matrix(rng, 4)
        t = small_powers_via_series(a, 4)
        power = RatMatrix.identity(4)
        for i in range(5):
            assert t[i] == power
            power = power.mul(a)


def test_det_series_reverses_to_charpoly():
    """The table's charpoly(), the reversal of its det(I - uA) that
    _grid_power_sum reduces by, is det(wI - A) of the integer matrix A."""
    rng = random.Random(607)
    for _ in range(10):
        size = rng.randint(1, 5)
        a = small_entry_matrix(rng, size)
        t = small_powers_via_series(a, size)
        ints = RatMatrix([[v * t.den for v in row] for row in a.rows])
        assert UniPoly(t.charpoly()) == linalg.charpoly(ints)


def test_power_table_steps_by_one_multiplication():
    rng = random.Random(602)
    a = small_entry_matrix(rng, 3)
    t = small_powers_via_series(a, 3)
    for i in range(3):
        assert t[i].mul(a) == t[i + 1]


# -- the convolution structure -----------------------------------------------


def test_convolution_identity_from_independent_routes():
    """sum_k A^k[s,t] * D[i-k] = signed minor determinant coefficient,
    with every quantity computed by a route that never touches the
    series solver: naive powers on one side, determinants of I - zA and
    its minors on the other."""
    rng = random.Random(603)
    for _ in range(6):
        size = rng.randint(2, 4)
        a = small_entry_matrix(rng, size)
        res = resolvent(a)
        d = det_poly(res)
        powers = [RatMatrix.identity(size)]
        for _ in range(size):
            powers.append(powers[-1].mul(a))
        for s in range(size):
            for t in range(size):
                minor = [
                    [e for j, e in enumerate(row) if j != s]
                    for i, row in enumerate(res.rows)
                    if i != t
                ]
                cof = det_poly(PolyMatrix(minor))
                if (s + t) % 2 == 1:
                    cof = -cof
                for i in range(size + 1):
                    lhs = sum(
                        (powers[k][s, t] * d[i - k] for k in range(i + 1)),
                        Rat(0),
                    )
                    assert lhs == cof[i]


# -- large powers -------------------------------------------------------------


def test_power_large_examples():
    m = PolyMatrix([[poly_from(rat(1, 4))]])
    assert power_large(m, 3) == PolyMatrix([[poly_from(rat(1, 64))]])
    nil = PolyMatrix(
        [[UniPoly.zero(), poly_from(0, rat(1, 2))], [UniPoly.zero(), UniPoly.zero()]]
    )
    assert power_large(nil, 1) == nil
    assert power_large(nil, 2) == PolyMatrix.zeros(2, 2)


def test_power_large_at_or_above_dimension_divides_by_charpoly(monkeypatch):
    calls = []
    real_divide = matpow.divide_monic

    def counting_divide(g, f):
        calls.append(f.degree)
        return real_divide(g, f)

    monkeypatch.setattr(matpow, "divide_monic", counting_divide)
    m = admissible_poly_matrix(random.Random(608), 3, 1)
    assert power_large(m, 5) == naive_power(m, 5)
    assert calls and set(calls) == {3}


def test_power_large_validation():
    m = PolyMatrix([[poly_from(rat(1, 4))]])
    with pytest.raises(ValueError):
        power_large(m, 0)
    with pytest.raises(ValueError):
        power_large(PolyMatrix.zeros(0, 0), 1)
    with pytest.raises(ValueError):
        power_large(PolyMatrix([[poly_from(1), poly_from(0)]]), 2)
    fat = PolyMatrix([[poly_from(rat(1, 2))]])
    with pytest.raises(ValueError, match="admissible"):
        power_large(fat, 2)


def test_power_large_matches_naive_sweep():
    rng = random.Random(604)
    for _ in range(8):
        size = rng.randint(1, 3)
        deg = rng.randint(0, 1)
        k = rng.randint(1, 9)
        m = admissible_poly_matrix(rng, size, deg)
        assert power_large(m, k) == naive_power(m, k)


# -- power sums ----------------------------------------------------------------


def test_power_sum_of_zero_matrix():
    assert power_sum(PolyMatrix.zeros(3, 3), 5) == PolyMatrix.identity(3)


def test_power_sum_scalar_geometric():
    m = PolyMatrix([[UniPoly.one()]])
    got = power_sum(m, 4)
    assert got == PolyMatrix([[poly_from(1, 1, 1, 1, 1)]])


def test_power_sum_truncates_at_k():
    assert power_sum(PolyMatrix([[UniPoly.one()]]), 0) == PolyMatrix.identity(1)


def test_power_sum_matches_untruncated_horner():
    rng = random.Random(605)
    for _ in range(6):
        m = PolyMatrix(
            [
                [
                    UniPoly([Rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)])
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )
        k = 6
        shifted = m.scale_poly(UniPoly.x())
        acc = PolyMatrix.identity(3)
        for i in range(1, k + 1):
            acc = acc.add(naive_power(shifted, i))
        cut = PolyMatrix([[e.truncated(k) for e in row] for row in acc.rows])
        assert power_sum(m, k) == cut


def test_power_sum_charpoly_route_agrees():
    rng = random.Random(606)
    for _ in range(4):
        size = rng.randint(1, 3)
        m = admissible_poly_matrix(rng, size, 1)
        k = rng.randint(1, 6)
        assert power_sum(m, k) == exact_power_sum(m, k)
    # outside power_large's bounds: power_sum must prescale them
    for _ in range(4):
        size = rng.randint(1, 3)
        m = heavy_poly_matrix(rng, size, 1)
        k = rng.randint(2, 5)
        assert power_sum(m, k) == exact_power_sum(m, k)
    const = PolyMatrix([[poly_from(rat(1, 3)), poly_from(1)], [poly_from(2), poly_from(0, 1)]])
    assert power_sum(const, 4) == exact_power_sum(const, 4)


def count_cascade_calls(monkeypatch):
    """Count power tables and divisions; refuse any route via power_large."""
    calls = {"table": 0, "divide": 0}
    real_table, real_divide = matpow.small_powers_via_series, matpow.divide_monic

    def counting_table(*args):
        calls["table"] += 1
        return real_table(*args)

    def counting_divide(*args):
        calls["divide"] += 1
        return real_divide(*args)

    def refuse(*args):
        raise AssertionError("the cascade went through power_large")

    monkeypatch.setattr(matpow, "small_powers_via_series", counting_table)
    monkeypatch.setattr(matpow, "divide_monic", counting_divide)
    monkeypatch.setattr(matpow, "power_large", refuse)
    return calls


def test_cascade_power_sum_builds_one_table_per_grid_point(monkeypatch):
    calls = count_cascade_calls(monkeypatch)
    m = PolyMatrix(
        [[poly_from(rat(1, 2), 1), poly_from(0, 2)], [poly_from(3), poly_from(rat(-1, 5))]]
    )
    # degree d = 1 and constant terms everywhere, so i_max = k = 3 >= n = 2:
    # the cut mod x^k keeps d = 1, (min(d, k - 1) + 1) i_max + 1 = 7 grid
    # points, and x = 0 needs no table
    got = power_sum(m, 3)
    assert calls == {"table": 6, "divide": 6}
    assert got == exact_power_sum(m, 3)


def test_cascade_power_sum_cuts_the_core_before_the_grid(monkeypatch):
    calls = count_cascade_calls(monkeypatch)
    m = PolyMatrix(
        [
            [poly_from(rat(1, 3), 1, 0, 2), poly_from(0, rat(1, 2), 5, -1)],
            [poly_from(2, 0, 0, 7), poly_from(rat(-1, 4), 3, 1, 1)],
        ]
    )
    # degree d = 3 and constant terms, so i_max = k = 2 = n.  The cut mod
    # x^2 leaves degree 1: (1 + 1) * 2 + 1 = 5 grid points, 4 tables and 4
    # divisions, where the uncut core would take 9 points, 8 and 8
    got = power_sum(m, 2)
    assert calls == {"table": 4, "divide": 4}
    assert got == exact_power_sum(m, 2)


@settings(deadline=None, max_examples=40)
@given(hst.integers(1, 3), hst.integers(1, 4), hst.data())
def test_cut_charpoly_route_matches_oracle_on_high_degree_cores(size, k, data):
    """Entry degrees up to k + 2, past the cut mod x^k: power_sum still
    equals the oracle's Horner sum."""
    m = _poly_matrix_over(data, size, k + 2, data.draw(hst.sampled_from([1, 6, 2**64])))
    assert power_sum(m, k) == exact_power_sum(m, k)


def test_power_sum_validation():
    m = PolyMatrix.identity(2)
    with pytest.raises(ValueError):
        power_sum(m, -1)
    with pytest.raises(ValueError):
        power_sum(PolyMatrix([[poly_from(1), poly_from(0)]]), 2)


# -- the cascade stays off the CRT determinant chain ------------------------


def test_cascade_takes_no_crt_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cascade reached the CRT determinant chain")

    rng = random.Random(609)
    m = admissible_poly_matrix(rng, 3, 1)
    st = state_from_graph(random_graph(rng, 8, 3), 4, cascade_threshold=0)
    b = random_batch(rng, st.graph, 5, min_ops=4)
    for owner, name in (
        (linalg, "charpoly"),
        (linalg, "det_poly"),
        (matpow, "charpoly"),
        (matpow, "det_poly"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert power_large(m, 2) == naive_power(m, 2)
    assert power_large(m, 4) == naive_power(m, 4)
    st = apply_batch(st, b)
    b = bipartite_embed(PolyMatrix.from_rational(lazy_transition(st.graph)))
    assert st.G == exact_power_sum(b, 4)


# -- the integer kernels, against Rat references -------------------------------------


@settings(deadline=None, max_examples=60)
@given(hst.integers(1, 6), hst.data())
def test_integer_det_and_adjugate_match_bareiss(n, data):
    """Strictly diagonally dominant integer matrices, as the power tables
    eliminate: the determinant is the oracle's, and adj * M = det * I."""
    off = hst.integers(-(2**40), 2**40)
    rows = [data.draw(hst.lists(off, min_size=n, max_size=n)) for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = data.draw(hst.sampled_from([-1, 1])) * (
            sum(abs(v) for j, v in enumerate(row) if j != i) + data.draw(hst.integers(1, 2**40))
        )
    det, adj = matpow._det_and_adjugate(rows)
    assert det == det_bareiss(RatMatrix(rows))
    prod = RatMatrix(adj).mul(RatMatrix(rows))
    assert prod == RatMatrix([[det if i == j else 0 for j in range(n)] for i in range(n)])


@settings(deadline=None, max_examples=40)
@given(hst.integers(1, 5), hst.data())
def test_integer_power_table_matches_rational_powers(n, data):
    den = data.draw(hst.sampled_from([7, 360, 2**64]))
    cap = den // (n + 1)
    a = [data.draw(hst.lists(hst.integers(-cap, cap), min_size=n, max_size=n)) for _ in range(n)]
    table = small_powers_via_series(ScaledMatrix(a, den), n)
    m = RatMatrix([[Rat(v, den) for v in row] for row in a])
    power = RatMatrix.identity(n)
    for i in range(n + 1):
        assert table[i] == power
        assert table.powers[i] == [[v * den**i for v in row] for row in power.rows]
        power = power.mul(m)
    assert UniPoly(table.charpoly()) == linalg.charpoly(RatMatrix(a))


def _poly_matrix_over(data, size, deg, den):
    num = hst.integers(-(2**64), 2**64)
    return PolyMatrix(
        [
            [
                UniPoly([Rat(v, den) for v in data.draw(hst.lists(num, min_size=0, max_size=deg + 1))])
                for _ in range(size)
            ]
            for _ in range(size)
        ]
    )


@settings(deadline=None, max_examples=25)
@given(hst.integers(1, 3), hst.integers(0, 2), hst.integers(1, 6), hst.data())
def test_power_sum_routes_agree_on_2_64_denominators(size, deg, k, data):
    """Cores whose coefficients sit over 2^64, the shape a bits-mode G
    feeds the gadget: given as a PolyMatrix or as a ScaledMatrix, the
    power sum equals the oracle's Rat Horner sum."""
    m = _poly_matrix_over(data, size, deg, 2**64)
    want = exact_power_sum(m, k)
    assert power_sum(m, k) == want
    scaled = power_sum(ScaledMatrix.of_polys(m.rows, m.max_degree), k)
    assert scaled.to_poly() == want


@settings(deadline=None, max_examples=40)
@given(hst.integers(1, 4), hst.integers(1, 4), hst.integers(1, 4), hst.integers(0, 5), hst.data())
def test_scaled_products_match_poly_products(r, inner, c, k, data):
    num = hst.integers(-(2**40), 2**40)
    den = data.draw(hst.sampled_from([1, 6, 2**64]))

    def block(nr, nc):
        return PolyMatrix(
            [
                [
                    UniPoly([Rat(v, den) for v in data.draw(hst.lists(num, max_size=k + 2))])
                    for _ in range(nc)
                ]
                for _ in range(nr)
            ]
        )

    a, b = block(r, inner), block(inner, c)
    sa, sb = ScaledMatrix.of_polys(a.rows, k + 1), ScaledMatrix.of_polys(b.rows, k + 1)
    assert sa.mul(sb, k).to_poly() == a.mul(b, trunc=k)
    assert sa.mul(sb, k).reduced().to_poly() == a.mul(b, trunc=k)
    # a product cut mod x^(k+1) reads its factors only mod x^(k+1)
    ca, cb = ScaledMatrix.of_polys(a.rows, k), ScaledMatrix.of_polys(b.rows, k)
    assert ca.mul(cb, k).to_poly() == a.mul(b, trunc=k)
    b2 = block(r, inner)
    assert sa.add(ScaledMatrix.of_polys(b2.rows, k + 1)).to_poly() == a.add(b2)
