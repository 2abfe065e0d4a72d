"""Brute-force reference implementations and the eigenvalue bracketer."""

import ast
import random
from pathlib import Path

import pytest

from dynwalk import linalg, oracle, poly
from dynwalk.numerics import Rat, rat
from dynwalk.poly import UniPoly
from dynwalk.linalg import PolyMatrix, RatMatrix, charpoly, det_rational_crt
from dynwalk.graph import DynGraph, lazy_transition
from dynwalk.matpow import power_sum
from dynwalk.oracle import (
    CutReport,
    EigenBracket,
    conductance_bruteforce,
    det_bareiss,
    eigencompare,
    exact_power_sum,
    second_eigenvalue,
    walk_count_dp,
)

from conftest import (
    complete_bipartite,
    cycle_graph,
    matching_graph,
    rand_rat_matrix,
    random_graph,
    random_regular_graph,
    two_cliques_bridged,
)


def poly_from(*coeffs):
    return UniPoly([Rat(c) for c in coeffs])


# -- power sums ---------------------------------------------------------------


def test_exact_power_sum_of_zero():
    assert exact_power_sum(PolyMatrix.zeros(3, 3), 4) == PolyMatrix.identity(3)


def test_exact_power_sum_scalar_geometric():
    m = PolyMatrix([[poly_from(rat(1, 3))]])
    got = exact_power_sum(m, 3)
    assert got == PolyMatrix([[poly_from(1, rat(1, 3), rat(1, 9), rat(1, 27))]])


def test_exact_power_sum_matches_matpow():
    rng = random.Random(801)
    for _ in range(8):
        size = rng.randint(1, 4)
        deg = rng.randint(0, 2)
        m = PolyMatrix(
            [
                [
                    UniPoly(
                        [Rat(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(deg + 1)]
                    )
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
        )
        k = rng.randint(0, 7)
        assert exact_power_sum(m, k) == power_sum(m, k)


# -- walk counting -------------------------------------------------------------


def test_walk_count_dp_length_zero():
    w = RatMatrix.zeros(3, 3)
    assert walk_count_dp(w, 1, 1, 0) == UniPoly.one()
    assert walk_count_dp(w, 0, 1, 0) == UniPoly.zero()


def test_walk_count_dp_single_edge():
    w = RatMatrix([[0, rat(2, 3)], [0, 0]])
    assert walk_count_dp(w, 0, 1, 1) == poly_from(0, rat(2, 3))
    assert walk_count_dp(w, 0, 1, 4) == poly_from(0, rat(2, 3))


def test_walk_count_dp_triangle():
    adj = RatMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    counts = walk_count_dp(adj, 0, 0, 3)
    assert counts == poly_from(1, 0, 2, 2)


def test_walk_count_dp_validation():
    w = RatMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        walk_count_dp(w, 0, 2, 1)
    with pytest.raises(ValueError):
        walk_count_dp(w, 0, 1, -1)
    with pytest.raises(ValueError):
        walk_count_dp(RatMatrix([[0, 1]]), 0, 0, 1)


# -- determinants ----------------------------------------------------------------


def test_det_bareiss_examples():
    assert det_bareiss(RatMatrix.identity(4)) == 1
    assert det_bareiss(RatMatrix([[0, rat(1, 2)], [rat(1, 2), 0]])) == rat(-1, 4)
    assert det_bareiss(RatMatrix([])) == 1


def test_det_bareiss_matches_crt():
    rng = random.Random(802)
    for _ in range(25):
        m = rand_rat_matrix(rng, rng.randint(1, 6))
        assert det_bareiss(m) == det_rational_crt(m, 8)


# -- conductance ------------------------------------------------------------------


def test_conductance_disconnected_is_zero():
    r = conductance_bruteforce(matching_graph(4))
    assert r.phi == 0
    assert len(r.best_set) <= 2


def test_conductance_single_edge():
    g = DynGraph(2, 1, {(0, 1)})
    r = conductance_bruteforce(g)
    assert r.phi == rat(1, 2)
    assert r.best_set in ((0,), (1,))


def test_conductance_triangle():
    assert conductance_bruteforce(cycle_graph(3)).phi == rat(1, 2)


def test_conductance_complete_bipartite():
    # K(4,4): the balanced split two-and-two per side cuts 8 of 16 edges
    r = conductance_bruteforce(complete_bipartite(4, 4))
    assert r.phi == rat(1, 4)
    assert len(r.best_set) == 4


def test_conductance_eight_cycle():
    r = conductance_bruteforce(cycle_graph(8))
    assert r.phi == rat(1, 8)
    assert len(r.best_set) == 4


def test_conductance_refusals():
    with pytest.raises(ValueError, match="n=21 > 20"):
        conductance_bruteforce(DynGraph.empty(21, 2))
    with pytest.raises(ValueError):
        conductance_bruteforce(DynGraph.empty(1, 1))


# -- the oracle's own characteristic polynomial ----------------------------


def test_trace_recurrence_charpoly_matches_linalg():
    """Two independent routes to det(zI - T): the oracle's integer
    Faddeev-LeVerrier recurrence, and linalg's determinants on a grid."""
    rng = random.Random(805)
    for n in range(1, 10):
        # an integer matrix, then a rational one
        for m in (rand_rat_matrix(rng, n, 20, 1), rand_rat_matrix(rng, n)):
            assert oracle._charpoly(m) == charpoly(m)
    for n in (4, 8, 12, 16, 20, 24):
        t = lazy_transition(random_regular_graph(rng, n, 3))
        assert oracle._charpoly(t) == charpoly(t)


def test_oracle_imports_only_container_types():
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            assert not {"poly", "linalg", "matpow", "dyncore"} & set(names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            names = {alias.name for alias in node.names}
            assert module not in ("matpow", "dyncore")
            assert not {"poly", "linalg", "matpow", "dyncore"} & names
            if module in ("poly", "linalg"):
                assert names <= {"UniPoly", "PolyMatrix", "RatMatrix"}, names


def test_eigenvalue_oracle_takes_no_kernel_of_the_power_machinery(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the eigenvalue oracle reached a power kernel")

    for owner, name in (
        (poly, "newton_ints"),
        (poly, "interpolate"),
        (poly, "series_inverse"),
        (poly, "divide_monic"),
        (linalg, "interpolate"),
        (linalg, "det_poly"),
        (linalg, "det_rational_crt"),
        (linalg, "charpoly"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    t = lazy_transition(complete_bipartite(3, 3))
    b = second_eigenvalue(t, rat(1, 1 << 10))
    assert b.lower <= rat(1, 2) <= b.upper
    assert eigencompare(t, rat(1, 2)) == 0


# -- second eigenvalue ---------------------------------------------------------------


def test_second_eigenvalue_identity_collapses_at_one():
    b = second_eigenvalue(RatMatrix.identity(2), rat(1, 1024))
    assert (b.lower, b.upper) == (1, 1)
    assert b.width == 0


def test_second_eigenvalue_single_edge():
    t = RatMatrix([[rat(1, 2), rat(1, 2)], [rat(1, 2), rat(1, 2)]])
    b = second_eigenvalue(t, rat(1, 1 << 20))
    assert b.lower <= 0 <= b.upper
    assert b.width <= rat(1, 1 << 20)


def test_second_eigenvalue_cycle_bracket_contains_closed_form():
    # lambda of an n-cycle at d=2 is 1/2 + cos(2*pi/n)/2; for n=4 that is 1/2
    t = lazy_transition(cycle_graph(4))
    b = second_eigenvalue(t, rat(1, 1 << 16))
    assert b.lower <= rat(1, 2) <= b.upper
    assert eigencompare(t, rat(1, 2)) == 0


def test_second_eigenvalue_validation():
    t = lazy_transition(cycle_graph(4))
    with pytest.raises(ValueError):
        second_eigenvalue(t, 0)
    with pytest.raises(ValueError):
        second_eigenvalue(RatMatrix([[1, 0], [rat(1, 2), rat(1, 2)]]), rat(1, 4))
    with pytest.raises(ValueError):
        second_eigenvalue(RatMatrix([[rat(1, 2), rat(1, 2)]]), rat(1, 4))
    with pytest.raises(ValueError):
        second_eigenvalue(RatMatrix([[1]]), rat(1, 4))


def test_eigencompare_signs_on_complete_bipartite():
    # K(4,4) at d=4: eigenvalues of T are {1, 1/2 (multiplicity 6), 0}
    t = lazy_transition(complete_bipartite(4, 4))
    assert eigencompare(t, rat(1, 2)) == 0
    assert eigencompare(t, rat(1, 4)) == 1
    assert eigencompare(t, rat(3, 4)) == -1
    assert eigencompare(t, 1) == -1
    assert eigencompare(t, 2) == -1


def test_bracket_agrees_with_eigencompare():
    rng = random.Random(803)
    for _ in range(8):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, 3))
        t = lazy_transition(g)
        b = second_eigenvalue(t, rat(1, 1 << 12))
        assert b.width <= rat(1, 1 << 12)
        assert eigencompare(t, b.lower) >= 0
        assert eigencompare(t, b.upper) <= 0


def test_bracket_contains_rayleigh_quotient():
    """Power iteration from a fixed seed vector, orthogonalized against
    the all-ones eigenvector, gives a Rayleigh quotient that must sit at
    or below the bracket's upper edge (it converges to lambda from
    below on the deflated space)."""
    for g in (cycle_graph(5), random_graph(random.Random(804), 7, 3)):
        t = lazy_transition(g)
        n = g.n
        vec = [Rat(i + 1) for i in range(n)]
        mean = sum(vec, Rat(0)) / n
        vec = [v - mean for v in vec]
        for _ in range(60):
            vec = [sum(t.rows[i][j] * vec[j] for j in range(n)) for i in range(n)]
            mean = sum(vec, Rat(0)) / n
            vec = [v - mean for v in vec]
            big = max(abs(v) for v in vec)
            if big == 0:
                break
            vec = [v / big for v in vec]
        norm = sum(v * v for v in vec)
        if norm == 0:
            continue
        tv = [sum(t.rows[i][j] * vec[j] for j in range(n)) for i in range(n)]
        rayleigh = sum(a * b for a, b in zip(vec, tv)) / norm
        b = second_eigenvalue(t, rat(1, 1 << 16))
        assert rayleigh <= b.upper


def test_lingering_mass_on_a_planted_sparse_cut():
    """Two 8-cliques joined by one bridge edge: the cut has conductance
    1/128, and after 4 doubling rounds the walk from inside one clique
    still holds squared mass above the sparse-cut floor
    (1/(4s)) * (1 - 4*delta)**(2*ell) with s = 8, delta = 1/64."""
    g = two_cliques_bridged(8)
    assert g.n == 16 and g.d == 8
    cut = conductance_bruteforce(g)
    assert cut.phi == rat(1, 128)
    assert set(cut.best_set) == set(range(8)) or set(cut.best_set) == set(range(8, 16))
    t = lazy_transition(g)
    # exact T^(2^ell) by repeated squaring
    ell = 4
    power = t
    for _ in range(ell):
        power = power.mul(power)
    s = 8
    delta = rat(1, 64)
    floor = Rat(1, 4 * s) * (1 - 4 * delta) ** (2 * ell)
    side = range(8)
    best = max(
        sum((power[v, u] - Rat(1, 16)) ** 2 for u in range(16))
        for v in side
    )
    assert best > floor


def test_spectral_sandwich_needs_the_doubled_lower_constant():
    """The one-sided Cheeger bounds certified here: armed with exact
    conductance and exact eigenvalue comparison,
    1 - 2*phi <= lambda <= 1 - phi**2/2 holds on every suite graph, and
    the tighter 1 - phi lower form is refuted by the 8-cycle, where
    lambda = 1/2 + sqrt(2)/4 < 7/8 = 1 - phi."""
    cases = [
        (cycle_graph(8), rat(1, 8)),
        (complete_bipartite(4, 4), rat(1, 4)),
        (cycle_graph(3), rat(1, 2)),
        (complete_bipartite(3, 3), rat(5, 18)),
    ]
    for g, phi in cases:
        report = conductance_bruteforce(g)
        assert report.phi == phi
        t = lazy_transition(g)
        assert eigencompare(t, 1 - 2 * phi) >= 0
        assert eigencompare(t, 1 - phi * phi / 2) <= 0
    # the refutation, exact: lambda(C8) < 1 - phi(C8)
    assert eigencompare(lazy_transition(cycle_graph(8)), rat(7, 8)) == -1
    # and the doubled constant is tight: K(4,4) sits exactly at 1 - 2*phi
    assert eigencompare(lazy_transition(complete_bipartite(4, 4)), rat(1, 2)) == 0
