"""Acceptance sweep: the eleven headline guarantees, one test each.

Every test ends by printing a single summary line (visible under
``pytest -rA`` or ``-s``); the pass/fail status is the test result itself.
Seeds are fixed so each run examines the same instances.
"""

import math
import random
import time
from pathlib import Path

from dynwalk.numerics import Rat, rat, truncate_to_bits
from dynwalk.poly import EvalGrid, UniPoly, divide_monic, interpolate
from dynwalk.linalg import PolyMatrix, RatMatrix, det_poly, det_rational_crt
from dynwalk.matpow import naive_power, power_large, small_powers_via_series
from dynwalk.graph import DynGraph, lazy_transition
from dynwalk.dyncore import (
    apply_batch,
    apply_entry_deltas,
    bipartite_embed,
    read_power_entry,
    state_from_graph,
    state_from_matrix,
)
from dynwalk.expander import TesterConfig, expansion_query
from dynwalk.muddle import MuddleConfig, MuddleTimeline
from dynwalk.oracle import (
    conductance_bruteforce,
    det_bareiss,
    eigencompare,
    exact_power_sum,
    second_eigenvalue,
    walk_count_dp,
)
from dynwalk.cli import run_script

from conftest import (
    blowup_graph,
    complete_graph,
    cycle_graph,
    matching_graph,
    pow2,
    rand_rat,
    rand_rat_matrix,
    random_batch,
    random_regular_graph,
    small_entry_matrix,
    two_cliques_bridged,
    vandermonde_inverse_norm,
)

GOLDEN = Path(__file__).parent / "golden"


def nonempty_batch(rng, graph, max_ops):
    while True:
        b = random_batch(rng, graph, max_ops)
        if len(b) > 0:
            return b


def truncate_matrix(m, bits):
    return PolyMatrix(
        [
            [UniPoly([truncate_to_bits(c, bits) for c in e.coeffs]) for e in row]
            for row in m.rows
        ]
    )


def max_deviation(a, b):
    worst = Rat(0)
    for row_a, row_b in zip(a.rows, b.rows):
        for pa, pb in zip(row_a, row_b):
            for j in range(max(pa.degree, pb.degree) + 1):
                dev = abs(pa[j] - pb[j])
                if dev > worst:
                    worst = dev
    return worst


def test_criterion_01_exact_ground_truth():
    """Maintained G == from-scratch oracle at every step of 100 timelines."""
    rng = random.Random(101)
    t0 = time.time()
    checks = 0
    for _ in range(100):
        n = rng.randint(2, 12)
        d = rng.randint(1, 3)
        k = rng.randint(4, 12)
        st = state_from_graph(DynGraph.empty(n, d), k)
        for _ in range(30):
            st = apply_batch(st, random_batch(rng, st.graph, 3))
            # B must follow the graph, and G must follow that B: a fold that
            # updated neither would still satisfy G == sum of (x B)^i
            b = bipartite_embed(PolyMatrix.from_rational(lazy_transition(st.graph)))
            assert st.B == b
            assert st.G == exact_power_sum(b, st.K)
            checks += 1
    dt = time.time() - t0
    assert dt < 300
    print(
        f"criterion 01: PASS - 100 timelines, {checks} per-step oracle"
        f" equalities, exact, {dt:.0f}s"
    )


def test_criterion_02_cancellation_on_delete():
    """Delete-then-reinsert is the identity and deleted walks vanish."""
    rng = random.Random(202)
    instances = 0
    while instances < 50:
        n = rng.randint(2, 5)
        a = RatMatrix(
            [
                [
                    Rat(rng.randint(-2, 2)) if rng.random() < 0.6 else Rat(0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        hot = [(r, c) for r in range(n) for c in range(n) if a[r, c] != 0]
        if not hot:
            continue
        st = state_from_matrix(a, 8)
        chosen = rng.sample(hot, rng.randint(1, min(3, len(hot))))
        minus = {(r, n + c, -a[r, c]) for r, c in chosen}
        st2 = apply_entry_deltas(st, minus)
        reduced = RatMatrix(
            [
                [Rat(0) if (r, c) in chosen else a[r, c] for c in range(n)]
                for r in range(n)
            ]
        )
        for s in range(n):
            for t in range(n):
                counts = walk_count_dp(reduced, s, t, 4)
                for j in range(5):
                    assert read_power_entry(st2, s, t, j) == counts[j]
        plus = {(r, n + c, a[r, c]) for r, c in chosen}
        st3 = apply_entry_deltas(st2, plus)
        assert st3.G == st.G
        instances += 1
    print(
        "criterion 02: PASS - 50 weighted digraphs, deleted walks absent"
        " (vs walk DP) and reinsertion exact"
    )


def test_criterion_03_large_power_cascade():
    """power_large == naive repeated multiplication on admissible input."""
    rng = random.Random(303)
    t0 = time.time()
    cases = [(5, 2, 64)]  # the worst corner is pinned, the rest drawn
    while len(cases) < 100:
        l = rng.randint(1, 5)
        d = rng.randint(0, 2)
        k = min(64, max(1, int(2 ** rng.uniform(0, 6.02))))
        cases.append((l, d, k))
    for l, d, k in cases:
        m = _admissible(rng, l, d)
        assert power_large(m, k) == naive_power(m, k)
    dt = time.time() - t0
    assert dt < 120
    print(f"criterion 03: PASS - 100 instances up to l=5 d=2 k=64, exact, {dt:.0f}s")


def _admissible(rng, size, deg):
    """Constant terms strictly below 1/(3*size), higher coefficients small."""
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            coeffs = [
                Rat(rng.choice((-1, 1)) * rng.randint(0, 5), 3 * size * 6)
            ]
            coeffs += [
                Rat(rng.randint(-2, 2), rng.randint(4, 12)) for _ in range(deg)
            ]
            row.append(UniPoly(coeffs))
        rows.append(row)
    return PolyMatrix(rows)


def test_criterion_04_small_powers_from_series():
    """The full power table from one series inversion, against naive."""
    rng = random.Random(404)
    for _ in range(100):
        l = rng.randint(1, 6)
        m = small_entry_matrix(rng, l)
        table = small_powers_via_series(m, l)
        acc = RatMatrix.identity(l)
        for i in range(l + 1):
            assert table[i] == acc
            acc = acc.mul(m)
    print("criterion 04: PASS - 100 matrices l<=6, all powers 0..l exact")


def test_criterion_05_determinant_triangulation():
    """CRT determinant == fraction-free elimination; resolvents are monic at 0."""
    rng = random.Random(505)
    for _ in range(200):
        l = rng.randint(1, 8)
        m = RatMatrix(
            [[Rat(rng.randint(-9, 9), 10) for _ in range(l)] for _ in range(l)]
        )
        assert det_rational_crt(m, 8) == det_bareiss(m)
    for _ in range(100):
        l = rng.randint(1, 6)
        a = rand_rat_matrix(rng, l, num_bound=4, den_bound=6)
        resolvent = PolyMatrix(
            [
                [
                    UniPoly([Rat(1 if r == c else 0), -a[r, c]])
                    for c in range(l)
                ]
                for r in range(l)
            ]
        )
        assert det_poly(resolvent)[0] == 1
    print(
        "criterion 05: PASS - 200 CRT/Bareiss agreements (l<=8),"
        " 100 resolvent determinants with constant term one"
    )


def test_criterion_06_division_and_interpolation():
    """Monic division identity; interpolation roundtrip; noise amplification.

    The per-coefficient deviation of interpolated perturbed values is NOT
    bounded by 2^-B on the standard grid: the exact Vandermonde inverse
    norm is the right constant (already 18 at degree one, where noise at
    the point 1/9 lands on the slope times nine).  The corrected bound
    norm * 2^-B is asserted, and the one-line counterexample to the plain
    bound is pinned.  On the integer-spread grid {0, 9, 18, ...} the norm
    is exactly one and the plain bound does hold.
    """
    rng = random.Random(606)
    for _ in range(200):
        df = rng.randint(1, 12)
        dg = rng.randint(df, 24)
        f = UniPoly([rand_rat(rng) for _ in range(df)] + [Rat(1)])
        g = UniPoly([rand_rat(rng) for _ in range(dg)] + [Rat(1)])
        q, r = divide_monic(g, f)
        assert q * f + r == g
        assert r.degree < f.degree
    for deg in list(range(21)) + [rng.randint(1, 20) for _ in range(20)]:
        p = UniPoly([rand_rat(rng) for _ in range(deg)] + [Rat(1)])
        grid = EvalGrid(p.degree + 1)
        assert interpolate(grid, [p.eval(x) for x in grid.points]) == p
    bits = 64
    worst_ratio = Rat(0)
    for deg in (1, 2, 4, 8):
        grid = EvalGrid(deg + 1)
        amp = vandermonde_inverse_norm(grid.points)
        p = UniPoly([rand_rat(rng) for _ in range(deg + 1)])
        noisy = [truncate_to_bits(p.eval(x), bits) for x in grid.points]
        back = interpolate(grid, noisy)
        for j in range(deg + 1):
            dev = abs(back[j] - p[j])
            assert dev <= amp * pow2(-bits)
            if dev * 2**bits > worst_ratio:
                worst_ratio = dev * 2**bits
    # the plain 2^-B bound fails at degree one on the standard grid
    tight = EvalGrid(2)
    assert tight.points == [Rat(0), rat(1, 9)]
    bumped = interpolate(tight, [Rat(0), pow2(-20)])
    assert bumped[1] == 9 * pow2(-20) > pow2(-20)
    assert vandermonde_inverse_norm([Rat(0), Rat(9)]) == 1
    seen = math.log2(float(worst_ratio)) if worst_ratio else float("-inf")
    print(
        "criterion 06: PASS - division and roundtrip exact; perturbed"
        " interpolation within norm*2^-B (plain 2^-B refuted, worst"
        f" amplification seen 2^{seen:.1f})"
    )


def test_criterion_07_error_decay_ledger():
    """Bits-mode twin stays within 2^-(b-t-2) of exact for 32 batches."""
    rng = random.Random(707)
    bits = 96
    exact = state_from_graph(DynGraph.empty(8, 3), 8)
    dirty = state_from_graph(DynGraph.empty(8, 3), 8, mode="bits", bits=bits)
    worst = Rat(0)
    for t in range(1, 33):
        b = nonempty_batch(rng, exact.graph, 2)
        exact = apply_batch(exact, b)
        dirty = apply_batch(dirty, b)
        dev = max_deviation(exact.G, dirty.G)
        assert dev <= pow2(-(bits - t - 2))
        assert dev <= pow2(-(bits - 32 - 2))
        worst = max(worst, dev)
    exponent = math.log2(float(worst)) if worst else float("-inf")
    print(
        "criterion 07: PASS - 32-batch twin run at b=96, max deviation"
        f" 2^{exponent:.1f} <= 2^-62 at every step"
    )


def _ell_for(alpha: Rat, n: int) -> int:
    """Smallest walk length with alpha^(2 ell) <= 2/n^2."""
    ell = 1
    while alpha ** (2 * ell) * n * n > 2:
        ell += 1
    return ell


def _classify(t, bracket, alpha, aprime):
    if bracket.upper <= alpha:
        return "accept"
    if bracket.lower >= aprime:
        return "reject"
    if alpha < bracket.lower and bracket.upper < aprime:
        return "gap"
    if eigencompare(t, alpha) <= 0:
        return "accept"
    if eigencompare(t, aprime) >= 0:
        return "reject"
    return "gap"


def test_criterion_08_tester_soundness():
    """Accept everything certified under alpha, reject everything past alpha'."""
    rng = random.Random(808)
    t0 = time.time()
    suite = [
        DynGraph.empty(8, 2),
        DynGraph.empty(16, 2),
        DynGraph.empty(24, 2),
        _disjoint_pair(complete_graph(5)),
        _disjoint_pair(cycle_graph(8)),
        cycle_graph(8),
        cycle_graph(14),
        cycle_graph(20),
        cycle_graph(24),
        blowup_graph(2, 4),
        blowup_graph(3, 3),
        blowup_graph(2, 6),
        blowup_graph(4, 4),
        blowup_graph(3, 8),
        random_regular_graph(rng, 10, 3),
        random_regular_graph(rng, 14, 3),
        random_regular_graph(rng, 20, 4),
    ]
    tol = pow2(-20)
    tally = {"accept": 0, "reject": 0, "gap": 0}
    for g in suite:
        t = lazy_transition(g)
        bracket = second_eigenvalue(t, tol)
        assert bracket.upper - bracket.lower <= tol
        alphas = [rat(1, 2), rat(5, 8)]
        ells = [_ell_for(a, g.n) for a in alphas]
        state = state_from_graph(g, 4 * max(ells))
        for alpha, ell in zip(alphas, ells):
            cfg = TesterConfig(alpha, g.d, ell)
            required = _classify(t, bracket, alpha, cfg.alpha_prime)
            verdict = expansion_query(state, cfg)
            if required == "accept":
                assert verdict.accept, f"n={g.n} alpha={alpha} must accept"
            elif required == "reject":
                assert not verdict.accept, f"n={g.n} alpha={alpha} must reject"
            tally[required] += 1
    dt = time.time() - t0
    assert dt < 600
    assert tally["accept"] >= 10 and tally["reject"] >= 10
    print(
        f"criterion 08: PASS - {len(suite)} graphs x 2 settings:"
        f" {tally['accept']} required accepts, {tally['reject']} required"
        f" rejects, {tally['gap']} in the gap, all honored, {dt:.0f}s"
    )


def _disjoint_pair(g):
    edges = set(g.edges())
    edges |= {(u + g.n, v + g.n) for u, v in g.edges()}
    return DynGraph(2 * g.n, g.d, frozenset(edges))


def test_criterion_09_spectral_sandwich():
    """1 - 2*phi <= lambda <= 1 - phi^2/2, exactly, on every small graph.

    The one-sided form 1 - phi <= lambda is false under this conductance
    normalization (volume 2d|S|): the 8-cycle has phi = 1/8 but lambda
    strictly below 7/8, and the triangle fails the same way.  Both
    counterexamples are pinned, and the two-sided corrected bound is
    verified exactly; it is tight at the complete bipartite blowup.
    """
    graphs = [
        DynGraph.empty(8, 2),
        matching_graph(4),
        cycle_graph(3),
        cycle_graph(8),
        cycle_graph(10),
        cycle_graph(14),
        complete_graph(4),
        complete_graph(5),
        blowup_graph(2, 4),
        blowup_graph(3, 3),
        _disjoint_pair(complete_graph(4)),
        two_cliques_bridged(4),
        two_cliques_bridged(7),
    ]
    for g in graphs:
        phi = conductance_bruteforce(g).phi
        t = lazy_transition(g)
        assert eigencompare(t, 1 - 2 * phi) >= 0, f"lower bound broke at n={g.n}"
        assert eigencompare(t, 1 - phi * phi / 2) <= 0, f"upper bound broke at n={g.n}"
    assert conductance_bruteforce(cycle_graph(8)).phi == rat(1, 8)
    assert eigencompare(lazy_transition(cycle_graph(8)), rat(7, 8)) == -1
    assert conductance_bruteforce(cycle_graph(3)).phi == rat(1, 2)
    assert eigencompare(lazy_transition(cycle_graph(3)), rat(1, 2)) == -1
    assert conductance_bruteforce(blowup_graph(2, 4)).phi == rat(1, 4)
    assert eigencompare(lazy_transition(blowup_graph(2, 4)), rat(1, 2)) == 0
    print(
        f"criterion 09: PASS - two-sided bound exact on {len(graphs)} graphs,"
        " tight at K_{4,4}; the one-sided 1-phi form is refuted on C8 and C3"
    )


def test_criterion_10_muddling_freshness():
    """200 muddled steps stay within 2^-81 of the oracle; deliveries exact."""
    rng = random.Random(1010)
    cfg = MuddleConfig(8, 3, 8, 8, 96)
    bound = pow2(-(cfg.bits - cfg.L - (cfg.L + 1) // 2 - 3))
    tl = MuddleTimeline(cfg)
    worst = Rat(0)
    deliveries = 0
    for _ in range(200):
        tl.step(nonempty_batch(rng, tl.served.graph, 1))
        oracle = exact_power_sum(tl.served.B, cfg.K)
        dev = max_deviation(tl.served.G, oracle)
        assert dev <= bound
        worst = max(worst, dev)
        row = tl.trace[-1]
        if row.delivered:
            deliveries += 1
            assert tl.served.G == truncate_matrix(oracle, cfg.bits)
            assert tl.served.budget.bits_spent == 1
        if row.clock >= cfg.L:
            assert row.active_jobs == cfg.L
    assert deliveries == 200 - cfg.L + 1
    assert tl.max_budget_age() <= cfg.L + (cfg.L + 1) // 2
    exponent = math.log2(float(worst)) if worst else float("-inf")
    print(
        "criterion 10: PASS - 200 steps at n=8 d=3 L=8 b=96:"
        f" {deliveries} deliveries exact after truncation, deviation"
        f" peak 2^{exponent:.1f} <= 2^-81, budget age <= 12"
    )


def test_criterion_11_golden_transcripts():
    """Every stored script reproduces its transcript byte for byte."""
    scripts = sorted(GOLDEN.glob("*.script"))
    assert len(scripts) == 8
    for script in scripts:
        want = script.with_suffix(".transcript").read_text()
        got = run_script(script.read_text())
        assert got.text == want, f"transcript drifted: {script.name}"
        expected_code = 1 if script.stem == "error_paths" else 0
        assert got.exit_code == expected_code
    print("criterion 11: PASS - 8 transcripts byte-identical, exit codes correct")
