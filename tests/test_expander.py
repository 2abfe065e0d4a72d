"""Expansion tester: thresholds, verdicts, precision refusals."""

import math
import random
from decimal import Decimal, localcontext

import pytest

from dynwalk.numerics import Rat, rat
from dynwalk.graph import EdgeBatch, EdgeOp
from dynwalk.dyncore import apply_batch, initial_state, read_power_entry, state_from_graph
from dynwalk.expander import (
    PrecisionRefusal,
    TesterConfig,
    Verdict,
    expansion_query,
    threshold,
)

from conftest import random_graph


def batch(*pairs):
    return EdgeBatch(tuple(EdgeOp("insert", u, v) for u, v in pairs))


def test_threshold_values():
    assert threshold(2) == 1
    assert threshold(4) == rat(3, 8)
    assert threshold(1) == 3
    assert threshold(10) == rat(12, 100)
    with pytest.raises(ValueError):
        threshold(0)


def test_config_validation():
    with pytest.raises(ValueError):
        TesterConfig(Rat(0), 2, 1)
    with pytest.raises(ValueError):
        TesterConfig(Rat(1), 2, 1)
    with pytest.raises(ValueError):
        TesterConfig(rat(1, 2), 2, 0)
    with pytest.raises(ValueError):
        TesterConfig(rat(1, 2), 0, 1)


def test_gap_endpoint():
    cfg = TesterConfig(rat(1, 2), 2, 1)
    assert cfg.alpha_prime == rat(19999, 20000)
    assert cfg.phi == rat(1, 2)
    wide = TesterConfig(rat(1, 10), 2, 1)
    assert wide.alpha_prime == 1 - rat(81, 500000)


def test_default_walk_length():
    # ceil(ln n / (8 phi^2)), floored at one
    assert TesterConfig.default_ell(2, rat(1, 2)) == 1
    assert TesterConfig.default_ell(16, rat(1, 2)) == 2
    assert TesterConfig.default_ell(1024, rat(3, 4)) == 14
    with pytest.raises(ValueError):
        TesterConfig.default_ell(0, rat(1, 2))
    cfg = TesterConfig.for_graph(16, rat(1, 2), 3)
    assert cfg.ell == 2


def test_default_walk_length_matches_high_precision_logarithm():
    # ln n / (8 phi^2) is never an integer for n >= 2, and at 60 digits
    # none of these come close enough to one for the ceiling to flip
    with localcontext() as ctx:
        ctx.prec = 60
        for alpha in (rat(1, 2), rat(3, 4), rat(1, 10), rat(9, 10), rat(99, 100)):
            phi = 1 - alpha
            rate = 8 * (Decimal(int(phi.numerator)) / Decimal(int(phi.denominator))) ** 2
            for n in range(1, 4097):
                want = max(1, math.ceil(Decimal(n).ln() / rate))
                assert TesterConfig.default_ell(n, alpha) == want, (n, alpha)


def test_verdict_rejection_needs_witness():
    with pytest.raises(ValueError, match="witness"):
        Verdict(False)
    Verdict(True)  # fine without one


def test_single_edge_accepts():
    st = apply_batch(initial_state(2, 1, 8), batch((0, 1)))
    for ell in (1, 2):
        v = expansion_query(st, TesterConfig(rat(1, 2), 1, ell))
        assert v.accept and v.witness is None


def test_disjoint_edges_reject():
    st = apply_batch(initial_state(4, 1, 8), batch((0, 1), (2, 3)))
    for ell in (1, 2):
        v = expansion_query(st, TesterConfig(rat(1, 2), 1, ell))
        assert not v.accept
        assert v.witness == 0
        assert v.value == rat(1, 2)


def test_empty_graph_rejects():
    st = initial_state(3, 2, 4)
    v = expansion_query(st, TesterConfig(rat(1, 2), 2, 1))
    assert not v.accept
    assert v.witness == 0
    assert v.value == 1


def test_walk_length_needs_truncation_headroom():
    st = initial_state(4, 2, 6)
    with pytest.raises(ValueError, match="needs at least 8"):
        expansion_query(st, TesterConfig(rat(1, 2), 2, 2))


def test_return_probability_is_collision_mass():
    rng = random.Random(911)
    g = random_graph(rng, 6, 3, fill=0.7)
    st = state_from_graph(g, 8)
    ell = 2
    for v in range(6):
        ret = read_power_entry(st, v, v, 2 * ell)
        coll = sum(read_power_entry(st, v, u, ell) ** 2 for u in range(6))
        assert ret == coll
        assert ret >= rat(1, 6)


def test_return_probabilities_shrink_with_walk_length():
    rng = random.Random(912)
    g = random_graph(rng, 5, 3, fill=0.8)
    st = state_from_graph(g, 12)
    for v in range(5):
        vals = [read_power_entry(st, v, v, 2 * ell) for ell in (1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2]
        assert all(x >= 0 for x in vals)


def test_precision_refusal_on_thin_budget():
    st = initial_state(32, 2, 4, mode="bits", bits=16)
    with pytest.raises(PrecisionRefusal, match=r"2\^-14 exceeds 1/n\^3 at n=32"):
        expansion_query(st, TesterConfig(rat(1, 2), 2, 1))


def test_wide_budget_answers_then_decays_into_refusal():
    st = initial_state(8, 1, 8, mode="bits", bits=24)
    st = apply_batch(st, batch((0, 1), (2, 3)))
    cfg = TesterConfig(rat(1, 2), 1, 1)
    v = expansion_query(st, cfg)
    assert not v.accept
    # spend the budget down: headroom 24 - spent - 2 must certify 1/512
    while (1 << (24 - st.budget.bits_spent - 2)) >= 512:
        st = apply_batch(st, EdgeBatch((EdgeOp("delete", 0, 1), EdgeOp("insert", 0, 1))))
    with pytest.raises(PrecisionRefusal):
        expansion_query(st, cfg)
