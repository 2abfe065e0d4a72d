"""Rational scalars, truncation, and the precision budget."""

import math

import pytest
from hypothesis import given, strategies as st

from dynwalk.numerics import (
    BudgetExhausted,
    PrecisionBudget,
    Rat,
    format_rat,
    parse_rat,
    rat,
    round_div,
    truncate_to_bits,
)

from conftest import pow2

rationals = st.builds(
    lambda p, q: Rat(p, q),
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
)
bit_counts = st.integers(0, 48)


def test_truncate_examples():
    assert truncate_to_bits(rat(1, 2), 3) == rat(1, 2)
    assert truncate_to_bits(rat(3, 7), 3) == rat(3, 8)
    assert truncate_to_bits(rat(1, 16), 3) == 0
    # ties move toward zero on both sides
    assert truncate_to_bits(rat(-1, 16), 3) == 0
    assert truncate_to_bits(rat(-3, 7), 3) == rat(-3, 8)


def _nearest_by_definition(num, den):
    """The integer nearest num/den, ties toward zero, from Rat comparisons alone."""
    r = Rat(num, den)
    lo = math.floor(r)
    return min((lo, lo + 1), key=lambda q: (abs(r - q), abs(q)))


def test_round_div_negative_values_and_exact_ties():
    # (num, den, want): ties at +-1/2, +-3/2, +-5/2 go toward zero
    cases = [
        (1, 2, 0), (-1, 2, 0), (3, 2, 1), (-3, 2, -1), (5, 2, 2), (-5, 2, -2),
        (-6, 4, -1), (-2, 4, 0), (-7, 4, -2), (-5, 4, -1), (7, 4, 2),
        (0, 3, 0), (-9, 3, -3), (-10, 3, -3), (-11, 3, -4),
    ]
    for num, den, want in cases:
        assert round_div(num, den) == want == _nearest_by_definition(num, den)


@given(st.integers(-(10**9), 10**9), st.integers(1, 10**6))
def test_round_div_matches_the_rat_definition(num, den):
    assert round_div(num, den) == _nearest_by_definition(num, den)


@given(st.integers(-(10**6), 10**6), st.integers(1, 10**4))
def test_round_div_breaks_every_exact_tie_toward_zero(q, half):
    # (2q + 1) / 2 is exactly halfway between q and q + 1
    num, den = (2 * q + 1) * half, 2 * half
    assert round_div(num, den) == (q if q >= 0 else q + 1) == _nearest_by_definition(num, den)


@given(rationals, bit_counts)
def test_truncate_to_bits_is_round_div_on_the_scaled_value(r, bits):
    want = Rat(round_div(r.numerator << bits, r.denominator), 1 << bits)
    assert truncate_to_bits(r, bits) == want


def test_truncate_rejects_negative_bits():
    with pytest.raises(ValueError):
        truncate_to_bits(rat(1, 2), -1)


def test_pow2():
    assert pow2(4) == 16
    assert pow2(0) == 1
    assert pow2(-3) == rat(1, 8)


def test_format_rat():
    assert format_rat(rat(-3, 8)) == "-3/8"
    assert format_rat(rat(0)) == "0/1"
    assert format_rat(rat(4, 2)) == "2/1"


def test_parse_rat():
    assert parse_rat("3/8") == rat(3, 8)
    assert parse_rat("-3/8") == rat(-3, 8)
    assert parse_rat("7") == rat(7)
    assert parse_rat(" 1/2 ") == rat(1, 2)
    for bad in ("1/0", "1/-2", "a/b", "1.5", ""):
        with pytest.raises(ValueError):
            parse_rat(bad)


@given(rationals, bit_counts)
def test_truncate_error_bound(r, bits):
    t = truncate_to_bits(r, bits)
    assert abs(t - r) <= Rat(1, 2 ** (bits + 1))
    # result lives on the 2**-bits grid
    assert (t * (1 << bits)).denominator == 1


@given(rationals, bit_counts)
def test_truncate_idempotent(r, bits):
    t = truncate_to_bits(r, bits)
    assert truncate_to_bits(t, bits) == t


@given(rationals, bit_counts)
def test_truncate_is_b_approx(r, bits):
    assert abs(truncate_to_bits(r, bits) - r) <= Rat(1, 1 << bits)


@given(rationals)
def test_format_parse_roundtrip(r):
    assert parse_rat(format_rat(r)) == r


def test_budget_mechanics():
    b = PrecisionBudget(10)
    assert b.remaining == 10
    assert b.guard == 8
    assert b.can_spend(1)
    b.spend(1)
    assert b.bits_spent == 1
    assert b.remaining == 9
    # one more spend reaches the guard exactly
    assert b.can_spend(1)
    b.spend(1)
    assert not b.can_spend(1)
    with pytest.raises(BudgetExhausted):
        b.spend(1)
    assert b.bits_spent == 2


def test_budget_refresh_and_copy():
    b = PrecisionBudget(64)
    b.spend(5)
    dup = b.copy()
    dup.spend(1)
    assert b.bits_spent == 5
    assert dup.bits_spent == 6


def test_budget_validation():
    with pytest.raises(ValueError):
        PrecisionBudget(0)
    with pytest.raises(ValueError):
        PrecisionBudget(8, bits_spent=-1)
    b = PrecisionBudget(64)
    with pytest.raises(ValueError):
        b.spend(-1)


def test_budget_message_names_the_numbers():
    b = PrecisionBudget(10)
    b.spend(2)
    with pytest.raises(BudgetExhausted, match="2 of 10 bits spent, guard 8"):
        b.spend(1)
