"""Rational scalars, truncation, and the precision budget."""

import pytest
from hypothesis import given, strategies as st

from dynwalk.numerics import (
    BudgetExhausted,
    PrecisionBudget,
    Rat,
    format_rat,
    parse_rat,
    pow2,
    rat,
    truncate_to_bits,
)

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
