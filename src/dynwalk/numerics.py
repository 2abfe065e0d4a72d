"""Exact rational scalars with an explicit bit-budget discipline.

Every quantity in this package is an exact rational unless it has been pushed
through ``truncate_to_bits``.  A value is called a "b-bit rational" when, in
lowest terms, |numerator| < denominator <= 2**b; in particular its magnitude
is below one.  ``PrecisionBudget`` tracks how many of those bits a maintained
structure has burned through repeated truncation.

The rational type itself is gmpy2's ``mpq`` when available (much faster), and
``fractions.Fraction`` otherwise.  Both normalize identically: gcd-reduced,
sign carried by the numerator, positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

__all__ = [
    "Rat",
    "rat",
    "round_div",
    "truncate_to_bits",
    "format_rat",
    "parse_rat",
    "PrecisionBudget",
    "BudgetExhausted",
]

R0 = Rat(0)
R1 = Rat(1)


def rat(num, den=1):
    """Shorthand constructor for the package rational type."""
    return Rat(num, den)


def round_div(num: int, den: int) -> int:
    """The integer nearest num/den for den > 0, ties toward zero.

    This is the one rounding rule of bits mode, on integers.

    >>> [round_div(v, 4) for v in (-6, -5, -3, -2, 2, 3, 5, 6)]
    [-1, -1, -1, 0, 0, 1, 1, 1]
    """
    q, rem = divmod(abs(num), den)
    if 2 * rem > den:
        q += 1
    return -q if num < 0 else q


def truncate_to_bits(r, bits: int):
    """Round r to the nearest multiple of 2**-bits, ties toward zero.

    The result differs from r by at most 2**-(bits+1).

    >>> truncate_to_bits(rat(3, 7), 3) == rat(3, 8)
    True
    >>> truncate_to_bits(rat(1, 16), 3) == 0
    True
    """
    if bits < 0:
        raise ValueError("negative bit count")
    r = Rat(r)
    scaled = r * (1 << bits)
    if scaled.denominator == 1:
        return r
    return Rat(round_div(scaled.numerator, scaled.denominator), 1 << bits)


def format_rat(r) -> str:
    """Canonical textual form p/q in lowest terms, denominator always shown.

    >>> format_rat(rat(-3, 8))
    '-3/8'
    >>> format_rat(rat(0))
    '0/1'
    """
    r = Rat(r)
    return f"{r.numerator}/{r.denominator}"


def parse_rat(text: str):
    """Parse p/q or a bare integer into a rational.

    Raises ValueError on malformed input (the CLI treats that as a parse
    error for the current line).
    """
    text = text.strip()
    if "/" in text:
        p, _, q = text.partition("/")
        num = int(p)
        den = int(q)
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Rat(num, den)
    return Rat(int(text))


class BudgetExhausted(Exception):
    """Raised when a bits-mode structure would spend precision it lacks."""


@dataclass
class PrecisionBudget:
    """Tracks truncation bits spent against an initial allowance.

    ``initial_bits`` is the coefficient width b of the structure being
    tracked.  ``bits_spent`` counts truncating updates applied since the
    structure was last recomputed exactly.  ``guard`` reserves headroom: charging is refused once fewer
    than ``guard`` bits would remain, which signals that the maintained
    values have gone stale and a fresh recompute is needed.
    """

    initial_bits: int
    bits_spent: int = 0
    guard: int = 8

    def __post_init__(self):
        if self.initial_bits <= 0:
            raise ValueError("budget needs a positive bit allowance")
        if self.bits_spent < 0:
            raise ValueError("negative spend")

    @property
    def remaining(self) -> int:
        return self.initial_bits - self.bits_spent

    def can_spend(self, bits: int = 1) -> bool:
        return self.remaining - bits >= self.guard

    def spend(self, bits: int = 1) -> None:
        if bits < 0:
            raise ValueError("negative spend")
        if not self.can_spend(bits):
            raise BudgetExhausted(
                f"precision budget exhausted: {self.bits_spent} of "
                f"{self.initial_bits} bits spent, guard {self.guard}"
            )
        self.bits_spent += bits

    def copy(self) -> "PrecisionBudget":
        return PrecisionBudget(self.initial_bits, self.bits_spent, self.guard)
