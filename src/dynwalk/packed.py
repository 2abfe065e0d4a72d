"""F packed one int per entry, by Kronecker substitution.

The dynamic state's F(z) = sum of (zT)^j for j = 0..J is stored with
each entry one Python int

    P[s][t] = sum of H_j 2^(w j),   H_j = m delta^j F[s][t][j],

where delta is a common denominator of T (2d for a graph state, whose
lazy walk 2d T is an integer matrix), so every H_j is an integer, and m
is 1 for an exact state and 2^b for a bits state that has been put on
the 2^-b grid.  The digits H_j are signed, each below 2^(w-1) in
magnitude, and the zero entry is the int 0.  Evaluation at y = 2^w is a
ring homomorphism from integer polynomials to integers, so sums and
products of packed ints are packed sums and products, and the low slots
of a result can be read back whenever its true digits there fit in
w - 1 bits.  This module owns the format: the slot width, the digit
codec, rounding to the grid, repacking, and the way back to Rat.

Two kinds of memo are keyed by a packed int, since an entry's value
alone fixes what is computed from it within one packing.  Reads of a
coefficient are memoised per packing (``PackedF.reads``), and the
rounding of an entry to the grid per pair of source and target packing
(``grid_rounding``), which every bits-mode rounding goes through: a
muddled delivery, a fresh bits state's first fold and every fold of a
state on the grid.  Each memo is cleared when it holds READS_MAX
entries, and at most eight of each kind are kept, the least recently
used dropped first, so however many packings a process goes through
they hold at most 8 * READS_MAX entries each: at the muddled
benchmark's shape (n = 16, K = 4, b = 64) a full rounding memo takes
about 160 KB, the eight about 1.3 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat
from operator import add, and_, mul, sub

from .numerics import R0, Rat, round_div
from .poly import UniPoly
from .linalg import PolyMatrix

__all__ = [
    "PackedF",
    "width_for",
    "digits",
    "pack",
    "on_grid",
    "grid_rounding",
    "cut",
    "refit",
    "unpacked",
    "truncate_rows",
    "coefficient",
]


@dataclass(frozen=True, slots=True)
class PackedF:
    """F with every entry one int, sum of H_j 2^(width j) for j < slots.

    H_j = scale * den^j * F[s][t][j] is an integer with |H_j| below
    2^(width - 1).  den is a common denominator of T, scale is 1 or the
    2^b of a bits state on its grid, and norms holds the absolute row
    sums of the integer matrix den * T, whose max bounds |H_j| by
    scale * max(norms)^j.  The zero entry is 0.  rows is never mutated;
    updates share the rows they leave alone.

    reads memoises ``coefficient`` by (entry, slot).  A read round reads
    the same few entries again and again, and decoding a slot and
    building its Rat costs several times the lookup.  The memo is the
    one of the packing's (width, den, scale), which is everything a read
    decodes with, so every snapshot packed alike shares it (successive
    muddled deliveries do), and it is cleared when full.
    """

    rows: list
    width: int
    den: int
    scale: int
    norms: list
    slots: int
    reads: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "reads", _reads(self.width, self.den, self.scale))

    def with_rows(self, touched: dict) -> "PackedF":
        """This packing with the rows in touched replaced."""
        rows = list(self.rows)
        for i, row in touched.items():
            rows[i] = row
        return PackedF(rows, self.width, self.den, self.scale, self.norms, self.slots)


def width_for(scale: int, norm: int, den: int, slots: int) -> int:
    """The slot width for a state's digits and for the low slots of its folds.

    Digits of F and F' are at most scale * norm^J in magnitude, so an
    exact fold's low slots, their difference, stay within twice that.  A
    bits fold's low slots are scale^J times the change of scale F', and
    F' there may exceed T'^j by the grid error, which the budget keeps
    below one (so scale * den^J in digit units).
    """
    top = slots - 1
    digit = scale * max(norm, 1) ** top
    return (scale**top * (2 * digit + scale * den**top)).bit_length() + 2


@lru_cache(maxsize=256)
def _bias(width: int, slots: int) -> int:
    """2^(width - 1) in each of the low slots: added, it makes every signed digit non-negative."""
    return sum(1 << (width * j + width - 1) for j in range(slots))


def digits(e: int, width: int, slots: int) -> list:
    """The signed digits of a packed int, lowest slot first."""
    u = e + _bias(width, slots)
    low, half = (1 << width) - 1, 1 << (width - 1)
    return [((u >> (width * j)) & low) - half for j in range(slots)]


def pack(digits, width: int) -> int:
    return sum(h << (width * j) for j, h in enumerate(digits))


def on_grid(nums, over: int, bits: int, den: int, width: int) -> int:
    """The packed digits r_j den^j, r_j = nums[j] 2^bits / (over den^j) rounded.

    Rounding is to nearest with ties toward zero, the rule of
    ``truncate_to_bits``: with nums[j] / (over den^j) a coefficient of F,
    r_j / 2^bits is that coefficient cut to b bits, and the result is
    packed on scale 2^bits.
    """
    out, dj = [], 1
    for v in nums:
        out.append(round_div(v << bits, over * dj) * dj)
        dj *= den
    return pack(out, width)


def cut(block, width: int, slots: int) -> list:
    """Each packed entry of a block cut to its low slots, by bias and mask, as rows of tuples.

    The cut keeps signed digits, so an entry cuts to 0 exactly when its
    low slots are all zero.
    """
    size = len(block[0]) if block else 0
    bias, mask = _bias(width, slots), (1 << (width * slots)) - 1
    flat = [e for row in block for e in row]
    low = map(sub, map(and_, map(add, flat, repeat(bias)), repeat(mask)), repeat(bias))
    return list(zip(*[low] * size))


def refit(p: PackedF, den: int, norms: list) -> PackedF:
    """p over the denominator den, a multiple of p.den, with row norms norms.

    A new denominator rescales digit j by (den / p.den)^j, and norms
    past the slot width need a wider slot; either repacks every entry.
    Otherwise only the norms are replaced.  The width fits the digits of
    p rescaled as well as those the new norms allow, since a fold reads
    both.
    """
    up = den // p.den
    width = width_for(p.scale, max(max(norms), up * max(p.norms)), den, p.slots)
    if up == 1 and width <= p.width:
        return replace(p, norms=norms)
    ups = [up**j for j in range(p.slots)]

    def repacked(e):
        return pack(map(mul, digits(e, p.width, p.slots), ups), width) if e else 0

    rows = [list(map(repacked, row)) for row in p.rows]
    return PackedF(rows, width, den, p.scale, norms, p.slots)


def unpacked(p: PackedF) -> PolyMatrix:
    """F as a PolyMatrix of Rat polynomials; zero entries share one object."""
    zero, memo = UniPoly.zero(), {}
    dens = [p.scale * p.den**j for j in range(p.slots)]

    def coeff(h, den):
        if not h:
            return R0
        r = memo.get((h, den))
        if r is None:
            r = memo[h, den] = Rat(h, den)
        return r

    def entry(e):
        if not e:
            return zero
        return UniPoly.of_rats(list(map(coeff, digits(e, p.width, p.slots), dens)))

    return PolyMatrix([list(map(entry, row)) for row in p.rows])


# entries a read memo or a rounding memo holds before it is cleared
READS_MAX = 1024


@lru_cache(maxsize=8)
def _reads(width: int, den: int, scale: int) -> dict:
    """The read memo of one packing, (entry, slot) to its coefficient."""
    return {}


class _Rounding(dict):
    """A rounding memo: packed entries of one packing to those entries on another's grid.

    Subscripting it with an entry not held rounds the entry with
    ``on_grid`` and keeps the result, clearing the memo first when it
    is full, so a hit is one C-level dict lookup and within one memo
    each distinct entry is rounded once.
    """

    __slots__ = ("pair",)

    def __missing__(self, e: int) -> int:
        if len(self) >= READS_MAX:
            self.clear()
        width, slots, scale, bits, den, target = self.pair
        r = self[e] = on_grid(digits(e, width, slots), scale, bits, den, target)
        return r


# a muddled timeline rounds through one packing pair, a bits state's
# first fold through one more and its later folds through a third
@lru_cache(maxsize=8)
def grid_rounding(width: int, slots: int, scale: int, bits: int, den: int, target: int) -> dict:
    """The rounding memo of one packing pair, which every bits-mode rounding goes through.

    An entry of the source packing (width, slots, scale, den) has digit
    j scale den^j times its coefficient j; its rounding is packed on
    scale 2^bits at the target width.  The key is everything ``digits``
    and ``on_grid`` read of the two packings, so a memoised rounding is
    exactly the int a fresh call would return.
    """
    memo = _Rounding()
    memo.pair = (width, slots, scale, bits, den, target)
    return memo


def truncate_rows(p: PackedF, bits: int) -> PackedF:
    """p with every coefficient of F rounded to b bits.

    Digit j becomes r delta^j on scale 2^b, for r the integer nearest
    2^b F[s][t][j], ties toward zero, and the width grows to fit the
    new scale.  Every entry goes through the rounding memo of p's
    packing and the new one, looked up once per call.  A graph's F at
    small K takes few distinct values, its digits being small walk
    counts, and a muddled delivery rounds the same ones again and
    again, so a delivery is mostly lookups.
    """
    scale = 1 << bits
    width = width_for(scale, max(p.norms), p.den, p.slots)
    memo = grid_rounding(p.width, p.slots, p.scale, bits, p.den, width)
    rows = [list(map(memo.__getitem__, row)) for row in p.rows]
    return PackedF(rows, width, p.den, scale, p.norms, p.slots)


def coefficient(p: PackedF, s: int, t: int, j: int) -> Rat:
    """F[s][t][j] as a Rat: digit j of P[s][t] over scale * den^j."""
    key = (p.rows[s][t], j)
    r = p.reads.get(key)
    if r is None:
        if len(p.reads) >= READS_MAX:
            p.reads.clear()
        e, w = key[0], p.width
        h = (((e + _bias(w, j + 1)) >> (w * j)) & ((1 << w) - 1)) - (1 << (w - 1))
        r = p.reads[key] = Rat(h, p.scale * p.den**j)
    return r
