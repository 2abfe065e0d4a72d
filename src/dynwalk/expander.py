"""Gap expansion testing from maintained walk coefficients.

The tester reads the diagonal of T^(2*ell) out of the dynamic state and
accepts exactly when every return probability is at most (1/n)(1 + 2/n).
Return probabilities are collision probabilities of length-ell walk
endpoints, which is what makes the diagonal of the squared power the right
summary: well-mixed walks have near-uniform endpoint distributions and
near-minimal collision mass, while a sparse cut traps walks and pushes
some diagonal entry above the threshold.

The gap is asymmetric by design: graphs with second eigenvalue at most
alpha must be accepted, graphs above alpha' = 1 - (1 - alpha)^2/5000 must
be rejected, and anything in between may go either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import Rat
from .dyncore import DynState, read_power_entry

__all__ = [
    "TesterConfig",
    "Verdict",
    "PrecisionRefusal",
    "threshold",
    "expansion_query",
]


class PrecisionRefusal(Exception):
    """Raised instead of answering when tracked precision is too stale."""


@dataclass(frozen=True)
class TesterConfig:
    """Gap parameters and walk length for one tester instance.

    alpha_prime is pinned to alpha by the gap formula; ell is free because
    at desk-scale n the asymptotic default below is a suggestion, not an
    optimum, and the acceptance suite pins explicit (n, ell, alpha)
    triples validated by the eigenvalue oracle.
    """

    alpha: Rat
    d: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Rat(self.alpha))
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.ell < 1:
            raise ValueError("walk length must be at least one")
        if self.d < 1:
            raise ValueError("degree bound must be at least one")

    @property
    def phi(self) -> Rat:
        return 1 - self.alpha

    @property
    def alpha_prime(self) -> Rat:
        return 1 - (1 - self.alpha) ** 2 / 5000

    @staticmethod
    def default_ell(n: int, alpha) -> int:
        """ceil(ln n / (8 Phi^2)), floored at one, computed exactly.

        That is the least ell >= 1 with e^(8 Phi^2 ell) >= n, found by
        bisection with every comparison decided by _exp_at_least.  Since
        ln n < 0.7 bit_length(n), ell = ceil(0.7 bit_length(n) / (8 Phi^2))
        always suffices and bounds the search.
        """
        phi = 1 - Rat(alpha)
        if n < 1:
            raise ValueError("need at least one vertex")
        if not (0 < phi < 1):
            raise ValueError("alpha must lie strictly between 0 and 1")
        rate = 8 * phi * phi
        enough = Rat(7 * n.bit_length(), 10) / rate
        lo, hi = 1, max(1, -(-enough.numerator // enough.denominator))
        while lo < hi:
            mid = (lo + hi) // 2
            if _exp_at_least(rate * mid, n):
                hi = mid
            else:
                lo = mid + 1
        return lo


def _exp_at_least(r, n: int) -> bool:
    """Whether e^r >= n, for rational r = p/q > 0 and integer n >= 1, exactly.

    The Taylor partial sum S_m = sum of r^i/i! for i <= m bounds e^r from
    below.  Once m + 2 > r the tail is at most t_(m+1) (m+2)/(m+2-r),
    where t_i = r^i/i!, since each later term is at most r/(m+2) times
    the one before; S_m plus that bounds e^r from above.  Terms are added
    until one bound decides.  Both tests run on integers: s = S_m D_m
    over the common denominator D_m = q^m m!, and pw = p^m.  For rational
    r != 0, e^r is irrational (Lindemann), so it never equals n and the
    loop ends.
    """
    p, q = int(r.numerator), int(r.denominator)
    m, pw, den, s = 1, p, q, q + p
    while True:
        if s >= n * den:
            return True
        # S_m + t_(m+1) (m+2) / (m+2-r) < n, times D_m (m+1) ((m+2) q - p)
        slack = (m + 2) * q - p
        if slack > 0 and (s - n * den) * (m + 1) * slack + pw * p * (m + 2) < 0:
            return False
        m += 1
        pw *= p
        den *= q * m
        s = s * q * m + pw


@dataclass(frozen=True)
class Verdict:
    accept: bool
    witness: int | None = None
    value: Rat | None = None

    def __post_init__(self):
        if not self.accept and self.witness is None:
            raise ValueError("a rejection must carry a witness")


def threshold(n: int) -> Rat:
    """The accept bound (1/n)(1 + 2/n) on every diagonal return value."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Rat(n + 2, n * n)


def expansion_query(state: DynState, cfg: TesterConfig) -> Verdict:
    """Deterministic full-diagonal scan of T^(2 ell) against the threshold.

    Needs K >= 4 ell so the coefficient is actually maintained (factor two
    for the bipartite doubling, factor two for the collision squaring).
    In bits mode the answer is refused outright when the tracked budget
    cannot certify entrywise error below 1/n^3; a stale answer would be
    worse than none.
    """
    n = state.n
    if state.K < 4 * cfg.ell:
        raise ValueError(
            f"state truncation {state.K} cannot serve walk length "
            f"{cfg.ell}; needs at least {4 * cfg.ell}"
        )
    if state.is_bits:
        headroom = state.bits - state.budget.bits_spent - 2
        if headroom < 0 or (1 << headroom) < n**3:
            raise PrecisionRefusal(
                f"certified error 2^-{headroom} exceeds 1/n^3 at n={n}"
            )
    bound = threshold(n)
    for v in range(n):
        val = read_power_entry(state, v, v, 2 * cfg.ell)
        if val > bound:
            return Verdict(False, v, val)
    return Verdict(True, None, None)
