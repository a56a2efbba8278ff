"""Certified real enclosures with exact rational endpoints.

`Interval` is the one enclosure type: rho0, assumptions and evaluated
signature expressions are all intervals.

Everything here is directed: sqrt via integer square roots, arctan via
argument halving plus an alternating series whose truncation error is
bounded by the first omitted term, pi via Machin's formula.  No floating
point anywhere, so enclosures are proofs, not estimates.
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from math import gcd, isqrt

from .records import frozen

F = Fraction


@frozen
class Interval:
    """Extended interval with open/closed finite endpoints; None = infinite.

    An interval with both ends finite is never empty: hi < lo raises.
    `mid` and `rad` need both ends finite.
    """

    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x):
        x = F(x)
        return cls(x, x)

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    @property
    def rad(self):
        return (self.hi - self.lo) / 2

    def __add__(self, other):
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi,
                        self.lo_open or other.lo_open,
                        self.hi_open or other.hi_open)

    def scale(self, c):
        c = F(c)
        if c == 0:
            return Interval.point(0)
        if c > 0:
            return Interval(None if self.lo is None else c * self.lo,
                            None if self.hi is None else c * self.hi,
                            self.lo_open, self.hi_open)
        return Interval(None if self.hi is None else c * self.hi,
                        None if self.lo is None else c * self.lo,
                        self.hi_open, self.lo_open)

    @property
    def excludes_zero(self):
        if self.lo is not None and (self.lo > 0 or (self.lo == 0 and self.lo_open)):
            return True
        if self.hi is not None and (self.hi < 0 or (self.hi == 0 and self.hi_open)):
            return True
        return False

    @property
    def is_exact_zero(self):
        return self.lo == 0 and self.hi == 0

    def render(self):
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        lb = "(" if self.lo_open or self.lo is None else "["
        rb = ")" if self.hi_open or self.hi is None else "]"
        return f"{lb}{lo}, {hi}{rb}"


def sqrt_bounds(q: Fraction, bits: int):
    """(lo, hi) rationals with lo^2 <= q <= hi^2 and hi - lo <= 2^-bits."""
    q = F(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return F(0), F(0)
    # sqrt(q) = sqrt(num * den) / den; integer sqrt at 2^-(bits+1) resolution
    m = q.numerator * q.denominator
    k = bits + 1
    r = isqrt(m << (2 * k))
    den = q.denominator << k
    return F(r, den), F(r + 1, den)


def _atan_series(y: Fraction, bits: int):
    """Enclosure of atan(y) for |y| <= 1/2 via the alternating series.

    Term magnitudes decrease strictly, so the limit is bracketed by any
    two consecutive partial sums.  With y = a/b the k-th partial sum is
    kept as an integer over b^(2k+1) lcm(1, 3, ..., 2k+1), and the stop
    test |y|^(2k+1) / (2k+1) <= 2^-(bits+2) is an integer comparison, so
    the two Fractions are built (and reduced) once, at the end.
    """
    y = F(y)
    a, b = y.numerator, y.denominator
    a2, b2 = a * a, b * b
    limit = 1 << (bits + 2)
    num, den, lcm = 0, 1, 1          # acc = num / den, den = b^(2k-1) lcm
    apow, bpow = a, b                # a^(2k+1), b^(2k+1)
    k = 0
    while True:
        m = 2 * k + 1
        nlcm = lcm * m // gcd(lcm, m)
        term = apow * (nlcm // m) * (-1 if k % 2 else 1)
        nxt = num * (b2 if k else b) * (nlcm // lcm) + term
        nden = bpow * nlcm
        if abs(apow) * limit <= bpow * m:
            lo, hi = sorted((F(num, den), F(nxt, nden)))
            return lo, hi
        num, den, lcm = nxt, nden, nlcm
        apow *= a2
        bpow *= b2
        k += 1


def atan_bounds(x: Fraction, bits: int):
    """Two-sided enclosure of atan(x) for any rational x."""
    x = F(x)
    if x < 0:
        lo, hi = atan_bounds(-x, bits)
        return -hi, -lo
    # argument halving: atan(x) = 2 atan(x / (1 + sqrt(1 + x^2)))
    lo_x, hi_x = x, x
    doublings = 0
    while hi_x > F(1, 2):
        _, su = sqrt_bounds(1 + lo_x * lo_x, bits + 8)
        sl2, _ = sqrt_bounds(1 + hi_x * hi_x, bits + 8)
        lo_x = lo_x / (1 + su)       # larger denominator bound -> lower result
        hi_x = hi_x / (1 + sl2)
        doublings += 1
        if doublings > 80:
            raise ArithmeticError("atan argument reduction failed to converge")
    lo1, _ = _atan_series(lo_x, bits + doublings + 2)
    _, hi1 = _atan_series(hi_x, bits + doublings + 2)
    m = 1 << doublings
    return m * lo1, m * hi1


@cache
def pi_bounds(bits: int):
    """Machin: pi = 16 atan(1/5) - 4 atan(1/239).  Cached per bit width:
    callers use a handful of widths."""
    a_lo, a_hi = atan_bounds(F(1, 5), bits + 6)
    b_lo, b_hi = atan_bounds(F(1, 239), bits + 6)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def acos_bounds(y: Fraction, bits: int):
    """Enclosure of arccos(y) for rational y in [-1, 1]."""
    y = F(y)
    if not -1 <= y <= 1:
        raise ValueError("arccos argument out of [-1, 1]")
    if y == 1:
        return F(0), F(0)
    if y == -1:
        return pi_bounds(bits)
    # arccos(y) = 2 atan(sqrt((1 - y)/(1 + y)))
    q = (1 - y) / (1 + y)
    sl, su = sqrt_bounds(q, bits + 8)
    lo1, _ = atan_bounds(sl, bits + 2)
    _, hi1 = atan_bounds(su, bits + 2)
    return 2 * lo1, 2 * hi1


def acos_over_pi(lo: Fraction, hi: Fraction, bits: int):
    """Enclosure of arccos(c)/pi over all c in [lo, hi] subset of [-1, 1].

    arccos is decreasing, so the upper endpoint comes from lo.
    """
    t_lo, _ = acos_bounds(F(hi), bits)
    _, t_hi = acos_bounds(F(lo), bits)
    pi_lo, pi_hi = pi_bounds(bits)
    return t_lo / pi_hi, t_hi / pi_lo
