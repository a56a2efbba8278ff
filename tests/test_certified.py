import math
import random
from fractions import Fraction

import pytest

from concord.certified import (Interval, acos_bounds, acos_over_pi,
                               atan_bounds, pi_bounds, sqrt_bounds)

F = Fraction


def test_interval_midpoint_radius_and_emptiness():
    a = Interval(F(3, 8), F(5, 8))
    assert a.mid == F(1, 2) and a.rad == F(1, 8)
    assert a.lo <= F(1, 2) <= a.hi and a.excludes_zero
    assert not Interval(F(-1, 4), F(5, 4)).excludes_zero
    p = Interval.point(F(-4, 3))
    assert p.mid == F(-4, 3) and p.rad == 0
    # hi < lo, a negative radius, is an empty interval
    with pytest.raises(ValueError, match="empty interval"):
        Interval(F(0), F(-1))
    # an infinite end never makes an interval empty
    assert Interval(F(1), None).lo == 1 and Interval(None, F(-1)).hi == -1


def test_sqrt_bounds():
    rng = random.Random(11)
    for _ in range(100):
        q = F(rng.randint(0, 4000), rng.randint(1, 50))
        lo, hi = sqrt_bounds(q, 40)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= F(1, 1 << 40)


def test_atan_bounds_against_math():
    rng = random.Random(12)
    for _ in range(60):
        x = F(rng.randint(-4000, 4000), rng.randint(1, 40))
        lo, hi = atan_bounds(x, 48)
        ref = math.atan(x)
        assert float(lo) <= ref + 1e-12 and ref - 1e-12 <= float(hi)
        assert hi - lo <= F(1, 1 << 44)


def test_pi_bounds():
    lo, hi = pi_bounds(64)
    assert float(lo) <= math.pi <= float(hi)
    assert hi - lo <= F(1, 1 << 60)


def test_acos_bounds():
    rng = random.Random(13)
    for _ in range(60):
        y = F(rng.randint(-100, 100), 101)
        lo, hi = acos_bounds(y, 48)
        ref = math.acos(y)
        assert float(lo) <= ref + 1e-12 and ref - 1e-12 <= float(hi)
    lo, hi = acos_bounds(F(1), 48)
    assert lo == hi == 0
    lo, hi = acos_bounds(F(-1), 48)
    assert float(lo) <= math.pi <= float(hi)


def test_acos_over_pi_trefoil_jump():
    # arccos(1/2)/pi = 1/3
    lo, hi = acos_over_pi(F(1, 2), F(1, 2), 48)
    assert lo <= F(1, 3) <= hi
    assert hi - lo <= F(1, 1 << 40)
