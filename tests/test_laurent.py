import random
from fractions import Fraction

import pytest

from concord import polys
from concord.laurent import (LaurentPoly, UnsupportedDegree, ZeroPolynomial,
                             conjugate, factor, gcd, normalize, render)

from helpers import fox_milnor, resultant

F = Fraction


def lp(*pairs):
    return LaurentPoly(dict(pairs))


def test_normalize_sign_flip():
    p = lp((2, -2), (1, 5), (0, -2))
    assert normalize(p) == lp((2, 2), (1, -5), (0, 2))


def test_normalize_shift_and_scale():
    assert normalize(lp((-1, 1), (0, -2))) == lp((1, 2), (0, -1))


def test_normalize_constant_extracts_unit():
    assert normalize(LaurentPoly({0: 7})) == LaurentPoly.one()


def test_normalize_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        p = LaurentPoly({rng.randint(-4, 4): rng.randint(-9, 9)
                         for _ in range(rng.randint(1, 5))})
        if p.is_zero:
            continue
        q = normalize(p)
        assert normalize(q) == q


def test_normalize_zero_raises():
    with pytest.raises(ZeroPolynomial):
        normalize(LaurentPoly())


def test_normalize_multiplicative():
    rng = random.Random(2)
    for _ in range(60):
        p = LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                         for _ in range(3)})
        q = LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                         for _ in range(3)})
        if p.is_zero or q.is_zero:
            continue
        assert normalize(p * q) == normalize(normalize(p) * normalize(q))


def test_gcd_with_zero():
    p = lp((2, 2), (1, -5), (0, 2))
    assert gcd(p, LaurentPoly()) == normalize(p)
    with pytest.raises(ZeroPolynomial):
        gcd(LaurentPoly(), LaurentPoly())


def test_gcd_examples():
    p = lp((2, 2), (1, -5), (0, 2))       # (2t-1)(t-2)
    q = lp((1, 2), (0, -1))               # 2t-1
    assert gcd(p, q) == lp((1, 2), (0, -1))
    r = lp((2, 1), (1, -1), (0, 1))       # t^2-t+1
    s = lp((1, 1), (0, -2))               # t-2
    assert gcd(r, s) == LaurentPoly.one()


def test_gcd_against_resultant_oracle():
    rng = random.Random(3)
    for _ in range(120):
        a = [F(rng.randint(-10, 10)) for _ in range(rng.randint(1, 7))]
        b = [F(rng.randint(-10, 10)) for _ in range(rng.randint(1, 7))]
        pa, pb = polys.trim(list(a)), polys.trim(list(b))
        if polys.is_zero(pa) or polys.is_zero(pb):
            continue
        p = LaurentPoly.from_dense(pa)
        q = LaurentPoly.from_dense(pb)
        g = gcd(p, q)
        gd, _ = g.to_dense()
        # the gcd divides both, and the cofactors are coprime
        qa = polys.divmod_poly(pa, gd)
        qb = polys.divmod_poly(pb, gd)
        assert polys.is_zero(qa[1]) and polys.is_zero(qb[1])
        if polys.deg(qa[0]) > 0 and polys.deg(qb[0]) > 0:
            assert resultant(qa[0], qb[0]) != 0
        # resultant detects exactly the nontrivial-gcd cases
        if polys.deg(pa) > 0 and polys.deg(pb) > 0:
            assert (resultant(pa, pb) == 0) == (g.span > 0)


def test_conjugate_examples():
    assert conjugate(lp((1, 1), (0, -2))) == lp((1, 2), (0, -1))
    pal = lp((2, 1), (1, -1), (0, 1))
    assert conjugate(pal) == pal
    assert conjugate(LaurentPoly({0: F(3, 7)})) == LaurentPoly.one()


def test_conjugate_involution():
    rng = random.Random(4)
    for _ in range(60):
        p = LaurentPoly({rng.randint(-4, 4): rng.randint(-6, 6)
                         for _ in range(rng.randint(1, 5))})
        if p.is_zero:
            continue
        c = normalize(p)
        assert conjugate(conjugate(c)) == c


def test_factor_examples():
    f = factor(lp((2, 2), (1, -5), (0, 2)))
    assert sorted(render(p) for p, _ in f.factors) == ["2*t - 1", "t - 2"]
    irr = factor(lp((2, 1), (1, -1), (0, 1)))
    assert len(irr.factors) == 1 and irr.factors[0][1] == 1
    lin = factor(lp((1, 1), (0, -1)))
    assert [render(p) for p, _ in lin.factors] == ["t - 1"]


def test_factor_recomposes_exactly():
    rng = random.Random(5)
    for _ in range(60):
        p = LaurentPoly({rng.randint(-3, 5): F(rng.randint(-6, 6),
                                               rng.randint(1, 4))
                         for _ in range(rng.randint(1, 6))})
        if p.is_zero:
            continue
        assert factor(p).recompose() == p


def test_factor_degree_bound():
    p = LaurentPoly({0: 1, 40: 1})
    with pytest.raises(UnsupportedDegree):
        factor(p)
    factor(p, max_degree=64)


def test_fox_milnor_examples():
    assert fox_milnor(lp((2, 2), (1, -5), (0, 2))) is True
    assert fox_milnor(lp((2, 1), (1, -1), (0, 1))) is False
    assert fox_milnor(LaurentPoly.one()) is True


def test_fox_milnor_norms_random():
    rng = random.Random(6)
    count = 0
    while count < 200:
        f = LaurentPoly({k: rng.randint(-4, 4) for k in range(5)})
        if f.is_zero:
            continue
        assert fox_milnor(f * f.substitute_inverse()) is True
        count += 1


def test_render_descending():
    assert render(lp((2, 2), (1, -5), (0, 2))) == "2*t^2 - 5*t + 2"
    assert render(lp((-1, 1), (0, -2))) == "-2 + t^-1"
    assert render(LaurentPoly()) == "0"
