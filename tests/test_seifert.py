import random
from fractions import Fraction

import pytest

from concord import seifert
from concord.laurent import LaurentPoly, normalize
from concord.seifert import (NotAKnot, SeifertMatrix, UnitCirclePoint,
                             alexander_poly, connected_sum, genus_one,
                             jump_set, lt_signature, mirror, rho0,
                             signature_arcs, signature_function_csv,
                             stabilize, torus_knot, twist_knot, unknot)

F = Fraction
OM = UnitCirclePoint.from_cayley
MINUS_ONE = seifert.OMEGA_MINUS_ONE


def lp(*pairs):
    return LaurentPoly(dict(pairs))


def test_matrix_validation():
    with pytest.raises(ValueError):
        SeifertMatrix.from_rows([[0, 2], [0, 0]])   # V - V^T not symplectic
    with pytest.raises(ValueError):
        SeifertMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    SeifertMatrix.from_rows([[0, 1], [0, 0]])


def test_twist_knot_matrix():
    assert twist_knot(2).entries == ((2, 1), (0, -1))
    assert alexander_poly(twist_knot(2)) == lp((2, 2), (1, -5), (0, 2))
    # tw = 0 gives a trivial Alexander polynomial (unknotted-surface knot)
    assert alexander_poly(twist_knot(0)) == LaurentPoly.one()
    # tw = 1 is the figure-eight shape, tw = -1 the trefoil shape
    assert alexander_poly(twist_knot(1)) == lp((2, 1), (1, -3), (0, 1))
    assert alexander_poly(twist_knot(-1)) == lp((2, 1), (1, -1), (0, 1))


def test_genus_one_matrix():
    assert genus_one(1, 0).entries == ((0, 1), (2, 0))
    assert alexander_poly(genus_one(1, 0)) == lp((2, 2), (1, -5), (0, 2))
    assert alexander_poly(genus_one(0, 0)) == LaurentPoly.one()
    for tw in (-3, 0, 5):
        assert alexander_poly(genus_one(-1, tw)) == LaurentPoly.one()


def test_torus_knot_construction():
    t23 = torus_knot(2, 3)
    assert t23.entries == ((-1, 1), (0, -1))
    assert alexander_poly(t23) == lp((2, 1), (1, -1), (0, 1))
    assert torus_knot(2, -1).size == 0
    assert alexander_poly(torus_knot(3, -2)) == lp((2, 1), (1, -1), (0, 1))
    assert lt_signature(torus_knot(3, -2), MINUS_ONE) == 2
    with pytest.raises(NotAKnot):
        torus_knot(2, 4)
    with pytest.raises(NotAKnot):
        torus_knot(0, 5)


def test_torus_knot_closed_form_delta():
    # Delta(T(p,q)) = (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1))
    for p, q in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        num = lp((p * q, 1), (0, -1)) * lp((1, 1), (0, -1))
        den = lp((p, 1), (0, -1)) * lp((q, 1), (0, -1))
        nd, _ = num.to_dense()
        dd, _ = den.to_dense()
        from concord import polys
        quotient = polys.exact_div(nd, dd)
        expected = normalize(LaurentPoly.from_dense(quotient))
        assert alexander_poly(torus_knot(p, q)) == expected


def test_torus_knot_classical_signatures():
    expected = {(2, 3): -2, (2, 5): -4, (2, 7): -6, (3, 4): -6, (3, 5): -8}
    for (p, q), sig in expected.items():
        assert lt_signature(torus_knot(p, q), MINUS_ONE) == sig


def test_connected_sum_and_mirror():
    a, b = genus_one(1, 0), genus_one(2, 0)
    s = connected_sum(a, b)
    assert s.genus == 2
    assert alexander_poly(s) == normalize(alexander_poly(a) * alexander_poly(b))
    assert connected_sum(a, unknot()).entries == a.entries
    t = torus_knot(2, 3)
    both = connected_sum(t, mirror(t))
    for s_ in (F(1, 3), F(1), F(7, 2)):
        assert lt_signature(both, OM(s_)) == 0


def test_lt_signature_examples():
    assert lt_signature(unknot(), OM(F(1, 2))) == 0
    assert lt_signature(torus_knot(2, 3), MINUS_ONE) == -2
    assert lt_signature(torus_knot(2, 3), OM(1)) == -2       # omega = i
    assert lt_signature(twist_knot(2), seifert.OMEGA_ONE) == 0


def test_jump_sets():
    assert len(jump_set(twist_knot(2))) == 0
    js = jump_set(torus_knot(2, 3))
    assert len(js) == 1
    p = js[0]
    assert p.x_lo <= 1 <= p.x_hi and p.multiplicity == 1
    assert len(jump_set(unknot())) == 0
    for p in jump_set(torus_knot(3, 5)):
        if not p.is_exact:
            assert p.x_hi - p.x_lo < F(1, 1 << 32)


def test_rho0_values():
    r = rho0(unknot())
    assert r.mid == 0 and r.rad == 0
    r = rho0(torus_knot(2, 3), F(1, 10 ** 9))
    assert r.lo <= F(-4, 3) <= r.hi and r.rad <= F(1, 10 ** 9)
    r = rho0(twist_knot(2))
    assert r.mid == 0 and r.rad == 0
    # mirror antisymmetry of the enclosure
    r = rho0(mirror(torus_knot(2, 3)), F(1, 10 ** 9))
    assert r.lo <= F(4, 3) <= r.hi


def test_rho0_tight_radius():
    r = rho0(torus_knot(3, 4), F(1, 10 ** 12))
    assert r.rad <= F(1, 10 ** 12)
    assert r.lo <= F(-10, 3) <= r.hi


def test_stabilization_preserves_invariants():
    rng = random.Random(21)
    v = twist_knot(2)
    w = stabilize(v, [3, -1], 4)
    assert w.genus == v.genus + 1
    assert alexander_poly(w) == alexander_poly(v)
    for _ in range(10):
        s = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert lt_signature(w, OM(s)) == lt_signature(v, OM(s))


def test_signature_csv():
    csv = signature_function_csv(torus_knot(2, 3))
    lines = csv.strip().splitlines()
    assert lines[0] == "theta_lo,theta_hi,sigma"
    assert lines[1].endswith(",0") and lines[2].endswith(",-2")
    assert "x_lo,x_hi,multiplicity" in lines


def test_signature_arcs_dyadic_and_nested():
    for p, q in ((2, 5), (3, 5), (2, 7)):
        v = torus_knot(p, q)
        coarse, fine = signature_arcs(v, 64), signature_arcs(v, 128)
        assert [s for _, _, s in coarse] == [s for _, _, s in fine]
        for (lo, hi, _), (flo, fhi, _) in zip(coarse, fine):
            assert (1 << 64) % lo.denominator == 0
            assert (1 << 64) % hi.denominator == 0
            assert lo <= flo <= fhi <= hi


def test_unit_circle_point():
    # x = omega + conj(omega) = 2(1 - s^2)/(1 + s^2) at Cayley parameter s
    assert seifert._cayley_x(OM(0).cayley) == 2
    assert seifert._cayley_x(OM(1).cayley) == 0
    assert MINUS_ONE.is_minus_one and not OM(1).is_minus_one
