"""Randomized property suites: exact assertions over seeded random data."""

import math
import random
from fractions import Fraction

from concord import alexander, calculus, metabolizers as mb, pipeline, seifert, specs
from concord.seifert import (UnitCirclePoint, alexander_poly, connected_sum,
                             jump_set, lt_signature, mirror, rho0, stabilize,
                             twist_knot)

from helpers import (bl_conjugate, bl_t_multiple, is_lagrangian,
                     oracle_lt_signature, random_cayley, random_metabolic,
                     random_seifert)

F = Fraction
OM = UnitCirclePoint.from_cayley


def test_signature_additive_under_block_sum():
    rng = random.Random(101)
    for _ in range(100):
        a = random_seifert(rng, rng.randint(1, 2))
        b = random_seifert(rng, rng.randint(1, 2))
        s = random_cayley(rng)
        om = OM(s)
        assert lt_signature(connected_sum(a, b), om) == \
            lt_signature(a, om) + lt_signature(b, om)


def test_mirror_antisymmetry():
    rng = random.Random(102)
    for _ in range(100):
        v = random_seifert(rng, rng.randint(1, 2))
        s = random_cayley(rng)
        assert lt_signature(mirror(v), OM(s)) == -lt_signature(v, OM(s))
    r = rho0(twist_knot(6))
    rm = rho0(mirror(twist_knot(6)))
    assert rm.lo <= -r.mid <= rm.hi


def test_s_equivalence_invariance():
    rng = random.Random(103)
    for _ in range(100):
        v = random_seifert(rng, rng.randint(1, 2), bound=3)
        xi = [rng.randint(-3, 3) for _ in range(v.size)]
        w = stabilize(v, xi, rng.randint(-3, 3))
        assert alexander_poly(w) == alexander_poly(v)
    # signature invariance at 50 random circle points
    v = random_seifert(random.Random(104), 2, bound=3)
    w = stabilize(v, [1, -2, 0, 3], 2)
    rng = random.Random(105)
    for _ in range(50):
        s = random_cayley(rng)
        assert lt_signature(w, OM(s)) == lt_signature(v, OM(s))
    # and the averaged signature is unchanged as well
    t = seifert.torus_knot(2, 5)
    ts = stabilize(t, [0, 2, -1, 1], -3)
    r, rs = rho0(t, F(1, 10 ** 8)), rho0(ts, F(1, 10 ** 8))
    assert abs(r.mid - rs.mid) <= r.rad + rs.rad


def test_signature_constant_on_arcs():
    rng = random.Random(106)
    for _ in range(100):
        v = random_seifert(rng, rng.randint(1, 3), bound=5)
        roots = sorted(jump_set(v), key=lambda p: p.x_lo)
        # pick one open arc in x and sample it twice
        walls = [F(-2)] + [x for p in roots for x in (p.x_lo, p.x_hi)] + [F(2)]
        arcs = [(walls[i], walls[i + 1]) for i in range(0, len(walls), 2)]
        arcs = [(a, b) for a, b in arcs if a < b]
        a, b = arcs[rng.randrange(len(arcs))]
        width = b - a
        s1 = seifert._sample_parameter(a + width / 7, b - width / 3)
        s2 = seifert._sample_parameter(a + width / 3, b - width / 7)
        assert lt_signature(v, OM(s1)) == lt_signature(v, OM(s2))


def test_exact_engine_vs_floating_oracle():
    rng = random.Random(107)
    for _ in range(1000):
        g = rng.choice((1, 1, 1, 2, 2, 3))
        v = random_seifert(rng, g, bound=5)
        s = random_cayley(rng)
        assert lt_signature(v, OM(s)) == oracle_lt_signature(v, s)


def test_blanchfield_hermitian_and_nonsingular():
    rng = random.Random(108)
    pairs = 0
    while pairs < 100:
        if rng.random() < 0.5:
            v, _ = random_metabolic(rng, rng.choice((1, 2)))
        else:
            v = random_seifert(rng, rng.choice((1, 2)), bound=3)
        mod = alexander.present(v)
        if mod.dim == 0:
            continue
        for _ in range(5):
            x = tuple(F(rng.randint(-4, 4)) for _ in range(mod.dim))
            y = tuple(F(rng.randint(-4, 4)) for _ in range(mod.dim))
            assert mod.blanchfield(x, y) == \
                bl_conjugate(mod, mod.blanchfield(y, x))
            ty = mod.t_action(y)
            assert mod.blanchfield(x, ty) == \
                bl_t_multiple(mod, mod.blanchfield(x, y))
            pairs += 1
        # nonsingularity dimension count on a random invariant submodule
        if mod.is_cyclic:
            subs = alexander.submodules_cyclic(mod)
            p = subs[rng.randrange(len(subs))]
            q = alexander.orthogonal_complement(mod, p)
            assert p.dim + q.dim == mod.dim


def test_metabolizer_images_isotropic():
    rng = random.Random(109)
    for _ in range(200):
        g = rng.choice((1, 2))
        v, basis = random_metabolic(rng, g)
        assert mb.is_metabolizer(v, basis)
        mod = alexander.present(v)
        lag = mb.metabolizer_to_lagrangian(mod, mb.Metabolizer(v, basis))
        assert alexander.is_isotropic(mod, lag)
        if mod.dim == 2 * g:
            assert is_lagrangian(mod, lag)


def test_algebraically_slice_implies_rho0_contains_zero():
    rng = random.Random(110)
    for _ in range(100):
        v, _ = random_metabolic(rng, rng.choice((1, 2)))
        r = rho0(v, F(1, 10 ** 6))
        assert r.lo <= 0 <= r.hi
    # same check driven off the genus-one search instead of construction
    found = 0
    while found < 20:
        v = random_seifert(rng, 1, bound=4)
        if mb.genus1_metabolizers(v):
            r = rho0(v, F(1, 10 ** 6))
            assert r.lo <= 0 <= r.hi
            found += 1


def test_genus1_search_outputs_are_metabolizers():
    rng = random.Random(111)
    found = 0
    for _ in range(300):
        v = random_seifert(rng, 1, bound=6)
        for m in mb.genus1_metabolizers(v):
            assert mb.is_metabolizer(v, m.basis)
            found += 1
    assert found >= 100


def test_twist_family_metabolizer_rule():
    for tw in range(-10, 51):
        ms = mb.genus1_metabolizers(twist_knot(tw))
        sq = 4 * tw + 1
        assert bool(ms) == (sq >= 0 and math.isqrt(sq) ** 2 == sq)


def test_derivative_antiderivative_round_trip():
    rng = random.Random(112)
    for i in range(50):
        j = specs.abstract_knot(f"J{i}")
        l = rng.randint(-4, 4)
        tw = rng.randint(-4, 4)
        target = seifert.SeifertMatrix.from_rows([[0, l], [l + 1, tw]])
        ad = mb.antiderivative((j,), target)
        d = mb.derivative(ad, mb.a_band_metabolizer(ad))
        assert [c.name for c in d.components] == [j.name]
        assert specs.seifert_matrix(ad).entries == target.entries


def _no_rho0(spec):
    raise AssertionError("every atom resolves by assumption")


def test_sigexpr_sum_encloses_componentwise():
    rng = random.Random(113)
    names = [f"X{i}" for i in range(6)]
    for _ in range(100):
        terms_a = {n: F(rng.randint(-5, 5)) for n in rng.sample(names, 3)}
        terms_b = {n: F(rng.randint(-5, 5)) for n in rng.sample(names, 3)}
        asm = calculus.Assumptions.from_dict(
            {f"rho0({n})": {"interval": [str(rng.randint(-4, 0)),
                                         str(rng.randint(1, 5))]}
             for n in names})
        ea = calculus.SigExpr.zero()
        for n, c in terms_a.items():
            ea = ea + calculus.SigExpr.of_atom(
                calculus.Atom("rho0", f"rho0({n})"), c)
        eb = calculus.SigExpr.zero()
        for n, c in terms_b.items():
            eb = eb + calculus.SigExpr.of_atom(
                calculus.Atom("rho0", f"rho0({n})"), c)
        ra = calculus.evaluate(ea, asm, _no_rho0).interval
        rb = calculus.evaluate(eb, asm, _no_rho0).interval
        rsum = calculus.evaluate(ea + eb, asm, _no_rho0).interval
        lo = ra.lo + rb.lo
        hi = ra.hi + rb.hi
        assert lo <= rsum.lo and rsum.hi <= hi


def test_theorem_style_slice_bases_give_zero():
    rng = random.Random(114)
    for _ in range(30):
        l = rng.randint(1, 6)
        k = specs.KnotSpec("R", specs.GenusOne(l, 0))
        desc = pipeline.Request(k).infection_desc(k)
        if desc.module.dim == 0:
            continue
        for lag in alexander.lagrangians(desc.module):
            assert calculus.first_order_sig(desc, lag).is_zero_expr


def test_nullity_zero_for_single_component():
    rng = random.Random(115)
    for i in range(30):
        spec = specs.KnotSpec(f"k{i}", specs.Twist(rng.randint(-5, 5)))
        assert calculus.nullity(spec) == 0
        link = specs.LinkSpec(f"l{i}", components=(specs.abstract_knot("A"),),
                              structure="declared",
                              declared_nullity=rng.randint(1, 5))
        assert calculus.nullity(link) == 0
