"""Deeper randomized cross-checks of the structural layers."""

import math
import random
from fractions import Fraction

from concord import alexander, metabolizers as mb, pipeline, specs
from concord.laurent import LaurentPoly, normalize
from concord.seifert import (UnitCirclePoint, alexander_poly, lt_signature,
                             rho0)

from helpers import fox_milnor, qi_charpoly, random_metabolic, random_seifert

F = Fraction


def test_presentation_invariants_random():
    """dim = deg Delta, char(T) = Delta up to units, class(rep(x)) = x."""
    rng = random.Random(201)
    for _ in range(40):
        v = random_seifert(rng, rng.randint(1, 3), bound=4)
        mod = alexander.present(v)
        assert mod.dim == mod.delta.span
        if mod.dim:
            mat = [[(mod.T[i][j], F(0)) for j in range(mod.dim)]
                   for i in range(mod.dim)]
            cp = qi_charpoly(mat)
            assert normalize(LaurentPoly.from_dense(cp)) == mod.delta
            for _ in range(3):
                x = tuple(F(rng.randint(-4, 4)) for _ in range(mod.dim))
                assert mod.class_of_polyvec(mod.rep_of(x)) == x


def test_double_orthogonal_complement_is_identity():
    rng = random.Random(202)
    done = 0
    while done < 25:
        v = random_seifert(rng, rng.choice((1, 1, 2)), bound=3)
        mod = alexander.present(v)
        if mod.dim == 0 or not mod.is_cyclic:
            continue
        for p in alexander.submodules_cyclic(mod):
            q = alexander.orthogonal_complement(mod, p)
            assert alexander.orthogonal_complement(mod, q).basis == p.basis
        done += 1


def test_rho0_against_riemann_oracle():
    """Midpoint Riemann sums of the exact step function must land inside
    an inflated version of the certified enclosure."""
    from concord.seifert import connected_sum, torus_knot, twist_knot

    cases = [torus_knot(2, 3), torus_knot(2, 7),
             connected_sum(twist_knot(6), torus_knot(2, 3))]
    n = 512
    for v in cases:
        r = rho0(v, F(1, 10 ** 6))
        total = 0
        for k in range(n):
            theta = math.pi * (k + 0.5) / n
            s = F(math.tan(theta / 2)).limit_denominator(10 ** 3)
            total += lt_signature(v, UnitCirclePoint.from_cayley(s))
        mean = total / n
        slack = 4 * v.size / n + 0.05
        assert float(r.lo) - slack <= mean <= float(r.hi) + slack


def test_rho0_torus_closed_form():
    """rho0(T(p,q)) = -(p^2-1)(q^2-1)/(3pq), a classical average."""
    from concord.seifert import torus_knot

    for p, q in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        expected = F(-(p * p - 1) * (q * q - 1), 3 * p * q)
        r = rho0(torus_knot(p, q), F(1, 10 ** 10))
        assert r.lo <= expected <= r.hi, (p, q, expected, r)
        # and the mirror with the opposite sign
        rm = rho0(torus_knot(p, -q), F(1, 10 ** 10))
        assert rm.lo <= -expected <= rm.hi


def test_fox_milnor_consistent_with_metabolizers():
    """Algebraic sliceness forces the Fox-Milnor factorization."""
    rng = random.Random(204)
    for _ in range(100):
        v, _ = random_metabolic(rng, rng.choice((1, 2)))
        assert fox_milnor(alexander_poly(v))
    # and the non-slice direction on the battery
    from concord.seifert import twist_knot
    for tw in range(-4, 17):
        delta = alexander_poly(twist_knot(tw))
        has_metab = bool(mb.genus1_metabolizers(twist_knot(tw)))
        if has_metab:
            assert fox_milnor(delta)


def test_jump_magnitudes_bounded_by_multiplicity():
    """Across each isolating interval the signature moves by at most
    twice the root multiplicity."""
    from concord import seifert as sf

    rng = random.Random(205)
    checked = 0
    while checked < 40:
        v = random_seifert(rng, rng.randint(1, 2), bound=4)
        roots = sf.jump_set(v)
        if not roots:
            continue
        sigmas, desc = sf._arc_signatures(v, list(roots))
        for j, r in enumerate(desc, start=1):
            assert abs(sigmas[j] - sigmas[j - 1]) <= 2 * r.multiplicity
        checked += 1


def test_rho0_additive_under_connected_sum():
    from concord.seifert import connected_sum, torus_knot, twist_knot

    rng = random.Random(206)
    cases = [(torus_knot(2, 3), torus_knot(2, 5)),
             (torus_knot(2, 3), twist_knot(6)),
             (torus_knot(3, 4), torus_knot(2, -3))]
    for a, b in cases:
        ra = rho0(a, F(1, 10 ** 8))
        rb = rho0(b, F(1, 10 ** 8))
        rs = rho0(connected_sum(a, b), F(1, 10 ** 8))
        lo = ra.lo + rb.lo - rs.rad
        hi = ra.hi + rb.hi + rs.rad
        assert lo <= rs.mid <= hi


def test_second_order_inconclusive_on_abstract_cores():
    a, b = specs.abstract_knot("A"), specs.abstract_knot("B")
    k = specs.KnotSpec("K", specs.GenusOne(1, 0, (a, b)))
    verdict = pipeline.second_order_verdict(k)
    assert verdict.conclusion == pipeline.INCONCLUSIVE
    # resolving the first-order atoms away from zero flips it to NotSlice
    asm = pipeline.load_assumptions(
        '{"rho0(A)": {"interval": ["1", "2"]},'
        ' "rho0(B)": {"interval": ["1", "2"]}}')
    assert pipeline.first_order_verdict(k, asm).conclusion == \
        pipeline.NOT_SLICE


def test_calculus_and_derivative_routes_agree():
    """On the doubled-band family both first-order routes must agree:
    the band meridian pairing sends band i's signature to core i."""
    from concord.calculus import first_order_sig, rho0_atom
    from concord.metabolizers import (Metabolizer, derivative,
                                      genus1_metabolizers,
                                      metabolizer_to_lagrangian)
    from concord.calculus import SigExpr

    for l in (1, 2, 3, 5):
        a = specs.KnotSpec("coreA", specs.Torus(2, 3))
        b = specs.KnotSpec("coreB", specs.Twist(6))
        k = specs.KnotSpec("K", specs.GenusOne(l, 0, (a, b)))
        desc = pipeline.Request(k).infection_desc(k)
        mod = desc.module
        for m in genus1_metabolizers(specs.seifert_matrix(k)):
            lag = metabolizer_to_lagrangian(mod, m)
            via_calculus = first_order_sig(desc, lag)
            d = derivative(k, m)
            via_derivative = SigExpr.of_atom(rho0_atom(d.components[0]))
            assert via_calculus == via_derivative


def test_lagrangian_count_matches_metabolizer_route():
    """For metabolic genus-one matrices with nontrivial Delta the two
    search routes agree: two metabolizer lines, two Lagrangians."""
    rng = random.Random(203)
    done = 0
    while done < 30:
        v, _ = random_metabolic(rng, 1)
        mod = alexander.present(v)
        if mod.dim == 0:
            continue
        ms = mb.genus1_metabolizers(v)
        lags = alexander.lagrangians(mod)
        images = {mb.metabolizer_to_lagrangian(mod, m).basis for m in ms}
        assert images == {l.basis for l in lags}
        assert len(lags) == 2
        done += 1
