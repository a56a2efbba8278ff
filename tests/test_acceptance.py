"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from fractions import Fraction

from concord import alexander, calculus, metabolizers as mb, pipeline, specs
from concord.calculus import Assumptions, SigExpr
from concord.pipeline import (CONSISTENT, NOT_SLICE, cooper_check,
                              first_order_verdict, second_order_set,
                              second_order_verdict)
from concord.seifert import (connected_sum, genus_one, rho0, torus_knot,
                             twist_knot, unknot)

from helpers import proper_submodules

F = Fraction


def _announce(n, took, detail):
    print(f"ACCEPTANCE {n}: PASS ({took:.2f}s) - {detail}")


def test_criterion_1_rho0_values():
    t0 = time.time()
    r = rho0(unknot())
    assert r.mid == 0 and r.rad == 0
    t_unknot = time.time() - t0

    t0 = time.time()
    r = rho0(torus_knot(2, 3), F(1, 10 ** 9))
    assert r.lo <= F(-4, 3) <= r.hi and r.rad <= F(1, 10 ** 9)
    t_t23 = time.time() - t0

    t0 = time.time()
    r = rho0(twist_knot(2))
    assert r.mid == 0 and r.rad == 0
    t_tw2 = time.time() - t0

    assert max(t_unknot, t_t23, t_tw2) < 1.0
    _announce(1, t_unknot + t_t23 + t_tw2,
              "rho0: unknot = 0 exactly, torus(2,3) encloses -4/3 at 1e-9, "
              "twist(2) = 0 exactly")


def test_criterion_2_twist_battery():
    t0 = time.time()
    verdicts = {}
    for tw in range(-4, 17):
        v = twist_knot(tw)
        ms = mb.genus1_metabolizers(v)
        sq = 4 * tw + 1
        is_square = sq >= 0 and math.isqrt(sq) ** 2 == sq
        assert bool(ms) == is_square
        if not is_square:
            continue
        m = math.isqrt(sq)
        expected = set()
        for sgn in (1, -1):
            vec = (1, (1 + sgn * m) // 2)
            from concord.intlinalg import primitive_part, sign_normalized
            expected.add(sign_normalized(primitive_part(vec)))
        assert {x.basis[0] for x in ms} == expected
        spec = specs.KnotSpec(f"twist({tw})", specs.Twist(tw))
        for x in ms:
            d = mb.derivative(spec, x)
            k = x.basis[0][1]
            assert d.components[0].name == f"torus({k},{1 - k})"
        verdicts[tw] = first_order_verdict(spec).conclusion
    assert verdicts[0] == CONSISTENT and verdicts[2] == CONSISTENT
    assert verdicts[6] == NOT_SLICE and verdicts[12] == NOT_SLICE
    took = time.time() - t0
    assert took < 5.0
    _announce(2, took, "twist battery: metabolizer rule (1,(1+-m)/2), "
              "torus(n,1-n) derivatives, verdicts split {0,2} vs {6,12}")


def test_criterion_3_module_counts():
    t0 = time.time()
    mod = alexander.present(twist_knot(2))
    assert mod.is_cyclic
    assert len(proper_submodules(mod)) == 3
    assert len(alexander.lagrangians(mod)) == 2
    cs = alexander.present(connected_sum(genus_one(1, 0), genus_one(2, 0)))
    assert len(alexander.lagrangians(cs)) == 4
    took = time.time() - t0
    assert took < 1.0
    _announce(3, took, "twist(2): 3 proper submodules, 2 Lagrangians; "
              "genus_one(1,0) # genus_one(2,0): 4 Lagrangians")


def _expr(*atom_coeffs, const=0):
    e = SigExpr.constant(F(const))
    for name, c in atom_coeffs:
        kind = "rho1" if name.startswith("rho1") else "rho0"
        e = e + SigExpr.of_atom(calculus.Atom(kind, name), F(c))
    return e


def test_criterion_4_symbolic_sets():
    t0 = time.time()
    # Example-4.5 configuration
    j1, j2 = specs.abstract_knot("J1"), specs.abstract_knot("J2")
    k45 = specs.KnotSpec("K45", specs.GenusOne(1, 0, (j1, j2),
                                               base_name="9_46"))
    got = sorted(e.expr.render() for e in pipeline.knot_first_order_sigs(k45))
    want = sorted(x.render() for x in [
        _expr(("rho1(9_46)", 1), ("rho0(J1)", 1), ("rho0(J2)", 1)),
        _expr(("rho0(J1)", 1)),
        _expr(("rho0(J2)", 1))])
    assert got == want

    # Example-4.6 configuration: amphichiral base value declared zero
    j = specs.abstract_knot("J")
    k46 = specs.KnotSpec(
        "K46", specs.Twist(1, (j, j), base_name="fig8"),
        (specs.Fact(kind="sigvalue", atom="rho1(fig8)", value="0",
                    provenance="amphichirality of the base knot"),))
    got = [e.expr.render() for e in pipeline.knot_first_order_sigs(k46)]
    assert got == [_expr(("rho0(J)", 2)).render()]

    # Example-4.7 configuration: cyclic p*pbar module, declared slice data
    k1 = specs.abstract_knot("K1")
    v89 = genus_one(1, 0)
    mod = alexander.present(v89)
    lags = alexander.lagrangians(mod)
    p1, p2 = lags
    eta1 = p1.basis[0]
    eta2 = next(v for v in (mod.incl_surface([1, 1]),
                            mod.incl_surface([1, -1]))
                if not p1.contains(v) and not p2.contains(v))
    k47 = specs.KnotSpec(
        "K47", specs.Explicit(v89, base_name="8_9"),
        (specs.Fact(kind="slice_lagrangians", provenance="ribbon disks"),
         specs.Fact(kind="sigvalue", atom="rho1(8_9)", value="0",
                    provenance="declared base computation")),
        (specs.Site(infect=k1, eta_module=tuple(eta1)),
         specs.Site(infect=k1, eta_module=tuple(eta2))))
    got = sorted(e.expr.render() for e in pipeline.knot_first_order_sigs(k47))
    want = sorted([_expr(("rho0(K1)", 2)).render(),
                   _expr(("rho0(K1)", 1)).render(),
                   _expr(("rho0(K1)", 2)).render()])
    assert got == want

    # Example-5.7 configuration: the four derivative expressions verbatim
    l1, l2 = specs.abstract_knot("L1"), specs.abstract_knot("L2")
    ll1, ll2 = specs.abstract_knot("LL1"), specs.abstract_knot("LL2")
    b = specs.abstract_knot("B")
    k57 = specs.KnotSpec("K57", specs.GenusTwoFig9(2, 1, (l1, l2),
                                                   (ll1, ll2), b))
    exprs = {}
    for e in pipeline.Request(k57).lagrangian_entries(k57):
        exprs[e.derivative.link.name] = e.expr
    assert exprs["K57.J11"] == _expr(("rho0(L1)", 1), ("rho0(B)", 1),
                                     ("rho0(LL1)", 1))
    assert exprs["K57.J12"] == _expr(("rho0(L1)", 1), ("rho0(LL2)", 1))
    assert exprs["K57.J21"] == _expr(("rho0(L2)", 1), ("rho0(B)", 1),
                                     ("rho0(LL1)", 1))
    assert exprs["K57.J22"] == _expr(("rho0(L2)", 1), ("rho0(B)", 1),
                                     ("rho0(LL2)", 1))
    took = time.time() - t0
    _announce(4, took, "symbolic first-order sets match the four worked "
              "configurations as canonical expressions")


def test_criterion_5_second_order_pipeline():
    t0 = time.time()
    # genus-one family: second-order set = first-order set of the core L1
    j1, j2 = specs.abstract_knot("J1"), specs.abstract_knot("J2")
    l1 = specs.KnotSpec("L1", specs.GenusOne(1, 0, (j1, j2),
                                             base_name="9_46"))
    l2 = specs.abstract_knot("L2")
    k73 = specs.KnotSpec("K73", specs.GenusOne(3, 0, (l1, l2)))
    asm = Assumptions.from_dict({
        "rho0(L2)": {"sign": "nonzero"},
        "rho0(J1)": {"interval": ["6", None]},
        "rho0(J2)": {"interval": ["6", None]},
        "rho1(9_46)": {"interval": ["-10", "10"]}})
    so = second_order_set(k73, asm)
    got = sorted(m.render() for m in so.members)
    want = sorted(e.expr.render()
                  for e in pipeline.knot_first_order_sigs(l1))
    assert got == want
    assert second_order_verdict(k73, asm).conclusion == NOT_SLICE

    # genus-two family: second-order set = first-order set of {L1, U}
    ll1 = specs.abstract_knot("LL1")
    ll2 = specs.unknot_spec("LL2")
    b = specs.abstract_knot("B")
    k74 = specs.KnotSpec("K74", specs.GenusTwoFig9(2, 1, (l1, l2),
                                                   (ll1, ll2), b))
    asm74 = Assumptions.from_dict({
        "rho0(L2)": {"sign": "positive"},
        "rho0(LL1)": {"sign": "positive"},
        "rho0(B)": {"sign": "nonnegative"},
        "rho0(J1)": {"interval": ["6", None]},
        "rho0(J2)": {"interval": ["6", None]},
        "rho1(9_46)": {"interval": ["-10", "10"]}})
    so74 = second_order_set(k74, asm74)
    active = [e for e in so74.entries if not e.certified_nonzero]
    assert len(active) == 1
    link = active[0].derivative.link
    assert link.structure == "split"
    assert [c.name for c in link.components] == ["L1", "LL2"]
    got = sorted(m.render() for m in so74.members)
    linkset = sorted(
        e.render() for e in pipeline.Request(link).link_first_order(link))
    assert got == linkset == want
    assert second_order_verdict(k74, asm74).conclusion == NOT_SLICE

    # slice twist knot: the set contains exact zero
    tw2 = specs.KnotSpec("twist(2)", specs.Twist(2))
    so2 = second_order_set(tw2)
    members = so2.members
    assert members and any(
        pipeline.Request(tw2).evaluate(m).is_exact_zero for m in members)
    assert second_order_verdict(tw2).conclusion == CONSISTENT
    took = time.time() - t0
    _announce(5, took, "second-order sets reduce to the core/link "
              "first-order sets; verdicts NotSlice, NotSlice, Consistent")


def test_criterion_6_cooper_tradeoff():
    t0 = time.time()
    c1, c2 = specs.abstract_knot("c1"), specs.abstract_knot("c2")
    row_eta1 = specs.LinkSpec(
        "JW(trivial)", components=(c1, c2), structure="declared",
        declared_nullity=1, declared_rho0=(("rho0(L1)", "1"),))
    row_eta0 = specs.LinkSpec(
        "JW(whitehead)", components=(c1, c2), structure="declared",
        declared_nullity=0,
        declared_rho0=(("rho0(L1)", "1"), ("const", "1")))
    for val, want in (("0", "satisfied"), ("5", "violated"),
                      ("-7", "violated")):
        asm = Assumptions.from_dict({"rho0(L1)": {"value": val}})
        r1 = cooper_check(row_eta1, asm)[0]
        r2 = cooper_check(row_eta0, asm)[0]
        assert (r1.components, r1.nullity, r1.bound) == (2, 1, F(0))
        assert (r2.components, r2.nullity, r2.bound) == (2, 0, F(1))
        assert r1.expr == _expr(("rho0(L1)", 1))
        assert r2.expr == _expr(("rho0(L1)", 1), const=1)
        assert r1.status == r2.status == want
    took = time.time() - t0
    _announce(6, took, "declared trade-off rows (eta=1, rho0(L1)) vs "
              "(eta=0, rho0(L1)+1) share bound-satisfaction status")


def test_criterion_7_property_suites():
    import test_properties as props

    t0 = time.time()
    props.test_signature_additive_under_block_sum()
    props.test_mirror_antisymmetry()
    props.test_s_equivalence_invariance()
    props.test_blanchfield_hermitian_and_nonsingular()
    props.test_metabolizer_images_isotropic()
    props.test_exact_engine_vs_floating_oracle()
    props.test_algebraically_slice_implies_rho0_contains_zero()
    took = time.time() - t0
    assert took < 60.0
    _announce(7, took, "randomized suites: additivity, mirror, "
              "S-equivalence, Blanchfield symmetry/nonsingularity, "
              "metabolizer isotropy, 1000-case engine-vs-oracle, "
              "slice => rho0 contains 0")
