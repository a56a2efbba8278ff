import random
from fractions import Fraction

import pytest

from concord import alexander, pipeline, seifert, specs
from concord.calculus import (Assumptions, Atom, Interval, MissingBaseFact,
                              NotIsotropic, SigExpr, UnsupportedLink,
                              evaluate, first_order_sig, nullity, rho0_atom,
                              rho0_of_infected_trivial_link, rho1_atom)
F = Fraction


def a0(name):
    return Atom("rho0", f"rho0({name})")


def rho0_of(spec):
    v = specs.seifert_matrix(spec)
    return None if v is None else seifert.rho0(v)


def test_sigexpr_algebra():
    x = SigExpr.of_atom(a0("A"))
    y = SigExpr.of_atom(a0("B"), 2)
    assert (x + y) + x == x + (y + x)
    assert x + SigExpr.zero() == x
    assert (x - x).is_zero_expr
    assert x.scale(0).is_zero_expr
    assert (x + y).render() == "rho0(A) + 2*rho0(B)"
    e = SigExpr.of_atom(rho1_atom("946")) + x + SigExpr.constant(F(-3, 2))
    assert e.render() == "rho1(946) + rho0(A) - 3/2"


def test_sigexpr_substitute():
    e = SigExpr.of_atom(rho1_atom("X")) + SigExpr.of_atom(a0("A"), 2)
    s = e.substitute({"rho1(X)": F(0)})
    assert s == SigExpr.of_atom(a0("A"), 2)
    s2 = e.substitute({"rho0(A)": F(1, 2)})
    assert s2 == SigExpr.of_atom(rho1_atom("X")) + SigExpr.constant(1)


def test_interval_logic():
    assert Interval(F(1), F(2)).excludes_zero
    assert Interval(None, F(-1)).excludes_zero
    assert Interval(F(0), None, lo_open=True).excludes_zero
    assert not Interval(F(0), None).excludes_zero
    assert Interval.point(0).is_exact_zero
    total = Interval(F(0), None, lo_open=True) + Interval(F(0), None)
    assert total.excludes_zero
    assert Interval(F(1), F(2)).scale(-1).render() == "[-2, -1]"


def test_evaluate_with_assumptions():
    e = SigExpr.of_atom(a0("X")) + SigExpr.of_atom(a0("Y"))
    res = evaluate(e, Assumptions(), rho0_of)
    assert not res.certified and len(res.unresolved) == 2
    asm = Assumptions.from_dict({
        "rho0(X)": {"interval": ["6", None]},
        "rho0(Y)": {"value": "1/2"}})
    res = evaluate(e, asm, rho0_of)
    assert res.certified and res.excludes_zero
    assert res.interval.lo == F(13, 2) and res.interval.hi is None
    assert res.assumptions_used == ("rho0(X)", "rho0(Y)")


def test_evaluate_sign_and_nonzero():
    e = SigExpr.of_atom(a0("P")) + SigExpr.of_atom(a0("Q"))
    asm = Assumptions.from_dict({
        "rho0(P)": {"sign": "positive"},
        "rho0(Q)": {"sign": "nonnegative"}})
    res = evaluate(e, asm, rho0_of)
    assert res.certified and res.excludes_zero
    single = SigExpr.of_atom(a0("Z"), -3)
    res2 = evaluate(single, Assumptions.from_dict(
        {"rho0(Z)": {"sign": "nonzero"}}), rho0_of)
    assert res2.certified and res2.excludes_zero and res2.nonzero


def test_evaluate_resolves_concrete_rho0():
    t23 = specs.KnotSpec("t23", specs.Torus(2, 3))
    e = SigExpr.of_atom(rho0_atom(t23), 3)
    res = pipeline.Request(t23).evaluate(e)
    assert res.certified and res.excludes_zero
    assert res.interval.lo <= F(-4) <= res.interval.hi


def _desc(k):
    return pipeline.Request(k).infection_desc(k)


def _first_order_pairs(desc):
    """(submodule, first-order expression) over the isotropic submodules."""
    return [(p, first_order_sig(desc, p))
            for p in alexander.isotropic_submodules(desc.module)]


def _example45_desc():
    j1, j2 = specs.abstract_knot("J1"), specs.abstract_knot("J2")
    k = specs.KnotSpec("K45", specs.GenusOne(1, 0, (j1, j2), base_name="9_46"))
    return _desc(k), k


def test_first_order_sig_example45():
    desc, _ = _example45_desc()
    sets = _first_order_pairs(desc)
    rendered = sorted(e.render() for _, e in sets)
    assert rendered == ["rho0(J1)", "rho0(J2)",
                        "rho1(9_46) + rho0(J1) + rho0(J2)"]
    # relabeling symmetry: swapping (J1, J2) swaps the singleton entries
    j1, j2 = specs.abstract_knot("J2"), specs.abstract_knot("J1")
    k = specs.KnotSpec("K45s", specs.GenusOne(1, 0, (j1, j2), base_name="9_46"))
    swapped = sorted(e.render()
                     for _, e in _first_order_pairs(_desc(k)))
    assert swapped == rendered


def test_first_order_sig_errors():
    desc, k = _example45_desc()
    mod = desc.module
    whole = alexander.submodule_from_vectors(
        mod, [tuple(F(1) if i == j else F(0) for j in range(mod.dim))
              for i in range(mod.dim)])
    with pytest.raises(NotIsotropic):
        first_order_sig(desc, whole)
    # missing base facts on a twisted base: Lagrangian term undeclared
    kt = specs.KnotSpec("Kt", specs.GenusOne(1, 4,
                        (specs.abstract_knot("A"), specs.abstract_knot("B"))))
    desct = _desc(kt)
    lag = alexander.lagrangians(desct.module)[0]
    with pytest.raises(MissingBaseFact):
        first_order_sig(desct, lag)


def test_second_derived_sites_contribute_nothing():
    j1 = specs.abstract_knot("J1")
    deep = specs.abstract_knot("DEEP")
    k = specs.KnotSpec(
        "K", specs.GenusOne(1, 0, (j1, specs.unknot_spec()), base_name="B"),
        sites=(specs.Site(infect=deep, second_derived=True),))
    desc = _desc(k)
    sets = _first_order_pairs(desc)
    assert all("DEEP" not in e.render() for _, e in sets)


def test_no_sites_slice_base_gives_zero():
    k = specs.KnotSpec("R", specs.GenusOne(2, 0))
    desc = _desc(k)
    for p, e in _first_order_pairs(desc):
        if 2 * p.dim == desc.module.dim:
            assert e.is_zero_expr


def test_trivial_delta_single_zero_entry():
    k = specs.KnotSpec("U", specs.Unknot())
    entries = pipeline.knot_first_order_sigs(k)
    assert len(entries) == 1 and entries[0].expr.is_zero_expr
    assert entries[0].route == "degenerate"


def test_rho0_of_infected_trivial_link():
    l1 = specs.abstract_knot("L1")
    b = specs.abstract_knot("B")
    ll1 = specs.abstract_knot("LL1")
    j11 = specs.LinkSpec("J11", components=(l1, ll1), structure="boundary",
                         infections=(specs.LinkInfection(l1),
                                     specs.LinkInfection(b),
                                     specs.LinkInfection(ll1)))
    e = rho0_of_infected_trivial_link(j11)
    assert e.render() == "rho0(B) + rho0(L1) + rho0(LL1)"
    ll2 = specs.abstract_knot("LL2")
    j12 = specs.LinkSpec("J12", components=(l1, ll2), structure="split",
                         infections=(specs.LinkInfection(l1),
                                     specs.LinkInfection(ll2)))
    assert rho0_of_infected_trivial_link(j12).render() == "rho0(L1) + rho0(LL2)"
    bare = specs.LinkSpec("E", components=(), structure="infected_trivial")
    assert rho0_of_infected_trivial_link(bare).is_zero_expr
    # trivial-image sites contribute nothing
    j = specs.LinkSpec("J", components=(l1,), structure="infected_trivial",
                       infections=(specs.LinkInfection(b, nontrivial=False),))
    assert rho0_of_infected_trivial_link(j).is_zero_expr


def _link_first_order(link):
    return pipeline.Request(link).link_first_order(link)


def test_link_first_order_patterns():
    j1 = specs.abstract_knot("J1")
    j2 = specs.abstract_knot("J2")
    k45 = specs.KnotSpec("K45", specs.GenusOne(1, 0, (j1, j2),
                                               base_name="9_46"))
    u = specs.unknot_spec("U")
    base = {e.expr.render() for e in pipeline.knot_first_order_sigs(k45)}
    # clasped pattern, trivial second component: exactly the set of J1
    clasp_triv = specs.LinkSpec("C", components=(k45, u),
                                structure="clasp_fig12")
    got = {e.render() for e in _link_first_order(clasp_triv)}
    assert got == base
    # knotted second component: each entry also appears with its rho0 added
    w = specs.abstract_knot("W")
    clasp = specs.LinkSpec("C2", components=(k45, w), structure="clasp_fig12")
    got = {e.render() for e in _link_first_order(clasp)}
    assert base <= got
    assert len(got) == 2 * len(base)
    # split link with an unknot: exactly the first-order set of K45
    split = specs.LinkSpec("S", components=(k45, u), structure="split")
    got_split = sorted(e.render() for e in _link_first_order(split))
    assert got_split == sorted(base)
    # 2-component trivial link: {0}
    triv = specs.LinkSpec("T", components=(u, u), structure="split")
    exprs = _link_first_order(triv)
    assert [e.render() for e in exprs] == ["0"]
    # off-catalogue structure
    bad = specs.LinkSpec("W", components=(j1, j2), structure="declared")
    with pytest.raises(UnsupportedLink):
        _link_first_order(bad)
    # raw infected-trivial data without split/boundary structure cannot be
    # enumerated completely, so it is refused rather than under-counted
    raw = specs.LinkSpec("R", components=(u, u), structure="infected_trivial",
                         infections=(specs.LinkInfection(j1),))
    with pytest.raises(UnsupportedLink):
        _link_first_order(raw)


def test_nullity_rules():
    k = specs.KnotSpec("K", specs.Twist(6))
    assert nullity(k) == 0
    one_comp = specs.LinkSpec("L", components=(specs.abstract_knot("A"),),
                              structure="declared", declared_nullity=7)
    assert nullity(one_comp) == 0          # knots are always 0
    l1 = specs.abstract_knot("A")
    l2 = specs.abstract_knot("B")
    bnd = specs.LinkSpec("L2", components=(l1, l2), structure="boundary")
    assert nullity(bnd) == 1
    spl = specs.LinkSpec("L3", components=(l1, l2, l1), structure="split")
    assert nullity(spl) == 2
    declared = specs.LinkSpec("LW", components=(l1, l2), structure="declared",
                              declared_nullity=0)
    assert nullity(declared) == 0
    unknown = specs.LinkSpec("LU", components=(l1, l2), structure="declared")
    assert nullity(unknown) is None


def test_first_order_monotone_in_submodule():
    rng = random.Random(41)
    checked = 0
    while checked < 50:
        tw = rng.choice((0, 2, 6, 12))
        j1 = specs.abstract_knot(f"A{checked}")
        j2 = specs.abstract_knot(f"B{checked}")
        k = specs.KnotSpec("K", specs.GenusOne(rng.randint(1, 4), 0, (j1, j2),
                                               base_name="base"))
        desc = _desc(k)
        sets = dict()
        zero_entry = None
        for p, e in _first_order_pairs(desc):
            if p.dim == 0:
                zero_entry = e
        assert zero_entry is not None
        zero_atoms = {a.name for a in zero_entry.atoms if a.kind == "rho0"}
        for p, e in _first_order_pairs(desc):
            atoms = {a.name for a in e.atoms if a.kind == "rho0"}
            assert atoms <= zero_atoms   # enlarging P only removes terms
        checked += 1
