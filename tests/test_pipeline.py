import json
from fractions import Fraction

import pytest

from concord import cli, pipeline, specs
from concord.calculus import Assumptions
from concord.pipeline import (CONSISTENT, INCONCLUSIVE, NOT_SLICE, Request,
                              cooper_check, first_order_verdict, ingest,
                              report, second_order_set, second_order_verdict)
from concord.specs import SchemaError

F = Fraction


def _twist(tw):
    return specs.KnotSpec(f"twist({tw})", specs.Twist(tw))


def test_ingest_and_schema_errors():
    spec = ingest('{"name": "k", "family": {"type": "twist", "tw": 6}}')
    assert spec.family == specs.Twist(6)
    with pytest.raises(SchemaError):
        ingest("not json")
    with pytest.raises(SchemaError):
        ingest({"name": "x", "family": {"type": "mystery"}})
    with pytest.raises(SchemaError):
        ingest({"family": {"type": "twist", "tw": 1}})
    with pytest.raises(SchemaError):
        ingest({"name": "x", "family": {"type": "explicit",
                                        "matrix": [[0, 2], [0, 0]]}})
    link = ingest({"name": "l", "link": True, "structure": "split",
                   "components": ["A", "B"]})
    assert isinstance(link, specs.LinkSpec)
    assert link.components[0].family == specs.Abstract()


def test_ingest_rejects_dangling_fact_references():
    doc = {"name": "K",
           "family": {"type": "twist", "tw": 2},
           "facts": [{"kind": "sigvalue", "atom": "rho1(nonexistent)",
                      "value": "0", "provenance": "x"}]}
    with pytest.raises(SchemaError):
        ingest(doc)
    ok = {"name": "K",
          "family": {"type": "twist", "tw": 2, "base_name": "stevedore"},
          "facts": [{"kind": "sigvalue", "atom": "rho1(stevedore)",
                     "value": "0", "provenance": "x"}]}
    ingest(ok)


def test_load_assumptions_errors():
    with pytest.raises(SchemaError):
        pipeline.load_assumptions("{bad json")
    with pytest.raises(SchemaError):
        pipeline.load_assumptions({"rho0(X)": {"unsupported": 1}})
    asm = pipeline.load_assumptions('{"rho0(X)": {"value": "3/2"}}')
    assert asm.get("rho0(X)").interval().lo == F(3, 2)


def test_site_coordinate_length_checked():
    k = specs.KnotSpec(
        "K", specs.Explicit(specs.seifert_matrix(_twist(2))),
        sites=(specs.Site(infect=specs.abstract_knot("A"),
                          eta_module=(F(1),)),))
    with pytest.raises(SchemaError):
        Request(k).infection_desc(k)


def test_ingest_full_document():
    doc = {
        "name": "K",
        "family": {
            "type": "genus_one", "l": 1, "tw": 0, "base_name": "9_46",
            "cores": [{"name": "J1", "family": {"type": "abstract"}},
                      {"name": "J2", "family": {"type": "abstract"}}]},
        "facts": [{"kind": "siginterval", "atom": "rho0(J1)", "lo": "6",
                   "hi": None, "provenance": "chosen large"}],
        "sites": [{"second_derived": True,
                   "infect": {"name": "D", "family": {"type": "abstract"}}}]}
    spec = ingest(doc)
    assert spec.family.base_name == "9_46"
    assert spec.facts[0].kind == "siginterval"
    assert spec.sites[0].second_derived


def test_zeroth_order_verdicts():
    t23 = specs.KnotSpec("t23", specs.Torus(2, 3))
    v = Request(t23).zeroth
    assert v.conclusion == NOT_SLICE
    assert Request(_twist(2)).zeroth.conclusion == CONSISTENT
    assert Request(specs.unknot_spec()).zeroth.conclusion == CONSISTENT
    abstract = specs.abstract_knot("X")
    assert Request(abstract).zeroth.conclusion == INCONCLUSIVE
    asm = Assumptions.from_dict({"rho0(X)": {"interval": ["1", "2"]}})
    assert Request(abstract, asm).zeroth.conclusion == NOT_SLICE


def test_first_order_twist_battery():
    assert first_order_verdict(_twist(0)).conclusion == CONSISTENT
    assert first_order_verdict(_twist(2)).conclusion == CONSISTENT
    assert first_order_verdict(_twist(6)).conclusion == NOT_SLICE
    assert first_order_verdict(_twist(12)).conclusion == NOT_SLICE


def test_first_order_no_lagrangians():
    # figure-eight shape: averaged signature is 0 but no Lagrangian exists
    fig8 = _twist(1)
    assert Request(fig8).zeroth.conclusion == CONSISTENT
    v = first_order_verdict(fig8)
    assert v.conclusion == NOT_SLICE
    assert "algebraically slice" in v.witness


def test_first_order_trivial_cores_consistent():
    # untwisted-core bands compress: the unknot derivative forces a zero
    # first-order entry even when the second band is twisted
    k = specs.KnotSpec("K", specs.GenusOne(1, 4))
    assert first_order_verdict(k).conclusion == CONSISTENT


def test_first_order_inconclusive_on_opaque():
    # a knotted core with no assumptions leaves the entry symbolic, and the
    # twisted second band has no catalogued derivative at all
    k = specs.KnotSpec("K", specs.GenusOne(
        1, 4, (specs.abstract_knot("A"), specs.unknot_spec())))
    v = first_order_verdict(k)
    assert v.conclusion == INCONCLUSIVE
    assert any(a.name == "rho0(A)" for a in v.residuals)


def test_verdict_monotonicity():
    t23 = specs.KnotSpec("t23", specs.Torus(2, 3))
    assert Request(t23).zeroth.conclusion == NOT_SLICE
    assert first_order_verdict(t23).conclusion == NOT_SLICE
    assert second_order_verdict(t23).conclusion == NOT_SLICE


def test_second_order_twist2_contains_zero():
    so = second_order_set(_twist(2))
    members = so.members
    assert members and all(
        pipeline.Request(_twist(2)).evaluate(m).is_exact_zero
        for m in members)
    assert second_order_verdict(_twist(2)).conclusion == CONSISTENT


def test_second_order_degenerate_delta():
    v = second_order_verdict(_twist(0))
    assert v.conclusion == CONSISTENT
    so = second_order_set(_twist(0))
    assert so.degenerate and not so.entries


def test_trivial_delta_all_levels_degenerate():
    for spec in (_twist(0), specs.KnotSpec("g", specs.GenusOne(-1, 5)),
                 specs.unknot_spec()):
        assert Request(spec).zeroth.conclusion == CONSISTENT
        assert first_order_verdict(spec).conclusion == CONSISTENT
        assert second_order_verdict(spec).conclusion == CONSISTENT
        assert [e.expr.render()
                for e in pipeline.knot_first_order_sigs(spec)] == ["0"]


def test_report_enumerates_metabolizer_alternatives():
    doc = report(_twist(2), enumerate_metabolizers=True)
    for lag in doc["lagrangians"]:
        assert len(lag["metabolizers"]) == 1
    doc2 = report(_twist(2))
    assert "metabolizers" not in doc2["lagrangians"][0]


def example73(lval=3):
    j1, j2 = specs.abstract_knot("J1"), specs.abstract_knot("J2")
    l1 = specs.KnotSpec("L1", specs.GenusOne(1, 0, (j1, j2),
                                             base_name="9_46"))
    l2 = specs.abstract_knot("L2")
    k = specs.KnotSpec("K73", specs.GenusOne(lval, 0, (l1, l2)))
    asm = Assumptions.from_dict({
        "rho0(L2)": {"sign": "nonzero"},
        "rho0(J1)": {"interval": ["6", None]},
        "rho0(J2)": {"interval": ["6", None]},
        "rho1(9_46)": {"interval": ["-10", "10"]}})
    return k, l1, asm


def test_example73_second_order():
    k, l1, asm = example73()
    so = second_order_set(k, asm)
    members = sorted(m.render() for m in so.members)
    expected = sorted(e.expr.render()
                      for e in pipeline.knot_first_order_sigs(l1))
    assert members == expected
    assert second_order_verdict(k, asm).conclusion == NOT_SLICE
    # without the largeness assumptions the verdict stays inconclusive
    weak = Assumptions.from_dict({"rho0(L2)": {"sign": "nonzero"}})
    assert second_order_verdict(k, weak).conclusion == INCONCLUSIVE


def example74():
    j1, j2 = specs.abstract_knot("J1"), specs.abstract_knot("J2")
    l1 = specs.KnotSpec("L1", specs.GenusOne(1, 0, (j1, j2),
                                             base_name="9_46"))
    l2 = specs.abstract_knot("L2")
    ll1 = specs.abstract_knot("LL1")
    ll2 = specs.unknot_spec("LL2")
    b = specs.abstract_knot("B")
    k = specs.KnotSpec("K74", specs.GenusTwoFig9(2, 1, (l1, l2), (ll1, ll2), b))
    asm = Assumptions.from_dict({
        "rho0(L2)": {"sign": "positive"},
        "rho0(LL1)": {"sign": "positive"},
        "rho0(B)": {"sign": "nonnegative"},
        "rho0(J1)": {"interval": ["6", None]},
        "rho0(J2)": {"interval": ["6", None]},
        "rho1(9_46)": {"interval": ["-10", "10"]}})
    return k, l1, asm


def test_example74_second_order():
    k, l1, asm = example74()
    entries = Request(k).lagrangian_entries(k)
    assert len(entries) == 4
    so = second_order_set(k, asm)
    active = [e for e in so.entries if not e.certified_nonzero]
    assert len(active) == 1
    assert active[0].derivative.link.structure == "split"
    members = sorted(m.render() for m in so.members)
    expected = sorted(e.expr.render()
                      for e in pipeline.knot_first_order_sigs(l1))
    assert members == expected
    assert second_order_verdict(k, asm).conclusion == NOT_SLICE
    assert first_order_verdict(k, asm).conclusion == CONSISTENT


def test_cooper_twist6():
    rows = cooper_check(_twist(6))
    assert len(rows) == 2
    for r in rows:
        assert r.components == 1 and r.nullity == 0 and r.bound == 0
        assert r.status == "violated"


def test_cooper_twist2_satisfied():
    rows = cooper_check(_twist(2))
    assert len(rows) == 2
    assert all(r.status == "satisfied" for r in rows)


def test_cooper_fig9_j12():
    k, _, asm = example74()
    rows = cooper_check(k, asm)
    by_subject = {r.subject: r for r in rows}
    j12 = by_subject["K74.J12"]
    assert j12.components == 2 and j12.nullity == 1 and j12.bound == 0
    assert j12.status == "satisfied"


def test_cooper_whitehead_tradeoff_rows():
    c1, c2 = specs.abstract_knot("c1"), specs.abstract_knot("c2")
    trivial_w = specs.LinkSpec(
        "JW(trivial)", components=(c1, c2), structure="declared",
        declared_nullity=1, declared_rho0=(("rho0(L1)", "1"),))
    whitehead_w = specs.LinkSpec(
        "JW(whitehead)", components=(c1, c2), structure="declared",
        declared_nullity=0,
        declared_rho0=(("rho0(L1)", "1"), ("const", "1")))
    for val, status in (("0", "satisfied"), ("5", "violated")):
        asm = Assumptions.from_dict({"rho0(L1)": {"value": val}})
        r1 = cooper_check(trivial_w, asm)[0]
        r2 = cooper_check(whitehead_w, asm)[0]
        assert (r1.nullity, r2.nullity) == (1, 0)
        assert (r1.bound, r2.bound) == (0, 1)
        assert r1.status == r2.status == status


def test_report_deterministic():
    k, _, asm = example73()
    a, b = (json.dumps(report(k, asm), indent=2, sort_keys=True)
            for _ in range(2))
    assert a == b
    doc = json.loads(a)
    assert doc["verdicts"]["second"]["conclusion"] == NOT_SLICE
    assert doc["metabolizers"]["complete"] is True
    assert len(doc["lagrangians"]) == 2
    assert doc["facts"] == []


def test_report_text_renders():
    text = pipeline.render_report(report(_twist(6)))
    assert "NotSlice" in text
    assert "(1.5)-solvability" in text


def test_report_text_enumerates_metabolizers(tmp_path, capsys):
    assert "metabolizer [[" not in pipeline.render_report(report(_twist(2)))
    text = pipeline.render_report(
        report(_twist(2), enumerate_metabolizers=True))
    assert "  order 2*t - 1\n    metabolizer [[1, 2]]\n" in text
    spec_path = tmp_path / "k.json"
    spec_path.write_text(json.dumps(
        {"name": "twist(2)", "family": {"type": "twist", "tw": 2}}))
    assert cli.main(["--enumerate-metabolizers", "report", str(spec_path)]) == 0
    assert capsys.readouterr().out == text


def test_cli_end_to_end(tmp_path, capsys):
    spec_path = tmp_path / "k.json"
    spec_path.write_text(json.dumps(
        {"name": "twist(6)", "family": {"type": "twist", "tw": 6}}))
    rc = cli.main(["rho0", str(spec_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho0(twist(6)) = 0 +- 0" in out
    rc = cli.main(["--format", "json", "verdict", str(spec_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["first"]["conclusion"] == NOT_SLICE

    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "family": {"type": "wat"}}')
    assert cli.main(["verdict", str(bad)]) == 2
    assert cli.main(["verdict", str(tmp_path / "does_not_exist.json")]) == 2

    torus_bad = tmp_path / "t24.json"
    torus_bad.write_text(json.dumps(
        {"name": "t24", "family": {"type": "torus", "p": 2, "q": 4}}))
    assert cli.main(["alexpoly", str(torus_bad)]) == 3
    capsys.readouterr()


def test_cli_assumption_file(tmp_path, capsys):
    k, _, asm = example73()
    spec_doc = {
        "name": "K73",
        "family": {
            "type": "genus_one", "l": 3, "tw": 0,
            "cores": [
                {"name": "L1",
                 "family": {"type": "genus_one", "l": 1, "tw": 0,
                            "base_name": "9_46",
                            "cores": ["J1", "J2"]}},
                "L2"]}}
    spec_path = tmp_path / "k73.json"
    spec_path.write_text(json.dumps(spec_doc))
    asm_path = tmp_path / "asm.json"
    asm_path.write_text(json.dumps({
        "rho0(L2)": {"sign": "nonzero"},
        "rho0(J1)": {"interval": ["6", None]},
        "rho0(J2)": {"interval": ["6", None]},
        "rho1(9_46)": {"interval": ["-10", "10"]}}))
    rc = cli.main(["--assume", str(asm_path), "--format", "json",
                   "verdict", str(spec_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["second"]["conclusion"] == NOT_SLICE
    assert "rho0(J1)" in doc["second"]["assumptions_used"]


@pytest.mark.parametrize("p,q", [(2, 5), (3, 5), (2, 7)])
def test_cli_torus_report(tmp_path, capsys, p, q):
    spec_path = tmp_path / "torus.json"
    spec_path.write_text(json.dumps(
        {"name": f"T({p},{q})", "family": {"type": "torus", "p": p, "q": q}}))
    assert cli.main(["--format", "json", "report", str(spec_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    arcs = doc["signature_function"]["arcs"]
    assert arcs[0][0] == "0" and arcs[-1][1] == "1"
    assert all(len(x) < 60 for lo, hi, _ in arcs for x in (lo, hi))


@pytest.mark.parametrize("args,family", [
    (["--precision", "abc", "rho0"], {"type": "twist", "tw": 2}),
    (["--precision", "0", "rho0"], {"type": "twist", "tw": 2}),
    (["--precision=-1/2", "report"], {"type": "twist", "tw": 2}),
    (["--precision", "1/0", "rho0"], {"type": "twist", "tw": 2}),
    (["rho0"], {"type": "twist", "tw": "a"}),
    (["alexpoly"], {"type": "torus", "p": 2, "q": [3]}),
    (["--format", "csv", "alexpoly"], {"type": "twist", "tw": 2}),
    (["--format", "csv", "report"], {"type": "twist", "tw": 2}),
    (["--search-bound", "-1", "algslice"], {"type": "twist", "tw": 6}),
])
def test_cli_usage_errors_exit_2(tmp_path, capsys, args, family):
    spec_path = tmp_path / "k.json"
    spec_path.write_text(json.dumps({"name": "k", "family": family}))
    assert cli.main(args + [str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


_TWIST2 = {"name": "k", "family": {"type": "twist", "tw": 2}}


@pytest.mark.parametrize("command,doc,assume", [
    ("verdict", {"name": "k", "family": {"type": "explicit", "matrix": 5}},
     None),
    ("verdict", {"name": "k", "family": {"type": "twist", "tw": 2,
                                         "cores": 5}}, None),
    ("verdict", dict(_TWIST2, facts=[5]), None),
    ("verdict", dict(_TWIST2, sites=[{"infect": "J", "eta_module": ["a"]}]),
     None),
    ("first-order", {"name": "L", "link": True, "components": ["A", "B"],
                     "declared_rho0": 5}, None),
    ("report", dict(_TWIST2, facts=[{"kind": "sigvalue", "atom": "rho1(k)",
                                     "value": "abc"}]), None),
    ("verdict", _TWIST2, [1]),
    ("verdict", _TWIST2, {"rho0(k)": 5}),
    ("verdict", _TWIST2, {"rho0(k)": {"interval": 5}}),
    ("verdict", _TWIST2, {"rho0(k)": {"value": "abc"}}),
    ("report", _TWIST2, {"rho0(k)": {"interval": ["a", 1]}}),
    ("verdict", _TWIST2, {"rho0(k)": {"sign": "weird"}}),
])
def test_cli_malformed_documents_exit_2(tmp_path, capsys, command, doc, assume):
    """Malformed documents and assumption files are schema errors, caught
    where they are parsed."""
    spec_path = tmp_path / "k.json"
    spec_path.write_text(json.dumps(doc))
    args = [command, str(spec_path)]
    if assume is not None:
        asm_path = tmp_path / "assume.json"
        asm_path.write_text(json.dumps(assume))
        args = ["--assume", str(asm_path)] + args
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ")
    assert len(err.strip().splitlines()) == 1
