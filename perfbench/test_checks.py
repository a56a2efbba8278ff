"""The benchmark's checkers accept right answers and reject wrong ones.

    python3 -m pytest perfbench/test_checks.py

Kept out of the repository's test suite (which collects tests/ only):
the checkers belong to the benchmark, not to the program.
"""

from fractions import Fraction

import checks
import corpus

F = Fraction
TWIST2 = corpus.twist_matrix(2)          # Delta = (2t - 1)(t - 2)


def test_enclosure_around_closed_form_passes_and_shifted_one_fails():
    ref = checks.torus_rho0(2, 3)                      # -4/3
    eps = F(1, 10 ** 10)
    assert checks.check_enclosure(ref - eps, ref + eps, corpus.R9, exact=ref) == []
    shifted = ref + F(1, 10 ** 6)
    assert checks.check_enclosure(shifted - eps, shifted + eps, corpus.R9, exact=ref)


def test_enclosure_wider_than_requested_fails():
    ref = checks.torus_rho0(2, 5)
    assert checks.check_enclosure(ref - 1, ref + 1, corpus.R9, exact=ref)


def test_numerical_reference_matches_closed_form_and_rejects_shift():
    v = corpus.torus_matrix(3, 4)
    approx = checks.rho0_reference(v, 30)
    ref = checks.torus_rho0(3, 4)
    eps = F(1, 10 ** 31)
    assert checks.check_enclosure(ref - eps, ref + eps, corpus.R30,
                                  approx=approx, digits=30) == []
    off = ref + F(1, 10 ** 20)
    assert checks.check_enclosure(off - eps, off + eps, corpus.R30,
                                  approx=approx, digits=30)


def test_non_isotropic_basis_fails():
    assert checks.check_genus1(TWIST2, [[(1, -1)], [(1, 2)]]) == []
    assert checks.check_metabolizers(TWIST2, [[(1, 1)]])
    assert checks.check_genus1(TWIST2, [[(1, 2)]])   # a line is missing


def test_non_primitive_basis_fails():
    v = corpus.genus_one_matrix(1, 0)                  # (1, 0) is isotropic
    assert checks.check_metabolizers(v, [[(1, 0)]]) == []
    assert checks.check_metabolizers(v, [[(2, 0)]])


def _twist_report(tw, verdicts, rho=("0", "0")):
    return {"alexander_polynomial": {2: "2*t^2 - 5*t + 2", 3: "3*t^2 - 7*t + 3"}[tw],
            "rho0": {"mid": rho[0], "rad": rho[1]},
            "verdicts": {k: {"conclusion": c} for k, c in zip(("zeroth", "first", "second"),
                                                               verdicts)}}


def test_flipped_verdict_fails():
    op = {"doc": {"family": {"type": "twist", "tw": 2}}}
    fine = ("ConsistentWithSlice",) * 3
    assert checks.check_report(op, _twist_report(2, fine)) == []
    assert checks.check_report(op, _twist_report(2, ("ConsistentWithSlice", "NotSlice",
                                                     "NotSlice")))
    op3 = {"doc": {"family": {"type": "twist", "tw": 3}}}    # 4*3 + 1 is not a square
    assert checks.check_report(op3, _twist_report(3, ("ConsistentWithSlice", "NotSlice",
                                                      "NotSlice"))) == []
    assert checks.check_report(op3, _twist_report(3, fine))


def test_example_needs_not_slice_and_echoed_assumptions():
    op = corpus.example73("r0")
    echo = {name: {"kind": "sign", "value": body["sign"], "lo": None, "hi": None}
            if "sign" in body else
            {"kind": "interval", "value": "", "lo": body["interval"][0],
             "hi": body["interval"][1]} for name, body in op["assume"].items()}
    doc = {"verdicts": {"zeroth": {"conclusion": "ConsistentWithSlice"},
                        "first": {"conclusion": "ConsistentWithSlice"},
                        "second": {"conclusion": "NotSlice"}},
           "assumptions": echo}
    assert checks.check_report(op, doc) == []
    doc["verdicts"]["second"]["conclusion"] = "Inconclusive"
    assert checks.check_report(op, doc)
    doc["verdicts"]["second"]["conclusion"] = "NotSlice"
    del doc["assumptions"]["rho0(J1)"]
    assert checks.check_report(op, doc)


def test_lagrangian_with_wrong_order_ideal_fails():
    good = {"dim": 2, "lagrangians": [{"order": ["-1", "2"], "basis": [["1", "0"]]},
                                      {"order": ["-2", "1"], "basis": [["0", "1"]]}]}
    assert checks.check_lagrangians(TWIST2, good) == []
    bad = {"dim": 2, "lagrangians": [{"order": ["-3", "1"], "basis": [["1", "0"]]}]}
    assert checks.check_lagrangians(TWIST2, bad)


def test_missing_planted_lagrangian_fails():
    _, v, planted = corpus.metabolic_catalogue()[0]          # genus 2, Delta = f * conj(f)
    want = checks.planted_lagrangian(v, planted)
    factor = checks.delta_poly(v).factor_list()[1][0][0]
    order = [str(c) for c in reversed(factor.all_coeffs())]
    dim = 2 * len(want)

    def result(basis):
        return {"dim": dim, "lagrangians": [{"order": order, "basis": basis}]}

    planted_basis = [[str(x) for x in row] for row in want]
    other = [["1" if i == k else "0" for i in range(dim)] for k in range(len(want))]
    assert not [p for p in checks.check_lagrangians(v, result(other), planted)
                if "planted" not in p]
    assert any("planted" in p for p in checks.check_lagrangians(v, result(other), planted))
    assert not any("planted" in p
                   for p in checks.check_lagrangians(v, result(planted_basis), planted))
