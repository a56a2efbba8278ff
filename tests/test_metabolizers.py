import math
import random
from fractions import Fraction

import pytest

from concord import alexander, metabolizers as mb, pipeline, seifert, specs
from concord.laurent import render
from concord.metabolizers import (Metabolizer, NotMetabolic, NotRepresentable,
                                  RankMismatch, WrongGenus, a_band_metabolizer,
                                  antiderivative, derivative,
                                  genus1_metabolizers, higher_genus_metabolizers,
                                  is_metabolizer, metabolizer_to_lagrangian)
from concord.seifert import connected_sum, genus_one, torus_knot, twist_knot

from helpers import (blanchfield_pairs_isotropic, bounded_search_box,
                     is_lagrangian, random_metabolic)

F = Fraction


def test_twist_metabolizers():
    ms = genus1_metabolizers(twist_knot(2))
    assert sorted(m.basis[0] for m in ms) == [(1, -1), (1, 2)]
    assert genus1_metabolizers(twist_knot(1)) == []
    assert genus1_metabolizers(torus_knot(2, 3)) == []


def test_twist_battery_existence():
    for tw in range(-10, 51):
        ms = genus1_metabolizers(twist_knot(tw))
        sq = 4 * tw + 1
        expect = sq >= 0 and math.isqrt(sq) ** 2 == sq
        assert bool(ms) == expect
        if expect:
            m = math.isqrt(sq)
            want = {tuple(mb.intlinalg.sign_normalized(
                mb.intlinalg.primitive_part((1, (1 + s * m) // 2))))
                for s in (1, -1)}
            assert {x.basis[0] for x in ms} == want


def test_is_metabolizer():
    v = twist_knot(2)
    assert is_metabolizer(v, [(1, 2)])
    assert not is_metabolizer(v, [(2, 4)])     # imprimitive
    assert not is_metabolizer(v, [(1, 0)])     # form does not vanish
    cs = connected_sum(genus_one(1, 0), genus_one(2, 0))
    assert is_metabolizer(cs, [(1, 0, 0, 0), (0, 0, 1, 0)])


def test_wrong_genus_errors():
    with pytest.raises(WrongGenus):
        genus1_metabolizers(connected_sum(twist_knot(2), twist_knot(2)))
    with pytest.raises(WrongGenus):
        higher_genus_metabolizers(twist_knot(2))


def test_higher_genus_blockwise():
    cs = connected_sum(genus_one(1, 0), genus_one(2, 0))
    search = higher_genus_metabolizers(cs)
    assert search.complete and len(search) == 4
    for m in search:
        assert is_metabolizer(cs, m.basis)


def test_higher_genus_definite_empty():
    # definite symmetrization: block sum of right trefoils has V+V^T definite
    t = torus_knot(2, 3)
    v = connected_sum(t, t)
    search = higher_genus_metabolizers(v)
    assert search.complete and len(search) == 0


def test_higher_genus_nonzero_signature_empty():
    # T(4, 5): genus 6, indefinite V + V^T of signature -8; a metabolizer
    # would force signature 0, so no search runs and the answer is complete
    v = torus_knot(4, 5)
    assert seifert.lt_signature(v, seifert.OMEGA_MINUS_ONE) == -8
    search = higher_genus_metabolizers(v)
    assert search.complete and len(search) == 0


def test_higher_genus_bounded_search_flagged():
    # two identical slice blocks: deltas are not coprime, so the search
    # falls back to bounded enumeration and flags incompleteness
    v = connected_sum(twist_knot(2), twist_knot(2))
    search = higher_genus_metabolizers(v, search_bound=2)
    assert not search.complete
    assert len(search) >= 4
    for m in search:
        assert is_metabolizer(v, m.basis)


def _differential_cases():
    rng = random.Random(2008)
    for i in range(24):
        v, _ = random_metabolic(rng, 2, bound=(1, 3)[i % 2])
        yield pytest.param(v, 3, id=f"genus2-{i}")
    # a vector whose only orthogonal partner above it comes next in order
    sparse = seifert.SeifertMatrix.from_rows(
        [[0, 0, 0, 0], [1, -2, -3, 0], [0, -3, -2, -1], [0, 0, 0, 0]])
    yield pytest.param(sparse, 1, id="sparse-genus2")
    twists = connected_sum(twist_knot(2), twist_knot(2))
    for bound in (1, 2):
        yield pytest.param(twists, bound, id=f"twist2-sum-bound{bound}")
    for seed in (1, 2, 3):
        v, _ = random_metabolic(random.Random(seed), 3)
        yield pytest.param(v, 1, id=f"genus3-{seed}")
    # small entries: many isotropic planes, where the look-ahead prune of
    # the lattice search decides
    for seed, bound in ((903, 1), (906, 1), (950, 2)):
        v, _ = random_metabolic(random.Random(seed), 3, bound=1, conjugations=3)
        yield pytest.param(v, bound, id=f"genus3-small-{seed}")
    t2 = twist_knot(2)
    yield pytest.param(connected_sum(connected_sum(t2, t2), t2), 1,
                       id="twist2-sum3")
    yield pytest.param(connected_sum(connected_sum(twist_knot(0),
                                                   genus_one(0, 0)), t2), 1,
                       id="unit-blocks-genus3")


@pytest.mark.parametrize("v,bound", list(_differential_cases()))
def test_bounded_search_matches_box_oracle(v, bound):
    search = mb._bounded_search(v, bound)
    assert list(search.metabolizers) == bounded_search_box(v, bound)
    assert not search.complete and search.reason == "bound"
    assert 0 < search.examined <= mb.SEARCH_BUDGET


@pytest.mark.parametrize("seed", [2, 3])
def test_genus3_search_finds_planted_metabolizer(seed):
    v, planted = random_metabolic(random.Random(seed), 3)
    search = higher_genus_metabolizers(v, search_bound=3)
    assert search.reason == "bound"
    assert mb.intlinalg.hermite_normal_form(planted) in [
        m.basis for m in search]
    for m in search:
        assert is_metabolizer(v, m.basis)


def _rebased(v):
    """V in the basis a1 + a2, b1, a2, b2 - b1 of its first two band
    pairs, which is symplectic and mixes the two blocks."""
    p = [[1, 0, 0, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 0, 0, 1]]
    e = v.entries
    return seifert.SeifertMatrix.from_rows(
        [[sum(p[a][i] * e[a][b] * p[b][j] for a in range(4) for b in range(4))
          for j in range(4)] for i in range(4)])


def test_higher_genus_nonsquare_determinant_empty(monkeypatch):
    # twist(1) # twist(2): sigma(-1) = 0 but |det(V + V^T)| = 5 * 9 is not a
    # square, so no metabolizer exists and no search runs
    v = _rebased(connected_sum(twist_knot(1), twist_knot(2)))
    assert mb._diagonal_blocks(v) is None
    assert seifert.lt_signature(v, seifert.OMEGA_MINUS_ONE) == 0
    assert bounded_search_box(v, 2) == []

    class Searched(Exception):
        pass

    def no_search(*args):
        raise Searched

    monkeypatch.setattr(mb, "_bounded_search", no_search)
    search = higher_genus_metabolizers(v)
    assert search.complete and len(search) == 0 and search.reason is None
    # a square determinant still reaches the search
    with pytest.raises(Searched):
        higher_genus_metabolizers(_rebased(
            connected_sum(twist_knot(2), twist_knot(2))))


def test_search_budget_stops_search(monkeypatch):
    v = connected_sum(twist_knot(2), twist_knot(2))
    full = higher_genus_metabolizers(v, search_bound=2)
    assert full.reason == "bound" and len(full) == 6
    for limit in (10, full.examined - 1):
        monkeypatch.setattr(mb, "SEARCH_BUDGET", limit)
        search = higher_genus_metabolizers(v, search_bound=2)
        assert not search.complete and search.reason == "budget"
        assert search.examined > limit
        assert set(search.metabolizers) <= set(full.metabolizers)
        assert search.as_dict()["examined"] == search.examined
    assert "examined" not in full.as_dict()


def test_search_budget_counts_identically_vanishing_last_entry():
    # with the first 2g - 1 entries zero the equation in the last entry
    # vanishes identically: 2 * 10^9 + 1 values, counted before any is tried
    v = connected_sum(genus_one(0, 0), genus_one(0, 0))
    search = higher_genus_metabolizers(v, search_bound=10 ** 9)
    assert search.reason == "budget" and len(search) == 0
    assert search.examined == 2 * 10 ** 9 + 2


def test_report_shows_budget_only_when_spent(monkeypatch):
    # twist(0) has Delta = 1, so the blockwise answer is not complete
    k = specs.KnotSpec("K", specs.ConnectedSum((
        specs.KnotSpec("twist(0)", specs.Twist(0)),
        specs.KnotSpec("twist(2)", specs.Twist(2)))))
    doc = pipeline.report(k)
    assert set(doc["metabolizers"]) == {"complete", "items"}
    monkeypatch.setattr(mb, "SEARCH_BUDGET", 10)
    doc = pipeline.report(k)
    metab = doc["metabolizers"]
    assert metab["complete"] is False and metab["reason"] == "budget"
    assert metab["examined"] > 10
    assert (f"budget spent after {metab['examined']} candidates"
            in pipeline.render_report(doc))


def test_higher_genus_unit_blocks_incomplete():
    # unit block polynomials leave an infinite metabolizer family, so the
    # blockwise answer may not be claimed complete
    v = connected_sum(twist_knot(0), genus_one(0, 0))
    search = higher_genus_metabolizers(v, search_bound=1)
    assert not search.complete
    for m in search:
        assert is_metabolizer(v, m.basis)


def test_metabolizer_to_lagrangian():
    mod = alexander.present(twist_knot(2))
    ms = genus1_metabolizers(twist_knot(2))
    orders = {}
    for m in ms:
        lag = metabolizer_to_lagrangian(mod, m)
        assert is_lagrangian(mod, lag)
        orders[m.basis[0]] = render(lag.order_ideal)
    assert orders[(1, 2)] == "2*t - 1"
    assert orders[(1, -1)] == "t - 2"
    # trivial Alexander polynomial: image is the zero submodule
    mod0 = alexander.present(twist_knot(0))
    m0 = genus1_metabolizers(twist_knot(0))[0]
    assert metabolizer_to_lagrangian(mod0, m0).is_zero


def test_distinct_metabolizers_distinct_lagrangians():
    mod = alexander.present(twist_knot(2))
    ms = genus1_metabolizers(twist_knot(2))
    lags = {metabolizer_to_lagrangian(mod, m).basis for m in ms}
    assert len(lags) == 2


def test_twist_derivatives():
    k6 = specs.KnotSpec("twist(6)", specs.Twist(6))
    got = {}
    for m in genus1_metabolizers(specs.seifert_matrix(k6)):
        d = derivative(k6, m)
        assert d.is_knot and d.f_rank == 1
        got[m.basis[0]] = d.components[0]
    assert got[(1, 3)].family == specs.Torus(3, -2)
    assert got[(1, -2)].family == specs.Torus(-2, 3)
    k2 = specs.KnotSpec("twist(2)", specs.Twist(2))
    for m in genus1_metabolizers(specs.seifert_matrix(k2)):
        d = derivative(k2, m)
        assert isinstance(d.components[0].family, (specs.Torus, specs.Unknot))
        v = specs.seifert_matrix(d.components[0])
        assert v.size == 0    # both derivatives are unknots


def test_twist_zero_derivative_f_is_zero():
    k0 = specs.KnotSpec("twist(0)", specs.Twist(0))
    for m in genus1_metabolizers(specs.seifert_matrix(k0)):
        d = derivative(k0, m)
        assert d.f_rank == 0


def test_genus_one_band_derivatives():
    l1 = specs.abstract_knot("L1")
    l2 = specs.abstract_knot("L2")
    k = specs.KnotSpec("K", specs.GenusOne(3, 0, (l1, l2)))
    v = specs.seifert_matrix(k)
    ms = {m.basis[0]: m for m in genus1_metabolizers(v)}
    assert derivative(k, ms[(1, 0)]).components[0] is l1
    assert derivative(k, ms[(0, 1)]).components[0] is l2
    # twisted second band: only the first metabolizer is catalogued
    kt = specs.KnotSpec("Kt", specs.GenusOne(3, 4, (l1, l2)))
    vt = specs.seifert_matrix(kt)
    mst = genus1_metabolizers(vt)
    reprs = []
    for m in mst:
        if m.basis[0] == (1, 0):
            assert derivative(kt, m).components[0] is l1
        else:
            with pytest.raises(NotRepresentable):
                derivative(kt, m)


def test_fig9_derivative_catalogue():
    fam = specs.GenusTwoFig9(
        2, 1,
        (specs.abstract_knot("L1"), specs.abstract_knot("L2")),
        (specs.abstract_knot("LL1"), specs.abstract_knot("LL2")),
        specs.abstract_knot("B"))
    k = specs.KnotSpec("K", fam)
    v = specs.seifert_matrix(k)
    infections = {}
    for m in higher_genus_metabolizers(v):
        d = derivative(k, m)
        assert d.link.component_count == 2
        assert d.f_rank == 2
        infections[d.link.name] = (
            [i.infect.name for i in d.link.infections], d.link.structure)
    assert infections["K.J11"] == (["L1", "B", "LL1"], "boundary")
    assert infections["K.J12"] == (["L1", "LL2"], "split")
    assert infections["K.J21"] == (["L2", "B", "LL1"], "boundary")
    assert infections["K.J22"] == (["L2", "B", "LL2"], "boundary")


def test_connected_sum_derivative():
    p1 = specs.KnotSpec("P1", specs.GenusOne(1, 0,
                        (specs.abstract_knot("A1"), specs.abstract_knot("A2"))))
    p2 = specs.KnotSpec("P2", specs.Twist(6))
    k = specs.KnotSpec("K", specs.ConnectedSum((p1, p2)))
    v = specs.seifert_matrix(k)
    search = higher_genus_metabolizers(v)
    assert search.complete
    d = derivative(k, search.metabolizers[0])
    assert d.link.component_count == 2
    assert d.link.structure == "boundary"


def test_twist_with_knotted_cores_not_representable():
    j = specs.abstract_knot("J")
    k = specs.KnotSpec("K", specs.Twist(2, (j, j)))
    m = genus1_metabolizers(specs.seifert_matrix(k))[0]
    with pytest.raises(NotRepresentable):
        derivative(k, m)


def test_antiderivative_round_trip():
    j = specs.abstract_knot("J0")
    target = seifert.genus_one(1, 0)
    ad = antiderivative((j,), target)
    assert specs.seifert_matrix(ad).entries == target.entries
    m = a_band_metabolizer(ad)
    d = derivative(ad, m)
    assert [c.name for c in d.components] == ["J0"]


def test_antiderivative_trivial_f_unknot_target():
    j = specs.abstract_knot("anyknot")
    target = twist_knot(0)       # trivial Alexander polynomial
    ad = antiderivative((j,), target, f_rank=0)
    assert specs.seifert_matrix(ad).entries == target.entries
    d = derivative(ad, a_band_metabolizer(ad))
    assert d.f_rank == 0


def test_antiderivative_errors():
    j = specs.abstract_knot("J0")
    with pytest.raises(NotMetabolic):
        antiderivative((j,), twist_knot(2))    # a-block entry 2 != 0
    with pytest.raises(RankMismatch):
        antiderivative((j,), seifert.genus_one(1, 0), f_rank=0)
    with pytest.raises(RankMismatch):
        antiderivative((j, j), seifert.genus_one(1, 0))


def test_random_metabolic_images_isotropic():
    rng = random.Random(31)
    noncyclic = 0
    for _ in range(25):
        v, basis = random_metabolic(rng, rng.choice((1, 2)))
        assert is_metabolizer(v, basis)
        mod = alexander.present(v)
        lag = metabolizer_to_lagrangian(mod, Metabolizer(v, basis))
        assert blanchfield_pairs_isotropic(mod, lag)
        if mod.dim == 2 * v.genus:
            assert 2 * lag.dim == mod.dim
        if not mod.is_cyclic:
            # isotropy from one Blanchfield value needs a cyclic module
            noncyclic += 1
            with pytest.raises(alexander.UnsupportedModule):
                alexander.is_isotropic(mod, lag)
            continue
        assert alexander.is_isotropic(mod, lag)
        if mod.dim == 2 * v.genus:
            assert is_lagrangian(mod, lag)
    assert noncyclic >= 1
