import random
from fractions import Fraction

import pytest

from concord import polys
from concord.alexander import (NotCyclic, UnsupportedModule, is_isotropic,
                               isotropic_submodules, lagrangians,
                               orthogonal_complement, present,
                               submodule_from_vectors, submodules_cyclic,
                               zero_submodule)
from concord.laurent import LaurentPoly, normalize, render
from concord.seifert import (connected_sum, genus_one, stabilize, torus_knot,
                             twist_knot, unknot)

import test_isotropy
from helpers import (FreeMatrix, bl_conjugate, bl_t_multiple, is_lagrangian,
                     oracle_blanchfield, proper_submodules, qi_charpoly,
                     random_seifert)

F = Fraction


def test_present_unknot():
    mod = present(unknot())
    assert mod.dim == 0 and mod.is_cyclic
    assert mod.delta == LaurentPoly.one()


def test_present_twist_two():
    mod = present(twist_knot(2))
    assert mod.dim == 2
    assert mod.is_cyclic
    assert render(mod.delta) == "2*t^2 - 5*t + 2"
    # characteristic polynomial of the t-action matches Delta up to units
    n = mod.dim
    mat = [[(mod.T[i][j], F(0)) for j in range(n)] for i in range(n)]
    cp = qi_charpoly(mat)
    assert normalize(LaurentPoly.from_dense(cp)) == mod.delta
    # t-action is invertible: no zero root
    assert cp[0] != 0


def test_present_connected_sum_dimension():
    mod = present(connected_sum(genus_one(1, 0), genus_one(2, 0)))
    assert mod.dim == 4 and mod.is_cyclic


def test_blanchfield_hand_computation():
    mod = present(twist_knot(2))
    x = mod.incl_surface([1, 2])
    assert mod.blanchfield(x, x) == ()
    y = mod.incl_surface([1, 0])
    val = mod.blanchfield(y, y)
    # r/Delta in lowest terms has denominator the Alexander polynomial
    dd, _ = mod.delta.to_dense()
    assert 0 <= polys.deg(list(val)) < polys.deg(dd)
    assert polys.deg(polys.gcd_monic(list(val), dd)) == 0


def test_blanchfield_zero_argument():
    mod = present(twist_knot(2))
    zero = tuple(F(0) for _ in range(mod.dim))
    x = mod.incl_surface([1, 0])
    assert mod.blanchfield(x, zero) == ()
    assert mod.blanchfield(zero, x) == ()


def test_blanchfield_hermitian_and_sesquilinear():
    mod = present(twist_knot(2))
    x = mod.incl_surface([1, 0])
    y = mod.incl_surface([0, 1])
    assert mod.blanchfield(x, y) == bl_conjugate(mod, mod.blanchfield(y, x))
    # linear in the second slot over Q[t, t^-1]; conjugate-linear in the first
    tx = mod.t_action(x)
    ty = mod.t_action(y)
    assert mod.blanchfield(x, ty) == bl_t_multiple(mod, mod.blanchfield(x, y))
    assert mod.blanchfield(tx, ty) == mod.blanchfield(x, y)


def test_submodules_cyclic_counts():
    mod = present(twist_knot(2))
    subs = submodules_cyclic(mod)
    assert len(subs) == 4
    assert len(proper_submodules(mod)) == 3
    modu = present(unknot())
    assert len(submodules_cyclic(modu)) == 1
    cs = present(connected_sum(genus_one(1, 0), genus_one(2, 0)))
    assert len(submodules_cyclic(cs)) == 16


def test_submodules_not_cyclic():
    # a connected sum of two identical blocks is not cyclic
    v = connected_sum(genus_one(1, 0), genus_one(1, 0))
    mod = present(v)
    assert not mod.is_cyclic
    with pytest.raises(NotCyclic):
        submodules_cyclic(mod)
    with pytest.raises(UnsupportedModule):
        lagrangians(mod)


def test_orthogonal_complement():
    mod = present(twist_knot(2))
    zero = zero_submodule(mod)
    whole = orthogonal_complement(mod, zero)
    assert whole.dim == mod.dim
    assert orthogonal_complement(mod, whole).dim == 0
    p = submodule_from_vectors(mod, [mod.incl_surface([1, 2])])
    pp = orthogonal_complement(mod, p)
    assert pp.basis == p.basis


def test_isotropic_and_lagrangian():
    mod = present(twist_knot(2))
    zero = zero_submodule(mod)
    assert is_isotropic(mod, zero)
    assert not is_lagrangian(mod, zero)
    p = submodule_from_vectors(mod, [mod.incl_surface([1, 2])])
    assert is_lagrangian(mod, p)
    iso = isotropic_submodules(mod)
    assert len(iso) == 3
    assert sorted(s.dim for s in iso) == [0, 1, 1]
    lags = lagrangians(mod)
    assert len(lags) == 2
    orders = sorted(render(l.order_ideal) for l in lags)
    assert orders == ["2*t - 1", "t - 2"]


def test_zero_submodule_lagrangian_iff_trivial_delta():
    mod = present(unknot())
    assert is_lagrangian(mod, zero_submodule(mod))
    mod2 = present(twist_knot(2))
    assert not is_lagrangian(mod2, zero_submodule(mod2))


def test_torus_module_simple():
    mod = present(torus_knot(2, 3))
    assert lagrangians(mod) == []
    iso = isotropic_submodules(mod)
    assert len(iso) == 1 and iso[0].dim == 0


def test_figure_eight_single_isotropic():
    mod = present(twist_knot(1))
    iso = isotropic_submodules(mod)
    assert len(iso) == 1 and iso[0].dim == 0


def test_connected_sum_four_lagrangians():
    mod = present(connected_sum(genus_one(1, 0), genus_one(2, 0)))
    lags = lagrangians(mod)
    assert len(lags) == 4
    assert all(l.dim == 2 for l in lags)


def test_nonsingularity_dimension_count():
    mod = present(connected_sum(genus_one(1, 0), genus_one(2, 0)))
    for s in submodules_cyclic(mod):
        assert s.dim + orthogonal_complement(mod, s).dim == mod.dim


def test_submodules_closed_under_complement():
    mod = present(twist_knot(2))
    bases = {s.basis for s in submodules_cyclic(mod)}
    for s in submodules_cyclic(mod):
        assert orthogonal_complement(mod, s).basis in bases


def test_class_rep_round_trip():
    mod = present(connected_sum(genus_one(1, 0), genus_one(2, 0)))
    rng = random.Random(17)
    for _ in range(10):
        coords = tuple(F(rng.randint(-5, 5)) for _ in range(mod.dim))
        rep = mod.rep_of(coords)
        assert mod.class_of_polyvec(rep) == coords


def test_degenerate_presentation_matches_direct():
    """A stabilized matrix has deg Delta < 2g, so singular V and a kernel K
    of the constant vectors; the module data must agree with the
    unstabilized module, where K = 0 (S-equivalence invariance)."""
    v = twist_knot(2)
    w = stabilize(stabilize(v, [3, -1], 4), [0, 1, 2, -2], -1)
    direct = present(v)
    degen = present(w)
    assert degen.dim == direct.dim == 2
    assert degen.delta == direct.delta
    assert degen.is_cyclic
    rng = random.Random(23)
    for _ in range(5):
        coords = tuple(F(rng.randint(-3, 3)) for _ in range(degen.dim))
        assert degen.class_of_polyvec(degen.rep_of(coords)) == coords
    subs_d = submodules_cyclic(direct)
    subs_s = submodules_cyclic(degen)
    assert sorted(render(s.order_ideal) for s in subs_d) == \
        sorted(render(s.order_ideal) for s in subs_s)
    assert len(lagrangians(degen)) == len(lagrangians(direct)) == 2
    # metabolizer images in the degenerate module are still isotropic:
    # the original metabolizer direction plus the two stabilized nulls
    from concord.metabolizers import (Metabolizer, is_metabolizer,
                                      metabolizer_to_lagrangian)
    basis = ((1, 2, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1))
    assert is_metabolizer(w, basis)
    lag = metabolizer_to_lagrangian(degen, Metabolizer(w, basis))
    assert is_isotropic(degen, lag)
    assert is_lagrangian(degen, lag)   # deg Delta = 2, image spans rank 1


def test_blanchfield_matches_rational_function_oracle():
    """The adjugate form over det(tV - V^T) against the Q(t) engine it
    replaced, on modules with det V != 0, on modules of stabilized, hence
    singular, V, and on FreeMatrix modules, whose det(V - V^T) is not +-1
    and whose Delta need not be symmetric."""
    rng = random.Random(11)
    mods = {"direct": [], "degen": []}
    while len(mods["direct"]) < 6 or len(mods["degen"]) < 4:
        v = random_seifert(rng, rng.choice((1, 2)), bound=3)
        if len(mods["degen"]) < 4 and v.genus == 1:
            xi = [rng.randint(-2, 2) for _ in range(v.size)]
            v = stabilize(v, xi, rng.randint(-2, 2))
        try:
            mod = present(v)
        except ArithmeticError:
            continue  # det(tV - V^T) = 0: no module
        if mod.dim == 0:
            continue
        kind = "direct" if mod.dim == v.size else "degen"
        if len(mods[kind]) < (6 if kind == "direct" else 4):
            mods[kind].append(mod)
    free = [m for label, m in test_isotropy.MODULES
            if label.startswith("free/") and m.dim > 0]
    assert any(m.delta.to_dense()[0][::-1] != m.delta.to_dense()[0]
               for m in free)
    # 2V: det(tV - V^T) = c t^k Delta with |c| = 2^n, on a nonzero form
    free += [present(FreeMatrix.from_rows([[2 * e for e in row]
                                           for row in m.V.entries]))
             for m in (mods["direct"][0], mods["degen"][0])]
    for mod in mods["direct"] + mods["degen"] + free:
        n = mod.dim
        basis = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
        vecs = basis + [tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(n)) for _ in range(2)]
        for x in vecs:
            for y in vecs:
                assert mod.blanchfield(x, y) == oracle_blanchfield(mod, x, y)
