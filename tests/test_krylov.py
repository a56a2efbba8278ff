"""The Krylov elimination of the Alexander module against the generator-based
engine it replaced, kept in helpers.py as the oracle: annihilators, generated
submodules and the submodule lists of cyclic modules, on modules of genus
1-3 with det V != 0 and with deg Delta < 2g."""

import random
from fractions import Fraction

import pytest

from concord import polys
from concord.alexander import (NotCyclic, _krylov, present, submodule_from_vectors,
                               submodules_cyclic)
from concord.seifert import (connected_sum, genus_one, stabilize, torus_knot,
                             twist_knot)

from helpers import (closure_submodule, generator_submodules, random_metabolic,
                     random_seifert, vector_annihilator)

F = Fraction


def _modules():
    """(label, module) pairs: random and metabolic modules with det V != 0,
    torus knots, singular-V ones (genus_one(0, tw), stabilized matrices),
    connected sums with coprime and with equal factors."""
    rng = random.Random(5)
    out = []
    direct = 0
    while direct < 8:
        v = random_seifert(rng, rng.choice((1, 2, 2, 3)), bound=3)
        try:
            mod = present(v)
        except ArithmeticError:
            continue
        if mod.dim == v.size:
            out.append((f"direct{direct}", mod))
            direct += 1
    for g in (2, 3):
        v, _ = random_metabolic(rng, g)
        out.append((f"metabolic{g}", present(v)))
    for p, q in ((2, 9), (3, 4)):
        out.append((f"torus({p},{q})", present(torus_knot(p, q))))
    for tw in (-3, -1, 1, 2):
        out.append((f"genus_one(0,{tw})", present(genus_one(0, tw))))
    out.append(("genus_one(0,2)#twist(-2)",
                present(connected_sum(genus_one(0, 2), twist_knot(-2)))))
    for k in range(3):
        v = random_seifert(rng, 1, bound=3)
        xi = [rng.randint(-2, 2) for _ in range(v.size)]
        out.append((f"stabilized{k}", present(stabilize(v, xi, rng.randint(-2, 2)))))
    v = connected_sum(twist_knot(2), twist_knot(3))
    out.append(("stabilized twist(2)#twist(3)",
                present(stabilize(v, [1, 0, -1, 2], 1))))
    for a, b in ((1, -1), (2, 3), (-2, 6)):
        out.append((f"twist({a})#twist({b})",
                    present(connected_sum(twist_knot(a), twist_knot(b)))))
    out.append(("twist(2)#twist(2)",
                present(connected_sum(twist_knot(2), twist_knot(2)))))
    out.append(("unknot", present(twist_knot(0))))
    return out


MODULES = _modules()


def _vec(rng, n):
    if rng.random() < 0.2:
        return tuple(F(0) for _ in range(n))
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))


def test_module_mix():
    kinds = {"degenerate" if m.dim < m.V.size else "direct"
             for _, m in MODULES}
    assert kinds == {"degenerate", "direct"}
    assert sum(not m.is_cyclic for _, m in MODULES) >= 1
    assert sum(0 < m.dim < m.V.size and m.is_cyclic for _, m in MODULES) >= 3


@pytest.mark.parametrize("label,mod", MODULES, ids=[l for l, _ in MODULES])
def test_submodules_cyclic_matches_generator_oracle(label, mod):
    if not mod.is_cyclic:
        with pytest.raises(NotCyclic):
            submodules_cyclic(mod)
        with pytest.raises(NotCyclic):
            generator_submodules(mod)
        return
    got = submodules_cyclic(mod)
    want = generator_submodules(mod)
    assert [(s.basis, s.order_ideal) for s in got] == \
        [(s.basis, s.order_ideal) for s in want]


@pytest.mark.parametrize("label,mod", MODULES, ids=[l for l, _ in MODULES])
def test_krylov_and_generated_submodules_match_oracle(label, mod):
    rng = random.Random(label)
    n = mod.dim
    for _ in range(6):
        w = _vec(rng, n)
        chain, p = _krylov(mod, w)
        assert p == vector_annihilator(mod, w)
        assert len(chain) == polys.deg(p)
        assert all(a == b for a, b in zip(chain, [w] + [mod.t_action(c)
                                                         for c in chain[:-1]]))
    for size in (0, 1, 1, 2, 3):
        gens = [_vec(rng, n) for _ in range(size)]
        got = submodule_from_vectors(mod, gens)
        want = closure_submodule(mod, gens)
        assert (got.basis, got.order_ideal) == (want.basis, want.order_ideal)
