"""Isotropy on a cyclic Alexander module from one Blanchfield value against
the Blanchfield-pairs oracle in helpers.py, on every submodule; the
early-exit minimal polynomial and the generator search against the full
lcm; non-cyclic modules refused; and `concord lagrangians` and
`concord report` on the golden specs, byte for byte."""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from concord import cli, polys
from concord.alexander import (NotCyclic, UnsupportedModule, _krylov,
                               _unit_vectors, is_isotropic,
                               isotropic_submodules, lagrangians, present,
                               submodules_cyclic, zero_submodule)
from concord.seifert import (connected_sum, genus_one, stabilize, torus_knot,
                             twist_knot)

from helpers import (FreeMatrix, blanchfield_pairs_isotropic,
                     full_minimal_polynomial, is_lagrangian, random_metabolic,
                     random_seifert, vector_annihilator)

F = Fraction
DATA = Path(__file__).parent / "data" / "reports"
GOLDEN = sorted(p.name[:-len(".spec.json")] for p in DATA.glob("*.spec.json"))


def _conjugate(v, p):
    """P^T V P as a FreeMatrix: the same rational module in another basis."""
    e = v.entries
    n = len(e)
    return FreeMatrix.from_rows(
        [[sum(p[k][i] * e[k][l] * p[l][j] for k in range(n) for l in range(n))
          for j in range(n)] for i in range(n)])


def _block_sum(a, b):
    na, nb = a.size, b.size
    return FreeMatrix.from_rows(
        [list(r) + [0] * nb for r in a.entries] +
        [[0] * na + list(r) for r in b.entries])


def _diagonal_twists():
    """twist(2) # twist(6) with T = V^T V^-1 diagonal: P^T = adj(M), M the
    integer eigenvectors of T ((1, 1), (2, -1) and (2, 1), (3, -1)), so
    every unit vector is an eigenvector and none generates, while the four
    eigenvalues 2, 1/2, 3/2, 2/3 are distinct and the module is cyclic.
    det(V - V^T) = 9 * 25."""
    return _block_sum(_conjugate(twist_knot(2), ((-1, -1), (-2, 1))),
                      _conjugate(twist_knot(6), ((-1, -1), (-3, 2))))


def _free_draw(rng):
    """A matrix of order 1 to 3 with det(V - V^T) not +-1: odd orders have
    det(V - V^T) = 0, so t - 1 divides Delta and the form degenerates;
    order 2 has V - V^T = [[0, k], [-k, 0]] with |k| in {2, 3}."""
    n = rng.choice((1, 2, 3))
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    if n == 2:
        rows[0][1] = rows[1][0] + rng.choice((-3, -2, 2, 3))
    return FreeMatrix.from_rows(rows)


def _matrices():
    """(label, matrix) pairs, cyclic and not."""
    out = []
    for g, seeds in ((2, range(1, 5)), (3, range(1, 4))):
        for s in seeds:
            out.append((f"metabolic{g}/{s}",
                        random_metabolic(random.Random(s), g)[0]))
    out += [("torus(2,9)", torus_knot(2, 9)), ("torus(3,4)", torus_knot(3, 4))]
    out += [(f"genus_one(0,{tw})", genus_one(0, tw)) for tw in (-3, 1, 2)]
    for a, b in ((1, -1), (2, 3), (-2, 6)):
        out.append((f"twist({a})#twist({b})",
                    connected_sum(twist_knot(a), twist_knot(b))))
    out.append(("genus_one(1,0)#genus_one(2,0)",
                connected_sum(genus_one(1, 0), genus_one(2, 0))))
    out.append(("stabilized twist(2)#twist(3)",
                stabilize(connected_sum(twist_knot(2), twist_knot(3)),
                          [1, 0, -1, 2], 1)))
    rng = random.Random(8)
    for g in (1, 2, 3, 4):
        for k in range(3):
            out.append((f"random{g}/{k}", random_seifert(rng, g, bound=3)))
    rng = random.Random(12)
    out += [(f"free/{k}", _free_draw(rng)) for k in range(16)]
    out.append(("diagonal twist(2)#twist(6)", _diagonal_twists()))
    out.append(("twist(2)#twist(2)",
                connected_sum(twist_knot(2), twist_knot(2))))
    out.append(("twist(2)#genus_one(1,0)",
                connected_sum(twist_knot(2), genus_one(1, 0))))
    return out


MATRICES = _matrices()


def _modules():
    out = []
    for label, v in MATRICES:
        try:
            out.append((label, present(v)))
        except ArithmeticError:
            continue  # det(tV - V^T) = 0: no module
    return out


MODULES = _modules()


def _kind(mod):
    """How the module exercises the criterion."""
    if mod.dim == 0:
        return "trivial"
    if not mod.is_cyclic:
        return "noncyclic"
    g = mod.generator()
    bl = mod.blanchfield(g, g)
    delta, _ = mod.delta.to_dense()
    if not bl:
        return "zero form"
    if polys.deg(polys.gcd_monic(list(bl), delta)) > 0:
        return "degenerate form"
    return "nonsingular form"


def test_every_case_is_reached():
    labels = {label for label, _ in MODULES}
    for prefix in ("metabolic2", "metabolic3", "torus", "genus_one(0",
                   "twist(2)#twist(3)", "random4", "diagonal"):
        assert any(l.startswith(prefix) for l in labels), prefix
    kinds = [(label.split("/")[0], _kind(m)) for label, m in MODULES]
    for kind in ("zero form", "degenerate form", "nonsingular form"):
        assert ("free", kind) in kinds, kind
    assert sum(k == "noncyclic" for _, k in kinds) >= 2
    cyclic = [m for _, m in MODULES if m.is_cyclic]
    # modules with deg Delta < 2g, and a generator found only on the
    # moment curve
    assert sum(0 < m.dim < m.V.size for m in cyclic) >= 2
    assert any(m.dim > 0 and m.generator() not in _unit_vectors(m.dim)
               for m in cyclic)
    # the criterion decides both ways on proper nonzero submodules
    verdicts = {is_isotropic(m, s) for m in cyclic
                for s in submodules_cyclic(m) if 0 < s.dim < m.dim}
    assert verdicts == {True, False}


@pytest.mark.parametrize("label,mod", MODULES, ids=[l for l, _ in MODULES])
def test_is_isotropic_matches_blanchfield_pairs(label, mod):
    if not mod.is_cyclic:
        with pytest.raises(UnsupportedModule):
            is_isotropic(mod, zero_submodule(mod))
        return
    subs = submodules_cyclic(mod)
    want = [s for s in subs if blanchfield_pairs_isotropic(mod, s)]
    assert [s for s in subs if is_isotropic(mod, s)] == want
    assert isotropic_submodules(mod) == want
    assert lagrangians(mod) == [s for s in want if 2 * s.dim == mod.dim]
    assert all(is_lagrangian(mod, s) == (s in want and 2 * s.dim == mod.dim)
               for s in subs)


@pytest.mark.parametrize("label,v", MATRICES, ids=[l for l, _ in MATRICES])
def test_minimal_polynomial_and_generator_match_full_lcm(label, v):
    try:
        mod = present(v)
    except ArithmeticError:
        return
    oracle = present(v)
    want = full_minimal_polynomial(oracle)
    assert mod.is_cyclic == (polys.deg(want) == mod.dim)
    assert mod.minimal_polynomial() == want
    if not mod.is_cyclic:
        with pytest.raises(NotCyclic):
            mod.generator()
        return
    g = mod.generator()
    assert polys.deg(vector_annihilator(oracle, g)) == mod.dim
    assert len(_krylov(mod, g)[0]) == mod.dim


def test_diagonal_module_has_no_cyclic_unit_vector():
    mod = present(_diagonal_twists())
    assert mod.dim == 4 and mod.is_cyclic
    assert all(len(_krylov(mod, e)[0]) == 1 for e in _unit_vectors(4))
    assert mod.generator() == (1, 1, 1, 1)   # c = 1 on the moment curve
    assert len(lagrangians(mod)) == 4


def test_equal_summands_not_cyclic():
    mod = present(connected_sum(twist_knot(2), twist_knot(2)))
    assert not mod.is_cyclic
    with pytest.raises(NotCyclic):
        submodules_cyclic(mod)
    with pytest.raises(NotCyclic):
        mod.generator()
    for fn in (isotropic_submodules, lagrangians):
        with pytest.raises(UnsupportedModule):
            fn(mod)
    with pytest.raises(UnsupportedModule):
        is_isotropic(mod, zero_submodule(mod))


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_cli_lagrangians_on_equal_summands_exits_3(tmp_path):
    part = {"name": "T", "family": {"type": "twist", "tw": 2}}
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"name": "K", "family": {
        "type": "connected_sum", "parts": [part, part]}}))
    code, out, err = _run(["lagrangians", str(path)])
    assert code == 3 and not out
    assert len(err.strip().splitlines()) == 1, err


def _golden(name, command):
    """`concord --format json [--assume] <command>` on a golden spec against
    its committed output, byte for byte."""
    args = ["--format", "json"]
    assume = DATA / f"{name}.assume.json"
    if assume.exists():
        args += ["--assume", str(assume)]
    code, out, _ = _run(args + [command, str(DATA / f"{name}.spec.json")])
    assert code == 0
    assert out.encode() == (DATA / f"{name}.{command}.json").read_bytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_lagrangians(name):
    _golden(name, "lagrangians")


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_reports(name):
    _golden(name, "report")
    # `concord rho0` prints the report's rho0 block
    code, out, _ = _run(["--format", "json", "rho0",
                         str(DATA / f"{name}.spec.json")])
    report = json.loads((DATA / f"{name}.report.json").read_text())
    assert code == 0
    assert json.loads(out) == {"name": report["name"], **report["rho0"]}
