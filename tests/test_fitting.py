"""The Fitting-decomposition model of the Alexander module against the
Smith-form model it replaced, kept in helpers.py as `SmithModule`, on every
matrix with deg Delta < 2g in test_isotropy.MATRICES and
test_krylov.MODULES and on seeded stabilized genus 1-3 draws.  Only
coordinate-free invariants are compared: the two models put different
coordinates on the same module.

Draws left out, because the oracle does not finish in reasonable time:
`random_metabolic(Random(20), 3)` (the Smith form over Q[t] alone took 45 s
CPU, its coefficients blowing up; here it gets the regression test below
against the Blanchfield-pairs oracle instead), and the stabilized genus-3
metabolic draws named in `_stabilized_draws` (one Q(t) solve of
`oracle_blanchfield` on an order-8 presentation took about 2 s, the
pairings more; `random_metabolic(Random(301), 3)` stabilized took 76 s).

Also, with no oracle: the class map kills every relation and is onto, and
char(T) = Delta, on the same matrices; and the seed-20 matrix through
`present`, `lagrangians` and the CLI."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concord import polys
from concord.alexander import (_rref, is_isotropic, lagrangians, present,
                               submodules_cyclic)
from concord.laurent import LaurentPoly, normalize, render
from concord.metabolizers import (Metabolizer, is_metabolizer,
                                  metabolizer_to_lagrangian)
from concord.seifert import (SeifertMatrix, connected_sum, presentation_matrix,
                             stabilize, twist_knot)

import test_isotropy
import test_krylov
from helpers import (SmithModule, blanchfield_pairs_isotropic, qi_charpoly,
                     random_metabolic, random_seifert)

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
SEED20 = ROOT / "tests" / "data" / "metabolic3_seed20.spec.json"


def _stabilized_draws():
    """(label, matrix, metabolizer basis or None): metabolic draws of genus
    1-3 stabilized once, their metabolizer extended by the new null vector
    e_(n+1); stabilized random draws of genus 1 and 2; and a stabilized
    connected sum with a non-cyclic module."""
    out = []
    # genus 3 with entries and stabilization in [-1, 1], and seeds 303-305
    # only: seeds 301 and 302 there, and every genus-3 seed at the default
    # entry bound tried (301-305), ran past 40 s in the oracle
    for g, seeds, bound, conj, spread in ((1, (101, 102, 103), 3, 3, 2),
                                          (2, (201, 202, 203), 3, 3, 2),
                                          (3, (303, 304, 305), 1, 1, 1)):
        for s in seeds:
            rng = random.Random(s)
            v, basis = random_metabolic(rng, g, bound=bound, conjugations=conj)
            xi = [rng.randint(-spread, spread) for _ in range(v.size)]
            w = stabilize(v, xi, rng.randint(-spread, spread))
            basis = tuple(tuple(b) + (0, 0) for b in basis) + \
                (tuple(int(i == v.size + 1) for i in range(w.size)),)
            out.append((f"stabilized metabolic{g}/{s}", w, basis))
    rng = random.Random(30)
    for g in (1, 1, 2):
        v = random_seifert(rng, g, bound=3)
        xi = [rng.randint(-2, 2) for _ in range(v.size)]
        out.append((f"stabilized random{g}/{len(out)}",
                    stabilize(v, xi, rng.randint(-2, 2)), None))
    v = connected_sum(twist_knot(2), twist_knot(2))
    out.append(("stabilized twist(2)#twist(2)",
                stabilize(v, [1, 0, -1, 2], 1), None))
    return out


def _cases():
    out = []
    for label, v in test_isotropy.MATRICES:
        try:
            if present(v).dim < v.size:
                out.append((f"isotropy:{label}", v, None))
        except ArithmeticError:
            continue  # det(tV - V^T) = 0: no module
    out += [(f"krylov:{label}", m.V, None) for label, m in test_krylov.MODULES
            if m.dim < m.V.size]
    return out + _stabilized_draws()


CASES = _cases()


def test_case_mix():
    """Cyclic and non-cyclic modules, zero and nonzero ones, and matrices
    of order up to 8."""
    mods = [present(v) for _, v, _ in CASES]
    assert sum(m.dim > 0 and m.is_cyclic for m in mods) >= 10
    assert any(not m.is_cyclic for m in mods)
    assert any(m.dim == 0 for m in mods)
    assert max(v.size for _, v, _ in CASES) == 8
    assert sum(b is not None for _, _, b in CASES) == 9


def _ideals(mod):
    """(order ideal, isotropic) for each submodule of a cyclic module: one
    submodule per order ideal."""
    return sorted((render(s.order_ideal), is_isotropic(mod, s))
                  for s in submodules_cyclic(mod))


@pytest.mark.parametrize("label,v,basis", CASES, ids=[c[0] for c in CASES])
def test_fitting_model_matches_smith_model(label, v, basis):
    new, old = present(v), SmithModule(v)
    assert new.dim == old.dim == new.delta.span < v.size
    assert new.delta == old.delta
    assert new.minimal_polynomial() == old.minimal_polynomial()
    assert new.is_cyclic == old.is_cyclic
    if new.is_cyclic:
        assert _ideals(new) == _ideals(old)
        assert len(lagrangians(new)) == len(lagrangians(old))
    units = [[int(i == j) for j in range(v.size)] for i in range(v.size)]
    for a in units:
        for b in units:
            assert new.blanchfield(new.incl_surface(a), new.incl_surface(b)) \
                == old.blanchfield(old.incl_surface(a), old.incl_surface(b))
    if basis is not None:
        assert is_metabolizer(v, basis)
        m = Metabolizer(v, basis)
        assert metabolizer_to_lagrangian(new, m).order_ideal == \
            metabolizer_to_lagrangian(old, m).order_ideal


@pytest.mark.parametrize("label,v,basis", CASES, ids=[c[0] for c in CASES])
def test_presentation_without_oracle(label, v, basis):
    """The class map is a presentation: every relation, a column of
    tV - V^T, has class 0; the constant vectors span the module; and
    char(T) = Delta, of degree dim."""
    mod = present(v)
    rel = presentation_matrix(v)
    zero = tuple(F(0) for _ in range(mod.dim))
    for j in range(v.size):
        assert mod.class_of_polyvec([row[j] for row in rel]) == zero
    units = [[int(i == j) for j in range(v.size)] for i in range(v.size)]
    classes = [mod.class_of_polyvec([polys.const(c) for c in u]) for u in units]
    assert len(_rref(classes, mod.dim)) == mod.dim
    if mod.dim:
        cp = qi_charpoly([[(c, F(0)) for c in row] for row in mod.T])
        assert normalize(LaurentPoly.from_dense(cp)) == mod.delta


def test_seed20_lagrangians_match_blanchfield_pairs():
    """The draw whose Smith form blew up: deg Delta = 4 < 2g = 6."""
    v, _ = random_metabolic(random.Random(20), 3)
    mod = present(v)
    assert (mod.dim, v.size) == (4, 6) and mod.is_cyclic
    subs = submodules_cyclic(mod)
    want = [s for s in subs
            if blanchfield_pairs_isotropic(mod, s) and 2 * s.dim == mod.dim]
    assert lagrangians(mod) == want and len(want) == 2


def test_seed20_cli_lagrangians_exits_0():
    """`concord --format json lagrangians` on the committed explicit spec of
    the seed-20 matrix; the timeout only guards against a hang."""
    v, _ = random_metabolic(random.Random(20), 3)
    doc = json.loads(SEED20.read_text())
    assert SeifertMatrix.from_rows(doc["family"]["matrix"]) == v
    code = ("import sys\nfrom concord.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", code, "--format", "json", "lagrangians",
         str(SEED20)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert run.returncode == 0, run.stderr
    assert len(json.loads(run.stdout)["lagrangians"]) == 2
