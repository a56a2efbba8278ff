"""Submodules of a cyclic Alexander module from one Krylov chain per divisor
against the all-unit-vector construction they replaced, kept in helpers.py
as `submodules_all_units`: equal bases, order ideals and list order on
every module of test_isotropy.MATRICES and test_krylov.MODULES (singular-V
modules and the dimension-0 twist(0) among them), on the stabilized draws
of test_fitting and the singular seed-20 genus-3 draw, on the rebased
twist(2) # twist(6) whose generator lies on the moment curve, and on
metabolic draws of genus 2-5; the number of applications of T; and the
genus-5 metabolic spec through the CLI.

The isotropic submodules and Lagrangians, which test each divisor of Delta
before building its basis, against every submodule filtered by
`is_isotropic` on the same modules; the bases built (8 of the 64 divisors
of twist(2) # twist(6) # twist(12) for its Lagrangians); and the single
right-hand column of each Blanchfield solve.

The incremental `_rref` and the augmented `_krylov`, both on
`alexander._reduce`, against the column-by-column Gauss-Jordan and the
tracked Krylov elimination they replaced (`rref_columnwise`,
`krylov_tracked` in helpers.py), on every module of MODULES."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concord import alexander, pipeline, polys, specs
from concord.alexander import (NotCyclic, UnsupportedModule, _krylov, _rref,
                               _unit_vectors, is_isotropic,
                               isotropic_submodules, lagrangians, present,
                               submodules_cyclic)
from concord.seifert import SeifertMatrix

import test_fitting
import test_isotropy
import test_krylov
from helpers import (krylov_tracked, random_metabolic, rref_columnwise,
                     submodules_all_units)

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
SEED1_GENUS5 = ROOT / "tests" / "data" / "metabolic5_seed1.spec.json"


def _modules():
    out = [(f"isotropy {label}", mod) for label, mod in test_isotropy.MODULES]
    out += [(f"krylov {label}", mod) for label, mod in test_krylov.MODULES]
    out += [(f"fitting {label}", present(v))
            for label, v, _ in test_fitting._stabilized_draws()]
    for g in (2, 3, 4, 5):
        for s in (1, 2, 3):
            out.append((f"metabolic{g}/{s}",
                        present(random_metabolic(random.Random(s), g)[0])))
    out.append(("metabolic3/20",
                present(random_metabolic(random.Random(20), 3)[0])))
    return out


MODULES = _modules()


def test_module_mix():
    labels = [label for label, _ in MODULES]
    assert "isotropy diagonal twist(2)#twist(6)" in labels
    assert "krylov unknot" in labels
    assert any(l.startswith("isotropy free/") for l in labels)
    assert sum(l.startswith("fitting stabilized") for l in labels) == 13
    mods = [m for _, m in MODULES]
    assert dict(MODULES)["metabolic3/20"].dim == 4
    assert any(m.dim == 0 for m in mods)
    assert sum(m.is_cyclic and 0 < m.dim < m.V.size for m in mods) >= 5
    assert sum(not m.is_cyclic for m in mods) >= 2
    assert any(m.dim > 0 and m.is_cyclic
               and m.generator() not in _unit_vectors(m.dim) for m in mods)


@pytest.mark.parametrize("label,mod", MODULES, ids=[l for l, _ in MODULES])
def test_chain_submodules_match_all_units_oracle(label, mod):
    if not mod.is_cyclic:
        with pytest.raises(NotCyclic):
            submodules_cyclic(mod)
        return
    got = submodules_cyclic(mod)
    want = submodules_all_units(mod)
    assert [(s.basis, s.order_ideal) for s in got] == \
        [(s.basis, s.order_ideal) for s in want]


@pytest.mark.parametrize("label,mod", MODULES, ids=[l for l, _ in MODULES])
def test_isotropic_images_match_filtered_submodules(label, mod):
    if not mod.is_cyclic:
        for fn in (isotropic_submodules, lagrangians):
            with pytest.raises(UnsupportedModule):
                fn(mod)
        return
    want = [s for s in submodules_cyclic(mod) if is_isotropic(mod, s)]
    assert isotropic_submodules(mod) == want
    assert lagrangians(mod) == [s for s in want if 2 * s.dim == mod.dim]


def _assert_same_rref(vectors, pivot_cols):
    """`_rref` against the column-by-column oracle.  Without rows that are
    zero on the pivot columns the RREF is canonical and the two agree row
    for row; with them (an inconsistent augmented system) the pivot rows'
    entries beyond the pivot columns depend on the elimination order, so
    the pivot columns and the row spaces are compared."""
    got = _rref(vectors, pivot_cols)
    want = rref_columnwise(vectors, pivot_cols)
    if all(any(row[:pivot_cols]) for row in want):
        assert got == want
        return
    heads = [[row[:pivot_cols] for row in out if any(row[:pivot_cols])]
             for out in (got, want)]
    assert heads[0] == heads[1]
    width = len(vectors[0])
    assert rref_columnwise(got, width) == rref_columnwise(want, width)


def _rand_vec(rng, n):
    if rng.random() < 0.15:
        return tuple(F(0) for _ in range(n))
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))


@pytest.mark.parametrize("label,mod", MODULES, ids=[l for l, _ in MODULES])
def test_rref_and_krylov_match_replaced_eliminations(label, mod):
    rng = random.Random(label)
    n = mod.dim
    starts = [_rand_vec(rng, n) for _ in range(3)] + _unit_vectors(n)[-1:]
    if mod.is_cyclic:
        starts.append(mod.generator())
    for w in starts:
        chain, p = _krylov(mod, w)
        assert (chain, p) == krylov_tracked(mod, w)
        # a chain with its dependent next vector, shuffled
        vecs = chain + [mod.t_action(chain[-1]) if chain else w]
        rng.shuffle(vecs)
        _assert_same_rref(vecs, n)
    if n == 0:
        return
    for size in (1, 2, n, n + 2):
        vecs = [_rand_vec(rng, n) for _ in range(size)]
        vecs += [tuple(2 * x for x in v) for v in vecs[:1]]
        _assert_same_rref(vecs, n)
        # augmented by unit rows, as `_eliminate` augments [M | I]
        _assert_same_rref([list(v) + [int(i == j) for j in range(len(vecs))]
                           for i, v in enumerate(vecs)], n)
    # [T | I]: T is invertible, so L = T^-1
    _assert_same_rref([list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(mod.T)], n)


def _sum_2_6_12():
    doc = (ROOT / "tests" / "data" / "reports" / "sum_2_6_12.spec.json")
    return present(specs.seifert_matrix(pipeline.ingest(doc.read_text())))


def test_bases_built_for_lagrangian_divisors_only(monkeypatch):
    """Six distinct linear factors of Delta: 64 divisors, 8 Lagrangians;
    one RREF per basis built."""
    mod = _sum_2_6_12()
    rref = alexander._rref
    calls = []

    def counted(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(alexander, "_rref", counted)
    assert len(submodules_cyclic(mod)) == 64 and len(calls) == 64
    calls.clear()
    assert len(lagrangians(mod)) == 8 and len(calls) == 8
    calls.clear()
    # per conjugate pair of factors: neither, the one or the other
    assert len(isotropic_submodules(mod)) == len(calls) == 27


@pytest.mark.parametrize("label", ["metabolic3/1", "metabolic3/20",
                                   "fitting stabilized metabolic2/201",
                                   "isotropy free/7"])
def test_blanchfield_solves_one_column_per_distinct_y(monkeypatch, label):
    mod = present(dict(MODULES)[label].V)
    g = mod.generator()
    bareiss = polys.bareiss
    widths = []

    def counted(mat, rhs=None):
        widths.append(len(rhs[0]) if rhs else 0)
        return bareiss(mat, rhs)

    monkeypatch.setattr(polys, "bareiss", counted)
    r = mod.blanchfield(g, g)
    assert widths == [1]
    e = _unit_vectors(mod.dim)
    assert mod.blanchfield(g, g) == r and [mod.blanchfield(x, g) for x in e]
    assert widths == [1]
    mod.blanchfield(g, tuple(2 * c for c in g))
    assert widths == [1, 1]


@pytest.mark.parametrize("label", ["metabolic3/1", "metabolic5/2",
                                   "isotropy diagonal twist(2)#twist(6)"])
def test_t_applied_at_most_dim_minus_one_per_divisor(label):
    # a module of its own: the count must not see work cached by others
    v = dict(MODULES)[label].V
    mod = present(v)
    mod.generator()
    calls = []
    apply_t = mod.t_action

    def counted(coords):
        calls.append(1)
        return apply_t(coords)

    mod.t_action = counted
    divisors = len(submodules_cyclic(mod))
    # deg f to reach f(T) g, then deg(Delta/f) - 1 along its chain; f = Delta
    # alone takes dim (all unit vectors took dim (deg f + 1) per divisor f)
    assert 0 < len(calls) <= divisors * (mod.dim - 1) + 1


def test_genus5_lagrangians_from_the_cli():
    v, _ = random_metabolic(random.Random(1), 5)
    doc = json.loads(SEED1_GENUS5.read_text())
    assert SeifertMatrix.from_rows(doc["family"]["matrix"]) == v
    code = ("import sys\nfrom concord.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", code, "--format", "json", "lagrangians",
         str(SEED1_GENUS5)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert len(json.loads(run.stdout)["lagrangians"]) == 2
