"""Factorization over Z[t] against sympy.factor_list, the engine it
replaced, kept here as the oracle; and a report process that runs with
sympy made unimportable."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

from concord import laurent, pipeline, polys, specs
from concord.laurent import LaurentPoly
from concord.seifert import alexander_poly, torus_knot

from helpers import factor_sympy

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "reports"
GOLDEN = sorted(p.name[:-len(".spec.json")] for p in DATA.glob("*.spec.json"))


def _check(p):
    got = laurent.factor(p)
    assert got == factor_sympy(p), laurent.render(p)
    return got


def _torus_delta(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), the Alexander polynomial
    of T(p, q) up to units."""
    def binom(n):
        return [F(-1)] + [F(0)] * (n - 1) + [F(1)]

    num = polys.mul(binom(p * q), binom(1))
    return LaurentPoly.from_dense(
        polys.exact_div(num, polys.mul(binom(p), binom(q))))


def test_factor_matches_sympy_on_knot_polynomials():
    deltas = []
    for name in GOLDEN:
        spec = pipeline.ingest((DATA / f"{name}.spec.json").read_text())
        deltas.append(alexander_poly(specs.seifert_matrix(spec)))
    assert laurent.normalize(alexander_poly(torus_knot(3, 5))) == \
        _torus_delta(3, 5)
    for d in deltas:
        _check(d)
    torus = [(p, q) for p in range(2, 34) for q in range(p + 1, 34)
             if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 32]
    assert len(torus) == 35
    for p, q in torus:
        f = _check(_torus_delta(p, q))
        # one cyclotomic factor Phi_n for each n | pq dividing neither p nor q
        orders = [n for n in range(1, p * q + 1)
                  if p * q % n == 0 and p % n and q % n]
        assert set(f.factors) == {
            (LaurentPoly.from_dense(polys._cyclotomic(n)), 1) for n in orders}


def _random_factor(rng, top):
    k = rng.randint(1, top)
    coeffs = [rng.randint(-6, 6) for _ in range(k)] + \
        [rng.choice((1, 1, 2, 3, -1, -4))]
    return LaurentPoly.from_dense(coeffs)


def test_factor_matches_sympy_on_random_products():
    rng = random.Random(606)
    repeated = 0
    for _ in range(120):
        total = rng.randint(1, 32)
        p = LaurentPoly.t_power(rng.randint(-5, 5),
                                F(rng.choice((-3, -1, 1, 2)),
                                  rng.choice((1, 1, 5))))
        while True:
            g = _random_factor(rng, min(6, total))
            reps = rng.choice((1, 1, 1, 2, 3))
            if g.span < 1 or p.span + reps * g.span > total:
                break
            p = p * g ** reps
            repeated += reps > 1
        f = _check(p)
        assert f.recompose() == p
    assert repeated > 20


def _swinnerton_dyer(primes):
    """prod (x +- sqrt(p1) +- ... +- sqrt(pk)), expanded by sympy."""
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Integer(1)
    for signs in product((1, -1), repeat=len(primes)):
        expr *= x - sum(s * sympy.sqrt(p) for s, p in zip(signs, primes))
    coeffs = sympy.Poly(sympy.expand(expr), x).all_coeffs()
    return LaurentPoly.from_dense([int(c) for c in reversed(coeffs)])


def test_factor_swinnerton_dyer_irreducible():
    """Irreducible, yet split into factors of degree <= 2 mod every prime:
    the worst case for recombination."""
    for primes in ((2, 3), (2, 3, 5)):
        sd = _swinnerton_dyer(primes)
        assert sd.span == 2 ** len(primes)
        f = _check(sd)
        assert f.factors == ((sd, 1),)
    x4 = _swinnerton_dyer((2, 3))
    assert x4 == LaurentPoly({4: 1, 2: -10, 0: 1})
    f = _check(x4 * x4 * LaurentPoly({1: 2, 0: 1}))
    assert f.factors == ((LaurentPoly({1: 2, 0: 1}), 1), (x4, 2))


def test_factor_z_orders_like_sympy():
    """factor_z itself: cyclotomic products, powers of t, and the order
    (degree, then coefficients from the top)."""
    phi = [list(polys._cyclotomic(n)) for n in (1, 2, 3, 4, 6, 12)]
    assert phi[2] == [1, 1, 1] and phi[5] == [1, 0, -1, 0, 1]
    f = [0, 0, 1]
    for g in phi:
        f = polys._zmul(f, g)
    got = polys.factor_z(f)
    assert [g for g, _ in got] == [[-1, 1], [0, 1], [1, 1], [1, -1, 1],
                                   [1, 0, 1], [1, 1, 1], [1, 0, -1, 0, 1]]
    assert [m for _, m in got] == [1, 2, 1, 1, 1, 1, 1]
    assert polys.factor_z([5]) == []


_NO_SYMPY = """
import contextlib, io, sys
sys.modules["sympy"] = None
from concord import cli
for spec, assume, want in zip(*[iter(sys.argv[1:])] * 3):
    out = io.StringIO()
    args = ["--format", "json"] + (["--assume", assume] if assume else [])
    with contextlib.redirect_stdout(out):
        assert cli.main(args + ["report", spec]) == 0
    with open(want, encoding="utf-8") as fh:
        assert out.getvalue() == fh.read(), spec
"""


def test_golden_reports_without_sympy():
    args = []
    for name in GOLDEN:
        assume = DATA / f"{name}.assume.json"
        args += [str(DATA / f"{name}.spec.json"),
                 str(assume) if assume.exists() else "",
                 str(DATA / f"{name}.report.json")]
    run = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY, *args], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
