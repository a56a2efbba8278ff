"""The integer engines against the rational engines they replaced, kept
here as oracles: congruence inertia against the characteristic
polynomial, Bareiss over Z[t] against Bareiss over Q[t], the integer atan
series against the Fraction one; and the precision loop of rho0 doing
its precision-independent work once."""

import random
from fractions import Fraction

from concord import certified, polys, seifert
from concord.seifert import presentation_matrix, torus_knot, twist_knot

from helpers import (atan_series_q, bareiss_q, charpoly_signature,
                     qi_charpoly, random_seifert)

F = Fraction


def _random_hermitian(rng, n, bound):
    """(re, im): symmetric and antisymmetric integer parts of a random
    Hermitian Gaussian-integer matrix; zero diagonals and low rank on
    purpose for part of the draws."""
    kind = rng.randrange(4)
    if kind == 3:
        # A^H D A with A of rank r < n: rank-deficient
        r = rng.randint(0, n - 1)
        a = [[(rng.randint(-bound, bound), rng.randint(-bound, bound))
              for _ in range(n)] for _ in range(r)]
        d = [rng.choice((-1, 1)) * rng.randint(0, 2) for _ in range(r)]
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(r):
                    (xr, xi), (yr, yi) = a[k][i], a[k][j]
                    # conj(x) * d_k * y
                    re[i][j] += d[k] * (xr * yr + xi * yi)
                    im[i][j] += d[k] * (xr * yi - xi * yr)
        return re, im
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for i in range(n):
        if kind != 0:           # kind 0: zero diagonal
            re[i][i] = rng.randint(-bound, bound)
        for j in range(i + 1, n):
            re[i][j] = re[j][i] = rng.randint(-bound, bound)
            im[i][j] = rng.randint(-bound, bound)
            im[j][i] = -im[i][j]
    if kind == 2 and n > 1:
        # repeat a row and column (with a Gaussian-integer factor): rank drops
        i, j = rng.sample(range(n), 2)
        cr, ci = rng.randint(-1, 1), rng.randint(-1, 1)
        for m in range(n):
            re[i][m] = cr * re[j][m] - ci * im[j][m]
            im[i][m] = cr * im[j][m] + ci * re[j][m]
        for m in range(n):
            re[m][i] = cr * re[m][j] + ci * im[m][j]
            im[m][i] = cr * im[m][j] - ci * re[m][j]
    return re, im


def test_congruence_inertia_matches_charpoly_oracle():
    rng = random.Random(401)
    seen_zero_diag = seen_singular = 0
    for case in range(1000):
        n = rng.randint(1, 10 if case % 10 == 0 else 6)
        re, im = _random_hermitian(rng, n, rng.randint(0, 3))
        cp = qi_charpoly([[(F(re[i][j]), F(im[i][j])) for j in range(n)]
                          for i in range(n)])
        seen_zero_diag += not any(re[i][i] for i in range(n))
        seen_singular += cp[0] == 0
        want = charpoly_signature(cp)
        got = seifert._inertia_signature([row[:] for row in re],
                                         [row[:] for row in im])
        assert got == want, (re, im)
    assert seen_zero_diag > 100 and seen_singular > 100


def test_lt_signature_matches_charpoly_oracle_on_knots():
    """The Cayley points of rho0's arcs, omega = -1 and random points, on
    torus knots and random Seifert matrices."""
    rng = random.Random(402)
    mats = [torus_knot(2, 5), torus_knot(3, 4), torus_knot(3, 5)] + \
        [random_seifert(rng, g, bound=3) for g in (1, 2, 2, 3, 4)]
    for v in mats:
        n, e = v.size, v.entries
        points = [seifert.OMEGA_MINUS_ONE] + [
            seifert.UnitCirclePoint.from_cayley(F(rng.randint(-9, 9),
                                                  rng.randint(1, 9)))
            for _ in range(4)]
        for w in points:
            s = F(1) if w.is_minus_one else w.cayley
            if w.is_minus_one:
                mat = [[(F(e[a][b] + e[b][a]), F(0)) for b in range(n)]
                       for a in range(n)]
            else:
                mat = [[(s * (e[a][b] + e[b][a]), F(e[b][a] - e[a][b]))
                        for b in range(n)] for a in range(n)]
            want = charpoly_signature(qi_charpoly(mat)) if s else 0
            assert seifert.lt_signature(v, w) == (want if s >= 0 else -want)


def test_integer_bareiss_matches_rational_oracle():
    rng = random.Random(403)
    for genus, count in ((1, 10), (2, 8), (3, 5), (4, 2)):
        for _ in range(count):
            pm = presentation_matrix(random_seifert(rng, genus, bound=4))
            n = len(pm)
            ident = [[[F(1)] if i == j else [] for j in range(n)]
                     for i in range(n)]
            assert polys.bareiss(pm) == bareiss_q(pm)
            assert polys.bareiss(pm, ident) == bareiss_q(pm, ident)


def test_integer_atan_series_matches_fraction_oracle(monkeypatch):
    args = set()
    real = certified._atan_series

    def record(y, bits):
        args.add((y, bits))
        return real(y, bits)

    monkeypatch.setattr(certified, "_atan_series", record)
    seifert.rho0(torus_knot(2, 7), F(1, 10 ** 30))
    monkeypatch.undo()
    assert len(args) > 10
    rng = random.Random(404)
    for _ in range(60):
        den = rng.randint(1, 10 ** rng.randint(1, 30))
        y = F(rng.randint(-den // 2, den // 2), den)
        args.add((y, rng.randint(48, 400)))
    for y, bits in args:
        assert certified._atan_series(y, bits) == atan_series_q(y, bits)


def test_rho0_precision_loop_does_invariant_work_once(monkeypatch):
    v = twist_knot(-3)
    arcs = len(seifert.signature_arcs(v))
    calls = {"alexander_poly": 0, "_x_roots": 0, "_arc_signatures": 0,
             "lt_signature": 0}
    for name in calls:
        fn = getattr(seifert, name)

        def wrapper(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(seifert, name, wrapper)
    r = seifert.rho0(v, F(1, 10 ** 30))
    assert r.rad <= F(1, 10 ** 30)
    assert calls == {"alexander_poly": 1, "_x_roots": 1, "_arc_signatures": 1,
                     "lt_signature": arcs}
