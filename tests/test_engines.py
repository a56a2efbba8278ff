"""The integer engines against the rational engines they replaced, kept
here as oracles: congruence inertia against the characteristic
polynomial, Bareiss over Z[t] against Bareiss over Q[t], the integer atan
series against the Fraction one; the exact arc ends at Niven's rationals
against the arctangent series; and the precision loop of rho0 doing its
precision-independent work once."""

import random
from fractions import Fraction

import pytest

from concord import certified, polys, seifert
from concord.seifert import (connected_sum, presentation_matrix, torus_knot,
                             twist_knot)

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


def _torus_rho0(p, q):
    """rho0 of T(p, q): -(p^2 - 1)(q^2 - 1)/(3pq)."""
    return F(-(p * p - 1) * (q * q - 1), 3 * p * q)


RADII = {"1e-9": F(1, 10 ** 9), "1e-30": F(1, 10 ** 30),
         "2^-128": F(1, 1 << 128)}
T23, T25 = torus_knot(2, 3), torus_knot(2, 5)
# name: (Seifert matrix, exact rho0 from the torus formula, additive
# under #; twist(-1) is the trefoil T(2, 3))
KNOTS = {"T(2,3)": (T23, _torus_rho0(2, 3)),
         "twist(-1)": (twist_knot(-1), _torus_rho0(2, 3)),
         "T(2,9)": (torus_knot(2, 9), _torus_rho0(2, 9)),
         "T(3,4)": (torus_knot(3, 4), _torus_rho0(3, 4)),
         "T(2,3)#T(2,3)": (connected_sum(T23, T23), 2 * _torus_rho0(2, 3)),
         "T(2,3)#T(2,5)": (connected_sum(T23, T25),
                           _torus_rho0(2, 3) + _torus_rho0(2, 5))}
_RUNS = {}


def _spied(fn, exact=True):
    """(fn(), certified.atan_bounds calls), with the pi cache cleared
    first; exact=False empties the table of exact arc ends, which gives
    back the series-only engine."""
    calls = [0]
    real = certified.atan_bounds

    def spy(*args):
        calls[0] += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certified, "atan_bounds", spy)
        if not exact:
            mp.setattr(certified, "EXACT_ACOS_OVER_PI", {})
        certified.pi_bounds.cache_clear()
        return fn(), calls[0]


def _rho0(name, radius, exact=True):
    """`_spied` rho0 of one knot at RADII[radius], memoized: the 1e-30 runs
    of T(2,9) and T(3,4) take seconds."""
    key = name, radius, exact
    if key not in _RUNS:
        _RUNS[key] = _spied(
            lambda: seifert.rho0(KNOTS[name][0], RADII[radius]), exact)
    return _RUNS[key]


# the endpoints the series-only engine printed
TREFOIL_R9 = (F(-11453246123, 8589934592), F(-5726623061, 4294967296))
TREFOIL_R128 = (
    F(-3629678580490010276942662479272194255531,
      2722258935367507707706996859454145691648),
    F(-1814839290245005138471331239636097127765,
      1361129467683753853853498429727072845824))
TREFOIL_R30 = (F(-3380401600608611737324541881003,
                 2535301200456458802993406410752),
               F(-6760803201217223474649083762005,
                 5070602400912917605986812821504))
# and at 1e-30 on the three knots whose series-only runs take 2-6 s; the
# differential test reads these instead of running them again
SERIES_R30 = {
    "T(2,9)": (F(-45072021341448156497660558413369,
                 10141204801825835211973625643008),
               F(-5634002667681019562207569801671,
                 1267650600228229401496703205376)),
    "T(3,4)": (F(-33804016006086117373245418810027,
                 10141204801825835211973625643008),
               F(-16902008003043058686622709405013,
                 5070602400912917605986812821504)),
    "T(2,3)#T(2,5)": (F(-18930248963408225729017434533615,
                        5070602400912917605986812821504),
                      F(-37860497926816451458034869067229,
                        10141204801825835211973625643008))}


def test_trefoil_rho0_and_arcs_without_the_series():
    """The trefoil's one jump is x = 1, arccos(1/2)/pi = 1/3 exactly."""
    r, calls = _rho0("T(2,3)", "2^-128")
    assert calls == 0 and (r.lo, r.hi) == TREFOIL_R128
    r, calls = _rho0("twist(-1)", "1e-30")
    assert calls == 0
    # the series engine's lower end sat one grid step lower
    assert (r.lo, r.hi) == (F(-13521606402434446949298167524011,
                              10141204801825835211973625643008),
                            TREFOIL_R30[1])
    assert TREFOIL_R30[0] < r.lo
    arcs, calls = _spied(lambda: seifert.signature_arcs(T23))
    assert calls == 0
    assert arcs == [(F(0), F(3074457345618258603, 9223372036854775808), 0),
                    (F(6148914691236517205, 18446744073709551616), F(1), -2)]


@pytest.mark.parametrize("name, calls, series_calls",
                         [("T(2,9)", 42, 54), ("T(3,4)", 30, 42)])
def test_phi6_jump_saves_series_calls(name, calls, series_calls):
    """T(2,9) and T(3,4) have a Phi6 factor among others: one arc end per
    round leaves the series (series_calls: the series-only engine, pi
    included, measured)."""
    r, n = _rho0(name, "1e-30")
    assert n == calls < series_calls
    assert (r.lo, r.hi) == SERIES_R30[name]


@pytest.mark.parametrize(
    "name, radius", [(name, radius) for name in KNOTS
                     for radius in ("1e-9", "1e-30")]
    + [("T(2,3)", "2^-128"), ("twist(-1)", "2^-128")])
def test_exact_arc_ends_refine_the_series_engine(name, radius):
    """Each enclosure lies inside that of the series-only engine (run, or
    SERIES_R30) and holds the torus formula's rho0."""
    r, _ = _rho0(name, radius)
    if radius == "1e-30" and name in SERIES_R30:
        lo, hi = SERIES_R30[name]
    else:
        old, _ = _rho0(name, radius, exact=False)
        lo, hi = old.lo, old.hi
    assert lo <= r.lo <= KNOTS[name][1] <= r.hi <= hi
    assert r.rad <= RADII[radius]
    if radius == "1e-9" and name in ("T(2,3)", "twist(-1)"):
        assert (lo, hi) == (r.lo, r.hi) == TREFOIL_R9
