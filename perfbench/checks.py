"""Checks of the program's outputs against computations made apart from it.

They run after the timed phase, in the benchmark's parent process, with
sympy and mpmath.  Each check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath
import sympy

import corpus

F = Fraction
T = sympy.Symbol("t")


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def delta_poly(v):
    """det(tV - V^T) as a sympy Poly in t (exact, by interpolation)."""
    return sympy.Poly(list(reversed(corpus.delta_coeffs(v))), T, domain="QQ")


def same_up_to_units(p, q):
    """p = c t^k q for a nonzero rational c and an integer k."""
    a = [c for c in p.all_coeffs()]
    b = [c for c in q.all_coeffs()]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if len(a) != len(b) or not a:
        return False
    return all(x * b[0] == y * a[0] for x, y in zip(a, b))


def torus_rho0(p, q):
    return F(-(p * p - 1) * (q * q - 1), 3 * p * q)


def rho0_reference(v, digits):
    """Circle average of the Levine-Tristram signature, to `digits` digits.

    The jumps are the unit-circle roots of det(tV - V^T) (mpmath roots
    of each of its sympy square-free factors); on each arc between them
    the signature of (1 - w)V + (1 - conj w)V^T is read from mpmath
    eigenvalues at the arc's midpoint.
    """
    if not v:
        return mpmath.mpf(0)
    n = len(v)
    with mpmath.workdps(digits + 25):
        tol = mpmath.mpf(10) ** (-(digits + 10))
        angles = []
        for fac, _ in delta_poly(v).sqf_list()[1]:
            if fac.degree() < 1:
                continue
            coeffs = [mpmath.mpf(int(c.p)) / int(c.q) for c in fac.all_coeffs()]
            for r in mpmath.polyroots(coeffs, maxsteps=400, extraprec=4 * (digits + 25)):
                if abs(abs(r) - 1) < tol and mpmath.im(r) >= -tol:
                    angles.append(abs(mpmath.arg(r)))
        angles = sorted(set(angles))
        edges = [mpmath.mpf(0)] + [a for a in angles if tol < a < mpmath.pi - tol] + [mpmath.pi]
        total = mpmath.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            w = mpmath.expj((lo + hi) / 2)
            h = mpmath.matrix(n, n)
            for a in range(n):
                for b in range(n):
                    h[a, b] = (1 - w) * v[a][b] + (1 - mpmath.conj(w)) * v[b][a]
            eig = mpmath.eighe(h, eigvals_only=True)
            sig = sum(1 if e > 0 else -1 for e in eig)
            total += sig * (hi - lo)
        return total / mpmath.pi


def genus1_lines(v):
    """Isotropic lines of a u^2 + b uv + c v^2, from its factorization
    over the rationals: each linear factor alpha u + beta v gives the
    line through (beta, -alpha)."""
    u, w = sympy.symbols("u w")
    form = v[0][0] * u ** 2 + (v[0][1] + v[1][0]) * u * w + v[1][1] * w ** 2
    lines = set()
    for fac, _ in sympy.factor_list(form)[1]:
        poly = sympy.Poly(fac, u, w)
        if poly.total_degree() != 1:
            continue
        alpha, beta = poly.coeff_monomial(u), poly.coeff_monomial(w)
        lines.add(_canon((beta, -alpha)))
    return lines


def _canon(vec):
    vec = [F(x) for x in vec]
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_enclosure(lo, hi, radius, exact=None, approx=None, digits=0):
    """[lo, hi] must contain the reference and have radius <= radius."""
    lo, hi, radius = F(lo), F(hi), F(radius)
    bad = []
    if (hi - lo) / 2 > radius:
        bad.append(f"radius {float((hi - lo) / 2):.3e} exceeds {float(radius):.3e}")
    if exact is not None:
        if not lo <= exact <= hi:
            bad.append(f"enclosure [{float(lo)}, {float(hi)}] misses {exact}")
    else:
        slack = mpmath.mpf(10) ** (-(digits + 8))
        with mpmath.workdps(digits + 25):
            mlo = mpmath.mpf(lo.numerator) / lo.denominator
            mhi = mpmath.mpf(hi.numerator) / hi.denominator
            if not mlo - slack <= approx <= mhi + slack:
                bad.append(f"enclosure [{mpmath.nstr(mlo, 15)}, {mpmath.nstr(mhi, 15)}]"
                           f" misses {mpmath.nstr(approx, 15)}")
    return bad


def _digits(radius):
    return len(str(F(radius).denominator))


def check_rho0_op(op, result):
    v = op["matrix"]
    if op["kind"] == "torus":
        return check_enclosure(result["lo"], result["hi"], op["radius"],
                               exact=torus_rho0(op["p"], op["q"]))
    digits = _digits(op["radius"])
    return check_enclosure(result["lo"], result["hi"], op["radius"],
                           approx=rho0_reference(v, digits), digits=digits)


def _minors_gcd(vectors):
    """gcd of the maximal minors of the matrix with the given rows."""
    k, n = len(vectors), len(vectors[0])
    g = 0

    def rec(start, cols):
        nonlocal g
        if len(cols) == k:
            m = sympy.Matrix([[row[c] for c in cols] for row in vectors])
            g = gcd(g, int(m.det()))
            return
        for c in range(start, n):
            rec(c + 1, cols + [c])

    rec(0, [])
    return g


def check_metabolizers(v, bases):
    """Every basis is V-isotropic over Z and spans a primitive rank-g lattice."""
    n = len(v)
    g = n // 2
    bad = []
    for basis in bases:
        if len(basis) != g:
            bad.append(f"basis {basis} has {len(basis)} vectors, genus is {g}")
            continue
        for x in basis:
            for y in basis:
                val = sum(x[a] * v[a][b] * y[b] for a in range(n) for b in range(n))
                if val != 0:
                    bad.append(f"basis {basis}: {x}^T V {y} = {val}")
        if not bad and _minors_gcd(basis) != 1:
            bad.append(f"basis {basis} does not span a primitive rank-{g} sublattice")
    return bad


def check_genus1(v, bases):
    bad = check_metabolizers(v, bases)
    got = {_canon(b[0]) for b in bases}
    want = genus1_lines(v)
    if got != want or len(bases) != len(got):
        bad.append(f"lines {sorted(got)} differ from the form's rational lines {sorted(want)}")
    return bad


def _row_space_rank(rows):
    return sympy.Matrix(rows).rank() if rows else 0


def planted_lagrangian(v, planted):
    """T-closure of the classes (V - V^T) b_i, in the constant-vector
    coordinates of the module (t acts by V^T V^-1 when det V != 0)."""
    n = len(v)
    vm = sympy.Matrix(v)
    tmat = vm.T * vm.inv()
    gens = [sympy.Matrix([sum((v[a][c] - v[c][a]) * b[c] for c in range(n))
                          for a in range(n)]) for b in planted]
    span = [g for g in gens if any(g)]
    frontier = list(span)
    while frontier:
        nxt = []
        for g in frontier:
            img = tmat * g
            if _row_space_rank([list(x) for x in span + [img]]) > \
                    _row_space_rank([list(x) for x in span]):
                span.append(img)
                nxt.append(img)
        frontier = nxt
    return [list(x) for x in span]


def check_lagrangians(v, result, planted=None):
    """Half dimension, order ideal l with l * conj(l) = Delta up to units,
    and the planted metabolizer's Lagrangian among those returned."""
    delta = delta_poly(v)
    dim = delta.degree()
    bad = []
    if result["dim"] != dim:
        bad.append(f"module dimension {result['dim']} differs from deg Delta = {dim}")
    if not result["lagrangians"]:
        bad.append("no Lagrangian returned for a metabolic matrix")
    bases = []
    for lag in result["lagrangians"]:
        basis = [[sympy.Rational(x) for x in row] for row in lag["basis"]]
        bases.append(basis)
        if 2 * len(basis) != dim:
            bad.append(f"Lagrangian of dimension {len(basis)} in a module of dimension {dim}")
        coeffs = [sympy.Rational(c) for c in lag["order"]]
        lam = sympy.Poly(list(reversed(coeffs)), T, domain="QQ")
        lam_bar = sympy.Poly(coeffs, T, domain="QQ")
        if not same_up_to_units(lam * lam_bar, delta):
            bad.append(f"order ideal {lam.as_expr()} times its conjugate is not Delta")
    if planted is not None and not bad:
        want = planted_lagrangian(v, planted)
        rank = _row_space_rank(want)
        if not any(len(b) == rank and _row_space_rank(want + b) == rank for b in bases):
            bad.append("the planted metabolizer's Lagrangian is not among those returned")
    return bad


_VERDICT_LEVELS = ("zeroth", "first", "second")


def check_report(op, doc):
    """Checks of one `concord report` document."""
    fam = op["doc"]["family"]
    bad = []
    verdicts = {k: doc["verdicts"][k]["conclusion"] for k in _VERDICT_LEVELS}
    if "example" in op:
        if verdicts["second"] != "NotSlice":
            bad.append(f"Example {op['example']}: second-order verdict {verdicts['second']}")
        for name, body in op["assume"].items():
            echo = doc.get("assumptions", {}).get(name)
            if echo is None or not _echoes(body, echo):
                bad.append(f"assumption {name} not echoed: {echo}")
        return bad
    v = corpus.family_matrix(fam)
    want = delta_poly(v)
    got = sympy.Poly(sympy.parse_expr(doc["alexander_polynomial"].replace("^", "**"),
                                      local_dict={"t": T}), T, domain="QQ")
    if not same_up_to_units(got, want):
        bad.append(f"Alexander polynomial {doc['alexander_polynomial']} is not det(tV - V^T)")
    rho = doc["rho0"]
    lo = F(rho["mid"]) - F(rho["rad"])
    hi = F(rho["mid"]) + F(rho["rad"])
    if fam["type"] == "torus":
        bad += check_enclosure(lo, hi, corpus.R9, exact=torus_rho0(fam["p"], fam["q"]))
    elif fam["type"] == "twist" and fam["tw"] >= 0:
        if (lo, hi) != (0, 0):
            bad.append(f"rho0 of twist({fam['tw']}) is [{lo}, {hi}], not exactly 0")
    else:
        bad += check_enclosure(lo, hi, corpus.R9, approx=rho0_reference(v, 9), digits=9)
    if fam["type"] == "twist":
        tw = fam["tw"]
        if tw in (0, 2) and "NotSlice" in verdicts.values():
            bad.append(f"slice twist({tw}) got NotSlice: {verdicts}")
        if not corpus.is_square(4 * tw + 1) and "NotSlice" not in verdicts.values():
            bad.append(f"twist({tw}) with 4tw+1 not a square got no NotSlice: {verdicts}")
    return bad


def _echoes(body, echo):
    if "sign" in body:
        return echo["kind"] == "sign" and echo["value"] == body["sign"]
    if "interval" in body:
        lo, hi = body["interval"]
        return echo["kind"] == "interval" and echo["lo"] == lo and echo["hi"] == hi
    return echo["kind"] == "value" and F(echo["value"]) == F(str(body["value"]))


def check_record(rec):
    """Problems with one successful operation's output."""
    op, result = rec["op"], rec["result"]
    kind = op["kind"]
    if kind == "report":
        return check_report(op, result)
    if kind == "lagrangians":
        return check_lagrangians(op["matrix"], result, op["planted"])
    if kind == "higher_genus":
        return check_metabolizers(op["matrix"], result["bases"])
    if kind == "genus1":
        return check_genus1(op["matrix"], result["bases"])
    return check_rho0_op(op, result)
