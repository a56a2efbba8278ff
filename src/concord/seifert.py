"""Seifert matrices, family constructors and the exact signature engine.

The unit circle is parametrized by a rational Cayley parameter
s -> (1 + is)/(1 - is); once positive scalars are cleared every Hermitian
matrix we meet has Gaussian-integer entries, and its signature is the
inertia read off an exact fraction-free congruence elimination, never
from floating point.
The averaged signature (rho0) is a certified step-function integral:
jump locations are Sturm-isolated roots of the symmetrized Alexander
polynomial in x = t + 1/t, arc lengths are certified arccos enclosures.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _igcd

from . import certified, intlinalg, polys
from .certified import Interval
from .laurent import LaurentPoly, normalize
from .records import frozen

F = Fraction


class NotAKnot(ValueError):
    """Torus parameters do not describe a knot."""


# The finest rho0 radius is 2^-MAX_PRECISION_BITS.  Each doubling of the
# working precision costs more than the last with exact rational
# arctangents, so finer radii have no time bound: at 2^-128 the slowest
# golden report (twist(2) # twist(6) # twist(12)) takes 6.4-10.1 s as one
# process (six runs), at 2^-160 80 s (2-core host, Python 3.11).
MAX_PRECISION_BITS = 128


class UnsupportedPrecision(ValueError):
    """A rho0 radius below 2^-MAX_PRECISION_BITS."""


def check_radius(radius) -> Fraction:
    """radius as a Fraction: ValueError unless positive, and
    UnsupportedPrecision below 2^-MAX_PRECISION_BITS."""
    radius = F(radius)
    if radius <= 0:
        raise ValueError("target_radius must be positive")
    if radius < F(1, 1 << MAX_PRECISION_BITS):
        raise UnsupportedPrecision("rho0 radius below the precision bound "
                                   f"2^-{MAX_PRECISION_BITS}")
    return radius


# ---------------------------------------------------------------------------
# Seifert matrices
# ---------------------------------------------------------------------------

_INT_TEXT = re.compile(r"\s*[+-]?\d+\s*")


def parse_int(value) -> int:
    """An int (not a bool) or a string of decimal digits as an int; floats,
    2.0 included, and every other value raise ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INT_TEXT.fullmatch(value):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _block_form_ok(j):
    """V - V^T must be block diagonal with 2x2 blocks [[0, +-1], [-+1, 0]]."""
    n = len(j)
    if n % 2:
        return False
    for a in range(n):
        for b in range(n):
            v = j[a][b]
            if a // 2 == b // 2:
                if a == b and v != 0:
                    return False
                if a != b and v not in (1, -1):
                    return False
            elif v != 0:
                return False
    return True


@frozen
class SeifertMatrix:
    """2g x 2g integer Seifert matrix with symplectic V - V^T."""

    entries: tuple  # tuple of tuples of int

    def __post_init__(self):
        n = len(self.entries)
        if any(len(r) != n for r in self.entries):
            raise ValueError("Seifert matrix must be square")
        if any(not isinstance(x, int) for r in self.entries for x in r):
            raise ValueError("Seifert matrix entries must be integers")
        j = [[self.entries[a][b] - self.entries[b][a] for b in range(n)]
             for a in range(n)]
        if not _block_form_ok(j):
            raise ValueError("V - V^T is not in block-symplectic form")

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(parse_int(x) for x in r) for r in rows))

    @property
    def size(self):
        return len(self.entries)

    @property
    def genus(self):
        return len(self.entries) // 2

    def form(self, u, v):
        """Seifert form u^T V v on integer vectors."""
        n = self.size
        return sum(u[a] * self.entries[a][b] * v[b]
                   for a in range(n) for b in range(n))

    def intersection(self, u, v):
        """u^T (V - V^T) v, the surface intersection pairing."""
        return self.form(u, v) - self.form(v, u)


EMPTY = SeifertMatrix(())


def unknot() -> SeifertMatrix:
    return EMPTY


def twist_knot(tw: int) -> SeifertMatrix:
    """Genus-one twist knot surface: tw full twists in one band."""
    return SeifertMatrix.from_rows([[tw, 1], [0, -1]])


def genus_one(l: int, tw: int) -> SeifertMatrix:
    """Generic genus-one algebraically slice shape [[0, l], [l+1, tw]]."""
    return SeifertMatrix.from_rows([[0, l], [l + 1, tw]])


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    na, nb = a.size, b.size
    rows = []
    for i in range(na):
        rows.append(list(a.entries[i]) + [0] * nb)
    for i in range(nb):
        rows.append([0] * na + list(b.entries[i]))
    return SeifertMatrix.from_rows(rows)


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    """Mirror image: -V^T (the symplectic form is unchanged)."""
    n = a.size
    return SeifertMatrix.from_rows(
        [[-a.entries[j][i] for j in range(n)] for i in range(n)])


def stabilize(a: SeifertMatrix, xi, x: int) -> SeifertMatrix:
    """One S-equivalence enlargement by a standard row/column pair."""
    n = a.size
    if len(xi) != n:
        raise ValueError("stabilization column has wrong length")
    rows = []
    for i in range(n):
        rows.append(list(a.entries[i]) + [int(xi[i]), 0])
    rows.append([int(v) for v in xi] + [int(x), 1])
    rows.append([0] * (n + 2))
    return SeifertMatrix.from_rows(rows)


def _tensor_bidiagonal(p: int, q: int):
    """-(E_p tensor E_q) with E_n upper bidiagonal (1 diag, -1 super)."""
    def e(n):
        return [[1 if i == j else (-1 if j == i + 1 else 0)
                 for j in range(n - 1)] for i in range(n - 1)]

    ep, eq = e(p), e(q)
    rows = []
    for i1 in range(p - 1):
        for i2 in range(q - 1):
            row = []
            for j1 in range(p - 1):
                for j2 in range(q - 1):
                    row.append(-ep[i1][j1] * eq[i2][j2])
            rows.append(row)
    return rows


def torus_knot(p: int, q: int) -> SeifertMatrix:
    """Seifert matrix of the (p, q) torus knot on its fiber surface.

    Orientation is anchored by lt_signature(torus_knot(2, 3), -1) == -2.
    """
    if p == 0 or q == 0 or _igcd(abs(p), abs(q)) != 1:
        raise NotAKnot(f"({p}, {q}) does not describe a torus knot")
    if abs(p) == 1 or abs(q) == 1:
        return EMPTY
    rows = _tensor_bidiagonal(abs(p), abs(q))
    if p * q < 0:
        n = len(rows)
        rows = [[-rows[j][i] for j in range(n)] for i in range(n)]
    # re-base so V - V^T is in interleaved symplectic block form
    n = len(rows)
    j = [[rows[a][b] - rows[b][a] for b in range(n)] for a in range(n)]
    cols = intlinalg.symplectic_basis(j)
    rebased = [[sum(cols[a][i] * rows[i][k] * cols[b][k]
                    for i in range(n) for k in range(n))
                for b in range(n)] for a in range(n)]
    return SeifertMatrix.from_rows(rebased)


# ---------------------------------------------------------------------------
# Alexander polynomial
# ---------------------------------------------------------------------------

def presentation_matrix(v: SeifertMatrix):
    """tV - V^T as a matrix of dense polynomials in t."""
    e = v.entries
    return [[polys.trim([F(-e[b][a]), F(e[a][b])]) for b in range(v.size)]
            for a in range(v.size)]


def alexander_poly(v: SeifertMatrix) -> LaurentPoly:
    """normalize(det(tV - V^T)); equals 1 for the empty matrix."""
    if v.size == 0:
        return LaurentPoly.one()
    det, _ = polys.bareiss(presentation_matrix(v))
    if polys.is_zero(det):
        raise ArithmeticError("degenerate Seifert matrix: det(tV - V^T) = 0")
    return normalize(LaurentPoly.from_dense(det))


# ---------------------------------------------------------------------------
# Unit circle points and exact signatures
# ---------------------------------------------------------------------------

@frozen
class UnitCirclePoint:
    """omega = (1 + is)/(1 - is) for rational s, or the point omega = -1."""

    cayley: Fraction | None  # None encodes omega = -1

    @classmethod
    def from_cayley(cls, s):
        return cls(F(s))

    @classmethod
    def minus_one(cls):
        return cls(None)

    @property
    def is_minus_one(self):
        return self.cayley is None


OMEGA_ONE = UnitCirclePoint.from_cayley(0)
OMEGA_MINUS_ONE = UnitCirclePoint.minus_one()


def _inertia_signature(re, im):
    """Signature of the Hermitian Gaussian-integer matrix re + i*im by
    fraction-free congruence elimination; re and im are consumed.

    A step pivots on a nonzero real diagonal entry p, moved into place by
    a symmetric swap, and replaces the trailing block by
    (p a_ij - a_ik a_kj) / prev: a Bareiss step, so every entry is a minor
    of the congruent matrix and the division by the previous pivot is
    exact.  Pivots d_k are leading principal minors; each adds
    sign(d_k d_{k-1}) (Jacobi).  If the remaining diagonal vanishes but
    some a_ji does not, adding c * row/column j to row/column i with c in
    {1, i} makes the diagonal entry 2 Re(c a_ji) nonzero.  A zero block
    ends the elimination: its rank is lost, its inertia is nil.
    """
    n = len(re)
    sig, prev = 0, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if re[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(k, n)
                         if re[i][j] or im[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            # c = 1 if Re(a_ji) != 0, else c = i; a_ii' = 2 Re(c a_ji)
            cr, ci = (1, 0) if re[j][piv] else (0, 1)
            rp, ip, rj, ij = re[piv], im[piv], re[j], im[j]
            for m in range(k, n):                   # row piv += c row j
                rp[m], ip[m] = (rp[m] + cr * rj[m] - ci * ij[m],
                                ip[m] + cr * ij[m] + ci * rj[m])
            for rm, imm in zip(re[k:], im[k:]):     # col piv += conj(c) col j
                rm[piv], imm[piv] = (rm[piv] + cr * rm[j] + ci * imm[j],
                                     imm[piv] + cr * imm[j] - ci * rm[j])
        if piv != k:
            for mat in (re, im):
                mat[k], mat[piv] = mat[piv], mat[k]
                for row in mat:
                    row[k], row[piv] = row[piv], row[k]
        p = re[k][k]
        rk, ik = re[k], im[k]
        for i in range(k + 1, n):
            ri, ii = re[i], im[i]
            bre, bim = ri[k], ii[k]                 # a_ik
            for j in range(i, n):
                cre, cim = rk[j], ik[j]             # a_kj
                qre, xre = divmod(p * ri[j] - (bre * cre - bim * cim), prev)
                qim, xim = divmod(p * ii[j] - (bre * cim + bim * cre), prev)
                if xre or xim:
                    raise ArithmeticError("inexact congruence elimination")
                ri[j], ii[j] = qre, qim
                re[j][i], im[j][i] = qre, -qim
        sig += 1 if (p > 0) == (prev > 0) else -1
        prev = p
    return sig


def lt_signature(v: SeifertMatrix, omega: UnitCirclePoint) -> int:
    """Signature of (1 - omega) V + (1 - conj(omega)) V^T, exactly."""
    n = v.size
    if n == 0:
        return 0
    e = v.entries
    if omega.is_minus_one:
        return _inertia_signature(
            [[e[a][b] + e[b][a] for b in range(n)] for a in range(n)],
            [[0] * n for _ in range(n)])
    s = omega.cayley
    if s == 0:
        return 0
    # (1+s^2) H = (2s/q) [ p(V + V^T) + i q(V^T - V) ] for s = p/q, q > 0;
    # positive scalars drop out
    p, q = s.numerator, s.denominator
    sig = _inertia_signature(
        [[p * (e[a][b] + e[b][a]) for b in range(n)] for a in range(n)],
        [[q * (e[b][a] - e[a][b]) for b in range(n)] for a in range(n)])
    return sig if s > 0 else -sig


# ---------------------------------------------------------------------------
# Jump sets: unit-circle roots of the Alexander polynomial
# ---------------------------------------------------------------------------

@frozen
class JumpPoint:
    """Isolating rational interval in x = omega + conj(omega) for one root
    of the symmetrized Alexander polynomial; exact roots have x_lo == x_hi."""

    x_lo: Fraction
    x_hi: Fraction
    multiplicity: int

    @property
    def is_exact(self):
        return self.x_lo == self.x_hi


def symmetrized_x_poly(delta: LaurentPoly):
    """G with Delta(t) = t^d * G(t + 1/t) for the canonical Delta."""
    dense, _ = delta.to_dense()
    d2 = polys.deg(dense)
    if d2 % 2:
        raise ArithmeticError("Alexander polynomial of odd degree")
    if any(dense[k] != dense[d2 - k] for k in range(d2 + 1)):
        raise ArithmeticError("Alexander polynomial is not palindromic")
    d = d2 // 2
    # t^k + t^-k = C_k(x):  C_0 = 2, C_1 = x, C_{k+1} = x C_k - C_{k-1}
    g = [dense[d]]
    ck_prev, ck = [F(2)], [F(0), F(1)]
    for k in range(1, d + 1):
        g = polys.add(g, polys.scale(ck, dense[d + k]))
        ck_prev, ck = ck, polys.sub(polys.mul([F(0), F(1)], ck), ck_prev)
    return polys.trim(g)


def _x_roots(delta: LaurentPoly):
    """The precision-independent part of root isolation, from Delta.

    Returns (sqf, boundary_mult, roots): sqf is the squarefree part of
    the symmetrized polynomial once its exact roots at x = -2 (of
    multiplicity boundary_mult) are divided out, and roots holds one
    (lo, hi, multiplicity) isolating each root of sqf in (-2, 2),
    ascending.
    """
    g = symmetrized_x_poly(delta)
    if polys.deg(g) <= 0:
        return [], 0, []
    # x = -2 (omega = -1) can be an exact boundary root
    boundary_mult = 0
    while polys.evaluate(g, F(-2)) == 0:
        g = polys.exact_div(g, [F(2), F(1)])
        boundary_mult += 1
    if polys.evaluate(g, F(2)) == 0:
        raise ArithmeticError("x = 2 root contradicts Delta(1) != 0")
    pieces = polys.yun(g)
    # Yun's factors are monic, squarefree and pairwise coprime, so their
    # product is the monic squarefree part
    sqf = [F(1)]
    for piece, _ in pieces:
        sqf = polys.mul(sqf, piece)
    if polys.deg(sqf) < 1:
        return sqf, boundary_mult, []
    roots = []
    for lo, hi in polys.isolate_real_roots(sqf, F(-2), F(2)):
        mult = None
        for piece, m in pieces:
            if lo == hi:
                if polys.evaluate(piece, lo) == 0:
                    mult = m
                    break
            elif polys.evaluate(piece, lo) * polys.evaluate(piece, hi) < 0:
                mult = m
                break
        if mult is None:
            raise ArithmeticError("failed to attribute root multiplicity")
        roots.append((lo, hi, mult))
    return sqf, boundary_mult, roots


def _refine(sqf, roots, width):
    """Each (lo, hi, multiplicity) bisected below width.  Bisection
    intervals are nested, so refining an earlier result further gives
    the interval that refining from scratch gives."""
    return [polys.refine_root(sqf, lo, hi, width) + (m,)
            for lo, hi, m in roots]


def _interior_points(sqf, roots, width):
    """JumpPoints, x ascending, of refined roots once separated."""
    intervals = _separate(sqf, [r[:2] for r in roots], width)
    return [JumpPoint(lo, hi, r[2]) for (lo, hi), r in zip(intervals, roots)]


def _isolated_x_roots(x_roots, width: Fraction):
    """Roots of the symmetrized polynomial in [-2, 2), isolated (`_x_roots`)
    and refined below the requested width.  Returns list of JumpPoint asc."""
    sqf, boundary_mult, roots = x_roots
    points = _interior_points(sqf, _refine(sqf, roots, width), width)
    if boundary_mult:
        points.insert(0, JumpPoint(F(-2), F(-2), boundary_mult))
    return points


def _separate(sqf, intervals, width):
    """Refine until intervals are pairwise strictly separated and stay
    strictly inside (-2, 2), so every open arc between them is sampleable.
    The intervals come in ascending and keep their order."""
    w = width
    for _ in range(200):
        bad = set()
        if intervals and intervals[0][0] <= F(-2):
            bad.add(0)
        if intervals and intervals[-1][1] >= F(2):
            bad.add(len(intervals) - 1)
        for i in range(len(intervals) - 1):
            if intervals[i][1] >= intervals[i + 1][0]:
                bad.add(i)
                bad.add(i + 1)
        if not bad:
            return intervals
        w /= 2
        intervals = [polys.refine_root(sqf, lo, hi, w) if i in bad else (lo, hi)
                     for i, (lo, hi) in enumerate(intervals)]
    raise ArithmeticError("root separation failed")


# ---------------------------------------------------------------------------
# rho0: the averaged Levine-Tristram signature
# ---------------------------------------------------------------------------

def _cayley_x(s: Fraction) -> Fraction:
    return 2 * (1 - s * s) / (1 + s * s)


def _sample_parameter(a: Fraction, b: Fraction) -> Fraction:
    """Rational s >= 0 with a < x(s) < b; x is decreasing in s."""
    if a >= b:
        raise ValueError("empty arc")
    if a <= F(-2):
        s = F(1)
        while _cayley_x(s) >= b:
            s *= 2
        return s
    lo, hi = F(0), F(1)
    while _cayley_x(hi) > a:
        hi *= 2
    while True:
        mid = (lo + hi) / 2
        x = _cayley_x(mid)
        if x >= b:
            lo = mid
        elif x <= a:
            hi = mid
        else:
            return mid


def _descending(roots):
    """The interior JumpPoints, x descending (theta ascending)."""
    return [r for r in reversed(roots) if not (r.is_exact and r.x_lo == -2)]


def _arc_signatures(v: SeifertMatrix, roots):
    """Constant signature value on each open arc, theta ascending.

    roots: interior JumpPoints, sorted by x ascending; arcs are delimited
    in x by the isolating intervals, traversed from x = 2 down to -2.
    """
    desc = _descending(roots)
    sigmas = []
    upper = F(2)
    for r in desc:
        s = _sample_parameter(r.x_hi, upper)
        sigmas.append(lt_signature(v, UnitCirclePoint.from_cayley(s)))
        upper = r.x_lo
    s = _sample_parameter(F(-2), upper)
    sigmas.append(lt_signature(v, UnitCirclePoint.from_cayley(s)))
    if sigmas[0] != 0:
        raise ArithmeticError("signature near omega = 1 must vanish")
    return sigmas, desc


class SignatureFunction:
    """The signature function of one Seifert matrix.  Delta, the isolated
    roots of its symmetrized polynomial (`_x_roots`) and the signature on
    each arc (`_arc_signatures`) do not depend on a precision; each is
    computed once, on first use, and shared by `rho0`, `arcs` and `jumps`.
    The module-level `rho0`, `signature_arcs` and `jump_set` build one per
    call; a `pipeline.Request` keeps one per matrix.
    """

    def __init__(self, v: SeifertMatrix):
        self.v = v
        self._delta = None
        self._roots = None
        self._sigmas = None

    @property
    def delta(self) -> LaurentPoly:
        """normalize(det(tV - V^T)) (`alexander_poly`)."""
        if self._delta is None:
            self._delta = alexander_poly(self.v)
        return self._delta

    def x_roots(self):
        """(sqf, boundary_mult, roots) of `_x_roots`."""
        if self._roots is None:
            self._roots = _x_roots(self.delta)
        return self._roots

    def arc_signatures(self, roots):
        """(sigmas, desc) as `_arc_signatures` returns them.  The
        signature is constant on each open arc between consecutive jumps,
        so the sigmas found on one refinement of the roots hold on every
        other; desc is that of the given roots."""
        if self._sigmas is None:
            self._sigmas, _ = _arc_signatures(self.v, roots)
        return self._sigmas, _descending(roots)

    def rho0(self, target_radius=F(1, 10 ** 9)) -> Interval:
        """Certified enclosure of the circle average of the signature
        function.

        The integrand is a step function; by conjugation symmetry the
        average equals (1/pi) * integral over [0, pi].  With no interior
        jumps the value is exactly 0.  Each round of the precision loop
        refines the roots further and recomputes only the arccos
        enclosures.
        """
        target_radius = check_radius(target_radius)
        if self.v.size == 0:
            return Interval.point(0)
        sqf, _, roots = self.x_roots()
        width = F(1, 1 << 34)
        bits = 48
        for _ in range(20):
            roots = _refine(sqf, roots, width)
            points = _interior_points(sqf, roots, width)
            sigmas, desc = self.arc_signatures(points)
            if not desc:
                return Interval.point(0)
            lo_acc, hi_acc = F(0), F(0)
            # integral/pi = sum_j sigma_j (phi_{j+1} - phi_j)
            #            = sum_j (sigma_{j-1} - sigma_j) phi_j + sigma_last
            for j, r in enumerate(desc, start=1):
                coeff = sigmas[j - 1] - sigmas[j]
                if coeff == 0:
                    continue
                phi_lo, phi_hi = certified.acos_over_pi(
                    r.x_lo / 2, r.x_hi / 2, bits)
                if coeff > 0:
                    lo_acc += coeff * phi_lo
                    hi_acc += coeff * phi_hi
                else:
                    lo_acc += coeff * phi_hi
                    hi_acc += coeff * phi_lo
            lo_acc += sigmas[-1]
            hi_acc += sigmas[-1]
            if (hi_acc - lo_acc) / 2 <= target_radius / 2:
                # round outward to a dyadic grid so endpoints stay small
                m = 2
                while F(1, 1 << m) > target_radius / 8:
                    m += 1
                grid = 1 << m
                lo_r = F((lo_acc * grid).__floor__(), grid)
                hi_r = F(-((-hi_acc * grid).__floor__()), grid)
                return Interval(lo_r, hi_r)
            bits *= 2
            width = width * width
        raise ArithmeticError("rho0 failed to reach the requested radius")

    def arcs(self, bits: int = 64):
        """[(phi_lo, phi_hi, sigma)] with phi = theta/pi enclosures per arc.

        Endpoints are rounded outward to the grid 2^-bits: the raw arccos
        enclosures carry numerators of thousands of digits.
        """
        if self.v.size == 0:
            return [(F(0), F(1), 0)]
        roots = _isolated_x_roots(self.x_roots(), F(1, 1 << 34))
        sigmas, desc = self.arc_signatures(roots)
        bounds = [(F(0), F(0))]
        for r in desc:
            bounds.append(certified.acos_over_pi(r.x_lo / 2, r.x_hi / 2, bits))
        bounds.append((F(1), F(1)))
        grid = 1 << bits
        return [(F((bounds[j][0] * grid).__floor__(), grid),
                 F((bounds[j + 1][1] * grid).__ceil__(), grid), sigmas[j])
                for j in range(len(sigmas))]

    def jumps(self) -> tuple:
        """Certified isolating intervals (JumpPoints, x ascending) for all
        jump locations, width < 2^-32."""
        return tuple(_isolated_x_roots(self.x_roots(), F(1, 1 << 32)))


def rho0(v: SeifertMatrix, target_radius=F(1, 10 ** 9)) -> Interval:
    """Certified enclosure of the circle average of the signature function
    (`SignatureFunction.rho0`)."""
    return SignatureFunction(v).rho0(target_radius)


def jump_set(v: SeifertMatrix) -> tuple:
    """Certified isolating intervals (JumpPoints, x ascending) for all
    jump locations, width < 2^-32 (`SignatureFunction.jumps`)."""
    return SignatureFunction(v).jumps()


# ---------------------------------------------------------------------------
# Signature function report (CSV) and matrix text format
# ---------------------------------------------------------------------------

def signature_arcs(v: SeifertMatrix, bits: int = 64):
    """[(phi_lo, phi_hi, sigma)] with phi = theta/pi enclosures per arc,
    on the grid 2^-bits (`SignatureFunction.arcs`)."""
    return SignatureFunction(v).arcs(bits)


def _decimal(x: Fraction, places: int = 12) -> str:
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = int(x * 10 ** places + F(1, 2))
    whole, frac = divmod(scaled, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def signature_function_csv(v: SeifertMatrix) -> str:
    """CSV: constancy arcs in theta plus the jump-point table in x."""
    pi_lo, pi_hi = certified.pi_bounds(64)
    signature = SignatureFunction(v)
    lines = ["theta_lo,theta_hi,sigma"]
    for phi_lo, phi_hi, sig in signature.arcs():
        lines.append(f"{_decimal(phi_lo * pi_lo)},{_decimal(phi_hi * pi_hi)},{sig}")
    lines.append("x_lo,x_hi,multiplicity")
    for p in signature.jumps():
        lines.append(f"{p.x_lo},{p.x_hi},{p.multiplicity}")
    return "\n".join(lines) + "\n"
