"""Shared random generators and independent oracles for the test suite."""

from fractions import Fraction
from math import gcd

from concord import polys
from concord.alexander import (AlexanderModule, NotCyclic, Submodule,
                               _unit_vectors, is_isotropic, submodules_cyclic)
from concord.laurent import (LaurentPoly, ZeroPolynomial, conjugate, factor,
                             normalize)
from concord.seifert import SeifertMatrix, alexander_poly, presentation_matrix

F = Fraction


def random_seifert(rng, genus, bound=5):
    """Random valid Seifert matrix in interleaved block convention."""
    n = 2 * genus
    m = [[0] * n for _ in range(n)]
    for i in range(genus):
        a, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        b = c + rng.choice((1, -1))
        m[2 * i][2 * i], m[2 * i][2 * i + 1] = a, b
        m[2 * i + 1][2 * i], m[2 * i + 1][2 * i + 1] = c, d
    for i in range(genus):
        for j in range(i + 1, genus):
            blk = [[rng.randint(-bound, bound) for _ in range(2)]
                   for _ in range(2)]
            for r in range(2):
                for c2 in range(2):
                    m[2 * i + r][2 * j + c2] = blk[r][c2]
                    m[2 * j + c2][2 * i + r] = blk[r][c2]
    return SeifertMatrix.from_rows(m)


def mul_xk(p, k):
    """x^k p for a dense polynomial p."""
    if not p:
        return []
    return [F(0)] * k + list(p)


def is_lagrangian(mod, p: Submodule) -> bool:
    return is_isotropic(mod, p) and 2 * p.dim == mod.dim


def _identity(g):
    return [[1 if i == j else 0 for j in range(g)] for i in range(g)]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _random_unimodular(rng, g, steps=4):
    u = _identity(g)
    uinv = _identity(g)
    for _ in range(steps):
        i, j = rng.randrange(g), rng.randrange(g)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        e = _identity(g)
        e[i][j] = k
        einv = _identity(g)
        einv[i][j] = -k
        u = _matmul(u, e)
        uinv = _matmul(einv, uinv)
    return u, uinv


def _random_symmetric(rng, g, bound=2):
    s = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            s[i][j] = s[j][i] = rng.randint(-bound, bound)
    return s


def random_metabolic(rng, genus, bound=3, conjugations=3):
    """Random metabolic Seifert matrix plus a verified integral
    metabolizer, built by conjugating a block-zero form by a random
    integer symplectic matrix."""
    g = genus
    n = 2 * g
    l = [[rng.randint(-bound, bound) for _ in range(g)] for _ in range(g)]
    m_blk = [[l[j][i] + (1 if i == j else 0) for j in range(g)]
             for i in range(g)]
    nn = _random_symmetric(rng, g, bound)
    v_std = [[0] * n for _ in range(n)]
    for i in range(g):
        for j in range(g):
            v_std[i][g + j] = l[i][j]
            v_std[g + i][j] = m_blk[i][j]
            v_std[g + i][g + j] = nn[i][j]
    p = _identity(n)
    pinv = _identity(n)
    for _ in range(conjugations):
        kind = rng.randrange(3)
        if kind == 0:
            s = _random_symmetric(rng, g, 1)
            blk = _identity(n)
            inv = _identity(n)
            for i in range(g):
                for j in range(g):
                    blk[i][g + j] = s[i][j]
                    inv[i][g + j] = -s[i][j]
        elif kind == 1:
            s = _random_symmetric(rng, g, 1)
            blk = _identity(n)
            inv = _identity(n)
            for i in range(g):
                for j in range(g):
                    blk[g + i][j] = s[i][j]
                    inv[g + i][j] = -s[i][j]
        else:
            u, uinv = _random_unimodular(rng, g)
            blk = [[0] * n for _ in range(n)]
            inv = [[0] * n for _ in range(n)]
            for i in range(g):
                for j in range(g):
                    blk[i][j] = u[i][j]
                    blk[g + i][g + j] = uinv[j][i]     # U^{-T}
                    inv[i][j] = uinv[i][j]
                    inv[g + i][g + j] = u[j][i]        # U^T
        p = _matmul(p, blk)
        pinv = _matmul(inv, pinv)
    vp = _matmul(_matmul([[p[j][i] for j in range(n)] for i in range(n)],
                         v_std), p)
    # permute a-then-b coordinates into interleaved pairs
    sigma = []
    for i in range(g):
        sigma.extend([i, g + i])
    v_int = [[vp[sigma[x]][sigma[y]] for y in range(n)] for x in range(n)]
    # columns of pinv are the metabolizer basis in the new coordinates
    basis = []
    for i in range(g):
        vec_std = [pinv[x][i] for x in range(n)]
        basis.append(tuple(vec_std[sigma[x]] for x in range(n)))
    return SeifertMatrix.from_rows(v_int), tuple(basis)


def random_cayley(rng, span=20):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return F(num, den)


def exact_rank_hermitian(v, s):
    """Rank of s(V + V^T) + i(V^T - V) over the Gaussian rationals,
    by plain Gaussian elimination (independent of the charpoly path)."""
    n = v.size
    e = v.entries
    a = [[(F(s * (e[i][j] + e[j][i])), F(e[j][i] - e[i][j]))
          for j in range(n)] for i in range(n)]
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if a[r][col] != (0, 0):
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pr, pi = a[row][col]
        d = pr * pr + pi * pi
        for r in range(row + 1, n):
            br, bi = a[r][col]
            if (br, bi) == (0, 0):
                continue
            # factor = b / p
            fr = (br * pr + bi * pi) / d
            fi = (bi * pr - br * pi) / d
            a[r] = [(xr - (fr * yr - fi * yi), xi - (fr * yi + fi * yr))
                    for (xr, xi), (yr, yi) in zip(a[r], a[row])]
        row += 1
        rank += 1
    return rank


def oracle_lt_signature(v, s):
    """Certified floating eigenvalue oracle for the signature of
    (1 - w)V + (1 - w~)V^T at the Cayley point s.

    Uses an exact rank computation for the zero eigenvalue count and
    escalates mpmath precision until the remaining eigenvalues are
    certified away from zero.
    """
    from mpmath import mp

    n = v.size
    if n == 0 or s == 0:
        return 0
    zeros = n - exact_rank_hermitian(v, s)
    e = v.entries
    for dps in (30, 60, 120, 240):
        with mp.workdps(dps):
            a = mp.matrix(n, n)
            maxabs = mp.mpf(0)
            for i in range(n):
                for j in range(n):
                    re = mp.mpf(int((s * (e[i][j] + e[j][i])).numerator)) / \
                        int((s * (e[i][j] + e[j][i])).denominator)
                    im = mp.mpf(e[j][i] - e[i][j])
                    a[i, j] = mp.mpc(re, im)
                    maxabs = max(maxabs, abs(a[i, j]))
            ev = mp.eighe(a, eigvals_only=True)
            bound = (maxabs + 1) * n * mp.mpf(10) ** (-(dps - 5))
            vals = sorted([ev[i] for i in range(n)], key=abs)
            small, big = vals[:zeros], vals[zeros:]
            if all(abs(x) <= bound for x in small) and \
                    all(abs(x) > bound for x in big):
                sig = sum(1 if x > 0 else -1 for x in big)
                return sig if s > 0 else -sig
    raise ArithmeticError("oracle failed to certify eigenvalues")


def qi_charpoly(mat):
    """Characteristic polynomial of a Gaussian-rational matrix (rows of
    (re, im) pairs) by Faddeev-LeVerrier; rational coefficients ascending.

    For Hermitian input the coefficients are real; asserted exactly.
    The O(n^4) signature engine congruence inertia replaced.
    """
    n = len(mat)
    if n == 0:
        return [F(1)]
    m = [[(F(1), F(0)) if i == j else (F(0), F(0)) for j in range(n)]
         for i in range(n)]
    cs = [F(1)]  # c_0 for lambda^n
    for k in range(1, n + 1):
        am = [[(F(0), F(0))] * n for _ in range(n)]
        for i in range(n):
            for l in range(n):
                a_re, a_im = mat[i][l]
                if a_re == 0 and a_im == 0:
                    continue
                row_m = m[l]
                row_out = am[i]
                for jj in range(n):
                    b_re, b_im = row_m[jj]
                    if b_re == 0 and b_im == 0:
                        continue
                    o_re, o_im = row_out[jj]
                    row_out[jj] = (o_re + a_re * b_re - a_im * b_im,
                                   o_im + a_re * b_im + a_im * b_re)
        tr_re = sum(am[i][i][0] for i in range(n))
        tr_im = sum(am[i][i][1] for i in range(n))
        if tr_im != 0:
            raise ArithmeticError("non-Hermitian input: complex trace")
        ck = -tr_re / k
        cs.append(ck)
        m = [[(am[i][jj][0] + (ck if i == jj else 0), am[i][jj][1])
              for jj in range(n)] for i in range(n)]
    # p(lambda) = lambda^n + c_1 lambda^(n-1) + ... + c_n, ascending:
    return list(reversed(cs))


def charpoly_signature(coeffs):
    """Signature of a Hermitian matrix from its characteristic polynomial.

    All roots are real, so Descartes' sign-variation count is exact for
    the positive and negative root counts (with multiplicity).
    """
    pos = polys.sign_variations(coeffs)
    neg = polys.sign_variations(
        [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return pos - neg


def bareiss_q(mat, rhs=None):
    """Bareiss elimination over Q[x] with the rational polynomial kernel:
    the engine the Z[x] elimination replaced.  Same contract as
    polys.bareiss."""
    n = len(mat)
    a = [[list(e) for e in row] + [list(e) for e in (rhs[i] if rhs else ())]
         for i, row in enumerate(mat)]
    width = len(a[0]) if a else 0
    sign, prev, pivot = 1, [F(1)], [F(1)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return [], None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for i in (range(n) if rhs else range(k + 1, n)):
            if i == k:
                continue
            row, f = a[i], a[i][k]
            for j in range(k + 1, width):
                row[j] = polys.exact_div(
                    polys.sub(polys.mul(row[j], pivot), polys.mul(f, top[j])),
                    prev)
            row[k] = []
        prev = pivot
    det = pivot if sign > 0 else polys.neg(pivot)
    if not rhs:
        return det, None
    return det, [[e if sign > 0 else polys.neg(e) for e in row[n:]]
                 for row in a]


def atan_series_q(y, bits):
    """Partial sums of the atan series accumulated in Fractions: the
    engine the integer accumulation replaced.  Same contract as
    certified._atan_series."""
    y = F(y)
    target = F(1, 1 << (bits + 2))
    term = y
    acc = F(0)
    k = 0
    y2 = y * y
    while True:
        nxt = acc + term / (2 * k + 1)
        if abs(term) / (2 * k + 1) <= target:
            lo, hi = sorted((acc, nxt))
            return lo, hi
        acc = nxt
        term = -term * y2
        k += 1


def resultant(p, q):
    """Resultant via Gaussian elimination on the Sylvester matrix."""
    m, n = polys.deg(p), polys.deg(q)
    if m < 0 or n < 0:
        return F(0)
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p))
    qc = list(reversed(q))
    for i in range(n):
        rows.append([F(0)] * i + pc + [F(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([F(0)] * i + qc + [F(0)] * (size - n - 1 - i))
    det = F(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            return F(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                for c2 in range(col, size):
                    rows[r][c2] -= f * rows[col][c2]
    return det


def fox_milnor(p: LaurentPoly) -> bool:
    """True iff p = f(t) f(1/t) up to units for some f (Fox and Milnor,
    1966): the Alexander polynomial of an algebraically slice knot has this
    form.  Decided on the factorization: conjugate pairs must occur with
    equal multiplicity and self-conjugate factors with even multiplicity.
    """
    if p.is_zero:
        raise ZeroPolynomial("Fox-Milnor test needs a nonzero polynomial")
    mult = {f: m for f, m in factor(p).factors}
    for f, m in mult.items():
        fbar = conjugate(f)
        if fbar == f:
            if m % 2:
                return False
        elif mult.get(fbar, 0) != m:
            return False
    return True


class RatFunc:
    """num/den with dense rational polynomials, den monic, gcd cleared."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        den = [F(1)] if den is None else list(den)
        num = list(num)
        if polys.is_zero(den):
            raise ZeroDivisionError("rational function with zero denominator")
        if polys.is_zero(num):
            self.num, self.den = [], [F(1)]
            return
        g = polys.gcd_monic(num, den)
        if polys.deg(g) > 0:
            num = polys.exact_div(num, g)
            den = polys.exact_div(den, g)
        lc = den[-1]
        self.num = [c / lc for c in num]
        self.den = [c / lc for c in den]

    @property
    def is_zero(self):
        return not self.num

    def __add__(self, other):
        return RatFunc(
            polys.add(polys.mul(self.num, other.den),
                      polys.mul(other.num, self.den)),
            polys.mul(self.den, other.den))

    def __sub__(self, other):
        return RatFunc(
            polys.sub(polys.mul(self.num, other.den),
                      polys.mul(other.num, self.den)),
            polys.mul(self.den, other.den))

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return RatFunc(polys.mul(self.num, other.num),
                           polys.mul(self.den, other.den))
        return RatFunc(polys.mul(self.num, list(other)), self.den)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(polys.mul(self.num, other.den),
                       polys.mul(self.den, other.num))


def ratfunc_solve(mat, rhs):
    """Solve mat @ x = rhs over the rational function field (square mat)."""
    n = len(mat)
    a = [[RatFunc(e) for e in row] for row in mat]
    x = [RatFunc(e) for e in rhs]
    aug = [a[i] + [x[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero), None)
        if piv is None:
            raise ArithmeticError("singular presentation matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = RatFunc([F(1)]) / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero:
                f_ = aug[r][col]
                aug[r] = [aug[r][k] - f_ * aug[col][k] for k in range(n + 1)]
    return [aug[i][n] for i in range(n)]


def oracle_blanchfield(mod, x, y, solved=None):
    """x-bar^T (t - 1) (tV - V^T)^{-1} y over Q(t), one gcd per operation:
    the rational-function engine the adjugate form replaced, returned as
    the residue r mod Delta with Bl = r/Delta (`_ratfunc_residue`).
    `solved`, a dict, keeps the solves of (tV - V^T) w = rep(y) across
    calls."""
    if mod.dim == 0:
        return ()
    if solved is None:
        solved = {}
    if tuple(y) not in solved:
        solved[tuple(y)] = ratfunc_solve(presentation_matrix(mod.V),
                                         mod.rep_of(y))
    w = solved[tuple(y)]
    px = mod.rep_of(x)
    dmax = max((polys.deg(p) for p in px if p), default=0)
    total = RatFunc([])
    for pj, wj in zip(px, w):
        if pj and not wj.is_zero:
            rev = polys.trim([F(0)] * (dmax - polys.deg(pj)) + list(reversed(pj)))
            total = total + wj * rev
    if total.is_zero:
        return ()
    num = polys.mul(total.num, [F(-1), F(1)])
    return _ratfunc_residue(num, total.den, -dmax, mod.delta.to_dense()[0])


def _inverse_mod(a, m):
    """u with a u = 1 mod m, by the extended Euclidean algorithm."""
    r0, r1, s0, s1 = list(m), list(a), [], [F(1)]
    while r1:
        q, r = polys.divmod_poly(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, polys.sub(s0, polys.mul(q, s1))
    assert polys.deg(r0) == 0, "not a unit"
    u = polys.rem(polys.scale(s0, 1 / r0[0]), m)
    assert polys.rem(polys.mul(a, u), m) == [1]
    return u


def _ratfunc_residue(num, den, shift, delta):
    """r with t^shift num/den = r/Delta mod Q[t, t^-1], deg r < deg Delta.
    Delta annihilates the module, so once its factors t are moved into the
    shift, den divides Delta (checked by the exact division)."""
    den = list(den)
    while den[0] == 0:
        den.pop(0)
        shift -= 1
    r = polys.mul(num, polys.exact_div(delta, den))
    if shift >= 0:
        r = mul_xk(r, shift)
    else:
        t_inv = _inverse_mod([F(0), F(1)], delta)
        for _ in range(-shift):
            r = polys.rem(polys.mul(r, t_inv), delta)
    return tuple(polys.rem(r, delta))


def bl_t_multiple(mod, r):
    """The residue of t Bl for Bl = r/Delta."""
    delta, _ = mod.delta.to_dense()
    return tuple(polys.rem(mul_xk(list(r), 1), delta))


def bl_conjugate(mod, r):
    """The residue of Bl-bar = Bl(1/t) for Bl = r/Delta with Delta
    symmetric: r(1/t)/Delta(1/t) = t^(deg Delta - deg r) rev(r)/rev(Delta)
    and rev(Delta) = Delta."""
    delta, _ = mod.delta.to_dense()
    assert delta[::-1] == delta, "Delta is not symmetric"
    if not r:
        return ()
    rev = polys.trim(list(reversed(r)))
    return tuple(polys.rem(mul_xk(rev, len(delta) - len(r)), delta))


# ---------------------------------------------------------------------------
# The Smith-form model of the Alexander module that the Fitting
# decomposition replaced: a Smith normal form over Q[t] with tracked row
# transforms, one companion block per nonunit invariant factor
# ---------------------------------------------------------------------------

def smith_form_poly(mat):
    """(diag, U, Uinv) with U * mat * (column ops) diagonal, d_1 | d_2 | ...

    Only row transforms are tracked: the cokernel isomorphism is
    [x] -> [U x], with inverse [z] -> [Uinv z].
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [[list(e) for e in row] for row in mat]
    u = [[[F(1)] if i == j else [] for j in range(rows)] for i in range(rows)]
    uinv = [[[F(1)] if i == j else [] for j in range(rows)] for i in range(rows)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, q):
        # row_i += q * row_j; inverse transform lands in Uinv columns
        a[i] = [polys.add(a[i][k], polys.mul(q, a[j][k])) for k in range(cols)]
        u[i] = [polys.add(u[i][k], polys.mul(q, u[j][k])) for k in range(rows)]
        for r in uinv:
            r[j] = polys.sub(r[j], polys.mul(q, r[i]))

    def row_scale(i, c):
        a[i] = [polys.scale(p, c) for p in a[i]]
        u[i] = [polys.scale(p, c) for p in u[i]]
        ic = 1 / c
        for r in uinv:
            r[i] = polys.scale(r[i], ic)

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_addmul(i, j, q):
        for row in a:
            row[i] = polys.add(row[i], polys.mul(q, row[j]))

    def row_primitive(i):
        # rescale so the row's coefficients are coprime integers; keeps
        # the fraction sizes from exploding during elimination
        coeffs = [c for p in a[i] for c in p]
        if coeffs:
            ratio = polys.primitive_positive(coeffs)[-1] / coeffs[-1]
            if ratio != 1:
                row_scale(i, ratio)

    t = 0
    while t < min(rows, cols):
        for i in range(t, rows):
            row_primitive(i)
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not polys.is_zero(a[i][j]):
                    d = polys.deg(a[i][j])
                    if best is None or d < best:
                        best, piv = d, (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            moved = False
            for i in range(t + 1, rows):
                if polys.is_zero(a[i][t]):
                    continue
                q, _ = polys.divmod_poly(a[i][t], a[t][t])
                row_addmul(i, t, polys.neg(q))
                row_primitive(i)
                if not polys.is_zero(a[i][t]):
                    row_swap(t, i)
                    moved = True
            for j in range(t + 1, cols):
                if polys.is_zero(a[t][j]):
                    continue
                q, _ = polys.divmod_poly(a[t][j], a[t][t])
                col_addmul(j, t, polys.neg(q))
                if not polys.is_zero(a[t][j]):
                    col_swap(t, j)
                    moved = True
            if not moved:
                break
        # pivot must divide everything that remains
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if not polys.is_zero(polys.rem(a[i][j], a[t][t])):
                    row_addmul(t, i, [F(1)])
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        row_scale(t, 1 / a[t][t][-1])
        t += 1
    diag = [a[i][i] for i in range(min(rows, cols)) if not polys.is_zero(a[i][i])]
    return diag, u, uinv


def _poly_matvec(mat, vec):
    n = len(mat)
    out = []
    for i in range(n):
        acc = []
        for j in range(len(vec)):
            if polys.is_zero(mat[i][j]) or polys.is_zero(vec[j]):
                continue
            acc = polys.add(acc, polys.mul(mat[i][j], vec[j]))
        out.append(acc)
    return out


class SmithModule(AlexanderModule):
    """The Alexander module of a Seifert matrix in companion-block
    coordinates, from `smith_form_poly` of tV - V^T: classes through U,
    polynomial representatives through U^-1, Blanchfield values from
    `oracle_blanchfield`.  The differential oracle of `present` on
    matrices with deg Delta < 2g."""

    def __init__(self, v):
        delta = alexander_poly(v)
        diag, self._u, self._uinv = smith_form_poly(presentation_matrix(v))
        self.blocks = []  # list of (snf index, monic invariant factor)
        for idx, d in enumerate(diag):
            dd = list(d)
            while dd and dd[0] == 0:
                dd.pop(0)
            if polys.deg(dd) >= 1:
                self.blocks.append((idx, polys.monic(dd)))
        super().__init__(v, delta, self._companion_t())
        self._solved = {}
        if self.dim != delta.span:
            raise ArithmeticError(
                f"presentation rank {self.dim} disagrees with deg Delta")
        prod = LaurentPoly.one()
        for _, d in self.blocks:
            prod = prod * LaurentPoly.from_dense(d)
        if normalize(prod) != delta:
            raise ArithmeticError("invariant factors do not recompose Delta")

    def _companion_t(self):
        n = sum(polys.deg(d) for _, d in self.blocks)
        t = [[F(0)] * n for _ in range(n)]
        base = 0
        for _, d in self.blocks:
            k = polys.deg(d)
            for j in range(k - 1):
                t[base + j + 1][base + j] = F(1)
            for i in range(k):
                t[base + i][base + k - 1] = -d[i]
            base += k
        return tuple(tuple(r) for r in t)

    def class_of_polyvec(self, pvec):
        z = _poly_matvec(self._u, [list(p) for p in pvec])
        coords = []
        for idx, d in self.blocks:
            r = polys.rem(z[idx], d)
            k = polys.deg(d)
            coords.extend([r[i] if i < len(r) else F(0) for i in range(k)])
        return tuple(coords)

    def rep_of(self, coords):
        z = [[] for _ in range(self.V.size)]
        base = 0
        for idx, d in self.blocks:
            k = polys.deg(d)
            z[idx] = polys.trim([F(c) for c in coords[base:base + k]])
            base += k
        return _poly_matvec(self._uinv, z)

    def blanchfield(self, x, y):
        return oracle_blanchfield(self, x, y, self._solved)


# ---------------------------------------------------------------------------
# The eliminations that hermite_normal_form and alexander._reduce replaced,
# kept as the differential oracles of those kernels and used by the
# oracles below, so that no oracle shares the kernel under test
# ---------------------------------------------------------------------------

def smith_normal_form_pivoting(mat):
    """intlinalg.smith_normal_form as it was when it ran its own
    pivot-and-swap loop: invariant factors d_1 | d_2 | ... (d_i > 0).
    Its entries can blow up (tests/test_intlinalg.py has a 4 x 5 case)."""
    m = [list(r) for r in mat]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    out = []
    r = c = 0
    while r < rows and c < cols:
        # find pivot of smallest absolute value
        piv = None
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        i, j = piv
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    for k in range(c, cols):
                        m[i][k] -= q * m[r][k]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(c + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        again = True
        # divisibility of the remaining block
        d = abs(m[r][c])
        fixed = False
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                if m[i][j] % d:
                    for k in range(c, cols):
                        m[r][k] += m[i][k]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        out.append(d)
        r += 1
        c += 1
    return out


def _pivot(row, pivot_cols):
    """Column of the row's leading entry among the pivot columns, or None."""
    return next((i for i in range(pivot_cols) if row[i] != 0), None)


def _reduce(rref_basis, vec):
    """Residual of vec after clearing each basis row's pivot entry."""
    v = list(map(F, vec))
    for row in rref_basis:
        c = v[_pivot(row, len(v))]
        if c != 0:
            v = [x - c * y for x, y in zip(v, row)]
    return v


def rref_columnwise(vectors, pivot_cols):
    """alexander._rref as it was when it ran Gauss-Jordan column by column
    over all rows at once, pivoting in the first pivot_cols columns only.

    Returns the pivot rows in pivot order, then any rows that are zero on
    the pivot columns but not beyond them (an augmented system's
    inconsistencies); zero rows are dropped.
    """
    rows = [list(map(F, v)) for v in vectors if any(v)]
    r = 0
    for c in range(pivot_cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f_ = rows[i][c]
                rows[i] = [x - f_ * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows if any(row))


def krylov_tracked(mod, w):
    """alexander._krylov as it was when it tracked each vector's
    combination of the chain beside its own elimination: (chain, p), the
    chain w, Tw, ..., T^(d-1) w and the monic minimal p of degree d with
    p(T) w = 0."""
    chain = []
    rows = []  # (pivot, row with pivot entry 1, its combination of the chain)
    v = tuple(map(F, w))
    while True:
        r = list(v)
        comb = [F(0)] * len(chain) + [F(1)]
        for piv, row, rc in rows:
            c = r[piv]
            if c != 0:
                r = [x - c * y for x, y in zip(r, row)]
                for i, y in enumerate(rc):
                    comb[i] -= c * y
        piv = _pivot(r, len(r))
        if piv is None:
            return chain, comb
        inv = 1 / r[piv]
        rows.append((piv, [x * inv for x in r], [x * inv for x in comb]))
        chain.append(v)
        v = mod.t_action(v)


# ---------------------------------------------------------------------------
# The generator-based submodule engine that the Krylov elimination replaced:
# one RREF per Krylov step plus a solve for each annihilator, a closure
# loop for generated submodules, and a searched cyclic generator
# ---------------------------------------------------------------------------

def _in_span(rref_basis, vec):
    return not any(_reduce(rref_basis, vec))


def _solve_exact(aug, unknowns):
    """Solve an overdetermined consistent system from augmented rows."""
    sol = [F(0)] * unknowns
    for row in rref_columnwise(aug, unknowns):
        c = _pivot(row, unknowns)
        if c is None:
            raise ArithmeticError("inconsistent linear system")
        sol[c] = row[unknowns]
    return sol


def vector_annihilator(mod, w):
    """Monic minimal p with p(T) w = 0."""
    if all(c == 0 for c in w):
        return [F(1)]
    krylov = [tuple(w)]
    while True:
        nxt = mod.t_action(krylov[-1])
        if _in_span(rref_columnwise(krylov, mod.dim), nxt):
            # solve nxt = sum c_i T^i w for the annihilator coefficients
            k = len(krylov)
            aug = [list(col) + [nxt[i]] for i, col in enumerate(zip(*krylov))]
            sol = _solve_exact(aug, k)
            return polys.trim([-c for c in sol] + [F(1)])
        krylov.append(nxt)


def _lcm(a, b):
    g = polys.gcd_monic(a, b)
    return polys.monic(polys.exact_div(polys.mul(a, b), g))


def closure_submodule(mod, gens):
    """T-invariant closure of the span of the given coordinate vectors."""
    vecs = [tuple(map(F, g)) for g in gens if any(F(c) != 0 for c in g)]
    basis = rref_columnwise(vecs, mod.dim)
    while True:
        new = list(basis)
        grew = False
        for b in basis:
            img = mod.t_action(b)
            if not _in_span(basis, img):
                new.append(tuple(img))
                grew = True
        if not grew:
            break
        basis = rref_columnwise(new, mod.dim)
    ann = [F(1)]
    for b in basis:
        ann = _lcm(ann, vector_annihilator(mod, b))
    return Submodule(mod, basis, normalize(LaurentPoly.from_dense(ann)))


def full_minimal_polynomial(mod):
    """The lcm of the annihilators of every unit vector, with no early exit."""
    ann = [F(1)]
    for i in range(mod.dim):
        e = tuple(F(int(i == j)) for j in range(mod.dim))
        ann = _lcm(ann, vector_annihilator(mod, e))
    return ann


def proper_submodules(mod):
    """Submodules other than the whole module (the zero module counts)."""
    return [s for s in submodules_cyclic(mod) if s.dim < mod.dim]


def blanchfield_pairs_isotropic(mod, p):
    """Bl(a, b) = 0 for every pair of basis vectors of P: the isotropy test
    that the one-value criterion on cyclic modules replaced.  It holds on
    any module, cyclic or not."""
    return not any(mod.blanchfield(a, b) for a in p.basis for b in p.basis)


class FreeMatrix(SeifertMatrix):
    """Any square integer matrix, presented like a Seifert matrix but with
    no check that V - V^T is symplectic: det(V - V^T) may differ from +-1,
    the order may be odd and the Blanchfield form may be degenerate."""

    def __post_init__(self):
        pass


def find_generator(mod):
    """A vector whose Krylov span is the whole (cyclic) module, from a
    fixed candidate list."""
    n = mod.dim
    basis = [tuple(F(1) if j == i else F(0) for j in range(n))
             for i in range(n)]
    candidates = list(basis)
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    for k in range(2, 8):
        candidates.append(tuple(F(k ** i) for i in range(n)))
    for cand in candidates:
        if polys.deg(vector_annihilator(mod, cand)) == n:
            return cand
    raise ArithmeticError("no cyclic generator found")


def generator_submodules(mod):
    """All submodules of a cyclic module: the closures of f(T) g for a
    found generator g and every divisor f of Delta, deduplicated."""
    if mod.dim == 0:
        return [Submodule(mod, (), LaurentPoly.one())]
    if not mod.is_cyclic:
        raise NotCyclic("module is not cyclic")
    gen = find_generator(mod)
    out = []
    exps = list(factor(mod.delta).factors)

    def rec(i, current):
        if i == len(exps):
            out.append(closure_submodule(mod, [mod.poly_action(current, gen)]))
            return
        f, m = exps[i]
        fd, _ = f.to_dense()
        acc = list(current)
        for _ in range(m + 1):
            rec(i + 1, acc)
            acc = polys.mul(acc, fd)

    rec(0, [F(1)])
    uniq = {s.basis: s for s in out}
    return sorted(uniq.values(), key=lambda s: s.sort_key())


def submodules_all_units(mod):
    """alexander.submodules_cyclic as it was when it built each f(T) A by
    applying f(T) to every unit vector: the differential oracle of the
    construction from one chain per divisor."""
    if not mod.is_cyclic:
        raise NotCyclic("submodule enumeration needs a cyclic module "
                        "(minimal polynomial must equal Delta)")
    delta, _ = mod.delta.to_dense()
    std = _unit_vectors(mod.dim)
    divisors = [[F(1)]]
    for f, m in factor(mod.delta).factors:
        fd, _ = f.to_dense()
        powers = [[F(1)]]
        for _ in range(m):
            powers.append(polys.mul(powers[-1], fd))
        divisors = [polys.mul(d, q) for d in divisors for q in powers]
    out = []
    for f in divisors:
        basis = rref_columnwise([mod.poly_action(f, e) for e in std],
                                mod.dim)
        order = polys.exact_div(delta, f)
        if len(basis) != polys.deg(order):
            raise ArithmeticError(
                f"f(T)A has dimension {len(basis)}, not deg(Delta/f) = "
                f"{polys.deg(order)}")
        out.append(Submodule(mod, basis,
                             normalize(LaurentPoly.from_dense(order))))
    return sorted(out, key=lambda s: s.sort_key())


def factor_sympy(p):
    """laurent.factor as it was when it called sympy.factor_list: the
    differential oracle of the in-house factorization over Z[t]."""
    import sympy

    from concord.laurent import PrimeFactorization, unit_between

    canon = normalize(p)
    ucoeff, uexp = unit_between(p, canon)
    dense, _ = canon.to_dense()
    factors = []
    if polys.deg(dense) > 0:
        t = sympy.Symbol("t")
        expr = sympy.Poly([sympy.Rational(c) for c in reversed(dense)], t)
        content, flist = expr.factor_list()
        ucoeff *= F(content.p, content.q)
        for fac, mult in sorted(
                flist, key=lambda fm: (fm[0].degree(), fm[0].all_coeffs())):
            coeffs = [F(c.p, c.q) for c in reversed(fac.all_coeffs())]
            fcanon = normalize(LaurentPoly.from_dense(coeffs))
            c, e = unit_between(LaurentPoly.from_dense(coeffs), fcanon)
            ucoeff *= c ** mult
            uexp += e * mult
            if fcanon != LaurentPoly.one():
                factors.append((fcanon, mult))
    return PrimeFactorization(ucoeff, uexp, tuple(factors))


def is_primitive(vector):
    """Whether the gcd of the integer entries is 1."""
    g = 0
    for v in vector:
        g = gcd(g, abs(v))
    return g == 1


def bounded_search_box(v, bound):
    """metabolizers._bounded_search as it was when it enumerated the whole
    (2 bound + 1)^(2g) box and every index-ordered frame of isotropic
    vectors: the differential oracle of the lattice-growing search."""
    from concord import intlinalg
    from concord.metabolizers import Metabolizer

    n = v.size
    g = v.genus
    vectors = []

    def gen(prefix):
        if len(prefix) == n:
            if any(prefix) and is_primitive(prefix):
                vec = intlinalg.sign_normalized(tuple(prefix))
                if v.form(vec, vec) == 0 and vec not in seen:
                    seen.add(vec)
                    vectors.append(vec)
            return
        for x in range(-bound, bound + 1):
            gen(prefix + [x])

    seen = set()
    gen([])
    vectors.sort()
    found = {}

    def extend(frame, start):
        if len(frame) == g:
            if smith_normal_form_pivoting(frame) == [1] * g:
                key = intlinalg.hermite_normal_form(frame)
                if key not in found:
                    found[key] = Metabolizer(
                        v, tuple(tuple(r) for r in key))
            return
        for i in range(start, len(vectors)):
            w = vectors[i]
            if all(v.form(b, w) == 0 and v.form(w, b) == 0 for b in frame):
                extend(frame + [w], i + 1)

    extend([], 0)
    return sorted(found.values(), key=lambda m: m.basis)
