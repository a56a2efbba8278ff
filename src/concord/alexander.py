"""The rational Alexander module of a knot, presented from a Seifert matrix.

The module Q[t,t^-1]^{2g} / (tV - V^T) is brought to diagonal form by a
Smith normal form computation over Q[t] with row transforms tracked, then
modeled as a plain rational vector space of dimension deg(Delta) carrying
an invertible "multiply by t" matrix.  Surface classes include via
v |-> (V - V^T) v; that convention is what makes metabolizer images
isotropic for the Blanchfield form (validated by the test suite).

Blanchfield values live in Q(t)/Q[t,t^-1].  They are computed over the
single denominator d = det(tV - V^T), from the adjugate-style matrix R
with (tV - V^T)^{-1} = R/d, and stored as a reduced numerator of degree
< deg(denominator).

Submodules are T-invariant subspaces stored as canonical RREF bases with
their order ideals.  One Krylov elimination (`_krylov`) gives both the
span w, Tw, T^2 w, ... of a vector and its annihilator; a submodule
generated by several vectors is the span of their chains, of order the
lcm of their annihilators.  A cyclic module A = Q[t]/(Delta) has exactly
one submodule per monic divisor f of Delta, the image f(T) A, of order
Delta/f.

Isotropy needs one Blanchfield value per module.  For a generator g of a
cyclic A, sesquilinearity gives Bl(a f g, b f g) = a b-bar f f-bar Bl(g, g)
(Levine, Knot modules I, 1977); so if Bl(g, g) = c/e in lowest terms,
f(T) A is isotropic iff e divides f f-bar, that is f rev(f) in Q[t].
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import polys
from .laurent import LaurentPoly, normalize, render
from .laurent import factor as laurent_factor
from .records import field, frozen
from .seifert import alexander_poly, presentation_matrix

F = Fraction


class NotCyclic(ValueError):
    """Submodule enumeration requested on a non-cyclic module."""


class UnsupportedModule(ValueError):
    """Module shape outside the cyclic / coprime-sum catalogue."""


# ---------------------------------------------------------------------------
# Smith normal form over Q[t] with tracked row transforms
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


# ---------------------------------------------------------------------------
# The module
# ---------------------------------------------------------------------------

class AlexanderModule:
    """Rational vector space with invertible t-action, plus the hooks back
    into the Seifert presentation needed for the Blanchfield pairing.

    Two models are used.  When deg Delta = 2g (the generic case, det V
    nonzero) the constant vectors already span the cokernel and t acts by
    V^T V^{-1}: classes and representatives are the identity on constant
    vectors.  Otherwise a Smith normal form over Q[t] with tracked row
    transforms diagonalizes the presentation.
    """

    def __init__(self, seifert_matrix, delta, mode, *, t_matrix=None,
                 diag=None, u=None, uinv=None):
        self.V = seifert_matrix
        self.delta = delta
        self._mode = mode          # "direct" | "snf"
        self._u = u
        self._uinv = uinv
        self._min_poly = None
        self._generator = None
        self._inv_cache = None
        self._bl_cache = {}
        if mode == "direct":
            self.blocks = None
            self.T = t_matrix
            self.dim = len(t_matrix)
        else:
            self.blocks = []  # list of (snf index, monic invariant factor)
            for idx, d in enumerate(diag or []):
                vpow = 0
                dd = list(d)
                while dd and dd[0] == 0:
                    dd.pop(0)
                    vpow += 1
                if polys.deg(dd) >= 1:
                    self.blocks.append((idx, polys.monic(dd)))
            self.dim = sum(polys.deg(d) for _, d in self.blocks)
            self.T = self._companion_t()

    def _companion_t(self):
        n = self.dim
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

    def minimal_polynomial(self):
        """The lcm of the unit vectors' annihilators, stopped once its
        degree reaches dim: it divides the characteristic polynomial, so it
        is then complete.  A unit vector whose chain already spans the
        module is kept as the generator."""
        if self._min_poly is None:
            ann = [F(1)]
            for e in _unit_vectors(self.dim):
                if polys.deg(ann) == self.dim:
                    break
                chain, p = _krylov(self, e)
                if len(chain) == self.dim and self._generator is None:
                    self._generator = e
                ann = _poly_lcm(ann, p)
            self._min_poly = ann
        return self._min_poly

    def generator(self):
        """A vector g with A = Q[t] g, found once; NotCyclic otherwise.

        Smith form: the first companion basis vector of the one block.
        Direct: the first vector whose Krylov chain has length n = dim among
        the unit vectors, then the moment curve (1, c, ..., c^(n-1)) for
        c = 0, 1, ...  A vector fails to generate exactly when it lies in
        one of the maximal submodules p(T) A, one per prime factor p of
        Delta, each a proper subspace.  A proper subspace meets the moment
        curve in at most n - 1 points (the roots of a nonzero polynomial of
        degree < n in c), so with k prime factors the first
        k(n - 1) + 1 <= n(n - 1) + 1 points contain a generator.
        """
        if self._generator is None:
            if not self.is_cyclic:
                raise NotCyclic("module is not cyclic")
            n = self.dim
            if self._mode == "snf" or n == 0:
                self._generator = tuple(F(int(i == 0)) for i in range(n))
            else:
                curve = (tuple(F(c ** i) for i in range(n))
                         for c in range(n * (n - 1) + 1))
                self._generator = next(
                    (w for w in itertools.chain(_unit_vectors(n), curve)
                     if len(_krylov(self, w)[0]) == n), None)
                if self._generator is None:
                    raise ArithmeticError("no generator of a cyclic module "
                                          "on the moment curve")
        return self._generator

    @property
    def is_cyclic(self):
        if self.dim == 0:
            return True
        if self._mode == "snf":
            return len(self.blocks) <= 1
        return polys.deg(self.minimal_polynomial()) == self.dim

    # -- coordinates ------------------------------------------------------

    def class_of_polyvec(self, pvec):
        """Class of a Q[t]-vector in module coordinates."""
        if self._mode == "direct":
            deg = max((polys.deg(p) for p in pvec), default=-1)
            acc = tuple(F(0) for _ in range(self.dim))
            for k in range(deg, -1, -1):
                acc = self.t_action(acc)
                acc = tuple(a + (pvec[i][k] if k <= polys.deg(pvec[i]) else 0)
                            for i, a in enumerate(acc))
            return acc
        z = _poly_matvec(self._u, [list(p) for p in pvec])
        coords = []
        for idx, d in self.blocks:
            r = polys.rem(z[idx], d)
            k = polys.deg(d)
            coords.extend([r[i] if i < len(r) else F(0) for i in range(k)])
        return tuple(coords)

    def rep_of(self, coords):
        """A presentation-level polynomial vector representing the class."""
        if self._mode == "direct":
            return [polys.const(c) for c in coords]
        z = [[] for _ in range(self.V.size)]
        base = 0
        for idx, d in self.blocks:
            k = polys.deg(d)
            z[idx] = polys.trim([F(c) for c in coords[base:base + k]])
            base += k
        return _poly_matvec(self._uinv, z)

    def incl_surface(self, v):
        """Image of a surface class v in Z^{2g}: the class of (V - V^T) v."""
        n = self.V.size
        e = self.V.entries
        w = [sum((e[i][j] - e[j][i]) * v[j] for j in range(n)) for i in range(n)]
        return self.class_of_polyvec([polys.const(c) for c in w])

    def t_action(self, coords):
        n = self.dim
        return tuple(sum(self.T[i][j] * coords[j] for j in range(n))
                     for i in range(n))

    def poly_action(self, p, coords):
        """Apply p(T) to a coordinate vector (Horner)."""
        n = self.dim
        acc = tuple(F(0) for _ in range(n))
        for c in reversed(list(p)):
            acc = self.t_action(acc)
            acc = tuple(acc[i] + c * coords[i] for i in range(n))
        return acc

    # -- Blanchfield ------------------------------------------------------

    def _presentation_inverse(self):
        """(d, R) with d = det(tV - V^T) and (tV - V^T)^{-1} = R/d."""
        if self._inv_cache is None:
            n = self.V.size
            ident = [[[F(1)] if i == j else [] for j in range(n)]
                     for i in range(n)]
            self._inv_cache = polys.bareiss(presentation_matrix(self.V), ident)
        return self._inv_cache

    def blanchfield(self, x, y):
        key = (tuple(x), tuple(y))
        got = self._bl_cache.get(key)
        if got is not None:
            return got
        val = _blanchfield_raw(self, x, y)
        self._bl_cache[key] = val
        return val


def _direct_t_matrix(v):
    """V^T V^{-1} over the rationals; None when V is singular."""
    n = v.size
    rows = _rref([list(v.entries[i]) + [int(i == j) for j in range(n)]
                  for i in range(n)], n)
    if any(_pivot(row, n) is None for row in rows):
        return None
    vinv = [row[n:] for row in rows]
    return tuple(tuple(sum(F(v.entries[k][i]) * vinv[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def present(v) -> AlexanderModule:
    """Alexander module of a Seifert matrix, dimension deg(Delta)."""
    n = v.size
    delta = alexander_poly(v)
    if n == 0:
        return AlexanderModule(v, delta, "direct", t_matrix=())
    if delta.span == n:
        t_matrix = _direct_t_matrix(v)
        if t_matrix is None:
            raise ArithmeticError("deg Delta = 2g forces V invertible")
        return AlexanderModule(v, delta, "direct", t_matrix=t_matrix)
    diag, u, uinv = smith_form_poly(presentation_matrix(v))
    mod = AlexanderModule(v, delta, "snf", diag=diag, u=u, uinv=uinv)
    span = delta.span
    if mod.dim != span:
        raise ArithmeticError(
            f"presentation rank {mod.dim} disagrees with deg Delta = {span}")
    prod = LaurentPoly.one()
    for _, d in mod.blocks:
        prod = prod * LaurentPoly.from_dense(d)
    if normalize(prod) != delta:
        raise ArithmeticError("invariant factors do not recompose Delta")
    return mod


# ---------------------------------------------------------------------------
# Blanchfield values
# ---------------------------------------------------------------------------

@frozen
class BlanchfieldValue:
    """Class of num/den in Q(t)/Q[t,t^-1]: gcd(num, den) = 1,
    deg num < deg den, den primitive integer with positive leading term."""

    num: tuple
    den: tuple

    @property
    def is_zero(self):
        return not self.num

    def conjugate(self):
        if self.is_zero:
            return self
        # v(1/t) = t^(deg den - deg num) rev(num) / rev(den)
        rn = list(reversed(self.num))
        rd = list(reversed(self.den))
        shift = polys.deg(list(self.den)) - polys.deg(list(self.num))
        return _reduce_mod_ring(polys.trim(rn), polys.trim(rd), shift)

    def __add__(self, other):
        num = polys.add(polys.mul(list(self.num), list(other.den)),
                        polys.mul(list(other.num), list(self.den)))
        return _reduce_mod_ring(num, polys.mul(list(self.den), list(other.den)), 0)

    def scale(self, c):
        return _reduce_mod_ring(polys.scale(list(self.num), c), list(self.den), 0)

    def t_multiple(self):
        """Class of t * value."""
        return _reduce_mod_ring(polys.mul_xk(list(self.num), 1), list(self.den), 0)


BL_ZERO = BlanchfieldValue((), (F(1),))


def _t_inverse_mod(d):
    """u with t * u == 1 mod d; requires d(0) != 0."""
    if d[0] == 0:
        raise ArithmeticError("t is a zero divisor mod this denominator")
    body = [-c / d[0] for c in d[1:]]
    return polys.trim(body)


def _reduce_mod_ring(num, den, shift):
    """Canonical form of t^shift * num/den in Q(t)/Q[t,t^-1]."""
    num = polys.trim(list(num))
    den = polys.trim(list(den))
    if polys.is_zero(num):
        return BL_ZERO
    # strip t powers out of the denominator into the shift
    v = 0
    while den and den[0] == 0:
        den.pop(0)
        v += 1
    shift -= v
    v = 0
    while num and num[0] == 0:
        num.pop(0)
        v += 1
    shift += v
    g = polys.gcd_monic(num, den)
    if polys.deg(g) > 0:
        num = polys.exact_div(num, g)
        den = polys.exact_div(den, g)
    if polys.deg(den) == 0:
        return BL_ZERO
    if shift > 0:
        num = polys.rem(polys.mul_xk(num, shift), den)
    elif shift < 0:
        u = _t_inverse_mod(den)
        for _ in range(-shift):
            num = polys.rem(polys.mul(num, u), den)
    else:
        num = polys.rem(num, den)
    if polys.is_zero(num):
        return BL_ZERO
    g = polys.gcd_monic(num, den)
    if polys.deg(g) > 0:
        num = polys.exact_div(num, g)
        den = polys.exact_div(den, g)
    den_prim = polys.primitive_positive(den)
    if den_prim[-1] < 0:
        den_prim = polys.neg(den_prim)
    ratio = den_prim[-1] / den[-1]
    num = polys.scale(num, ratio)
    return BlanchfieldValue(tuple(num), tuple(den_prim))


def _blanchfield_raw(mod, x, y):
    """x-bar^T (t - 1) (tV - V^T)^{-1} y, reduced modulo Q[t, t^-1]."""
    if mod.dim == 0:
        return BL_ZERO
    px = mod.rep_of(x)
    py = mod.rep_of(y)
    d, r = mod._presentation_inverse()
    w = _poly_matvec(r, py)
    dmax = max((polys.deg(p) for p in px if not polys.is_zero(p)), default=0)
    total = []
    for pj, wj in zip(px, w):
        if polys.is_zero(pj) or polys.is_zero(wj):
            continue
        # t^dmax * px_j(1/t) as a plain polynomial
        rev = polys.trim([F(0)] * (dmax - polys.deg(pj)) + list(reversed(pj)))
        total = polys.add(total, polys.mul(wj, rev))
    num = polys.mul(total, [F(-1), F(1)])  # times (t - 1)
    return _reduce_mod_ring(num, d, -dmax)


# ---------------------------------------------------------------------------
# Submodules
# ---------------------------------------------------------------------------

def _rref(vectors, pivot_cols):
    """Gauss-Jordan over Q, pivoting in the first pivot_cols columns only.

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
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f_ = rows[i][c]
                rows[i] = [x - f_ * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows if any(row))


def _unit_vectors(n):
    return [tuple(F(1) if j == i else F(0) for j in range(n)) for i in range(n)]


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


@frozen
class Submodule:
    """T-invariant subspace with its order ideal (annihilator polynomial)."""

    module: AlexanderModule = field(compare=False)
    basis: tuple  # canonical RREF rows
    order_ideal: LaurentPoly

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_zero(self):
        return not self.basis

    def contains(self, vec):
        return not any(_reduce(self.basis, vec))

    def quotient_coords(self, vec):
        """Coordinates of vec in the quotient by this submodule: the residual
        after reduction by the basis, on the non-pivot coordinates."""
        v = _reduce(self.basis, vec)
        pivots = {_pivot(row, len(v)) for row in self.basis}
        return tuple(x for i, x in enumerate(v) if i not in pivots)

    def sort_key(self):
        return (self.dim, render(self.order_ideal),
                tuple(tuple(str(c) for c in row) for row in self.basis))


def _krylov(mod, w):
    """(chain, p): the chain w, Tw, ..., T^(d-1) w and the monic minimal p
    of degree d with p(T) w = 0.

    One elimination: each T^k w is reduced against the echelon rows of the
    earlier vectors while its combination of them is tracked, and the first
    that reduces to zero gives p.
    """
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


def submodule_from_vectors(mod, gens) -> Submodule:
    """Submodule generated by the given coordinate vectors: spanned by their
    Krylov chains, of order the lcm of their annihilators."""
    chains = []
    ann = [F(1)]
    for g in gens:
        chain, p = _krylov(mod, g)
        chains.extend(chain)
        ann = _poly_lcm(ann, p)
    return Submodule(mod, _rref(chains, mod.dim),
                     normalize(LaurentPoly.from_dense(ann)))


def _poly_lcm(a, b):
    g = polys.gcd_monic(a, b)
    return polys.monic(polys.exact_div(polys.mul(a, b), g))


def zero_submodule(mod) -> Submodule:
    return Submodule(mod, (), LaurentPoly.one())


def submodules_cyclic(mod):
    """All submodules of a cyclic module A = Q[t]/(Delta): the images
    f(T) A, one for each divisor f of Delta up to units, f(T) A of order
    Delta/f."""
    if not mod.is_cyclic:
        raise NotCyclic("submodule enumeration needs a cyclic module "
                        "(minimal polynomial must equal Delta)")
    delta, _ = mod.delta.to_dense()
    std = _unit_vectors(mod.dim)
    divisors = [[F(1)]]
    for f, m in laurent_factor(mod.delta).factors:
        fd, _ = f.to_dense()
        powers = [[F(1)]]
        for _ in range(m):
            powers.append(polys.mul(powers[-1], fd))
        divisors = [polys.mul(d, q) for d in divisors for q in powers]
    out = []
    for f in divisors:
        basis = _rref([mod.poly_action(f, e) for e in std], mod.dim)
        order = polys.exact_div(delta, f)
        if len(basis) != polys.deg(order):
            raise ArithmeticError(
                f"f(T)A has dimension {len(basis)}, not deg(Delta/f) = "
                f"{polys.deg(order)}")
        out.append(Submodule(mod, basis,
                             normalize(LaurentPoly.from_dense(order))))
    return sorted(out, key=lambda s: s.sort_key())


def orthogonal_complement(mod, p: Submodule) -> Submodule:
    """P-perp for the Blanchfield form, by exact linear algebra."""
    n = mod.dim
    delta_dense, _ = mod.delta.to_dense()
    dd = polys.deg(delta_dense)
    rows = []
    std = _unit_vectors(n)
    for pv in p.basis:
        conds = [[F(0)] * n for _ in range(dd)]
        for j, bj in enumerate(std):
            val = mod.blanchfield(bj, pv)
            if val.is_zero:
                continue
            q = polys.exact_div(delta_dense, list(val.den))
            lifted = polys.rem(polys.mul(list(val.num), q), delta_dense)
            for k, c in enumerate(lifted):
                conds[k][j] = c
        rows.extend(conds)
    return submodule_from_vectors(mod, _kernel(rows, n))


def _kernel(rows, n):
    rr = _rref(rows, n)
    pivots = [_pivot(row, n) for row in rr]
    out = []
    for fcol in range(n):
        if fcol in pivots:
            continue
        v = [F(0)] * n
        v[fcol] = F(1)
        for pc, row in zip(pivots, rr):
            v[pc] = -row[fcol]
        out.append(tuple(v))
    return out


def is_isotropic(mod, p: Submodule) -> bool:
    """Whether Bl vanishes on P, decided from one Blanchfield value.

    On a cyclic module A = Q[t]/(Delta) with generator g, P = f(T) A for
    f = Delta / order(P), and sesquilinearity gives
    Bl(a f g, b f g) = a b-bar f f-bar Bl(g, g) (Levine, Knot modules I).
    With Bl(g, g) = c/e in lowest terms, P is isotropic iff e divides
    f f-bar = t^(-deg f) f rev(f): the case a = b = 1 is necessary, and it
    makes every other value a Laurent multiple of an integral one.  e has
    no factor t, so e | f rev(f) in Q[t] is the test; Bl(g, g) = 0 (e = 1)
    makes every submodule isotropic.  Raises UnsupportedModule off cyclic
    modules.
    """
    if not mod.is_cyclic:
        raise UnsupportedModule("isotropy is decided on cyclic modules only")
    g = mod.generator()
    e = list(mod.blanchfield(g, g).den)
    delta, _ = mod.delta.to_dense()
    order, _ = p.order_ideal.to_dense()
    f = polys.exact_div(delta, order)
    return not polys.rem(polys.mul(f, f[::-1]), e)


def is_lagrangian(mod, p: Submodule) -> bool:
    return is_isotropic(mod, p) and 2 * p.dim == mod.dim


def isotropic_submodules(mod):
    """All isotropic submodules: the images f(T) A of a cyclic module with
    e | f rev(f), e the reduced denominator of Bl(g, g) for a generator g
    (`is_isotropic` has the proof).  Raises UnsupportedModule off-catalogue.
    """
    try:
        subs = submodules_cyclic(mod)
    except NotCyclic as exc:
        raise UnsupportedModule(str(exc)) from exc
    return [s for s in subs if is_isotropic(mod, s)]


def lagrangians(mod):
    """All Lagrangians (exact half-dimensional self-annihilating submodules)."""
    return [s for s in isotropic_submodules(mod) if 2 * s.dim == mod.dim]
