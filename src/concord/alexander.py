"""The rational Alexander module of a knot, presented from a Seifert matrix.

The module is Q[t,t^-1]^n / (tV - V^T) for a Seifert matrix V of order n
with Delta = det(tV - V^T) nonzero (Levine, Knot modules I, 1977).  It is
modeled as a plain rational vector space of dimension deg(Delta) carrying
an invertible "multiply by t" matrix T, reached from the constant vectors.

Let c be the first integer >= 1 with Delta(c) != 0 (c = 1 for a Seifert
matrix, since det(V - V^T) = +-1), P = cV - V^T, A = V P^-1 and
B = V^T P^-1 = cA - I.  Then tV - V^T = P(I + (t - c)M) with M = P^-1 V,
so x |-> P^-1 x identifies the module with the cokernel of I + (t - c)M.
On the nilpotent Fitting part of M, I + (t - c)M is a unit over Q[t]; on
the invertible part the cokernel is Q^r, the constant vectors, with
t = c - M^-1, and inverting t removes the generalized kernel of cM - I.
Back in x = P y: the constant vectors map onto the module with kernel
K = ker A^n + ker B^n, the generalized kernel of AB, and the stable image
W = im(A^n B^n) is a complement on which t V u = V^T u.  So
dim W = deg Delta.  Coordinates are taken in the RREF basis of W: the
class of x is the pivot entries of its W-component along K.  When
det V != 0 (deg Delta = 2g), K = 0, W = Q^n and T = V^T V^-1; singular V
arise under S-equivalence, for instance by stabilization (Trotter, On
S-equivalence of Seifert matrices, 1973).  Surface classes include via
v |-> (V - V^T) v; that convention is what makes metabolizer images
isotropic for the Blanchfield form (validated by the test suite).

Blanchfield values live in Delta^-1 Q[t,t^-1] / Q[t,t^-1], since Delta
annihilates the module, so each is one residue r mod Delta with
deg r < deg Delta: Bl(x, y) = r/Delta.  r comes from the column
z = d (tV - V^T)^-1 y, d = det(tV - V^T) = c t^k Delta, for the constant
representative y in W: one fraction-free elimination with y as its single
right-hand column, once per distinct y; then x^T z times the unit
(t - 1) t^-k / c mod Delta.

Submodules are T-invariant subspaces stored as canonical RREF bases with
their order ideals.  One reduction step, `_reduce`, is the rational
elimination: `_rref` is Gauss-Jordan on it one vector at a time, and the
Krylov elimination (`_krylov`) reduces each T^k w, augmented by e_k, with
it, so that the first vector to vanish on the module coordinates carries
the annihilator of w on its augmented part, beside the span w, Tw, ...
A submodule generated by several vectors is the span of their chains, of
order the lcm of their annihilators.  A cyclic module A = Q[t]/(Delta)
has exactly one submodule per monic divisor f of Delta, the image
f(T) A, of order Delta/f.

Isotropy needs one Blanchfield value per module.  For a generator g of a
cyclic A, sesquilinearity gives Bl(a f g, b f g) = a b-bar f f-bar Bl(g, g)
(Levine, Knot modules I, 1977); so if Bl(g, g) = r/Delta, f(T) A is
isotropic iff Delta divides r f f-bar, that is r f rev(f) in Q[t].  The
isotropic submodules and the Lagrangians therefore test each divisor f
first (a Lagrangian also needs 2 deg f = deg Delta) and build the chain
and RREF basis only for the divisors that pass: in the genus g, one
elimination with a single column per module for Bl(g, g), plus O(g^3)
rational operations per isotropic divisor.
"""

from __future__ import annotations

import itertools
import math
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
# The module
# ---------------------------------------------------------------------------

class AlexanderModule:
    """The module as the subspace W of constant vectors, in coordinates on
    its RREF basis, with T the matrix of t; plus the hooks back into the
    Seifert presentation needed for the Blanchfield pairing.

    With c, P = cV - V^T, A = V P^-1 and B = cA - I as in the module
    docstring, tV - V^T = P(I + (t - c)M) for M = P^-1 V, so the constant
    vectors map onto the module with kernel K = ker A^n + ker B^n and
    complement W = im(A^n B^n), on which t V u = V^T u.  The class of a
    constant vector x is the pivot entries of its W-component along K.
    When det V != 0, K = 0, the basis of W is the identity and
    T = V^T V^-1: the class of x is x.
    """

    def __init__(self, seifert_matrix, delta, t_matrix, split=None):
        self.V = seifert_matrix
        self.delta = delta
        # (RREF rows of W, sparse rows of x |-> class of x); None when K = 0
        self._split = split
        self.T = t_matrix
        self.dim = len(t_matrix)
        self._min_poly = None
        self._generator = None
        self._columns = {}  # y -> d (tV - V^T)^-1 lift(y), see `_solve`
        self._unit = None

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

        The first vector whose Krylov chain has length n = dim among the
        unit vectors, then the moment curve (1, c, ..., c^(n-1)) for
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
        return polys.deg(self.minimal_polynomial()) == self.dim

    # -- coordinates ------------------------------------------------------

    def class_of_polyvec(self, pvec):
        """Class of a Q[t]-vector in module coordinates: the sum of
        T^k [p_k] over its coefficient vectors p_k, by Horner."""
        deg = max((polys.deg(p) for p in pvec), default=-1)
        acc = tuple(F(0) for _ in range(self.dim))
        for k in range(deg, -1, -1):
            term = _class(self._split, [p[k] if k <= polys.deg(p) else 0
                                        for p in pvec])
            if k < deg:
                acc = self.t_action(acc)
            acc = tuple(a + b for a, b in zip(acc, term))
        return acc

    def _lift(self, coords):
        """The constant vector sum_j coords_j w_j representing a class."""
        if self._split is None:
            return list(coords)
        vec = [F(0)] * self.V.size
        for c, w in zip(coords, self._split[0]):
            if c:
                vec = [x + c * y for x, y in zip(vec, w)]
        return vec

    def rep_of(self, coords):
        """A presentation-level polynomial vector representing the class:
        constant, the lift of the coordinates to W."""
        return [polys.const(c) for c in self._lift(coords)]

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
        """Apply p(T) to a coordinate vector (Horner), deg p applications
        of T."""
        acc = tuple(F(0) for _ in range(self.dim))
        for i, c in enumerate(reversed(list(p))):
            if i:
                acc = self.t_action(acc)
            acc = tuple(a + c * x for a, x in zip(acc, coords))
        return acc

    # -- Blanchfield ------------------------------------------------------

    def _solve(self, y):
        """The column z = d (tV - V^T)^-1 lift(y), d = det(tV - V^T), from
        one Bareiss pass with lift(y) as the single right-hand column,
        cached per y.  Bareiss needs integer entries and the lift is
        rational when V is singular, so the column is scaled by its common
        denominator m and z divided by m after.  The first pass also fixes
        the unit w = (t - 1) t^-k / c mod Delta, where d = c t^k Delta."""
        key = tuple(y)
        if key not in self._columns:
            ly = [F(c) for c in self._lift(y)]
            m = math.lcm(*(c.denominator for c in ly))
            d, z = polys.bareiss(presentation_matrix(self.V),
                                 [[polys.const(m * c)] for c in ly])
            if self._unit is None:
                self._unit = _blanchfield_unit(d, self.delta)
            self._columns[key] = [polys.scale(row[0], F(1, m)) for row in z]
        return self._columns[key]

    def blanchfield(self, x, y):
        """The residue r of Bl(x, y) = r/Delta in Q(t)/Q[t, t^-1]: a tuple
        of Fractions with deg r < deg Delta, empty when the value is 0.

        Bl(x, y) = x^T (t - 1) (tV - V^T)^-1 y on the constant lifts of the
        two classes (constant, so x-bar = x), that is (t - 1) X / d for
        X = x^T z and z = d (tV - V^T)^-1 y (`_solve`); with
        d = c t^k Delta, r = X w mod Delta.  Every value lies in
        Delta^-1 Q[t, t^-1] / Q[t, t^-1], so r is canonical.
        """
        if self.dim == 0:
            return ()
        z = self._solve(y)
        total = []
        for xi, zi in zip(self._lift(x), z):
            if xi and zi:
                total = polys.add(total, polys.scale(zi, xi))
        delta, _ = self.delta.to_dense()
        return tuple(polys.rem(polys.mul(polys.rem(total, delta), self._unit),
                               delta))


def _blanchfield_unit(d, delta):
    """w = (t - 1) t^-k / c mod Delta for d = c t^k Delta.  Delta(0) != 0
    (normalized), so t is a unit mod Delta; k >= 1 when V is singular."""
    delta, _ = delta.to_dense()
    # Delta = normalize(d), so d / Delta is the monomial c t^k
    q = polys.exact_div(d, delta)
    k = polys.deg(q)
    w = [F(-1) / q[k], F(1) / q[k]]
    for _ in range(k):
        # times t^-1 mod Delta: clear the constant term, divide by t
        w = polys.sub(w, polys.scale(delta, w[0] / delta[0]))[1:]
    return polys.rem(w, delta)


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _eliminate(mat):
    """Gauss-Jordan on [M | I] for a square M: rows [R | L] with L M = R
    the RREF of M, then the rows with R = 0 (`_rref`).  L = M^-1 when M
    is invertible."""
    n = len(mat)
    return _rref([list(row) + [int(i == j) for j in range(n)]
                  for i, row in enumerate(mat)], n)


def _fitting(e, delta):
    """(W, coordinate map) for a singular V with entries e: the RREF rows
    of the stable image W = im (AB)^n, for the first c >= 1 with
    Delta(c) != 0 (module docstring), and the sparse rows of the map taking
    x to the pivot entries of its component in W along the generalized
    kernel K of AB."""
    n = len(e)
    c = next(c for c in itertools.count(1) if delta.evaluate(c))
    p = [[c * e[i][j] - e[j][i] for j in range(n)] for i in range(n)]
    a = _matmul(e, [row[n:] for row in _eliminate(p)])
    ab = _matmul(a, [[c * x - (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(a)])
    power, rank = ab, n
    while True:
        w_basis = _rref(list(zip(*power)), n)
        if len(w_basis) == rank:
            break
        rank = len(w_basis)
        power = _matmul(ab, power)
    kernel = _kernel(power, n)
    # class of x: the last dim W entries of x in the basis K + W of Q^n
    inverse = _eliminate([[b[i] for b in (*kernel, *w_basis)]
                          for i in range(n)])
    if len(kernel) + len(w_basis) != n or any(
            _pivot(row, n) is None for row in inverse):
        raise ArithmeticError("K and W do not split the constant vectors")
    return w_basis, tuple(tuple((k, c) for k, c in enumerate(row[n:]) if c)
                          for row in inverse[len(kernel):])


def present(v, delta=None) -> AlexanderModule:
    """Alexander module of a Seifert matrix, dimension deg(Delta); delta is
    `alexander_poly(v)` when the caller has it already."""
    n = v.size
    e = v.entries
    if delta is None:
        delta = alexander_poly(v)
    d = delta.span
    if d == n:
        # det V != 0, the leading coefficient of Delta: ker A = P ker V = 0
        # and likewise for B, so K = 0, W = Q^n and the class of x is x
        split, w_cols = None, [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        split = _fitting(e, delta)
        if len(split[0]) != d:
            raise ArithmeticError(
                f"dim W = {len(split[0])} disagrees with deg Delta = {d}")
        w_cols = [[w[i] for w in split[0]] for i in range(n)]
    # V U = (w_1 ... w_d), with the free entries of U zero: W lies in
    # im A = im V
    u = [[F(0)] * d for _ in range(n)]
    for row in _rref([list(e[i]) + w_cols[i] for i in range(n)], n):
        piv = _pivot(row, n)
        if piv is None:
            raise ArithmeticError("W is not in the image of V")
        u[piv] = row[n:]
    # t w_j = t V u_j = V^T u_j
    columns = [_class(split, [sum(u[k][j] * e[k][i] for k in range(n))
                              for i in range(n)]) for j in range(d)]
    return AlexanderModule(v, delta, tuple(zip(*columns)), split)


def _class(split, x):
    """Coordinates of the class of a constant vector x: the pivot entries
    of its W-component along K, x itself when K = 0 (split is None)."""
    if split is None:
        return tuple(x)
    return tuple(sum((c * x[k] for k, c in row), F(0)) for row in split[1])


# ---------------------------------------------------------------------------
# Submodules
# ---------------------------------------------------------------------------

def _rref(vectors, pivot_cols):
    """Gauss-Jordan over Q, pivoting in the first pivot_cols columns only,
    one vector at a time: each is reduced by the rows so far (`_reduce`),
    and a new pivot is cleared from the earlier rows.

    Returns the pivot rows in pivot order, then any rows that are zero on
    the pivot columns but not beyond them (an augmented system's
    inconsistencies); zero rows are dropped.
    """
    rows, rest = [], []
    for v in vectors:
        r = _reduce(rows, v)
        piv = _pivot(r, pivot_cols)
        if piv is None:
            if any(r):
                rest.append(r)
            continue
        inv = 1 / r[piv]
        if inv != 1:
            r = [x * inv for x in r]
        rows = [_reduce((r,), row) if row[piv] else row for row in rows]
        rows.append(r)
    rows.sort(key=lambda row: _pivot(row, pivot_cols))
    return tuple(tuple(row) for row in rows + rest)


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

    One elimination: each T^k w, augmented by the unit vector e_k of
    Q^(dim+1), is reduced (`_reduce`) by the earlier ones; the first that
    vanishes on the module coordinates is p(T) w = 0 with the coefficients
    of p on its augmented part.
    """
    n = mod.dim
    chain = []
    rows = []  # echelon rows with pivot entry 1, in chain order
    v = tuple(map(F, w))
    while True:
        k = len(chain)
        r = _reduce(rows, v + tuple(int(i == k) for i in range(n + 1)))
        piv = _pivot(r, n)
        if piv is None:
            return chain, r[n:n + k + 1]
        inv = 1 / r[piv]
        rows.append([x * inv for x in r])
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


def _image(mod, delta, f) -> Submodule:
    """f(T) A for a divisor f of Delta, from the generator g
    (`AlexanderModule.generator`): A = Q[t] g, so f(T) A = Q[t] f(T) g, a
    cyclic module of order Delta/f, and its chain f(T) g, T f(T) g, ...,
    T^(d-1) f(T) g for d = deg(Delta/f) is a basis."""
    order = polys.exact_div(delta, f)
    chain = [mod.poly_action(f, mod.generator())]
    for _ in range(polys.deg(order) - 1):
        chain.append(mod.t_action(chain[-1]))
    basis = _rref(chain, mod.dim)
    if len(basis) != polys.deg(order):
        raise ArithmeticError(
            f"f(T)A has dimension {len(basis)}, not deg(Delta/f) = "
            f"{polys.deg(order)}")
    return Submodule(mod, basis, normalize(LaurentPoly.from_dense(order)))


_NOT_CYCLIC = ("submodule enumeration needs a cyclic module "
               "(minimal polynomial must equal Delta)")


def _images(mod, keep):
    """The images f(T) A (`_image`) for the divisors f of Delta up to
    units (the products of its prime-power factors) with keep(delta, f),
    sorted by `Submodule.sort_key`; each divisor is tested before its
    basis is built.  NotCyclic off cyclic modules."""
    if not mod.is_cyclic:
        raise NotCyclic(_NOT_CYCLIC)
    delta, _ = mod.delta.to_dense()
    divisors = [[F(1)]]
    for f, m in laurent_factor(mod.delta).factors:
        fd, _ = f.to_dense()
        powers = [[F(1)]]
        for _ in range(m):
            powers.append(polys.mul(powers[-1], fd))
        divisors = [polys.mul(d, q) for d in divisors for q in powers]
    return sorted((_image(mod, delta, f) for f in divisors if keep(delta, f)),
                  key=Submodule.sort_key)


def submodules_cyclic(mod):
    """All submodules of a cyclic module A = Q[t]/(Delta): the images
    f(T) A (`_image`), one for each divisor f of Delta up to units, f(T) A
    of order Delta/f, sorted by `Submodule.sort_key`.

    Per divisor T is applied deg f + d - 1 = deg Delta - 1 times
    (deg Delta times for f = Delta) and the RREF runs on d vectors:
    O(g^3) rational operations in the genus g, against O(g^4) when f(T)
    is applied to all 2g unit vectors.
    """
    return _images(mod, lambda delta, f: True)


def orthogonal_complement(mod, p: Submodule) -> Submodule:
    """P-perp for the Blanchfield form, by exact linear algebra: x is in
    P-perp iff the residue of Bl(x, b) vanishes for each basis row b of P,
    one linear condition per residue coefficient."""
    n = mod.dim  # = deg Delta, the number of residue coefficients
    rows = []
    std = _unit_vectors(n)
    for pv in p.basis:
        conds = [[F(0)] * n for _ in range(n)]
        for j, bj in enumerate(std):
            for k, c in enumerate(mod.blanchfield(bj, pv)):
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


def _isotropic_divisor(r, delta, f):
    """Whether f(T) A is isotropic, for Bl(g, g) = r/Delta (`is_isotropic`
    has the proof): Delta | r f rev(f)."""
    return not polys.rem(polys.mul(r, polys.mul(f, f[::-1])), delta)


def is_isotropic(mod, p: Submodule) -> bool:
    """Whether Bl vanishes on P, decided from one Blanchfield value.

    On a cyclic module A = Q[t]/(Delta) with generator g, P = f(T) A for
    f = Delta / order(P), and sesquilinearity gives
    Bl(a f g, b f g) = a b-bar f f-bar Bl(g, g) (Levine, Knot modules I).
    With Bl(g, g) = r/Delta, P is isotropic iff Delta divides
    r f f-bar = t^(-deg f) r f rev(f): the case a = b = 1 is necessary,
    and it makes every other value a Laurent multiple of an integral one.
    Delta(0) != 0, so Delta | r f rev(f) in Q[t] is the test; r = 0 makes
    every submodule isotropic.  Raises UnsupportedModule off cyclic
    modules.
    """
    if not mod.is_cyclic:
        raise UnsupportedModule("isotropy is decided on cyclic modules only")
    g = mod.generator()
    delta, _ = mod.delta.to_dense()
    order, _ = p.order_ideal.to_dense()
    return _isotropic_divisor(list(mod.blanchfield(g, g)), delta,
                              polys.exact_div(delta, order))


def _isotropic_images(mod, lagrangian_only):
    """The isotropic images f(T) A, sorted as `submodules_cyclic` sorts
    them: each divisor f of Delta is tested first (`_isotropic_divisor`,
    and 2 deg f = deg Delta for a Lagrangian, since f(T) A has dimension
    deg Delta - deg f), and only the divisors that pass get a basis."""
    if not mod.is_cyclic:
        raise UnsupportedModule(_NOT_CYCLIC)
    g = mod.generator()
    r = list(mod.blanchfield(g, g))
    return _images(mod, lambda delta, f: (
        (not lagrangian_only or 2 * polys.deg(f) == mod.dim)
        and _isotropic_divisor(r, delta, f)))


def isotropic_submodules(mod):
    """All isotropic submodules: the images f(T) A of a cyclic module with
    Delta | r f rev(f), r the residue of Bl(g, g) = r/Delta for a generator
    g (`is_isotropic` has the proof), each divisor tested before its basis
    is built.  Raises UnsupportedModule off-catalogue.
    """
    return _isotropic_images(mod, lagrangian_only=False)


def lagrangians(mod):
    """All Lagrangians (exact half-dimensional self-annihilating
    submodules): the isotropic images f(T) A with 2 deg f = deg Delta."""
    return _isotropic_images(mod, lagrangian_only=True)
