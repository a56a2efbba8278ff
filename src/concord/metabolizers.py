"""Metabolizers of the Seifert form and derivatives of knots.

A metabolizer is a rank-g summand of Z^{2g} on which the Seifert form
vanishes.  At genus one the search is an exact binary-quadratic-form
factorization, hence complete.  Above genus one the answer is complete
for coprime block shapes, and complete and empty when an exact gate
rules every metabolizer out: sigma(-1) != 0, or |det(V + V^T)| not a
perfect square.  Otherwise a search bounded in the entries of the
spanning vectors grows saturated isotropic lattices one rank at a time
under a work budget, and its result is flagged incomplete with the
reason: "bound", or "budget" when the budget stopped it.

Derivatives are catalogue-driven: the geometric content (band cores,
string-link data) must be declared on the knot spec; the catalogue never
invents geometry it was not given.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from . import intlinalg, polys, specs
from .alexander import AlexanderModule, Submodule, present, submodule_from_vectors
from .laurent import LaurentPoly
from .laurent import gcd as laurent_gcd
from .records import frozen
from .seifert import OMEGA_MINUS_ONE, SeifertMatrix, alexander_poly, lt_signature

F = Fraction

# The bounded metabolizer search stops once it has examined more than this
# many candidates and reports reason "budget".  A candidate is a prefix of
# an isotropic vector or a last entry it admits, a lattice-extension
# candidate, or 64 vector pairs tested for orthogonality (a unit each costs
# a few microseconds).  The largest count on the test suite and the
# benchmark corpus is about 80000.
SEARCH_BUDGET = 1_000_000


class WrongGenus(ValueError):
    pass


class NotRepresentable(ValueError):
    """The geometric derivative cannot be computed from the Seifert matrix
    alone; it requires declared band data."""


class NotMetabolic(ValueError):
    """Target matrix lacks the required zero block on the a-bands."""


class RankMismatch(ValueError):
    """Supplied abelian map rank is incompatible with deg Delta."""


@frozen
class Metabolizer:
    matrix: SeifertMatrix
    basis: tuple  # g primitive integer vectors, canonical sign


@frozen
class MetabolizerSearch:
    metabolizers: tuple
    complete: bool
    reason: str | None = None     # what ended the bounded search: "bound"
    examined: int = 0             # or "budget"; the candidates it examined

    def __iter__(self):
        return iter(self.metabolizers)

    def __len__(self):
        return len(self.metabolizers)

    def as_dict(self) -> dict:
        """The report form; reason and examined appear only when the work
        budget stopped the search."""
        out = {"complete": self.complete,
               "items": [[list(b) for b in m.basis] for m in self]}
        if self.reason == "budget":
            out.update(reason=self.reason, examined=self.examined)
        return out


def _canon_vec(vec):
    return intlinalg.sign_normalized(intlinalg.primitive_part(vec))


def genus1_metabolizers(v: SeifertMatrix):
    """All metabolizers of a genus-one form, by exact factorization of
    a u^2 + b uv + c v^2 (b is always odd, so the form is never zero)."""
    if v.genus != 1:
        raise WrongGenus(f"genus {v.genus} matrix; need genus 1")
    a = v.entries[0][0]
    b = v.entries[0][1] + v.entries[1][0]
    c = v.entries[1][1]
    lines = []
    if a == 0:
        lines.append((1, 0))
        if c == 0:
            lines.append((0, 1))
        else:
            lines.append(_canon_vec((-c, b)))
    else:
        disc = b * b - 4 * a * c
        if disc >= 0:
            s = isqrt(disc)
            if s * s == disc:
                lines.append(_canon_vec((-b + s, 2 * a)))
                if s != 0:
                    lines.append(_canon_vec((-b - s, 2 * a)))
    uniq = sorted(set(lines))
    return [Metabolizer(v, (tuple(u),)) for u in uniq]


def is_metabolizer(v: SeifertMatrix, basis) -> bool:
    """Summand condition plus identical vanishing of the Seifert form."""
    basis = [tuple(int(x) for x in b) for b in basis]
    if len(basis) != v.genus:
        return False
    for x in basis:
        for y in basis:
            if v.form(x, y) != 0:
                return False
    return intlinalg.spans_summand(basis, v.size)


def _diagonal_blocks(v: SeifertMatrix):
    """2x2 diagonal blocks if all off-block couplings vanish, else None."""
    g = v.genus
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            for a in (2 * i, 2 * i + 1):
                for b in (2 * j, 2 * j + 1):
                    if v.entries[a][b]:
                        return None
    return [SeifertMatrix.from_rows(
        [[v.entries[2 * i][2 * i], v.entries[2 * i][2 * i + 1]],
         [v.entries[2 * i + 1][2 * i], v.entries[2 * i + 1][2 * i + 1]]])
        for i in range(g)]


def higher_genus_metabolizers(v: SeifertMatrix, search_bound: int = 3,
                              delta=None):
    """Metabolizer search above genus one; delta, when given, maps a
    Seifert matrix to its Alexander polynomial (a caller's memo of
    `alexander_poly`).

    complete=True means the list holds every metabolizer of V.  That is
    so for block-diagonal forms with pairwise-coprime nontrivial block
    Alexander polynomials (blockwise products of the genus-one answers),
    and, with the list empty, for the two exact gates of Levine's
    algebraic concordance group (1969): sigma(-1) != 0, or |det(V + V^T)|
    not a perfect square (proofs at the gates).  Otherwise the bounded
    search runs and the result is flagged incomplete: reason "bound" when
    it enumerated every lattice spanned by vectors with entries in
    [-search_bound, search_bound], "budget" when it stopped after
    SEARCH_BUDGET candidates; examined counts the candidates.
    """
    if v.genus < 2:
        raise WrongGenus(f"genus {v.genus} matrix; need genus >= 2")
    blocks = _diagonal_blocks(v)
    if blocks is not None:
        deltas = [(delta or alexander_poly)(b) for b in blocks]
        # unit block polynomials admit metabolizers far beyond the
        # blockwise ones, so completeness needs nontrivial coprime blocks
        coprime = all(d.span > 0 for d in deltas) and all(
            laurent_gcd(deltas[i], deltas[j]) == LaurentPoly.one()
            for i in range(len(blocks)) for j in range(i + 1, len(blocks)))
        if coprime:
            per_block = [genus1_metabolizers(b) for b in blocks]
            combos = [[]]
            for k, ms in enumerate(per_block):
                combos = [c + [m] for c in combos for m in ms]
            out = []
            for combo in combos:
                basis = []
                for k, m in enumerate(combo):
                    u = m.basis[0]
                    vec = [0] * v.size
                    vec[2 * k], vec[2 * k + 1] = u[0], u[1]
                    basis.append(tuple(vec))
                out.append(Metabolizer(v, tuple(basis)))
            return MetabolizerSearch(tuple(out), complete=True)
    # V + V^T is nonsingular (its determinant is det(V - V^T) = 1 mod 2)
    # and vanishes on a metabolizer, a half-dimensional subspace, so a
    # metabolic V has signature 0
    if lt_signature(v, OMEGA_MINUS_ONE) != 0:
        return MetabolizerSearch((), complete=True)
    if not _square_determinant(v):
        return MetabolizerSearch((), complete=True)
    return _bounded_search(v, search_bound)


def _square_determinant(v: SeifertMatrix) -> bool:
    """Whether |det(V + V^T)| is a perfect square, as it is when V has a
    metabolizer M.

    Extend a basis of the summand M to a basis of Z^2g, with unimodular
    change of basis P.  Then P^T V P = [[0, A], [B, C]] and
    P^T (V + V^T) P = [[0, A + B^T], [A^T + B, C + C^T]], whose
    determinant is (-1)^g det(A + B^T)^2; det P = +-1, so
    |det(V + V^T)| = det(A + B^T)^2.  The determinant comes from the
    fraction-free integer elimination."""
    e = v.entries
    det, _ = polys.bareiss([[[x + y] if x + y else [] for x, y in zip(row, col)]
                            for row, col in zip(e, zip(*e))])
    d = abs(int(det[0]))
    return isqrt(d) ** 2 == d


def _bounded_search(v: SeifertMatrix, bound: int) -> MetabolizerSearch:
    """Every metabolizer spanned by primitive isotropic vectors with
    entries in [-bound, bound], sorted by HNF basis; complete=False
    always, with reason "bound", or "budget" when more than SEARCH_BUDGET
    candidates would be examined (the list then holds those found)."""
    budget = _Budget(SEARCH_BUDGET)
    found = {}
    try:
        vectors = _isotropic_vectors(v, bound, budget)
        orth = _orthogonality(v, vectors, bound, budget)
        _grow_lattices(v, vectors, orth, budget, found)
        reason = "bound"
    except _Exhausted:
        reason = "budget"
    return MetabolizerSearch(
        tuple(sorted(found.values(), key=lambda m: m.basis)),
        complete=False, reason=reason, examined=budget.used)


class _Exhausted(Exception):
    pass


class _Budget:
    """Counts the candidates one search examines; raises _Exhausted once
    the count passes the limit."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, count):
        self.used += count
        if self.used > self.limit:
            raise _Exhausted


def _last_coordinates(a, b, c, bound):
    """The integers t in [-bound, bound] with a t^2 + b t + c = 0."""
    if a == 0:
        if b == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        roots = (-c // b,) if c % b == 0 else ()
    else:
        disc = b * b - 4 * a * c
        s = isqrt(max(disc, 0))
        if s * s != disc:
            return ()
        roots = {x // (2 * a) for x in (-b + s, -b - s) if x % (2 * a) == 0}
    return sorted(t for t in roots if -bound <= t <= bound)


def _isotropic_vectors(v: SeifertMatrix, bound: int, budget: _Budget):
    """The primitive x in [-bound, bound]^2g, first nonzero entry positive,
    with x^T V x = 0, in lexicographic order.

    Only the sign-normalized prefixes of 2g - 1 entries are enumerated:
    each leaves a quadratic (or linear, or constant) equation in the
    last entry, solved exactly."""
    e = v.entries
    last = v.size - 1
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(e, zip(*e))]
    out = []

    def grow(prefix, c, lin, g):
        # over the prefix: c = x^T V x, lin[j] = sum_i (V + V^T)[i][j] x_i,
        # g = gcd of the entries
        d = len(prefix)
        if d == last:
            # the prefix and each last entry it admits: when the equation
            # vanishes identically that is all 2 bound + 1 of them
            roots = _last_coordinates(e[d][d], lin[d], c, bound)
            budget.spend(1 + len(roots))
            for t in roots:
                if gcd(g, t) == 1 and (g or t > 0):
                    out.append((*prefix, t))
            return
        row = sym[d]
        for x in range(0 if g == 0 else -bound, bound + 1):
            grow(prefix + [x], c + (e[d][d] * x + lin[d]) * x,
                 [l + r * x for l, r in zip(lin, row)], gcd(g, x))

    grow([], 0, [0] * v.size, 0)
    return out


def _split_off(cols, k, image):
    """Integer column operations on cols[k:] (the columns of a unimodular
    C) that take the primitive row image = (w C)[k:] to (+-1, 0, ..., 0)."""
    cols = list(cols)
    image = list(image)
    while True:
        nz = [i for i, x in enumerate(image) if x]
        p = min(nz, key=lambda i: abs(image[i]))
        if len(nz) == 1:
            break
        for i in nz:
            q = image[i] // image[p]
            if i != p and q:
                image[i] -= q * image[p]
                cols[k + i] = [x - q * y for x, y in zip(cols[k + i], cols[k + p])]
    cols[k], cols[k + p] = cols[k + p], cols[k]
    return cols


def _orthogonality(v: SeifertMatrix, vectors, bound: int, budget: _Budget):
    """orth[i]: the bitmask of the j != i with V(x_i, x_j) = V(x_j, x_i) = 0.

    Row i is one exact integer combination of packed columns: field j of
    sum_t c_t P_t, with P_t holding entry t of every vector and
    c = V x + k V^T x, is x_j . c, which is 0 iff both values are, since
    |x_j . V x| < k."""
    m = len(vectors)
    budget.spend(m * (m - 1) // 128)
    if not m:
        return []
    e = v.entries
    cols_v = [[sum(map(mul, row, w)) for row in e] for w in vectors]
    cols_vt = [[sum(map(mul, col, w)) for col in zip(*e)] for w in vectors]
    k = 1 + bound * max(sum(map(abs, c)) for c in cols_v)
    coeffs = [[a + k * b for a, b in zip(x, y)] for x, y in zip(cols_v, cols_vt)]
    top = bound * max(sum(map(abs, c)) for c in coeffs)
    # fields of `size` bytes, each x_j . c + half in (0, 2 half)
    size = (top.bit_length() + 1) // 8 + 1
    half = 1 << (8 * size - 1)
    zero = half.to_bytes(size, "little")
    offset = int.from_bytes(zero * m, "little")
    packed = [int.from_bytes(b"".join((w[t] + half).to_bytes(size, "little")
                                      for w in vectors), "little") - offset
              for t in range(v.size)]
    orth = []
    for i, c in enumerate(coeffs):
        fields = (sum(a * p for a, p in zip(c, packed) if a) + offset
                  ).to_bytes(m * size, "little")
        mask = 0
        pos = fields.find(zero)
        while pos >= 0:
            if pos % size:
                pos = fields.find(zero, pos + 1)
            else:
                mask |= 1 << (pos // size)
                pos = fields.find(zero, pos + size)
        orth.append(mask & ~(1 << i))
    return orth


def _frame_columns(vectors, frame, n):
    """Columns of a unimodular C with (span of the frame) C = Z^k + 0; each
    prefix of the frame spans a summand."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for k, i in enumerate(frame):
        w = vectors[i]
        cols = _split_off(cols, k, [sum(map(mul, w, c)) for c in cols[k:]])
    return cols


def _grow_lattices(v: SeifertMatrix, vectors, orth, budget: _Budget,
                   found: dict):
    """Fill found (HNF key -> Metabolizer) with the rank-g saturated
    isotropic lattices spanned by frames of vectors.

    A frame spanning a summand has every sub-frame spanning a summand: if
    M is not saturated and w is not in QM, (M + Zw) meets QM in M, not in
    sat(M).  So the lattices grow one rank per level through saturated
    states only, each kept once under its HNF with a frame spanning it.
    A state of rank k has a unimodular C with M C inside Z^k + 0; a
    vector w orthogonal to M both ways extends it to a summand iff its
    image (w C)[k:] in Z^n / M is primitive, and images equal up to sign
    give the same lattice.  A state grows only by vectors of index above
    the least last index of a frame spanning it, and a new state is kept
    only if enough orthogonal vectors lie above that index to reach rank
    g: every frame of a rank-g lattice still passes."""
    n, g = v.size, v.genus
    # [frame, least last index], under the HNF from rank 2 on; bits of
    # masks shifted by j + 1 stand for the vectors above index j
    states = [[(i,), i] for i in range(len(vectors))
              if (orth[i] >> (i + 1)).bit_count() >= g - 1]
    for k in range(1, g):
        grown = {}
        for frame, low in states:
            mask = orth[frame[0]]
            for i in frame[1:]:
                mask &= orth[i]
            tail = _frame_columns(vectors, frame, n)[k:]
            bits, j = mask >> (low + 1), low
            budget.spend(bits.bit_count())
            images = set()
            while bits:
                step = (bits & -bits).bit_length()
                bits >>= step
                j += step
                if k + 1 < g and (
                        bits & (orth[j] >> (j + 1))).bit_count() < g - k - 1:
                    continue
                w = vectors[j]
                image = [sum(map(mul, w, c)) for c in tail]
                if gcd(*image) != 1:
                    continue
                key = intlinalg.sign_normalized(image)
                if key in images:
                    continue
                images.add(key)
                key = intlinalg.hermite_normal_form(
                    [vectors[i] for i in frame] + [w])
                if k + 1 == g:
                    if key not in found:
                        found[key] = Metabolizer(v, key)
                elif key in grown:
                    grown[key][1] = min(grown[key][1], j)
                else:
                    grown[key] = [frame + (j,), j]
        states = grown.values()


def metabolizer_to_lagrangian(mod: AlexanderModule, m: Metabolizer) -> Submodule:
    """Submodule generated by the images (V - V^T) b_i; isotropic always,
    Lagrangian whenever deg Delta = 2g."""
    return submodule_from_vectors(mod, [mod.incl_surface(b) for b in m.basis])


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

@frozen
class DerivativeLink:
    """A derivative link read off the family catalogue: component knot
    types, declared inter-component structure, and the canonical abelian
    map recorded as per-component meridian images in A0/P coordinates."""

    link: specs.LinkSpec
    metabolizer: Metabolizer
    f_images: tuple   # per component, tuple of Fractions (length = f_rank)
    f_rank: int

    @property
    def is_knot(self):
        return self.link.component_count == 1

    @property
    def components(self):
        return self.link.components


def _dual_partner(v: SeifertMatrix, b):
    """Rational w with b^T (V - V^T) w = 1 (intersection-dual direction)."""
    n = v.size
    row = [F(v.intersection(b, [1 if k == j else 0 for k in range(n)]))
           for j in range(n)]
    for j in range(n):
        if row[j] != 0:
            w = [F(0)] * n
            w[j] = 1 / row[j]
            return w
    raise ArithmeticError("degenerate intersection pairing")


def _canonical_f(v: SeifertMatrix, mod, lagr, basis):
    """Meridian images of the derivative components in A0/P coordinates.

    The meridian of the band carrying component i has module class
    (t - 1) times the image of the intersection-dual direction.
    """
    if mod.dim == 0:
        return tuple(() for _ in basis), 0
    d = mod.dim - lagr.dim
    images = []
    for b in basis:
        w = _dual_partner(v, b)
        cls = mod.incl_surface(w)
        shifted = tuple(a - b_ for a, b_ in zip(mod.t_action(cls), cls))
        images.append(lagr.quotient_coords(shifted))
    return tuple(images), d


def _torus_spec(n: int) -> specs.KnotSpec:
    name = f"torus({n},{1 - n})"
    if n in (0, 1):
        return specs.KnotSpec(name, specs.Unknot())
    return specs.KnotSpec(name, specs.Torus(n, 1 - n))


def _knot_derivative(spec, component):
    return specs.LinkSpec(name=f"d({spec.name};{component.name})",
                          components=(component,), structure="knot")


def derivative(spec: specs.KnotSpec, m: Metabolizer,
               mod: AlexanderModule | None = None) -> DerivativeLink:
    """The derivative link with respect to a catalogued metabolizer.

    mod is the knot's Alexander module, presented here when not given.
    Raises NotRepresentable when the (family, metabolizer) pair is not in
    the catalogue: the answer would depend on undeclared geometry.
    """
    link = _derivative_link(spec, m)
    v = specs.seifert_matrix(spec)
    if mod is None:
        mod = present(v)
    lagr = metabolizer_to_lagrangian(mod, m)
    f_images, f_rank = _canonical_f(v, mod, lagr, m.basis)
    return DerivativeLink(link, m, f_images, f_rank)


def _derivative_link(spec, m) -> specs.LinkSpec:
    fam = spec.family
    if isinstance(fam, specs.Twist):
        if not all(isinstance(c.family, specs.Unknot) for c in fam.cores):
            raise NotRepresentable(
                "twist-family derivative with knotted band cores is not "
                "catalogued")
        (u, k), = m.basis
        if u != 1 or not is_metabolizer(m.matrix, m.basis):
            raise NotRepresentable(f"({u}, {k}) is not a catalogued "
                                   "twist-family metabolizer")
        return _knot_derivative(spec, _torus_spec(k))
    if isinstance(fam, specs.GenusOne):
        vec, = m.basis
        cores = fam.cores or (specs.unknot_spec(f"{spec.name}.core1"),
                              specs.unknot_spec(f"{spec.name}.core2"))
        if vec == (1, 0):
            return _knot_derivative(spec, cores[0])
        if vec == (0, 1) and fam.tw == 0:
            return _knot_derivative(spec, cores[1])
        raise NotRepresentable(
            "only the band-core metabolizers of the doubled-band family "
            "have catalogued derivatives")
    if isinstance(fam, specs.GenusTwoFig9):
        return _fig9_derivative(spec, m)
    if isinstance(fam, specs.ConnectedSum):
        return _sum_derivative(spec, m)
    if isinstance(fam, specs.Explicit):
        return _explicit_derivative(spec, m)
    raise NotRepresentable(
        f"family {type(fam).__name__} has no derivative catalogue")


def _block_line(vec, block):
    """Which band of a 2x2 block a basis vector runs over: 1, 2 or None."""
    lo = 2 * block
    pair = (vec[lo], vec[lo + 1])
    if any(vec[:lo]) or any(vec[lo + 2:]):
        return None
    if pair == (1, 0):
        return 1
    if pair == (0, 1):
        return 2
    return None


def _fig9_derivative(spec, m):
    fam = spec.family
    if len(fam.L) != 2 or len(fam.LL) != 2 or fam.B is None:
        raise NotRepresentable("two-block family needs declared L, LL and B")
    i = j = None
    for vec in m.basis:
        if _block_line(vec, 0) is not None:
            i = _block_line(vec, 0)
        elif _block_line(vec, 1) is not None:
            j = _block_line(vec, 1)
    if i is None or j is None:
        raise NotRepresentable("metabolizer is not one of the four blockwise "
                               "band choices")
    comp1 = fam.L[i - 1]
    comp2 = fam.LL[j - 1]
    infections = [specs.LinkInfection(comp1)]
    if (i, j) != (1, 2):
        infections.append(specs.LinkInfection(fam.B))
    infections.append(specs.LinkInfection(comp2))
    structure = "split" if (i, j) == (1, 2) else "boundary"
    return specs.LinkSpec(name=f"{spec.name}.J{i}{j}",
                          components=(comp1, comp2),
                          structure=structure,
                          infections=tuple(infections))


def _sum_derivative(spec, m):
    fam = spec.family
    part_mats = []
    for part in fam.parts:
        pv = specs.seifert_matrix(part)
        if pv is None:
            raise NotRepresentable("connected sum with abstract summand")
        part_mats.append(pv)
    basis = sorted(m.basis, key=lambda vec: next(
        k for k, x in enumerate(vec) if x))
    if len(basis) != len(fam.parts):
        raise NotRepresentable("metabolizer rank must match summand count")
    comps = []
    offset = 0
    for part, pv, vec in zip(fam.parts, part_mats, basis):
        seg = tuple(vec[offset:offset + pv.size])
        if any(vec[:offset]) or any(vec[offset + pv.size:]):
            raise NotRepresentable("metabolizer mixes connected summands")
        sub_m = Metabolizer(pv, (seg,))
        comps.append(_derivative_link(part, sub_m).components[0])
        offset += pv.size
    return specs.LinkSpec(name=f"d({spec.name})", components=tuple(comps),
                          structure="boundary")


def a_band_basis(v: SeifertMatrix):
    """The even-index band vectors (the a-bands of an explicit surface)."""
    return tuple(tuple(1 if k == 2 * i else 0 for k in range(v.size))
                 for i in range(v.genus))


def _explicit_derivative(spec, m):
    fam = spec.family
    v = fam.matrix
    expected = intlinalg.hermite_normal_form(a_band_basis(v))
    got = intlinalg.hermite_normal_form(m.basis)
    if expected != got:
        raise NotRepresentable(
            "explicit-family derivatives are catalogued only for the "
            "a-band metabolizer; other metabolizers need declared band data")
    g = v.genus
    cores = fam.band_cores or tuple(
        specs.unknot_spec(f"{spec.name}.a{i + 1}") for i in range(g))
    if len(cores) != g:
        raise NotRepresentable("band core declarations must cover all a-bands")
    structure = "knot" if g == 1 else "declared"
    return specs.LinkSpec(name=f"d({spec.name})", components=tuple(cores),
                          structure=structure)


# ---------------------------------------------------------------------------
# Antiderivatives
# ---------------------------------------------------------------------------

def antiderivative(components, target: SeifertMatrix,
                   f_rank: int | None = None) -> specs.KnotSpec:
    """A knot spec in the explicit-band family realizing the target
    Seifert matrix with the given link as its a-band derivative."""
    g = target.genus
    components = tuple(components)
    if len(components) != g:
        raise RankMismatch(
            f"{len(components)} components cannot fill {g} a-bands")
    for i in range(g):
        for j in range(g):
            if target.entries[2 * i][2 * j]:
                raise NotMetabolic(
                    "target matrix has no zero block on the a-bands")
    if f_rank is not None:
        span = alexander_poly(target).span
        if span != 2 * f_rank:
            raise RankMismatch(
                f"deg Delta = {span} but the abelian map has rank {f_rank}")
    name = "int(" + ",".join(c.name for c in components) + ")"
    return specs.KnotSpec(name, specs.Explicit(target, components))


def a_band_metabolizer(spec: specs.KnotSpec) -> Metabolizer:
    v = specs.seifert_matrix(spec)
    basis = a_band_basis(v)
    m = Metabolizer(v, basis)
    if not is_metabolizer(v, basis):
        raise NotMetabolic("a-bands do not span a metabolizer")
    return m


# ---------------------------------------------------------------------------
# Catalogued metabolizers of family knots
# ---------------------------------------------------------------------------

def catalogued_metabolizers(spec: specs.KnotSpec, search_bound: int = 3,
                            delta=None):
    """The metabolizers the derivative catalogue can consume, in canonical
    order, with a completeness flag for the underlying search (entries
    up to search_bound where the higher-genus search is bounded; delta as
    in `higher_genus_metabolizers`)."""
    v = specs.seifert_matrix(spec)
    if v is None:
        raise NotRepresentable(f"abstract knot {spec.name} has no matrix")
    if v.genus >= 2 and isinstance(spec.family, specs.Explicit):
        try:
            return MetabolizerSearch((a_band_metabolizer(spec),), complete=False)
        except NotMetabolic:
            return MetabolizerSearch((), complete=False)
    return matrix_metabolizers(v, search_bound, delta)


def matrix_metabolizers(v: SeifertMatrix, search_bound: int = 3,
                        delta=None):
    """The metabolizers of a Seifert form by genus: none at genus 0, the
    complete genus-one factorization, else the higher-genus search."""
    if v.genus == 0:
        return MetabolizerSearch((), complete=True)
    if v.genus == 1:
        return MetabolizerSearch(tuple(genus1_metabolizers(v)), complete=True)
    return higher_genus_metabolizers(v, search_bound, delta)
