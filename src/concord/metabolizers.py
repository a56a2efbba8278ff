"""Metabolizers of the Seifert form and derivatives of knots.

A metabolizer is a rank-g summand of Z^{2g} on which the Seifert form
vanishes.  At genus one the search is an exact binary-quadratic-form
factorization, hence complete; at higher genus the complete answer is
available for coprime block shapes, and otherwise a bounded enumeration
runs with an explicit incompleteness flag.

Derivatives are catalogue-driven: the geometric content (band cores,
string-link data) must be declared on the knot spec; the catalogue never
invents geometry it was not given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import intlinalg, polys, specs
from .alexander import AlexanderModule, Submodule, present, submodule_from_vectors
from .laurent import LaurentPoly
from .laurent import gcd as laurent_gcd
from .seifert import OMEGA_MINUS_ONE, SeifertMatrix, alexander_poly, lt_signature

F = Fraction


class WrongGenus(ValueError):
    pass


class NotRepresentable(ValueError):
    """The geometric derivative cannot be computed from the Seifert matrix
    alone; it requires declared band data."""


class NotMetabolic(ValueError):
    """Target matrix lacks the required zero block on the a-bands."""


class RankMismatch(ValueError):
    """Supplied abelian map rank is incompatible with deg Delta."""


@dataclass(frozen=True)
class Metabolizer:
    matrix: SeifertMatrix
    basis: tuple  # g primitive integer vectors, canonical sign

    @property
    def rank(self):
        return len(self.basis)


@dataclass(frozen=True)
class MetabolizerSearch:
    metabolizers: tuple
    complete: bool

    def __iter__(self):
        return iter(self.metabolizers)

    def __len__(self):
        return len(self.metabolizers)


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


def higher_genus_metabolizers(v: SeifertMatrix, search_bound: int = 3):
    """Metabolizer search above genus one.

    Complete for block-diagonal forms with pairwise-coprime block
    Alexander polynomials (blockwise products of the genus-one answers)
    and for forms of nonzero signature (empty).  Otherwise a bounded
    primitive-frame enumeration, flagged incomplete.
    """
    if v.genus < 2:
        raise WrongGenus(f"genus {v.genus} matrix; need genus >= 2")
    blocks = _diagonal_blocks(v)
    if blocks is not None:
        deltas = [alexander_poly(b) for b in blocks]
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
    return MetabolizerSearch(tuple(_bounded_search(v, search_bound)),
                             complete=False)


def _bounded_search(v: SeifertMatrix, bound: int):
    n = v.size
    g = v.genus
    vectors = []

    def gen(prefix):
        if len(prefix) == n:
            if any(prefix) and intlinalg.is_primitive(prefix):
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
            if intlinalg.spans_summand(frame, n):
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


def metabolizer_to_lagrangian(mod: AlexanderModule, m: Metabolizer) -> Submodule:
    """Submodule generated by the images (V - V^T) b_i; isotropic always,
    Lagrangian whenever deg Delta = 2g."""
    return submodule_from_vectors(mod, [mod.incl_surface(b) for b in m.basis])


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        cls = _incl_rational(mod, w)
        shifted = tuple(a - b_ for a, b_ in zip(mod.t_action(cls), cls))
        images.append(lagr.quotient_coords(shifted))
    return tuple(images), d


def _incl_rational(mod, w):
    n = mod.V.size
    e = mod.V.entries
    img = [sum((F(e[i][j] - e[j][i])) * w[j] for j in range(n)) for i in range(n)]
    return mod.class_of_polyvec([polys.const(c) for c in img])


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

def catalogued_metabolizers(spec: specs.KnotSpec, search_bound: int = 3):
    """The metabolizers the derivative catalogue can consume, in canonical
    order, with a completeness flag for the underlying search (entries
    up to search_bound where the higher-genus search is bounded)."""
    v = specs.seifert_matrix(spec)
    if v is None:
        raise NotRepresentable(f"abstract knot {spec.name} has no matrix")
    if v.genus >= 2 and isinstance(spec.family, specs.Explicit):
        try:
            return MetabolizerSearch((a_band_metabolizer(spec),), complete=False)
        except NotMetabolic:
            return MetabolizerSearch((), complete=False)
    return matrix_metabolizers(v, search_bound)


def matrix_metabolizers(v: SeifertMatrix, search_bound: int = 3):
    """The metabolizers of a Seifert form by genus: none at genus 0, the
    complete genus-one factorization, else the higher-genus search."""
    if v.genus == 0:
        return MetabolizerSearch((), complete=True)
    if v.genus == 1:
        return MetabolizerSearch(tuple(genus1_metabolizers(v)), complete=True)
    return higher_genus_metabolizers(v, search_bound)
