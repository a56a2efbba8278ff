"""Symbolic signature expressions and the infection calculus.

Values of first- and second-order signatures are formal rational-linear
combinations of atoms: numerically resolvable averaged signatures of
named knots, opaque metabelian symbols, and constants.  Infection along
a curve adds the infecting knot's averaged signature exactly when the
curve survives into the metabelian quotient, which for curves in the
commutator subgroup is a rational linear-algebra membership test.

Opaque symbols are never silently assumed zero: they resolve only
through user-supplied assumptions, and every consumer reports which
assumptions it consumed.
"""

from __future__ import annotations

from fractions import Fraction

from . import alexander, specs
from .alexander import Submodule
from .certified import Interval
from .records import field, frozen

F = Fraction


class NotIsotropic(ValueError):
    pass


class MissingBaseFact(ValueError):
    """No declared base value for this submodule's metabelian signature."""


class UnsupportedLink(ValueError):
    """Link class outside the closed first-order catalogue."""


# ---------------------------------------------------------------------------
# Atoms and expressions
# ---------------------------------------------------------------------------

@frozen
class Atom:
    kind: str   # "rho0" | "rho1"
    name: str   # e.g. "rho0(J1)", "rho1(9_46)"
    spec: object = field(default=None, compare=False)

    def sort_key(self):
        return (0 if self.kind == "rho1" else 1, self.name)


def rho0_atom(spec: specs.KnotSpec) -> Atom:
    return Atom("rho0", f"rho0({spec.name})", spec)


def rho1_atom(name: str, spec=None) -> Atom:
    return Atom("rho1", f"rho1({name})", spec)


@frozen
class SigExpr:
    """Canonical rational-linear combination of atoms plus a constant."""

    terms: tuple = ()        # ((Atom, Fraction), ...) sorted, no zero coeffs
    const: Fraction = F(0)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls((), F(c))

    @classmethod
    def of_atom(cls, atom, coeff=1):
        coeff = F(coeff)
        if coeff == 0:
            return cls()
        return cls(((atom, coeff),), F(0))

    @staticmethod
    def _normal(pairs, const):
        acc = {}
        for a, c in pairs:
            acc[a] = acc.get(a, F(0)) + c
        items = [(a, c) for a, c in acc.items() if c != 0]
        items.sort(key=lambda ac: ac[0].sort_key())
        return SigExpr(tuple(items), const)

    def __add__(self, other):
        if isinstance(other, SigExpr):
            return self._normal(self.terms + other.terms,
                                self.const + other.const)
        return SigExpr(self.terms, self.const + F(other))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = F(c)
        if c == 0:
            return SigExpr()
        return SigExpr(tuple((a, k * c) for a, k in self.terms), self.const * c)

    @property
    def is_zero_expr(self):
        return not self.terms and self.const == 0

    @property
    def atoms(self):
        return tuple(a for a, _ in self.terms)

    def substitute(self, values):
        """Replace atoms by exact rational values (by atom name)."""
        const = self.const
        keep = []
        for a, c in self.terms:
            if a.name in values:
                const += c * F(values[a.name])
            else:
                keep.append((a, c))
        return SigExpr._normal(keep, const)

    def render(self) -> str:
        if self.is_zero_expr:
            return "0"
        parts = []
        for a, c in self.terms:
            parts.append((c, a.name))
        out = ""
        for i, (c, name) in enumerate(parts):
            mag = abs(c)
            body = name if mag == 1 else f"{mag}*{name}"
            if i == 0:
                out = ("-" if c < 0 else "") + body
            else:
                out += f" - {body}" if c < 0 else f" + {body}"
        if self.const != 0:
            mag = abs(self.const)
            if out:
                out += f" - {mag}" if self.const < 0 else f" + {mag}"
            else:
                out = str(self.const)
        return out

    def __repr__(self):
        return f"SigExpr({self.render()!r})"


# ---------------------------------------------------------------------------
# Assumptions
# ---------------------------------------------------------------------------

_SIGN_INTERVALS = {
    "positive": Interval(F(0), None, lo_open=True),
    "negative": Interval(None, F(0), hi_open=True),
    "nonnegative": Interval(F(0), None),
    "nonpositive": Interval(None, F(0)),
}


@frozen
class Assumption:
    kind: str        # value | interval | sign
    value: str = ""  # rational string or sign tag
    lo: str | None = None
    hi: str | None = None
    provenance: str = ""

    def interval(self) -> Interval | None:
        if self.kind == "value":
            return Interval.point(F(self.value))
        if self.kind == "interval":
            return Interval(None if self.lo is None else F(self.lo),
                            None if self.hi is None else F(self.hi))
        if self.kind == "sign":
            return _SIGN_INTERVALS.get(self.value)  # None for "nonzero"
        return None

    @property
    def is_nonzero_only(self):
        return self.kind == "sign" and self.value == "nonzero"


class Assumptions:
    """Immutable-by-convention mapping atom name -> Assumption."""

    def __init__(self, entries=None):
        self._map = dict(entries or {})

    def get(self, name):
        return self._map.get(name)

    def names(self):
        return sorted(self._map)

    def merged(self, other: "Assumptions") -> "Assumptions":
        out = dict(self._map)
        out.update(other._map)
        return Assumptions(out)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise specs.SchemaError("assumptions must be an object mapping "
                                    "atom names to value, sign or interval")
        entries = {}
        for name, body in doc.items():
            if not isinstance(body, dict):
                raise specs.SchemaError(
                    f"assumption {name!r} must be an object, got {body!r}")
            if "value" in body:
                entries[name] = _assumption(name, "value", str(body["value"]))
            elif "sign" in body:
                entries[name] = _assumption(name, "sign", body["sign"])
            elif "interval" in body:
                bounds = body["interval"]
                if not (isinstance(bounds, list) and len(bounds) == 2):
                    raise specs.SchemaError(
                        f"assumption {name!r}: interval must be [lo, hi], "
                        f"got {bounds!r}")
                lo, hi = (None if b is None else str(b) for b in bounds)
                entries[name] = _assumption(name, "interval", lo=lo, hi=hi)
            else:
                raise specs.SchemaError(
                    f"assumption {name!r} needs value, sign or interval")
        return cls(entries)

    @classmethod
    def from_facts(cls, knot_specs):
        """Evaluate-time assumptions contributed by declared facts."""
        entries = {}
        for top in knot_specs:
            for spec in specs.iter_specs(top):
                for fct in spec.facts:
                    if fct.kind == "sigvalue":
                        entries[fct.atom] = _assumption(
                            fct.atom, "value", fct.value,
                            provenance=fct.provenance)
                    elif fct.kind == "siginterval":
                        entries[fct.atom] = _assumption(
                            fct.atom, "interval", lo=fct.lo, hi=fct.hi,
                            provenance=fct.provenance)
                    elif fct.kind == "sigsign":
                        entries[fct.atom] = _assumption(
                            fct.atom, "sign", fct.value,
                            provenance=fct.provenance)
        return cls(entries)


def _assumption(name, kind, value="", lo=None, hi=None, provenance=""):
    """An Assumption whose rationals and sign tag are checked."""
    ctx = f"assumption {name!r}"
    if kind == "value":
        specs.rational_text(value, ctx)
    elif kind == "sign":
        specs.sign_tag(value, ctx)
    for bound in (lo, hi):
        if bound is not None:
            specs.rational_text(bound, ctx)
    if lo is not None and hi is not None and F(hi) < F(lo):
        raise specs.SchemaError(f"{ctx}: empty interval [{lo}, {hi}]")
    return Assumption(kind, value, lo=lo, hi=hi, provenance=provenance)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@frozen
class EvalResult:
    """Outcome of evaluating a SigExpr: a certified enclosure when fully
    resolved, otherwise the residual symbolic atoms alongside the
    enclosure of the resolved part."""

    interval: Interval
    unresolved: tuple = ()
    nonzero: bool = False
    assumptions_used: tuple = ()

    @property
    def certified(self):
        return not self.unresolved

    @property
    def is_exact_zero(self):
        return self.certified and self.interval.is_exact_zero

    @property
    def excludes_zero(self):
        return self.certified and (self.interval.excludes_zero or self.nonzero)


def evaluate(expr: SigExpr, assumptions: Assumptions, rho0) -> EvalResult:
    """Resolve opaque atoms by assumption and rho0 atoms through rho0;
    assumptions win over computation when both apply.  rho0 maps a knot
    spec to its certified rho0 Interval (None if it has no matrix)."""
    interval = Interval.point(expr.const)
    unresolved = []
    used = []
    nonzero_single = False
    for atom, coeff in expr.terms:
        a = assumptions.get(atom.name)
        if a is not None:
            iv = a.interval()
            used.append(atom.name)
            if iv is not None:
                interval = interval + iv.scale(coeff)
                continue
            if a.is_nonzero_only:
                if len(expr.terms) == 1 and expr.const == 0:
                    nonzero_single = True
                else:
                    unresolved.append(atom)
                continue
        if atom.kind == "rho0" and atom.spec is not None:
            cert = rho0(atom.spec)
            if cert is not None:
                interval = interval + cert.scale(coeff)
                continue
        unresolved.append(atom)
    return EvalResult(interval, tuple(unresolved),
                      nonzero=nonzero_single and not unresolved,
                      assumptions_used=tuple(sorted(set(used))))


# ---------------------------------------------------------------------------
# Infection descriptions and first-order signatures
# ---------------------------------------------------------------------------

@frozen
class ResolvedSite:
    eta: tuple | None          # module coordinates; None = second-derived
    infect: specs.KnotSpec


@frozen
class InfectionDesc:
    """A knot presented as infections on a base knot whose metabelian
    base values are declared per submodule."""

    base: specs.KnotSpec
    module: alexander.AlexanderModule = field(compare=False)
    base_terms: tuple = ()     # ((submodule basis, SigExpr), ...)
    sites: tuple = ()          # ResolvedSites

    def base_term_for(self, p: Submodule):
        for basis, expr in self.base_terms:
            if basis == p.basis:
                return expr
        return None


def first_order_sig(desc: InfectionDesc, p: Submodule) -> SigExpr:
    """Base value plus the averaged signatures of the infections whose
    curves survive into the quotient by p."""
    if not alexander.is_isotropic(desc.module, p):
        raise NotIsotropic("first-order signatures index isotropic submodules")
    if desc.module.dim == 0:
        return SigExpr.zero()
    base = desc.base_term_for(p)
    if base is None:
        if p.is_zero:
            base = SigExpr.of_atom(rho1_atom(desc.base.name, desc.base))
        else:
            raise MissingBaseFact(
                f"no declared base value for a {p.dim}-dimensional submodule "
                f"of {desc.base.name}")
    out = base
    for site in desc.sites:
        if site.eta is None:
            continue  # deeper than the second derived subgroup
        if not p.contains(site.eta):
            out = out + SigExpr.of_atom(rho0_atom(site.infect))
    return out


# ---------------------------------------------------------------------------
# Links: the closed catalogue
# ---------------------------------------------------------------------------

def rho0_of_infected_trivial_link(link: specs.LinkSpec) -> SigExpr:
    """Averaged signature of an infected trivial link under its abelian
    map: infections along curves with nontrivial image contribute their
    knot's averaged signature; everything else contributes nothing."""
    out = SigExpr.zero()
    if link.infections:
        for inf in link.infections:
            if inf.nontrivial:
                out = out + SigExpr.of_atom(rho0_atom(inf.infect))
        return out
    for comp in link.components:
        out = out + SigExpr.of_atom(rho0_atom(comp))
    return out


def declared_rho0(link: specs.LinkSpec) -> SigExpr | None:
    """Declared averaged-signature expression, if the link description carries one."""
    if not link.declared_rho0:
        return None
    out = SigExpr.zero()
    for atom_name, coeff in link.declared_rho0:
        if atom_name == "const":
            out = out + SigExpr.constant(F(coeff))
        else:
            kind = "rho1" if atom_name.startswith("rho1") else "rho0"
            out = out + SigExpr.of_atom(Atom(kind, atom_name), F(coeff))
    return out


def first_order_sigs_of_supported_link(link: specs.LinkSpec, knot_fos):
    """First-order signature expressions for the catalogued link classes.

    knot_fos: callback KnotSpec -> list[SigExpr] (complete first-order
    set of a knot).  Raises UnsupportedLink off the catalogue.
    """
    if link.structure == "knot" or link.component_count == 1:
        return list(knot_fos(link.components[0]))
    if link.structure == "clasp_fig12":
        if link.component_count != 2:
            raise UnsupportedLink("clasped pattern needs two components")
        j1, j2 = link.components
        base = knot_fos(j1)
        if isinstance(j2.family, specs.Unknot):
            return _dedupe(list(base))   # the optional addition is exactly 0
        extra = SigExpr.of_atom(rho0_atom(j2))
        out = list(base) + [s + extra for s in base]
        return _dedupe(out)
    if link.structure in ("split", "boundary"):
        sets = [knot_fos(c) for c in link.components]
        out = [SigExpr.zero()]
        for s in sets:
            out = [a + b for a in out for b in s]
        return _dedupe(out)
    raise UnsupportedLink(
        f"link class {link.structure!r} is outside the first-order "
        "catalogue; there is very little to compute from here without "
        "declared structure")


def _dedupe(exprs):
    seen = []
    for e in exprs:
        if e not in seen:
            seen.append(e)
    return seen


# ---------------------------------------------------------------------------
# Alexander nullity rule table
# ---------------------------------------------------------------------------

def nullity(obj) -> int | None:
    """Rule-table Alexander nullity; None means Unknown.

    Knots always have nullity 0.  Boundary, split and infected trivial
    links have maximal nullity m - 1 under the abelianization.  Declared
    values win for declared link classes.
    """
    if isinstance(obj, specs.KnotSpec):
        return 0
    if not isinstance(obj, specs.LinkSpec):
        raise TypeError("nullity expects a knot or link spec")
    if obj.component_count == 1:
        return 0
    if obj.declared_nullity is not None:
        return obj.declared_nullity
    if obj.structure in ("split", "boundary", "infected_trivial"):
        return obj.component_count - 1
    return None
