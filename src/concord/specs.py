"""Structured knot and link descriptions: the toolkit's ingestion model.

A KnotSpec names a knot and says how it is built: a family constructor
(twist, torus, the genus-one doubled-band shape, the genus-two
two-block shape, connected sums), an explicit Seifert matrix with
optional band-core declarations, or an abstract knot known only by
name.  Declared facts carry provenance strings and feed the signature
calculus; infection sites describe satellite operations along curves
in the commutator subgroup.
"""

from __future__ import annotations

from fractions import Fraction

from . import seifert as sf
from .laurent import MAX_FACTOR_DEGREE, UnsupportedDegree
from .records import frozen
from .seifert import SeifertMatrix

F = Fraction


class SchemaError(ValueError):
    """Malformed knot/link document."""


class UnsupportedNesting(ValueError):
    """Knot description nested deeper than MAX_KNOT_DEPTH."""


# Levels of knots inside knots (connected-sum parts, cores, sites) that a
# document may nest; deeper trees would overflow the recursive parsing,
# hashing and evaluation of specs.
MAX_KNOT_DEPTH = 64


# ---------------------------------------------------------------------------
# Facts and infection sites
# ---------------------------------------------------------------------------

@frozen
class Fact:
    """A declared input with provenance, e.g. a known vanishing rho-value
    or the existence of slice disks behind the band Lagrangians."""

    kind: str              # sigvalue | siginterval | sigsign | slice_lagrangians
    atom: str = ""
    value: str = ""        # rational string, or sign tag for sigsign
    lo: str | None = None
    hi: str | None = None
    provenance: str = ""


@frozen
class Site:
    """Infection site: a curve in the commutator subgroup with its
    infecting knot.  The curve is given in module coordinates, as a band
    meridian index, or tagged second-derived (contributes nothing to
    metabelian evaluations)."""

    infect: "KnotSpec"
    eta_module: tuple = ()         # tuple of Fraction coordinates
    band_meridian: int | None = None
    second_derived: bool = False


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

@frozen
class Twist:
    tw: int
    cores: tuple = ()       # optionally two KnotSpecs tied into the bands
    base_name: str = ""     # name of the uninfected base knot


@frozen
class Torus:
    p: int
    q: int


@frozen
class GenusOne:
    """Doubled-band genus-one shape [[0, l], [l+1, tw]] with the two band
    cores tied into the components of a string link."""

    l: int
    tw: int
    cores: tuple = ()          # two KnotSpecs (string-link component types)
    string_link: str = "generic"   # generic | split
    base_name: str = ""


@frozen
class GenusTwoFig9:
    """Two genus-one blocks (twists l1, l2, both untwisted second bands)
    with declared core data L, LL and the doubling arc B."""

    l1: int
    l2: int
    L: tuple = ()    # (L1, L2)
    LL: tuple = ()   # (LL1, LL2)
    B: "KnotSpec | None" = None


@frozen
class ConnectedSum:
    parts: tuple = ()  # KnotSpecs


@frozen
class Explicit:
    matrix: SeifertMatrix
    band_cores: tuple = ()  # KnotSpecs on the a-bands (even indices)
    base_name: str = ""


@frozen
class Abstract:
    """A knot known only by name; its rho0 stays a symbol."""


@frozen
class Unknot:
    pass


@frozen
class KnotSpec:
    name: str
    family: object
    facts: tuple = ()
    sites: tuple = ()   # explicit infection sites beyond family cores

    def __post_init__(self):
        if not self.name:
            raise SchemaError("knot spec needs a name")


@frozen
class LinkInfection:
    infect: KnotSpec
    nontrivial: bool = True   # image of the curve under the abelian map


@frozen
class LinkSpec:
    """An ordered link with trivial linking numbers plus declared class
    tags: split, boundary, the clasped two-component pattern, or an
    infected trivial link with per-site data."""

    name: str
    components: tuple = ()           # KnotSpecs (component knot types)
    structure: str = "declared"      # split|boundary|clasp_fig12|infected_trivial|declared
    infections: tuple = ()           # LinkInfections (infected_trivial data)
    declared_nullity: int | None = None
    declared_rho0: tuple = ()        # ((atom_name, coeff_string), ...)
    facts: tuple = ()

    @property
    def component_count(self):
        return len(self.components)


# ---------------------------------------------------------------------------
# Seifert matrices of family knots
# ---------------------------------------------------------------------------

def seifert_matrix(spec: KnotSpec) -> SeifertMatrix | None:
    """Seifert matrix of the spec, or None for abstract knots.

    Band infections (cores, sites) never change the matrix: infection
    happens along curves in the commutator subgroup.
    """
    fam = spec.family
    if isinstance(fam, Twist):
        return sf.twist_knot(fam.tw)
    if isinstance(fam, Torus):
        return sf.torus_knot(fam.p, fam.q)
    if isinstance(fam, GenusOne):
        return sf.genus_one(fam.l, fam.tw)
    if isinstance(fam, GenusTwoFig9):
        return sf.connected_sum(sf.genus_one(fam.l1, 0), sf.genus_one(fam.l2, 0))
    if isinstance(fam, ConnectedSum):
        acc = sf.unknot()
        for part in fam.parts:
            m = seifert_matrix(part)
            if m is None:
                return None
            acc = sf.connected_sum(acc, m)
        return acc
    if isinstance(fam, Explicit):
        return fam.matrix
    if isinstance(fam, Unknot):
        return sf.unknot()
    if isinstance(fam, Abstract):
        return None
    raise SchemaError(f"unknown family {type(fam).__name__}")


def band_cores(spec: KnotSpec) -> tuple:
    """Declared band-core knots, aligned with band index (or empty)."""
    fam = spec.family
    if isinstance(fam, (Twist, GenusOne)):
        return tuple(fam.cores)
    if isinstance(fam, Explicit):
        return tuple(fam.band_cores)
    return ()


def iter_specs(spec: KnotSpec):
    """The spec and every knot nested in its family tree and sites."""
    yield spec
    fam = spec.family
    for child in getattr(fam, "cores", ()) or ():
        yield from iter_specs(child)
    for attr in ("L", "LL", "parts", "band_cores"):
        for child in getattr(fam, attr, ()) or ():
            yield from iter_specs(child)
    if getattr(fam, "B", None) is not None:
        yield from iter_specs(fam.B)
    for site in spec.sites:
        yield from iter_specs(site.infect)


def abstract_knot(name: str, *facts) -> KnotSpec:
    return KnotSpec(name, Abstract(), tuple(facts))


def unknot_spec(name: str = "U") -> KnotSpec:
    return KnotSpec(name, Unknot())


# ---------------------------------------------------------------------------
# JSON document parsing
# ---------------------------------------------------------------------------

SIGN_TAGS = ("positive", "negative", "nonnegative", "nonpositive", "nonzero")


def _type_name(value):
    return "null" if value is None else type(value).__name__


def _require(doc, key, context):
    if not isinstance(doc, dict):
        raise SchemaError(f"{context} must be an object, got {_type_name(doc)}")
    if key not in doc:
        raise SchemaError(f"{context}: missing field {key!r}")
    return doc[key]


def _int_field(doc, key, context):
    value = _require(doc, key, context)
    try:
        return sf.parse_int(value)
    except ValueError:
        raise SchemaError(f"{context}: field {key!r} must be an integer, "
                          f"got {value!r}") from None


def _bool_field(doc, key, context, default):
    """A JSON boolean field, default when absent."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"{context}: field {key!r} must be a boolean, "
                          f"got {value!r}")
    return value


def _str_field(doc, key, context, default=""):
    """A string field; required when default is None."""
    value = _require(doc, key, context) if default is None \
        else doc.get(key, default)
    if not isinstance(value, str):
        raise SchemaError(f"{context}: field {key!r} must be a string, "
                          f"got {_type_name(value)}")
    return value


def _list_field(doc, key, context):
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{context}: field {key!r} must be a list, "
                          f"got {_type_name(value)}")
    return value


def rational_text(value, context) -> str:
    """str(value), checked to read as a rational number."""
    text = str(value)
    try:
        F(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{context}: {value!r} is not a rational "
                          "number") from None
    return text


def sign_tag(value, context) -> str:
    if value not in SIGN_TAGS:
        raise SchemaError(f"{context}: sign must be one of "
                          f"{', '.join(SIGN_TAGS)}, got {value!r}")
    return value


def parse_fact(doc) -> Fact:
    kind = _require(doc, "kind", "fact")
    if kind not in ("sigvalue", "siginterval", "sigsign", "slice_lagrangians"):
        raise SchemaError(f"fact: unknown kind {kind!r}")
    ctx = f"fact {kind}"
    value = str(doc.get("value", ""))
    if kind == "sigvalue":
        value = rational_text(value, ctx)
    elif kind == "sigsign":
        value = sign_tag(value, ctx)
    lo, hi = (None if doc.get(k) is None else rational_text(doc[k], ctx)
              for k in ("lo", "hi"))
    return Fact(kind=kind,
                atom=_str_field(doc, "atom", ctx),
                value=value, lo=lo, hi=hi,
                provenance=_str_field(doc, "provenance", ctx))


def parse_site(doc, context, depth) -> Site:
    infect = parse_knot(_require(doc, "infect", f"{context}.site"), depth + 1)
    if _bool_field(doc, "second_derived", f"{context}.site", False):
        return Site(infect=infect, second_derived=True)
    if "band_meridian" in doc:
        return Site(infect=infect, band_meridian=_int_field(
            doc, "band_meridian", f"{context}.site"))
    if "eta_module" in doc:
        ctx = f"{context}.site"
        coords = _list_field(doc, "eta_module", ctx)
        return Site(infect=infect, eta_module=tuple(
            F(rational_text(c, ctx)) for c in coords))
    raise SchemaError(f"{context}: site needs eta_module, band_meridian "
                      "or second_derived")


def parse_knot(doc, depth=1) -> KnotSpec:
    """The knot of a document, itself nested `depth` levels deep."""
    if depth > MAX_KNOT_DEPTH:
        raise UnsupportedNesting("knot description exceeds the nesting "
                                 f"bound of {MAX_KNOT_DEPTH} levels")
    if isinstance(doc, str):
        return abstract_knot(doc)
    if not isinstance(doc, dict):
        raise SchemaError(f"knot spec must be an object or name, got {doc!r}")
    name = _str_field(doc, "name", "knot", None)
    fam_doc = _require(doc, "family", f"knot {name}")
    ftype = _require(fam_doc, "type", f"knot {name}.family")
    ctx = f"knot {name}"

    def sub(key, required=False):
        if key not in fam_doc and required:
            raise SchemaError(f"{ctx}: family needs {key!r}")
        return tuple(parse_knot(d, depth + 1)
                     for d in _list_field(fam_doc, key, ctx))

    if ftype == "twist":
        fam = Twist(_int_field(fam_doc, "tw", ctx), sub("cores"),
                    _str_field(fam_doc, "base_name", ctx))
    elif ftype == "torus":
        fam = Torus(_int_field(fam_doc, "p", ctx),
                    _int_field(fam_doc, "q", ctx))
    elif ftype == "genus_one":
        fam = GenusOne(_int_field(fam_doc, "l", ctx),
                       _int_field(fam_doc, "tw", ctx),
                       sub("cores"),
                       _str_field(fam_doc, "string_link", ctx, "generic"),
                       _str_field(fam_doc, "base_name", ctx))
    elif ftype == "genus_two_fig9":
        b = fam_doc.get("B")
        fam = GenusTwoFig9(_int_field(fam_doc, "l1", ctx),
                           _int_field(fam_doc, "l2", ctx),
                           sub("L", required=True),
                           sub("LL", required=True),
                           parse_knot(b, depth + 1) if b is not None else None)
    elif ftype == "connected_sum":
        fam = ConnectedSum(sub("parts", required=True))
    elif ftype == "explicit":
        rows = _require(fam_doc, "matrix", ctx)
        if isinstance(rows, list):
            _check_order(len(rows), ctx)
        try:
            mat = SeifertMatrix.from_rows(rows)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{ctx}: matrix: {exc}") from exc
        fam = Explicit(mat, sub("band_cores"),
                       _str_field(fam_doc, "base_name", ctx))
    elif ftype == "abstract":
        fam = Abstract()
    elif ftype == "unknot":
        fam = Unknot()
    else:
        raise SchemaError(f"{ctx}: unknown family type {ftype!r}")
    _check_order(_matrix_order(fam), ctx)
    facts = tuple(parse_fact(f) for f in _list_field(doc, "facts", ctx))
    sites = tuple(parse_site(s, ctx, depth)
                  for s in _list_field(doc, "sites", ctx))
    return KnotSpec(name, fam, facts, sites)


def _matrix_order(fam) -> int:
    """2g of the family's Seifert matrix, read off its parameters."""
    if isinstance(fam, (Twist, GenusOne)):
        return 2
    if isinstance(fam, GenusTwoFig9):
        return 4
    if isinstance(fam, Torus):
        return (abs(fam.p) - 1) * (abs(fam.q) - 1)
    if isinstance(fam, ConnectedSum):
        return sum(_matrix_order(part.family) for part in fam.parts)
    if isinstance(fam, Explicit):
        return fam.matrix.size
    return 0


def _check_order(order, context):
    """Refuse, before any matrix is built, a Seifert matrix whose Alexander
    polynomial may exceed the factorization bound (exit 3 in the CLI)."""
    if order > MAX_FACTOR_DEGREE:
        raise UnsupportedDegree(
            f"{context}: Seifert matrix of order {order} exceeds the "
            f"factorization bound {MAX_FACTOR_DEGREE}")


def _rho0_term(pair, context):
    if not (isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str)):
        raise SchemaError(f"{context}: declared_rho0 entries must be "
                          f"[atom, coefficient] pairs, got {pair!r}")
    return pair[0], rational_text(pair[1], context)


def parse_link(doc) -> LinkSpec:
    name = _str_field(doc, "name", "link", None)
    ctx = f"link {name}"
    structure = doc.get("structure", "declared")
    if structure not in ("split", "boundary", "clasp_fig12",
                         "infected_trivial", "declared"):
        raise SchemaError(f"{ctx}: unknown structure {structure!r}")
    comps = tuple(parse_knot(d) for d in _list_field(doc, "components", ctx))
    infections = tuple(
        LinkInfection(parse_knot(_require(i, "infect", ctx)),
                      _bool_field(i, "nontrivial", ctx, True))
        for i in _list_field(doc, "infections", ctx))
    nullity = None
    if doc.get("declared_nullity") is not None:
        nullity = _int_field(doc, "declared_nullity", ctx)
        if not 0 <= nullity < len(comps):
            raise SchemaError(f"{ctx}: declared_nullity {nullity} is outside "
                              f"[0, {len(comps) - 1}] for {len(comps)} "
                              "components")
    rho0 = tuple(_rho0_term(p, ctx)
                 for p in _list_field(doc, "declared_rho0", ctx))
    facts = tuple(parse_fact(f) for f in _list_field(doc, "facts", ctx))
    return LinkSpec(name, comps, structure, infections, nullity, rho0, facts)


def parse_document(doc):
    """Top-level dispatch: a document is a knot unless marked as a link."""
    if isinstance(doc, dict) and (_bool_field(doc, "link", "document", False)
                                  or "components" in doc):
        return parse_link(doc)
    return parse_knot(doc)
