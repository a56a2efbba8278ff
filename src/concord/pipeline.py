"""End-to-end obstruction pipeline: from a knot/link description to
zero-th, first- and second-order signature data and sliceness verdicts.

One library call or one CLI command is one request (`Request`).  Every
stage runs at most once per distinct input: the Alexander module, its
submodules and rho0 once per Seifert matrix, the metabolizer map and the
first-order entries once per knot, the chosen derivative once per
(knot, Lagrangian).  Each verdict reads the one below it, a report
renders the objects the verdicts use, and the rho0 radius and the
metabolizer search bound reach every stage.  Nothing outlives a request.

Verdict logic is deliberately conservative.  A Lagrangian whose
first-order expression cannot be certified nonzero is kept as a
candidate for the second-order stage; a not-slice conclusion is only
claimed when every candidate assembly excludes the required value, and
anything left symbolic downgrades the verdict to inconclusive with the
residual atoms listed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property

from . import alexander, calculus, metabolizers as mb, seifert as sf, specs
from .calculus import Assumptions, EvalResult, SigExpr, rho0_atom, rho1_atom
from .laurent import render as lrender
from .records import field, frozen
from .specs import KnotSpec, LinkSpec, SchemaError

F = Fraction

DEFAULT_RADIUS = F(1, 10 ** 9)

NOT_SLICE = "NotSlice"
INCONCLUSIVE = "Inconclusive"
CONSISTENT = "ConsistentWithSlice"

LABEL_FIRST = "also obstructs (1.5)-solvability"
LABEL_SECOND = "also obstructs (2.5)-solvability"

OPEN_CHOICE_NOTE = (
    "open choice: whether every Seifert surface of a smoothly slice knot "
    "carries a derivative of maximal Alexander nullity (or even a trivial "
    "link) is not known; this tool only reports the catalogued choices")


@frozen
class Verdict:
    level: str            # zeroth | first | second
    conclusion: str       # NotSlice | Inconclusive | ConsistentWithSlice
    witness: str
    label: str = ""
    assumptions_used: tuple = ()
    residuals: tuple = ()

    def as_dict(self):
        return {"level": self.level, "conclusion": self.conclusion,
                "witness": self.witness, "label": self.label,
                "assumptions_used": list(self.assumptions_used),
                "residuals": [a.name for a in self.residuals]}


@frozen
class FirstOrderEntry:
    submodule: alexander.Submodule = field(compare=False)
    expr: SigExpr
    route: str                # calculus | derivative | opaque | degenerate
    metabolizer: object = None
    derivative: object = None


@frozen
class SecondOrderEntry:
    lagrangian: alexander.Submodule = field(compare=False)
    first_order_expr: SigExpr = SigExpr.zero()
    certified_nonzero: bool = False
    metabolizer: object = None
    derivative: object = None
    exprs: tuple = ()          # first-order set of the derivative
    note: str = ""


@frozen
class SecondOrderSet:
    entries: tuple
    degenerate: bool = False   # trivial Alexander polynomial

    @property
    def members(self):
        return [x for e in self.entries if not e.certified_nonzero
                for x in e.exprs]


@frozen
class CooperRow:
    subject: str
    components: int
    nullity: int | None
    bound: Fraction | None
    expr: SigExpr
    status: str        # satisfied | violated | unknown
    interval: str      # of the resolved part of expr
    assumptions_used: tuple = ()
    unresolved: tuple = ()

    def as_dict(self):
        return {"subject": self.subject, "components": self.components,
                "nullity": self.nullity,
                "bound": None if self.bound is None else str(self.bound),
                "value": self.expr.render(), "status": self.status,
                "interval": self.interval,
                "unresolved": [a.name for a in self.unresolved],
                "assumptions_used": list(self.assumptions_used),
                "label": LABEL_FIRST}


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def ingest(document):
    """Parse a structured document (dict or JSON text) into a spec."""
    if isinstance(document, str):
        document = _decode(document, "invalid JSON")
    spec = specs.parse_document(document)
    if isinstance(spec, KnotSpec):
        specs.seifert_matrix(spec)  # validates family parameters
        _check_fact_references(spec)
    return spec


def _tree_names(spec: KnotSpec):
    names = {_base_name(spec)}
    for s in specs.iter_specs(spec):
        names.add(s.name)
        base = getattr(s.family, "base_name", "")
        if base:
            names.add(base)
    return names


def _check_fact_references(spec: KnotSpec):
    """Declared signature facts must name knots present in the description tree."""
    names = _tree_names(spec)
    for s in specs.iter_specs(spec):
        for fct in s.facts:
            if fct.kind == "slice_lagrangians" or not fct.atom:
                continue
            inner = fct.atom
            if inner.startswith(("rho0(", "rho1(")) and inner.endswith(")"):
                inner = inner[5:-1]
            if inner not in names:
                raise SchemaError(
                    f"fact on {s.name} references unknown knot {inner!r}")


def load_assumptions(text_or_dict) -> Assumptions:
    doc = text_or_dict
    if isinstance(doc, str):
        doc = _decode(doc, "invalid assumption file")
    return Assumptions.from_dict(doc)


def _decode(text, what):
    """json.loads, with malformed text and nesting too deep for the
    decoder's recursion both a SchemaError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{what}: nested too deeply to decode") from None


# ---------------------------------------------------------------------------
# Helpers of the stages
# ---------------------------------------------------------------------------

def _band_meridian_class(mod, band: int):
    """Module class of the band meridian: (t - 1) times the image of the
    band's symplectic partner."""
    partner = band + 1 if band % 2 == 0 else band - 1
    e = [1 if k == partner else 0 for k in range(mod.V.size)]
    cls = mod.incl_surface(e)
    img = mod.t_action(cls)
    return tuple(a - b for a, b in zip(img, cls))


def _base_name(spec: KnotSpec) -> str:
    fam = spec.family
    name = getattr(fam, "base_name", "")
    if name:
        return name
    cores = specs.band_cores(spec)
    if any(not isinstance(c.family, specs.Unknot) for c in cores) or spec.sites:
        return f"{spec.name}.base"
    return spec.name


_CALCULUS_FAMILIES = (specs.Twist, specs.GenusOne, specs.Explicit,
                      specs.Unknot, specs.Torus)


def _slice_base(spec: KnotSpec) -> bool:
    """Does the catalogue know the uninfected base bounds slice disks
    realizing every band Lagrangian?"""
    if any(f.kind == "slice_lagrangians" for f in spec.facts):
        return True
    fam = spec.family
    # the untwisted doubled-band pattern is ribbon: both band disks exist
    return isinstance(fam, specs.GenusOne) and fam.tw == 0


def _fact_values(spec: KnotSpec) -> dict:
    """Exact declared atom values, collected over the whole spec tree."""
    out = {}
    for s in specs.iter_specs(spec):
        for fct in s.facts:
            if fct.kind == "sigvalue":
                out[fct.atom] = F(fct.value)
    return out


def _derivative_rho0_expr(d: mb.DerivativeLink) -> SigExpr:
    if d.is_knot:
        comp = d.components[0]
        if isinstance(comp.family, specs.Unknot):
            return SigExpr.zero()
        return SigExpr.of_atom(rho0_atom(comp))
    return _link_rho0_expr(d.link)


def _link_rho0_expr(link: LinkSpec) -> SigExpr:
    declared = calculus.declared_rho0(link)
    if declared is not None:
        return declared
    return calculus.rho0_of_infected_trivial_link(link)


def _derivative_is_infected_trivial(d) -> bool:
    return d is not None and (d.is_knot or bool(d.link.infections) or
                              d.link.structure in ("split", "boundary"))


def _is_maximal_nullity(d) -> bool:
    return d is not None and \
        calculus.nullity(d.link) == d.link.component_count - 1


def _beyond(iv, bound) -> bool:
    """Does the interval lie wholly outside [-bound, bound]?"""
    return (iv.lo is not None and iv.lo > bound) or \
           (iv.hi is not None and iv.hi < -bound)


# ---------------------------------------------------------------------------
# The request
# ---------------------------------------------------------------------------

class Request:
    """One request: a knot or link spec, the assumptions merged with the
    spec's declared facts, the rho0 radius, the metabolizer search bound
    and a memo.  Stage methods take the knot they work on (the spec, or a
    derivative's component met on the way); the verdicts, the Cooper rows
    and the report are those of the request's spec.
    """

    def __init__(self, spec, assumptions: Assumptions | None = None,
                 radius=DEFAULT_RADIUS, search_bound: int = 3):
        facts = Assumptions.from_facts([spec]) \
            if isinstance(spec, KnotSpec) else Assumptions()
        self.spec = spec
        self.assumptions = facts.merged(assumptions or Assumptions())
        self.radius = radius
        self.search_bound = search_bound
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- per Seifert matrix -------------------------------------------------

    def signature(self, v) -> sf.SignatureFunction:
        """The signature function of a Seifert matrix: its Delta, root
        isolation and arc signatures, shared by the module, rho0 and the
        report's signature block."""
        return self._once(("signature", v), lambda: sf.SignatureFunction(v))

    def delta(self, v):
        return self.signature(v).delta

    def module(self, spec: KnotSpec) -> alexander.AlexanderModule:
        v = specs.seifert_matrix(spec)
        if v is None:
            raise mb.NotRepresentable(
                f"abstract knot {spec.name} has no Seifert data")
        return self._once(("module", v),
                          lambda: alexander.present(v, self.delta(v)))

    def isotropic(self, mod):
        return self._once(("isotropic", mod.V),
                          lambda: alexander.isotropic_submodules(mod))

    def lagrangians(self, mod):
        if mod.dim == 0:
            return []
        return [s for s in self.isotropic(mod) if 2 * s.dim == mod.dim]

    def rho0(self, spec: KnotSpec):
        """Certified rho0 at the request's radius; None for an abstract knot."""
        v = specs.seifert_matrix(spec)
        if v is None:
            return None
        return self._once(("rho0", v),
                          lambda: self.signature(v).rho0(self.radius))

    def evaluate(self, expr: SigExpr) -> EvalResult:
        return calculus.evaluate(expr, self.assumptions, self.rho0)

    # -- per knot ------------------------------------------------------------

    def metabolizer_map(self, spec: KnotSpec):
        """Map Lagrangian basis -> catalogued metabolizers (canonical
        order), plus the search with its completeness flag."""
        def compute():
            mod = self.module(spec)
            search = mb.catalogued_metabolizers(spec, self.search_bound,
                                                self.delta)
            mapping = {}
            for m in search:
                lag = mb.metabolizer_to_lagrangian(mod, m)
                mapping.setdefault(lag.basis, []).append(m)
            return {k: tuple(v) for k, v in mapping.items()}, search
        return self._once(("metabolizers", spec), compute)

    def chosen_derivative(self, spec: KnotSpec, basis):
        """(metabolizer, derivative, note) for the Lagrangian with this
        basis: the first catalogued metabolizer whose derivative is
        representable, or (None, None, why there is none)."""
        def compute():
            note = "no catalogued metabolizer represents this Lagrangian"
            for m in self.metabolizer_map(spec)[0].get(basis, ()):
                try:
                    return m, mb.derivative(spec, m, self.module(spec)), ""
                except mb.NotRepresentable as exc:
                    note = str(exc)
            return None, None, note
        return self._once(("derivative", spec, basis), compute)

    def infection_desc(self, spec: KnotSpec) -> calculus.InfectionDesc:
        """Infection description of a catalogued knot: band cores become
        sites along band meridians; explicit sites pass through."""
        mod = self.module(spec)
        sites = []
        base_terms = []
        if isinstance(spec.family, _CALCULUS_FAMILIES):
            for band, core in enumerate(specs.band_cores(spec)):
                if isinstance(core.family, specs.Unknot):
                    continue
                sites.append(calculus.ResolvedSite(
                    _band_meridian_class(mod, band), core))
            for s in spec.sites:
                if s.second_derived:
                    sites.append(calculus.ResolvedSite(None, s.infect))
                elif s.band_meridian is not None:
                    if not 0 <= s.band_meridian < mod.V.size:
                        raise SchemaError(
                            f"{spec.name}: band_meridian {s.band_meridian} "
                            f"is out of range: the surface has "
                            f"{mod.V.size} bands")
                    sites.append(calculus.ResolvedSite(
                        _band_meridian_class(mod, s.band_meridian), s.infect))
                else:
                    if len(s.eta_module) != mod.dim:
                        raise SchemaError(
                            f"{spec.name}: site coordinates have length "
                            f"{len(s.eta_module)}, module dimension is "
                            f"{mod.dim}")
                    sites.append(calculus.ResolvedSite(tuple(s.eta_module),
                                                       s.infect))
            if _slice_base(spec) and mod.is_cyclic:
                base_terms = [(lag.basis, SigExpr.zero())
                              for lag in self.lagrangians(mod)]
        base = specs.KnotSpec(_base_name(spec), specs.Abstract())
        return calculus.InfectionDesc(base, mod, tuple(base_terms),
                                      tuple(sites))

    def first_order(self, spec: KnotSpec):
        """Complete first-order data: one FirstOrderEntry per isotropic
        submodule, with declared facts substituted."""
        return self._once(("first_order", spec),
                          lambda: self._first_order(spec))

    def _first_order(self, spec):
        mod = self.module(spec)
        if mod.dim == 0:
            return [FirstOrderEntry(alexander.zero_submodule(mod),
                                    SigExpr.zero(), "degenerate")]
        facts = _fact_values(spec)
        desc = self.infection_desc(spec) \
            if isinstance(spec.family, _CALCULUS_FAMILIES) else None
        out = []
        for p in self.isotropic(mod):
            entry = None
            if desc is not None:
                try:
                    expr = calculus.first_order_sig(desc, p)
                    entry = FirstOrderEntry(p, expr.substitute(facts),
                                            "calculus")
                except calculus.MissingBaseFact:
                    pass
            if entry is None and 2 * p.dim == mod.dim:
                entry = self._corollary_entry(spec, p, facts)
            if entry is None:
                if p.is_zero:
                    atom = rho1_atom(_base_name(spec), spec)
                else:
                    atom = calculus.Atom(
                        "rho1", f"fo({spec.name};{lrender(p.order_ideal)})")
                expr = SigExpr.of_atom(atom)
                entry = FirstOrderEntry(p, expr.substitute(facts), "opaque")
            out.append(entry)
        return out

    def _corollary_entry(self, spec, p, facts):
        """First-order value through a maximal-nullity derivative: the
        value equals the derivative's averaged signature."""
        m, d, _ = self.chosen_derivative(spec, p.basis)
        if not _is_maximal_nullity(d):
            return None
        expr = _derivative_rho0_expr(d).substitute(facts)
        return FirstOrderEntry(p, expr, "derivative", m, d)

    def lagrangian_entries(self, spec: KnotSpec):
        """Lagrangian-indexed first-order entries (the Theorem-4.4 test set)."""
        dim = self.module(spec).dim
        return [e for e in self.first_order(spec)
                if 2 * e.submodule.dim == dim]

    def link_first_order(self, link: LinkSpec):
        """First-order signature expressions of a catalogued link."""
        return calculus.first_order_sigs_of_supported_link(
            link, lambda k: [e.expr for e in self.first_order(k)])

    # -- the request's own spec ---------------------------------------------

    @cached_property
    def zeroth(self) -> Verdict:
        """Not slice when the averaged signature is certified away from zero."""
        name = self.spec.name
        res = self.evaluate(SigExpr.of_atom(rho0_atom(self.spec)))
        if res.excludes_zero:
            return Verdict("zeroth", NOT_SLICE,
                           f"rho0({name}) is certified nonzero in "
                           f"{res.interval.render()}",
                           assumptions_used=res.assumptions_used)
        if res.certified:
            return Verdict("zeroth", CONSISTENT,
                           f"rho0({name}) encloses 0 in "
                           f"{res.interval.render()}",
                           assumptions_used=res.assumptions_used)
        return Verdict("zeroth", INCONCLUSIVE,
                       f"rho0({name}) is not resolvable",
                       residuals=res.unresolved,
                       assumptions_used=res.assumptions_used)

    @cached_property
    def first(self) -> Verdict:
        """All Lagrangian-indexed first-order signatures certified nonzero
        means not slice; a missing Lagrangian altogether means the knot is
        not even algebraically slice."""
        zeroth = self.zeroth
        if self.module(self.spec).dim == 0:
            return Verdict("first", CONSISTENT,
                           "trivial Alexander polynomial: all first-order "
                           "signatures are zero by definition")
        if zeroth.conclusion == NOT_SLICE:
            return Verdict("first", NOT_SLICE,
                           f"inherited from zeroth order: {zeroth.witness}",
                           label=LABEL_FIRST,
                           assumptions_used=zeroth.assumptions_used)
        entries = self.lagrangian_entries(self.spec)
        if not entries:
            return Verdict("first", NOT_SLICE,
                           "no Lagrangian exists (the knot is not "
                           "algebraically slice), so no slice disk can "
                           "induce one", label=LABEL_FIRST)
        evals = [(e, self.evaluate(e.expr)) for e in entries]
        used = tuple(sorted({n for _, r in evals for n in r.assumptions_used}))
        if all(r.excludes_zero for _, r in evals):
            detail = "; ".join(
                f"{e.expr.render()} in {r.interval.render()}" for e, r in evals)
            return Verdict("first", NOT_SLICE,
                           "every Lagrangian-indexed first-order signature is "
                           f"certified nonzero: {detail}",
                           label=LABEL_FIRST, assumptions_used=used)
        if any(r.is_exact_zero for _, r in evals):
            return Verdict("first", CONSISTENT,
                           "some Lagrangian-indexed first-order signature is "
                           "exactly zero", assumptions_used=used)
        residuals = tuple(a for _, r in evals for a in r.unresolved)
        return Verdict("first", INCONCLUSIVE,
                       "first-order signatures not certified on either side",
                       residuals=residuals, assumptions_used=used)

    @cached_property
    def second_order(self) -> SecondOrderSet:
        """For each Lagrangian whose first-order signature is not certified
        nonzero, the first-order set of the chosen catalogued derivative."""
        spec = self.spec
        if self.module(spec).dim == 0:
            return SecondOrderSet((), degenerate=True)
        facts = _fact_values(spec)
        entries = []
        for e in self.lagrangian_entries(spec):
            if self.evaluate(e.expr).excludes_zero:
                entries.append(SecondOrderEntry(
                    e.submodule, e.expr, certified_nonzero=True,
                    metabolizer=e.metabolizer, derivative=e.derivative))
                continue
            m, d, note = self.chosen_derivative(spec, e.submodule.basis)
            exprs = ()
            if d is not None:
                try:
                    exprs = tuple(x.substitute(facts)
                                  for x in self.link_first_order(d.link))
                except (calculus.UnsupportedLink, mb.NotRepresentable) as exc:
                    note = str(exc)
            entries.append(SecondOrderEntry(e.submodule, e.expr, metabolizer=m,
                                            derivative=d, exprs=exprs,
                                            note=note))
        return SecondOrderSet(tuple(entries))

    @cached_property
    def second(self) -> Verdict:
        first = self.first
        mod = self.module(self.spec)
        if mod.dim == 0:
            return Verdict("second", CONSISTENT,
                           "trivial Alexander polynomial: all second-order "
                           "signatures are zero by definition")
        if first.conclusion == NOT_SLICE:
            return Verdict("second", NOT_SLICE,
                           f"inherited from first order: {first.witness}",
                           label=LABEL_SECOND,
                           assumptions_used=first.assumptions_used)
        genus = mod.V.genus
        active = [e for e in self.second_order.entries
                  if not e.certified_nonzero]
        for e in active:
            if not e.exprs:
                return Verdict("second", INCONCLUSIVE,
                               "a candidate Lagrangian has no catalogued "
                               f"derivative data: {e.note}")
        evals = [self.evaluate(x) for e in active for x in e.exprs]
        used = tuple(sorted({n for r in evals for n in r.assumptions_used}))
        residuals = tuple(a for r in evals for a in r.unresolved)
        if any(r.is_exact_zero for r in evals):
            return Verdict("second", CONSISTENT,
                           "the complete second-order set contains exact zero",
                           assumptions_used=used)
        if genus == 1 or all(_derivative_is_infected_trivial(e.derivative)
                             for e in active):
            if evals and all(r.excludes_zero for r in evals):
                return Verdict(
                    "second", NOT_SLICE,
                    "the complete set of second-order signatures excludes "
                    "zero (all derivatives are knots or infected trivial "
                    "links)", label=LABEL_SECOND, assumptions_used=used)
        elif all(_is_maximal_nullity(e.derivative) for e in active):
            # bound form: only valid for maximal-nullity representatives
            bound = F(genus - 1)
            if evals and all(r.certified and _beyond(r.interval, bound)
                             for r in evals):
                return Verdict(
                    "second", NOT_SLICE,
                    "every member of the complete second-order set has "
                    f"absolute value certified above genus - 1 = {bound}",
                    label=LABEL_SECOND, assumptions_used=used)
        if residuals:
            return Verdict("second", INCONCLUSIVE,
                           "second-order members left symbolic",
                           residuals=residuals, assumptions_used=used)
        return Verdict("second", INCONCLUSIVE,
                       "second-order members not certified on either side",
                       assumptions_used=used)

    @cached_property
    def cooper(self):
        """|rho0_f(derivative)| <= c - 1 - nullity rows, per chosen
        derivative (knots reduce to a plain rho0 = 0 requirement)."""
        spec = self.spec
        if isinstance(spec, LinkSpec):
            return [self._cooper_row(spec, _link_rho0_expr(spec))]
        if self.module(spec).dim == 0:
            return []
        facts = _fact_values(spec)
        rows = []
        for e in self.lagrangian_entries(spec):
            d = self.chosen_derivative(spec, e.submodule.basis)[1]
            if d is not None:
                rows.append(self._cooper_row(
                    d.link, _derivative_rho0_expr(d).substitute(facts)))
        return rows

    def _cooper_row(self, link: LinkSpec, expr: SigExpr) -> CooperRow:
        c, eta = link.component_count, calculus.nullity(link)
        res = self.evaluate(expr)
        iv, bound, status = res.interval, None, "unknown"
        if eta is not None:
            bound = F(c - 1 - eta)
            if res.certified and iv.lo is not None and iv.hi is not None \
                    and -bound <= iv.lo and iv.hi <= bound:
                status = "satisfied"
            elif res.certified and _beyond(iv, bound):
                status = "violated"
        return CooperRow(link.name, c, eta, bound, expr, status, iv.render(),
                         res.assumptions_used, res.unresolved)

    def report(self, enumerate_metabolizers: bool = False) -> dict:
        """Deterministic machine-readable report over all three levels.

        The chosen metabolizer per Lagrangian is the first in canonical
        order; enumerate_metabolizers additionally lists the alternatives,
        since the second-order set depends on the choice.
        """
        spec = self.spec
        v = specs.seifert_matrix(spec)
        doc: dict = {"name": spec.name}
        if v is None:
            doc["family"] = "abstract"
            doc["verdicts"] = {"zeroth": self.zeroth.as_dict()}
            return doc
        mod = self.module(spec)
        doc["family"] = type(spec.family).__name__
        doc["genus"] = v.genus
        doc["seifert_matrix"] = [list(r) for r in v.entries]
        doc["alexander_polynomial"] = lrender(mod.delta)
        signature = self.signature(v)
        doc["signature_function"] = {
            "arcs": [[str(lo), str(hi), s] for lo, hi, s in signature.arcs()],
            "jumps": [[str(p.x_lo), str(p.x_hi), p.multiplicity]
                      for p in signature.jumps()]}
        rho = self.rho0(spec)
        doc["rho0"] = {"mid": str(rho.mid), "rad": str(rho.rad)}
        # a module with no Lagrangian enumeration (not cyclic) is refused
        # here, before the metabolizer search
        lagrangians = self.lagrangians(mod)
        metab_map, search = self.metabolizer_map(spec)
        doc["metabolizers"] = search.as_dict()
        doc["lagrangians"] = []
        for l in lagrangians:
            entry = {"order_ideal": lrender(l.order_ideal),
                     "basis": [[str(c) for c in row] for row in l.basis]}
            if enumerate_metabolizers:
                entry["metabolizers"] = [[list(b) for b in m.basis]
                                         for m in metab_map.get(l.basis, ())]
            doc["lagrangians"].append(entry)
        doc["first_order"] = [{
            "submodule_order": lrender(e.submodule.order_ideal),
            "dim": e.submodule.dim,
            "lagrangian": 2 * e.submodule.dim == mod.dim,
            "expr": e.expr.render(), "route": e.route,
            "eval": _eval_dict(self.evaluate(e.expr))}
            for e in self.first_order(spec)]
        so = self.second_order
        doc["second_order"] = {
            "degenerate": so.degenerate,
            "entries": [{
                "lagrangian_order": lrender(e.lagrangian.order_ideal),
                "first_order_expr": e.first_order_expr.render(),
                "excluded": e.certified_nonzero,
                "metabolizer": None if e.metabolizer is None
                else [list(b) for b in e.metabolizer.basis],
                "derivative": None if e.derivative is None else {
                    "name": e.derivative.link.name,
                    "structure": e.derivative.link.structure,
                    "components": [c.name for c in e.derivative.components],
                    "f_rank": e.derivative.f_rank},
                "exprs": [x.render() for x in e.exprs],
                "note": e.note} for e in so.entries]}
        doc["cooper"] = [r.as_dict() for r in self.cooper]
        doc["verdicts"] = {"zeroth": self.zeroth.as_dict(),
                           "first": self.first.as_dict(),
                           "second": self.second.as_dict()}
        doc["assumptions"] = {name: vars(self.assumptions.get(name))
                              for name in self.assumptions.names()}
        doc["facts"] = _collect_facts(spec)
        if search.metabolizers:
            doc["notes"] = [OPEN_CHOICE_NOTE]
        return doc


# ---------------------------------------------------------------------------
# One call, one request: the names the benchmark's tracer wraps
# ---------------------------------------------------------------------------

def knot_module(spec: KnotSpec) -> alexander.AlexanderModule:
    return Request(spec).module(spec)


def knot_first_order_sigs(spec: KnotSpec):
    return Request(spec).first_order(spec)


def first_order_verdict(spec: KnotSpec,
                        assumptions: Assumptions | None = None) -> Verdict:
    return Request(spec, assumptions).first


def second_order_set(spec: KnotSpec,
                     assumptions: Assumptions | None = None) -> SecondOrderSet:
    return Request(spec, assumptions).second_order


def second_order_verdict(spec: KnotSpec,
                         assumptions: Assumptions | None = None) -> Verdict:
    return Request(spec, assumptions).second


def cooper_check(spec_or_link, assumptions: Assumptions | None = None):
    return Request(spec_or_link, assumptions).cooper


def report(spec: KnotSpec, assumptions: Assumptions | None = None,
           target_radius=DEFAULT_RADIUS,
           enumerate_metabolizers: bool = False) -> dict:
    return Request(spec, assumptions, target_radius).report(
        enumerate_metabolizers)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _eval_dict(res: EvalResult):
    return {"interval": res.interval.render(),
            "certified": res.certified,
            "excludes_zero": res.excludes_zero,
            "exact_zero": res.is_exact_zero,
            "unresolved": [a.name for a in res.unresolved]}


def _collect_facts(spec: KnotSpec):
    return [{"knot": s.name, "kind": fct.kind, "atom": fct.atom,
             "value": fct.value, "lo": fct.lo, "hi": fct.hi,
             "provenance": fct.provenance}
            for s in specs.iter_specs(spec) for fct in s.facts]


def render_report(doc) -> str:
    """Text rendering of a report document."""
    lines = [f"knot: {doc['name']}"]
    if "alexander_polynomial" in doc:
        lines.append(f"alexander polynomial: {doc['alexander_polynomial']}")
        lines.append(f"rho0: {doc['rho0']['mid']} +- {doc['rho0']['rad']}")
        metab = doc["metabolizers"]
        budget = (f", budget spent after {metab['examined']} candidates"
                  if "examined" in metab else "")
        lines.append(f"metabolizers (complete={metab['complete']}{budget}):")
        for item in metab["items"]:
            lines.append(f"  {item}")
        lines.append("lagrangians:")
        for l in doc["lagrangians"]:
            lines.append(f"  order {l['order_ideal']}")
            for m in l.get("metabolizers", ()):
                lines.append(f"    metabolizer {m}")
        lines.append("first-order signatures:")
        for e in doc["first_order"]:
            tag = "L" if e["lagrangian"] else " "
            ev = e["eval"]
            shown = ev["interval"] if not ev["unresolved"] else \
                "unresolved: " + ", ".join(ev["unresolved"])
            lines.append(f"  [{tag}] ord {e['submodule_order']}: "
                         f"{e['expr']}  -> {shown}")
        lines.append("second-order entries:")
        for e in doc["second_order"]["entries"]:
            if e["excluded"]:
                lines.append(f"  {e['lagrangian_order']}: excluded "
                             f"(first-order {e['first_order_expr']} nonzero)")
            else:
                lines.append(f"  {e['lagrangian_order']}: via "
                             f"{e['derivative'] and e['derivative']['name']}: "
                             f"{e['exprs']}")
        lines.append("cooper rows:")
        for r in doc["cooper"]:
            lines.append(f"  {r['subject']}: c={r['components']} "
                         f"eta={r['nullity']} bound={r['bound']} "
                         f"value={r['value']} -> {r['status']}")
    for level in ("zeroth", "first", "second"):
        if level in doc["verdicts"]:
            vd = doc["verdicts"][level]
            label = f"  [{vd['label']}]" if vd.get("label") else ""
            lines.append(f"{level}: {vd['conclusion']}{label}")
            lines.append(f"  witness: {vd['witness']}")
    return "\n".join(lines) + "\n"
