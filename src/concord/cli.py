"""Command-line interface.

Input is one structured JSON document per knot/link spec; subcommands
expose each pipeline stage.  Exit codes: 0 success, 2 schema error,
3 unsupported shape.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import (alexander, calculus, laurent, metabolizers as mb, pipeline,
               seifert as sf, specs)
from .laurent import render as lrender

F = Fraction

EXIT_SCHEMA = 2
EXIT_UNSUPPORTED = 3

_UNSUPPORTED = (alexander.NotCyclic, alexander.UnsupportedModule,
                calculus.UnsupportedLink, calculus.MissingBaseFact,
                mb.NotRepresentable, mb.WrongGenus, mb.NotMetabolic,
                mb.RankMismatch, sf.NotAKnot, sf.UnsupportedPrecision,
                laurent.UnsupportedDegree, specs.UnsupportedNesting)


def _read(path):
    """The text of an input file; bytes that are not UTF-8 are a schema
    error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise specs.SchemaError(f"{path} is not UTF-8 text: {exc}") from None


def _need_knot(spec):
    if not isinstance(spec, specs.KnotSpec):
        raise specs.SchemaError("this subcommand expects a knot spec")
    return spec


def _matrix(spec):
    v = specs.seifert_matrix(_need_knot(spec))
    if v is None:
        raise mb.NotRepresentable(
            f"abstract knot {spec.name} carries no Seifert data")
    return v


_EXPONENT = re.compile(r"([^/eE]*)[eE]([+-]?\d+(?:_\d+)*)\s*")
_BOUND_DIGITS = len(str(1 << sf.MAX_PRECISION_BITS))


def _radius(text):
    """The --precision radius; below 2^-MAX_PRECISION_BITS it is an
    unsupported shape (exit 3), refused before any work.  Fraction(text)
    expands 10^|e| for a decimal exponent e, so e is read first: with d
    digits, e < -(_BOUND_DIGITS + d) puts the value below 10^-_BOUND_DIGITS
    < 2^-MAX_PRECISION_BITS (or not positive); e > 4300 is out of range."""
    m = _EXPONENT.fullmatch(text)
    mantissa, e = m.groups() if m else (text, "0")
    try:
        below = int(e) < -_BOUND_DIGITS - sum(c.isdigit() for c in mantissa)
        radius = F(mantissa if below else text) if int(e) <= 4300 else 0
    except (ValueError, ZeroDivisionError):
        radius = 0
    if radius <= 0:
        raise specs.SchemaError(
            f"--precision must be a positive rational < 10^4301, got {text!r}")
    if below:
        raise sf.UnsupportedPrecision(
            f"--precision {text} is below 2^-{sf.MAX_PRECISION_BITS}")
    return sf.check_radius(radius)


def _emit(args, payload_dict, text):
    if args.format == "json":
        print(json.dumps(payload_dict, indent=2, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="concord",
        description="exact knot-concordance obstructions from Seifert data")
    ap.add_argument("--precision", default="1/1000000000",
                    help="target enclosure radius for rho0 (rational)")
    ap.add_argument("--assume", default="",
                    help="JSON file of assumptions for opaque atoms")
    ap.add_argument("--format", choices=["text", "json", "csv"],
                    default="text")
    ap.add_argument("--search-bound", type=int, default=3,
                    help="entry bound for higher-genus metabolizer search")
    ap.add_argument("--enumerate-metabolizers", action="store_true",
                    help="list every catalogued metabolizer per Lagrangian")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("alexpoly", "sigfn", "rho0", "algslice", "metabolizers",
                 "lagrangians", "first-order", "second-order", "cooper",
                 "verdict", "report"):
        p = sub.add_parser(name)
        p.add_argument("spec", help="path to a knot/link JSON document")
    args = ap.parse_args(argv)

    try:
        if args.format == "csv" and args.command != "sigfn":
            raise specs.SchemaError("--format csv applies to sigfn only")
        radius = _radius(args.precision)
        if args.search_bound < 0:
            raise specs.SchemaError("--search-bound must be a non-negative "
                                    f"integer, got {args.search_bound}")
        spec = pipeline.ingest(_read(args.spec))
        assumptions = None
        if args.assume:
            assumptions = pipeline.load_assumptions(_read(args.assume))
        req = pipeline.Request(spec, assumptions, radius, args.search_bound)
        return _dispatch(args, req)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except specs.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _UNSUPPORTED as exc:
        print(f"unsupported shape: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def _dispatch(args, req) -> int:
    cmd = args.command
    spec = req.spec
    if cmd == "alexpoly":
        v = _matrix(spec)
        delta = sf.alexander_poly(v)
        _emit(args, {"name": spec.name, "alexander_polynomial": lrender(delta)},
              lrender(delta))
        return 0
    if cmd == "sigfn":
        v = _matrix(spec)
        print(sf.signature_function_csv(v), end="")
        return 0
    if cmd == "rho0":
        _matrix(spec)
        r = req.rho0(spec)
        _emit(args, {"name": spec.name, "mid": str(r.mid), "rad": str(r.rad)},
              f"rho0({spec.name}) = {r.mid} +- {r.rad}")
        return 0
    if cmd == "algslice":
        _matrix(spec)
        search = mb.catalogued_metabolizers(spec, req.search_bound)
        slice_ = len(search) > 0
        _emit(args, {"name": spec.name, "algebraically_slice": slice_,
                     "search_complete": search.complete},
              f"{spec.name}: algebraically slice = {slice_} "
              f"(search complete = {search.complete})")
        return 0
    if cmd == "metabolizers":
        search = mb.matrix_metabolizers(_matrix(spec), req.search_bound)
        text = [f"complete: {search.complete}"] + [
            str(list(map(list, m.basis))) for m in search]
        if search.reason == "budget":
            text.insert(1, f"budget spent after {search.examined} candidates")
        _emit(args, {"name": spec.name, **search.as_dict()}, "\n".join(text))
        return 0
    if cmd == "lagrangians":
        lags = req.lagrangians(req.module(_need_knot(spec)))
        _emit(args, {"name": spec.name,
                     "lagrangians": [lrender(l.order_ideal) for l in lags]},
              "\n".join(lrender(l.order_ideal) for l in lags) or "(none)")
        return 0
    if cmd == "first-order":
        if isinstance(spec, specs.LinkSpec):
            exprs = req.link_first_order(spec)
            _emit(args, {"name": spec.name,
                         "first_order": [x.render() for x in exprs]},
                  "\n".join(x.render() for x in exprs))
            return 0
        entries = req.first_order(spec)
        _emit(args, {"name": spec.name, "first_order": [
            {"order": lrender(e.submodule.order_ideal),
             "expr": e.expr.render(), "route": e.route} for e in entries]},
              "\n".join(f"{lrender(e.submodule.order_ideal)}: "
                        f"{e.expr.render()}" for e in entries))
        return 0
    if cmd == "second-order":
        _need_knot(spec)
        so = req.second_order
        payload = {"name": spec.name, "degenerate": so.degenerate,
                   "members": [x.render() for x in so.members],
                   "entries": [{
                       "lagrangian_order": lrender(e.lagrangian.order_ideal),
                       "first_order": e.first_order_expr.render(),
                       "excluded": e.certified_nonzero,
                       "metabolizer": None if e.metabolizer is None
                       else [list(b) for b in e.metabolizer.basis],
                       "derivative": None if e.derivative is None
                       else e.derivative.link.name,
                       "exprs": [x.render() for x in e.exprs],
                       "note": e.note} for e in so.entries]}
        _emit(args, payload,
              "\n".join(payload["members"]) or "(empty)")
        return 0
    if cmd == "cooper":
        rows = req.cooper
        _emit(args, {"name": spec.name, "rows": [r.as_dict() for r in rows]},
              "\n".join(f"{r.subject}: c={r.components} eta={r.nullity} "
                        f"bound={r.bound} value={r.expr.render()} "
                        f"-> {r.status}" for r in rows) or "(no rows)")
        return 0
    if cmd == "verdict":
        _need_knot(spec)
        verdicts = {"zeroth": req.zeroth, "first": req.first,
                    "second": req.second}
        _emit(args, {k: v.as_dict() for k, v in verdicts.items()},
              "\n".join(f"{k}: {v.conclusion} ({v.witness})"
                        for k, v in verdicts.items()))
        return 0
    if cmd == "report":
        _need_knot(spec)
        doc = req.report(args.enumerate_metabolizers)
        _emit(args, doc, pipeline.render_report(doc))
        return 0
    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
