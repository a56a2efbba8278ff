"""Span tracing around concord's public functions (standard library only).

The benchmark wraps the functions in TARGETS from its own files; the
program is not edited.  A wrapper replaces every attribute of every
loaded concord module that is bound to the same function object, so
aliases such as ``alexander.laurent_factor`` (``laurent.factor``) and
``pipeline.evaluate`` (``calculus.evaluate``) are traced as well.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory and are written as JSON lines by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

TARGETS = {
    "polys": ("isolate_real_roots", "refine_root", "sturm_chain"),
    "certified": ("acos_over_pi", "atan_bounds", "pi_bounds"),
    "seifert": ("alexander_poly", "lt_signature", "jump_set", "signature_arcs",
                "rho0"),
    "laurent": ("normalize", "gcd", "factor"),
    "intlinalg": ("smith_normal_form", "hermite_normal_form", "symplectic_basis"),
    "alexander": ("present", "submodules_cyclic", "isotropic_submodules",
                  "orthogonal_complement", "lagrangians"),
    "metabolizers": ("genus1_metabolizers", "higher_genus_metabolizers",
                     "catalogued_metabolizers", "metabolizer_to_lagrangian",
                     "derivative"),
    "calculus": ("evaluate", "first_order_sig", "nullity"),
    "specs": ("parse_document", "seifert_matrix"),
    "pipeline": ("knot_module", "knot_first_order_sigs", "second_order_set",
                 "first_order_verdict", "second_order_verdict", "cooper_check",
                 "report"),
    "cli": ("main",),
}

# functions whose argument sets are counted, for <f>.distinct_ratio
KEYED = ("seifert.rho0", "alexander.submodules_cyclic",
         "pipeline.knot_first_order_sigs", "metabolizers.derivative")

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _arg_key(args, kwargs):
    # a module stands for the Seifert matrix it presents
    norm = (tuple(getattr(a, "V", a) for a in args), tuple(sorted(kwargs.items())))
    try:
        return hash(norm)
    except TypeError:
        return hash(repr(norm))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._next = 0

    def install(self):
        """Wrap every target in every loaded concord module."""
        for mod in TARGETS:
            importlib.import_module(f"concord.{mod}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "concord" or n.startswith("concord."))]
        for mod, names in TARGETS.items():
            home = sys.modules[f"concord.{mod}"]
            for name in names:
                fn = getattr(home, name)
                wrapped = self._wrap(f"{mod}.{name}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keyed = name in KEYED

        def wrapper(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = stack[-1] if stack else None
            stack.append(sid)
            extra = {"key": _arg_key(args, kwargs)} if keyed else {}
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append([sid, name, t0, t1, parent, self.op, extra])
            if name == "certified.acos_over_pi":
                extra["bits"] = kwargs.get("bits", args[2] if len(args) > 2 else 0)
                extra["out_bits"] = max(_bits(x) for x in out)
            elif name == "seifert.signature_arcs":
                extra["out_bits"] = max((_bits(x) for lo, hi, _ in out for x in (lo, hi)),
                                        default=0)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, extra in self.spans:
                rec = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "op": op}
                rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def read_spans(path):
    """Spans of one process's dump file, as dicts."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(span_files, op_walls):
    """Per-layer metrics from the span files of one traced pass.

    span_files: paths, one per traced process (ids are unique per file).
    op_walls: {op id: wall seconds of the operation's process} for
    operations run as their own process (empty otherwise).
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    keys = {name: set() for name in KEYED}
    max_bits = out_bits_acos = out_bits_arcs = 0
    main_span = {}
    for path in span_files:
        spans = read_spans(path)
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + \
                    s["end"] - s["start"]
        for s in spans:
            name = s["name"]
            dur = s["end"] - s["start"]
            calls[name] += 1
            self_s[name] += dur - child_time.get(s["id"], 0.0)
            if name in keys:
                keys[name].add((s["op"], s["key"]))
            if name == "certified.acos_over_pi":
                max_bits = max(max_bits, s["bits"])
                out_bits_acos = max(out_bits_acos, s["out_bits"])
            elif name == "seifert.signature_arcs":
                out_bits_arcs = max(out_bits_arcs, s["out_bits"])
            elif name == "cli.main":
                main_span[s["op"]] = main_span.get(s["op"], 0.0) + dur
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    startups = [op_walls[op] - main_span.get(op, 0.0) for op in op_walls]
    out["cli.startup_s"] = (statistics.median(startups) if startups else 0.0, "s")
    out["certified.acos_over_pi.max_bits"] = (max_bits, "bits")
    out["certified.acos_over_pi.out_bits"] = (out_bits_acos, "bits")
    out["seifert.signature_arcs.out_bits"] = (out_bits_arcs, "bits")
    for name in KEYED:
        # no calls means no call repeated another: the ratio reads 1
        out[f"{name}.distinct_ratio"] = (
            len(keys[name]) / calls[name] if calls[name] else 1.0, "ratio")
    return out
