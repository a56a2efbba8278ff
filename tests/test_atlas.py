"""The verdict atlas: `concord --format json report` on a family sweep,
pinned line by line in tests/data/atlas.jsonl.

Each line holds a spec, its exit code and, when the report succeeds, the
three conclusions, the numbers of Lagrangians, isotropic submodules and
metabolizers, and the SHA-256 of the report bytes.  The sweep covers
twist(-12..12), genus_one(l, tw) for l, tw in -3..3, every torus knot of
genus <= 6 with p, q > 0, genus_two_fig9(l1, l2) with l1 != l2, seeded
connected sums of two genus-1 knots among these, and seeded explicit
genus-2 and genus-3 matrices, metabolic and not.  Specs that exit 2 or 3
keep their line with the exit code.

The file was written once, by the code it pins:

    PYTHONPATH=src python tests/test_atlas.py > tests/data/atlas.jsonl

An entry that moves is a changed answer: it needs the old and the new
line and the reason, like a change to a golden report.  The file is not
regenerated to make this test pass."""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from concord import cli, pipeline

from helpers import random_metabolic, random_seifert

ATLAS = Path(__file__).parent / "data" / "atlas.jsonl"


def _knot(name, family):
    return {"name": name, "family": family}


def _twist(tw):
    return _knot(f"twist({tw})", {"type": "twist", "tw": tw})


def _genus_one(l, tw):
    return _knot(f"genus_one({l},{tw})",
                 {"type": "genus_one", "l": l, "tw": tw})


def _torus(p, q):
    return _knot(f"torus({p},{q})", {"type": "torus", "p": p, "q": q})


def _fig9(l1, l2):
    return _knot(f"fig9({l1},{l2})",
                 {"type": "genus_two_fig9", "l1": l1, "l2": l2,
                  "L": ["P", "Q"], "LL": ["S", "U"], "B": "B"})


def _explicit(name, v):
    return _knot(name, {"type": "explicit",
                        "matrix": [list(r) for r in v.entries]})


def atlas_specs():
    """The sweep, in file order."""
    twists = [_twist(tw) for tw in range(-12, 13)]
    genus_one = [_genus_one(l, tw) for l in range(-3, 4)
                 for tw in range(-3, 4)]
    torus = [_torus(p, q) for p in range(2, 14) for q in range(p + 1, 14)
             if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 12]
    fig9 = [_fig9(l1, l2) for l1 in range(-2, 3) for l2 in range(-2, 3)
            if l1 != l2]
    rng = random.Random(20261020)
    genus1 = twists + genus_one + [_torus(2, 3)]
    sums = []
    for _ in range(60):
        a, b = rng.sample(genus1, 2)
        sums.append(_knot(f"{a['name']} # {b['name']}",
                          {"type": "connected_sum", "parts": [a, b]}))
    # equal summands: a non-cyclic module, exit 3
    for tw in (2, -3):
        sums.append(_knot(f"twist({tw}) # twist({tw})",
                          {"type": "connected_sum",
                           "parts": [_twist(tw), _twist(tw)]}))
    explicit = []
    for genus, count in ((2, 12), (3, 6)):
        for s in range(count):
            explicit.append(_explicit(
                f"random{genus}/{s}",
                random_seifert(random.Random(1000 * genus + s), genus, 3)))
            explicit.append(_explicit(
                f"metabolic{genus}/{s}",
                random_metabolic(random.Random(1000 * genus + s), genus)[0]))
    return twists + genus_one + torus + fig9 + sums + explicit


def atlas_line(spec):
    """The atlas entry of one spec, through `cli.main` in-process."""
    made = []

    class Recorded(pipeline.Request):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        with mock.patch.object(pipeline, "Request", Recorded), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--format", "json", "report", str(path)])
    line = {"spec": spec, "exit": code}
    if code == 0:
        text = out.getvalue()
        doc = json.loads(text)
        req, = made
        mod = req.module(req.spec)
        line.update(
            conclusions=[doc["verdicts"][level]["conclusion"]
                         for level in ("zeroth", "first", "second")],
            lagrangians=len(doc["lagrangians"]),
            isotropic=len(req.isotropic(mod)),
            metabolizers=len(doc["metabolizers"]["items"]),
            report_sha256=hashlib.sha256(text.encode()).hexdigest())
    return line


def _dumps(line):
    return json.dumps(line, sort_keys=True)


PINNED = [json.loads(l) for l in ATLAS.read_text().splitlines()]


def test_atlas_covers_the_sweep():
    assert [l["spec"] for l in PINNED] == atlas_specs()
    codes = [l["exit"] for l in PINNED]
    assert codes.count(3) >= 2 and codes.count(0) >= 150
    conclusions = {c for l in PINNED for c in l.get("conclusions", ())}
    assert {"NotSlice", "ConsistentWithSlice", "Inconclusive"} <= conclusions


@pytest.mark.parametrize("pinned", PINNED,
                         ids=[l["spec"]["name"] for l in PINNED])
def test_atlas_line(pinned):
    assert _dumps(atlas_line(pinned["spec"])) == _dumps(pinned)


if __name__ == "__main__":
    for spec in atlas_specs():
        sys.stdout.write(_dumps(atlas_line(spec)) + "\n")
