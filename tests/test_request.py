"""One request, each stage once: golden reports, stage counts, and the
radius and search bound reaching every stage."""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concord import cli, pipeline

F = Fraction

DATA = Path(__file__).parent / "data" / "reports"
GOLDEN = sorted(p.name[:-len(".spec.json")] for p in DATA.glob("*.spec.json"))

STAGES = (("alexander", "present"), ("metabolizers", "derivative"),
          ("alexander", "isotropic_submodules"),
          ("seifert", "SignatureFunction.rho0"))
# Delta, its root isolation and the arc signatures, which the module, rho0
# and the report's signature block share
SIGNATURE = (("seifert", "alexander_poly"), ("seifert", "_x_roots"),
             ("seifert", "_arc_signatures"))


def _load(name):
    spec = pipeline.ingest((DATA / f"{name}.spec.json").read_text())
    assume = DATA / f"{name}.assume.json"
    asm = pipeline.load_assumptions(assume.read_text()) \
        if assume.exists() else None
    return spec, asm


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_report(name):
    spec, asm = _load(name)
    want = (DATA / f"{name}.report.json").read_text()
    doc = pipeline.report(spec, asm)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == want


def _count_stages(monkeypatch, stages=STAGES):
    """Wrap each stage function wherever a concord module or class binds
    it; the returned dict maps stage name -> list of argument keys, one per
    call (a module stands for the Seifert matrix it presents, a signature
    function for its matrix)."""
    seen = {}
    homes = [m for n, m in list(sys.modules.items())
             if m is not None and n.startswith("concord")]
    homes += [sys.modules["concord.seifert"].SignatureFunction]
    for home, name in stages:
        owner = sys.modules[f"concord.{home}"]
        *path, name = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
        keys = seen.setdefault(name, [])

        def wrapper(*args, _fn=fn, _keys=keys, **kwargs):
            _keys.append(repr((tuple(getattr(a, "V", getattr(a, "v", a))
                                     for a in args),
                               sorted(kwargs.items()))))
            return _fn(*args, **kwargs)

        for m in homes:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    monkeypatch.setattr(m, attr, wrapper)
    return seen


def test_example74_report_runs_each_stage_once(monkeypatch):
    spec, asm = _load("example74")
    seen = _count_stages(monkeypatch)
    pipeline.report(spec, asm)
    for name, keys in seen.items():
        assert keys, name
        assert len(keys) == len(set(keys)), (name, len(keys), len(set(keys)))


@pytest.mark.parametrize("name,calls", [("example74", (4, 2, 2)),
                                        ("twist_2", (2, 1, 1))])
def test_one_signature_pass_per_matrix(monkeypatch, name, calls):
    """alexander_poly, _x_roots and _arc_signatures once per distinct
    matrix (Example 7.4 meets four matrices, two with a signature block or
    a rho0; it took 9, 4 and 3 calls when each stage recomputed them)."""
    spec, asm = _load(name)
    seen = _count_stages(monkeypatch, SIGNATURE)
    pipeline.report(spec, asm)
    assert tuple(len(seen[stage]) for _, stage in SIGNATURE) == calls
    for stage, keys in seen.items():
        assert len(keys) == len(set(keys)), stage


def test_no_state_between_requests(monkeypatch):
    spec, asm = _load("example74")
    seen = _count_stages(monkeypatch)
    counts = []
    for _ in range(2):
        first = {name: len(keys) for name, keys in seen.items()}
        pipeline.report(spec, asm)
        counts.append({name: len(keys) - first[name]
                       for name, keys in seen.items()})
    assert counts[0] == counts[1]
    assert counts[0]["present"] > 0


def _intervals(doc):
    """Finite endpoints of every interval written in a JSON document's strings."""
    out = []
    if isinstance(doc, dict):
        for v in doc.values():
            out.extend(_intervals(v))
    elif isinstance(doc, list):
        for v in doc:
            out.extend(_intervals(v))
    elif isinstance(doc, str):
        for lo, hi in re.findall(r"[\[(]([^,\[\]()]+), ([^,\[\]()]+)[\])]", doc):
            out.extend(F(x) for x in (lo, hi) if "inf" not in x)
    return out


@pytest.mark.parametrize("command", ["verdict", "report"])
def test_precision_reaches_every_stage(tmp_path, capsys, command):
    spec_path = tmp_path / "t3.json"
    spec_path.write_text(json.dumps(
        {"name": "T3", "family": {"type": "twist", "tw": -3}}))
    assert cli.main(["--precision", "1/10", "--format", "json", command,
                     str(spec_path)]) == 0
    ends = _intervals(json.loads(capsys.readouterr().out))
    assert F(-209, 128) in ends
    assert all(128 % x.denominator == 0 for x in ends)


def test_search_bound_reaches_algslice(tmp_path, capsys):
    spec_path = tmp_path / "sum.json"
    spec_path.write_text(json.dumps({"name": "S", "family": {
        "type": "connected_sum", "parts": [
            {"name": "a", "family": {"type": "twist", "tw": 6}},
            {"name": "b", "family": {"type": "twist", "tw": 6}}]}}))
    outs = []
    for flags in (["--search-bound", "1"], []):
        assert cli.main(flags + ["--format", "json", "algslice",
                                 str(spec_path)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0]["algebraically_slice"] is False
    assert outs[1]["algebraically_slice"] is True


def test_request_memo_is_per_request():
    spec, asm = _load("twist_6")
    req = pipeline.Request(spec, asm)
    assert req.module(spec) is req.module(spec)
    assert req.first is req.first
    assert pipeline.Request(spec, asm).module(spec) is not req.module(spec)
