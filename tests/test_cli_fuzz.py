"""CLI fuzz test: mutated copies of the golden specs and assumption files
either run or exit with a documented code and a one-line message; and
the exit codes of non-integral numbers, of Delta above the
factorization bound, of Seifert matrices above it, of files that are not
UTF-8 or nest too deeply for the JSON decoder, of knot trees above the
nesting bound, of flags that are not JSON booleans, and of empty
intervals, band meridians off the surface, declared nullities out of
range and malformed declared_rho0 pairs; the rho0 precision bound, met
and passed, and decimal exponents refused before they are expanded; and
a report on a non-cyclic module refused before the metabolizer search."""

import contextlib
import copy
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from concord import alexander, cli, laurent, metabolizers, seifert, specs

DATA = Path(__file__).parent / "data" / "reports"
SPECS = sorted(DATA.glob("*.spec.json"))
REPLACEMENTS = (5, -1, "a", [], [1], {}, None, 2.7, True, 1e400, 10**9)
MUTANTS = 150


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(rng, doc):
    """doc with one leaf or container replaced, or one key dropped."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    value = rng.choice(REPLACEMENTS)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_cli_fuzz_mutated_documents(tmp_path):
    rng = random.Random(2008)
    codes = {}
    for i in range(MUTANTS):
        spec_file = rng.choice(SPECS)
        assume_file = DATA / spec_file.name.replace(".spec.", ".assume.")
        spec = json.loads(spec_file.read_text())
        assume = json.loads(assume_file.read_text()) \
            if assume_file.exists() else None
        if assume is not None and rng.random() < 0.5:
            assume = _mutate(rng, assume)
        else:
            spec = _mutate(rng, spec)
        spec_path = tmp_path / f"spec{i}.json"
        spec_path.write_text(json.dumps(spec))
        args = [rng.choice(("verdict", "report")), str(spec_path)]
        if assume is not None:
            asm_path = tmp_path / f"assume{i}.json"
            asm_path.write_text(json.dumps(assume))
            args = ["--assume", str(asm_path)] + args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        assert code in (0, 2, 3), (args, spec, assume)
        if code:
            assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
        codes[code] = codes.get(code, 0) + 1
    # the mutants reach the parsers and the stages behind them
    assert codes.get(0, 0) > 10 and codes.get(2, 0) > 10


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("family", [
    {"type": "twist", "tw": 2.7}, {"type": "twist", "tw": True},
    {"type": "twist", "tw": 2.0}, {"type": "twist", "tw": 1e400},
    {"type": "twist", "tw": "2.5"}, {"type": "torus", "p": 2, "q": 3.0},
    {"type": "explicit", "matrix": [[-1.9, 1], [0, 1]]},
    {"type": "explicit", "matrix": [[False, 1], [0, 1]]},
    {"type": "explicit", "matrix": [["1/2", 1], [0, 1]]}])
def test_non_integral_numbers_are_schema_errors(tmp_path, family):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"name": "K", "family": family}))
    code, out, err = _run(["alexpoly", str(path)])
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1, err


def test_integral_strings_are_integers(tmp_path):
    path = tmp_path / "k.json"
    for family in ({"type": "twist", "tw": "2"},
                   {"type": "explicit", "matrix": [["2", "1"], [0, "-1"]]}):
        path.write_text(json.dumps({"name": "K", "family": family}))
        assert _run(["alexpoly", str(path)]) == (0, "2*t^2 - 5*t + 2\n", "")


def test_delta_above_factorization_bound_exits_3(monkeypatch):
    def low_bound(p):
        return laurent.factor(p, max_degree=1)

    monkeypatch.setattr(alexander, "laurent_factor", low_bound)
    code, out, err = _run(["lagrangians", str(DATA / "twist_6.spec.json")])
    assert code == 3 and not out
    assert err.strip().splitlines() == [
        "unsupported shape: degree 2 exceeds factorization bound 1"]


@pytest.mark.parametrize("family", [
    {"type": "torus", "p": 7, "q": 8},
    {"type": "torus", "p": -10 ** 9, "q": 3},
    {"type": "explicit", "matrix": [[0] * 34] * 34},
    {"type": "connected_sum", "parts": [
        {"name": "T", "family": {"type": "torus", "p": 5, "q": 6}},
        {"name": "T2", "family": {"type": "torus", "p": 2, "q": 15}}]}])
def test_matrix_above_factorization_bound_exits_3(tmp_path, family):
    # refused while parsing: T(7,8) (order 42) once spent 38 s before exit 3
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"name": "K", "family": family}))
    code, out, err = _run(["report", str(path)])
    assert code == 3 and not out
    assert len(err.strip().splitlines()) == 1
    assert "exceeds the factorization bound 32" in err


def _nested_sums(levels):
    """twist(0) inside `levels` one-part connected sums."""
    doc = {"name": "K0", "family": {"type": "twist", "tw": 0}}
    for i in range(1, levels + 1):
        doc = {"name": f"K{i}", "family": {"type": "connected_sum",
                                           "parts": [doc]}}
    return doc


def _nested_sites(levels):
    """twist(2) infected along a site by a knot infected along a site, ...,
    `levels` knots deep."""
    doc = {"name": "K0", "family": {"type": "twist", "tw": 2}}
    for i in range(1, levels):
        doc = {"name": f"K{i}", "family": {"type": "twist", "tw": 2},
               "sites": [{"infect": doc, "second_derived": True}]}
    return doc


TWIST6 = DATA / "twist_6.spec.json"


@pytest.mark.parametrize("spec,assume", [
    (b"\xff\xfe", None), (None, b"\xff\xfe"),
    (b"[" * 100000 + b"]" * 100000, None),
    (None, b"[" * 100000 + b"]" * 100000),
    (b'{"a": ' * 100000 + b"1" + b"}" * 100000, None)],
    ids=["spec-not-utf8", "assume-not-utf8", "spec-deep-list",
         "assume-deep-list", "spec-deep-object"])
def test_undecodable_documents_are_schema_errors(tmp_path, spec, assume):
    args = ["report", str(TWIST6)]
    if spec is not None:
        (tmp_path / "k.json").write_bytes(spec)
        args = ["report", str(tmp_path / "k.json")]
    if assume is not None:
        (tmp_path / "a.json").write_bytes(assume)
        args = ["--assume", str(tmp_path / "a.json")] + args
    code, out, err = _run(args)
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1, err


@pytest.mark.parametrize("doc", [
    _nested_sums(300), _nested_sums(specs.MAX_KNOT_DEPTH),
    _nested_sites(300), _nested_sites(specs.MAX_KNOT_DEPTH + 1),
    {"name": "L", "link": True, "components": [_nested_sums(300)]}],
    ids=["sums300", "sums65", "sites300", "sites65", "link"])
def test_knot_trees_above_nesting_bound_exit_3(tmp_path, doc):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["report", str(path)])
    assert code == 3 and not out
    assert err.strip().splitlines() == [
        "unsupported shape: knot description exceeds the nesting bound of "
        f"{specs.MAX_KNOT_DEPTH} levels"]


def test_knot_tree_at_nesting_bound_runs(tmp_path):
    for doc in (_nested_sums(specs.MAX_KNOT_DEPTH - 1),
                _nested_sites(specs.MAX_KNOT_DEPTH)):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(["--format", "json", "report", str(path)])
        assert code == 0 and not err
        assert json.loads(out)


TREFOIL = {"name": "T", "family": {"type": "torus", "p": 2, "q": 3}}


def _infected_link(flag, link=True):
    """The trivial two-component link infected by one trefoil."""
    return {"name": "L", "link": link, "structure": "infected_trivial",
            "components": ["U1", "U2"],
            "infections": [{"infect": TREFOIL, "nontrivial": flag}]}


def _site(flag):
    return {"name": "K", "family": {"type": "twist", "tw": 2},
            "sites": [{"infect": TREFOIL, "second_derived": flag}]}


@pytest.mark.parametrize("document,command,valid", [
    (_infected_link, "cooper", False),
    (lambda flag: _infected_link(False, link=flag), "cooper", True),
    (_site, "report", True)],
    ids=["nontrivial", "link", "second_derived"])
def test_flags_must_be_json_booleans(tmp_path, document, command, valid):
    # "false" is a truthy string: read by truthiness it set the flag
    path = tmp_path / "k.json"
    for value in ("false", 0, None, [True]):
        path.write_text(json.dumps(document(value)))
        code, out, err = _run([command, str(path)])
        assert code == 2 and not out, (value, out)
        assert len(err.strip().splitlines()) == 1
        assert "must be a boolean" in err
    path.write_text(json.dumps(document(valid)))
    assert _run([command, str(path)])[0] == 0


UNKNOT = {"name": "U", "family": {"type": "unknot"}}


def _twist2(**fields):
    return {"name": "K", "family": {"type": "twist", "tw": 2}, **fields}


def _assumed_interval(lo, hi):
    return _twist2(), {"rho0(K)": {"interval": [lo, hi]}}


def _fact_interval(lo, hi):
    return _twist2(facts=[{"kind": "siginterval", "atom": "rho0(K)",
                           "lo": lo, "hi": hi, "provenance": "declared"}]), None


def _band_site(band):
    return _twist2(sites=[{"infect": TREFOIL, "band_meridian": band}]), None


def _declared_nullity(nullity):
    return {"name": "L", "link": True, "structure": "declared",
            "components": [UNKNOT, UNKNOT], "declared_nullity": nullity}, None


@pytest.mark.parametrize("document,command,invalid,valid", [
    (_assumed_interval, "verdict", [("2", "1")], ("1", "2")),
    (_fact_interval, "verdict", [("3", "1")], ("1", "3")),
    (_band_site, "report", [(7,), (-1,), (2,)], (1,)),
    (_declared_nullity, "cooper", [(5,), (-3,), (2,)], (1,))],
    ids=["assume", "fact", "band", "nullity"])
def test_out_of_range_inputs_are_schema_errors(tmp_path, document, command,
                                                invalid, valid):
    # read as given, an empty interval is "certified nonzero", a band off
    # the surface the zero class and a nullity past c - 1 a negative
    # Cooper bound
    def run(params):
        spec, assume = document(*params)
        (tmp_path / "k.json").write_text(json.dumps(spec))
        args = [command, str(tmp_path / "k.json")]
        if assume is not None:
            (tmp_path / "a.json").write_text(json.dumps(assume))
            args = ["--assume", str(tmp_path / "a.json")] + args
        return _run(args)

    for params in invalid:
        code, out, err = run(params)
        assert code == 2 and not out, (params, out)
        assert len(err.strip().splitlines()) == 1, err
    assert run(valid)[0] == 0


def test_precision_bound_is_refused_before_any_work(monkeypatch):
    bound = Fraction(1, 1 << seifert.MAX_PRECISION_BITS)
    below = Fraction(1, (1 << seifert.MAX_PRECISION_BITS) + 1)
    spec = str(DATA / "twist_m3.spec.json")
    code, out, _ = _run(["--format", "json", "--precision", str(bound),
                         "rho0", spec])
    assert code == 0
    assert Fraction(json.loads(out)["rad"]) <= bound
    # refused before the document is read
    monkeypatch.setattr(cli, "_read", None)
    for radius in (str(below), "1e-300"):
        code, out, err = _run(["--precision", radius, "report", spec])
        assert code == 3 and not out
        assert len(err.strip().splitlines()) == 1, err
    with pytest.raises(seifert.UnsupportedPrecision):
        seifert.rho0(seifert.twist_knot(-3), below)


@pytest.mark.parametrize("radius,want", [
    ("1e-10000000", 3), ("0e-10000000", 2), ("-1e-10000000", 2),
    ("1e5000", 2), ("1e99999999e-100000000", 2), ("1e-99999999e-100", 2),
    ("1e-1_0000000", 3), ("1_0e-1_0000000", 3)])
def test_precision_exponent_read_before_the_value(monkeypatch, radius, want):
    """Fraction(text) would expand 10^|e|; these are refused in well
    under 2 s, before the document is read."""
    monkeypatch.setattr(cli, "_read", None)
    start = time.perf_counter()
    code, out, err = _run([f"--precision={radius}", "rho0",
                           str(DATA / "twist_m3.spec.json")])
    assert time.perf_counter() - start < 2
    assert code == want and not out
    assert len(err.strip().splitlines()) == 1, err


def test_precision_texts_parse_as_fractions():
    assert cli._radius("1e-30") == Fraction(1, 10 ** 30)
    assert cli._radius("1/1000000000") == Fraction(1, 10 ** 9)
    assert cli._radius("2.5e-3") == Fraction(1, 400)
    assert cli._radius("1e4300") == 10 ** 4300


def _link(tmp_path, declared_rho0):
    path = tmp_path / "link.json"
    path.write_text(json.dumps({
        "name": "W", "link": True, "structure": "declared",
        "declared_nullity": 0, "declared_rho0": declared_rho0,
        "components": [{"name": "J", "family": {"type": "abstract"}},
                       {"name": "U", "family": {"type": "unknot"}}]}))
    return str(path)


def test_declared_rho0_reaches_cooper(tmp_path):
    path = _link(tmp_path, [["rho0(J)", "1/2"], ["const", "-1"]])
    code, out, _ = _run(["--format", "json", "cooper", path])
    assert code == 0
    row, = json.loads(out)["rows"]
    assert row["value"] == "1/2*rho0(J) - 1"
    # the interval is that of the resolved part only
    assert row["interval"] == "[-1, -1]" and row["unresolved"] == ["rho0(J)"]


@pytest.mark.parametrize("pair", [["rho0(J)"], [1, "2"], ["rho0(J)", "x"]])
def test_malformed_declared_rho0_pair(tmp_path, pair):
    code, out, err = _run(["cooper", _link(tmp_path, [pair])])
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1, err


def test_noncyclic_report_refused_before_search(monkeypatch):
    """genus_one(1,2) # fig9(2,-2) has a non-cyclic Alexander module: the
    report exits 3 at the Lagrangians, without the metabolizer search."""
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("bounded search reached")

    monkeypatch.setattr(metabolizers, "_bounded_search", spy)
    code, out, err = _run([
        "report", str(DATA.parent / "noncyclic_sum.spec.json")])
    assert code == 3 and not out and not calls
    assert "cyclic" in err
