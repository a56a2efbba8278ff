"""CLI fuzz test: mutated copies of the golden specs and assumption files
either run or exit with a documented code and a one-line message; and
the exit codes of non-integral numbers, of Delta above the
factorization bound and of Seifert matrices above it."""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

from concord import alexander, cli, laurent

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
