"""The integer kernel: `hermite_normal_form` as a canonical lattice basis,
the Smith form built on it against the pivot-and-swap elimination it
replaced (`smith_normal_form_pivoting` in helpers.py) and against sympy,
the summand test, and the symplectic basis."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from concord import intlinalg
from concord.seifert import _tensor_bidiagonal

from helpers import _random_unimodular, random_metabolic, \
    smith_normal_form_pivoting

ROOT = Path(__file__).resolve().parent.parent

# the pivot-and-swap loop (the oracle) does not finish on this in 60 s
BLOWUP = [[29, -40, 94, -46, -28], [-69, 97, 45, -98, 94],
          [-91, 59, -20, -78, 35], [66, -55, 16, 38, -80]]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_smith_form_of_the_blowup_matrix_returns():
    # a subprocess, so that a hang fails the test instead of the run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c",
         "from concord.intlinalg import smith_normal_form\n"
         f"print(smith_normal_form({BLOWUP!r}))"],
        env=env, capture_output=True, text=True, timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[1, 1, 1, 1]"


def _frames(rng):
    """g x 2g integer frames like those `is_metabolizer` tests: random small
    entries, planted metabolizers, and frames with a scaled or a repeated
    row."""
    for g in (1, 2, 3, 4):
        for _ in range(20):
            yield [[rng.randint(-3, 3) for _ in range(2 * g)]
                   for _ in range(g)]
        for s in range(3):
            basis = [list(b) for b in random_metabolic(random.Random(s), g)[1]]
            yield basis
            yield [[rng.choice((2, 3)) * x for x in basis[0]]] + basis[1:]
            if g > 1:
                yield basis[:-1] + [basis[0]]


def test_smith_form_matches_pivoting_oracle_on_metabolizer_frames():
    rng = random.Random(11)
    frames = list(_frames(rng))
    assert len(frames) > 100
    for m in frames:
        assert intlinalg.smith_normal_form(m) == smith_normal_form_pivoting(m)


def test_smith_form_matches_sympy_on_dense_squares():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(12)
    for k in range(120):
        n = 1 + k % 7
        m = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        if k % 5 == 0 and n > 1:
            m[-1] = [3 * x for x in m[0]]  # rank n - 1
        want = [abs(int(x))
                for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
                if x]
        assert intlinalg.smith_normal_form(m) == want


def test_smith_form_edge_shapes():
    assert intlinalg.smith_normal_form([]) == []
    assert intlinalg.smith_normal_form([[0, 0], [0, 0]]) == []
    assert intlinalg.smith_normal_form([[6]]) == [6]
    assert intlinalg.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert intlinalg.smith_normal_form([[4, 0, 0], [0, 6, 0]]) == [2, 12]
    assert intlinalg.smith_normal_form([[-4]]) == [4]


def _check_hnf(h):
    prev = -1
    for i, row in enumerate(h):
        piv = next(j for j, x in enumerate(row) if x)
        assert piv > prev and row[piv] > 0
        prev = piv
        for above in h[:i]:
            assert 0 <= above[piv] < row[piv]
        for below in h[i + 1:]:
            assert not any(below[:piv + 1])


def test_hermite_form_is_canonical_under_unimodular_rows():
    rng = random.Random(13)
    for k in range(60):
        rows, cols = 1 + k % 4, 1 + k % 6
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 0:
            m.append([x - y for x, y in zip(m[0], m[-1])])
        u, _ = _random_unimodular(rng, len(m), steps=8)
        h = intlinalg.hermite_normal_form(m)
        _check_hnf(h)
        assert intlinalg.hermite_normal_form(_matmul(u, m)) == h
        # the rank, with zero rows dropped
        assert len(h) == len(intlinalg.smith_normal_form(m))


def test_spans_summand():
    assert intlinalg.spans_summand([], 4)
    assert intlinalg.spans_summand([(1, 2, 3, 4), (0, 1, 5, 7)], 4)
    # the planted metabolizers are summands
    for s in range(3):
        v, basis = random_metabolic(random.Random(s), 3)
        assert intlinalg.spans_summand(basis, v.size)
    # index 2: (1, 1) and (1, -1) span the even-sum sublattice of Z^2
    assert not intlinalg.spans_summand([(1, 1), (1, -1)], 2)
    assert not intlinalg.spans_summand([(2, 0, 0), (0, 1, 0)], 3)
    # dependent rows span rank 1 < 2
    assert not intlinalg.spans_summand([(1, 2, 3), (2, 4, 6)], 3)
    with pytest.raises(ValueError):
        intlinalg.spans_summand([(1, 0)], 3)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (2, -7), (3, 5)])
def test_symplectic_basis_standardizes_the_form(p, q):
    # the torus knot's Seifert matrix before `torus_knot` re-bases it
    v = _tensor_bidiagonal(p, abs(q))
    n = len(v)
    j = [[v[a][b] - v[b][a] for b in range(n)] for a in range(n)]
    cols = intlinalg.symplectic_basis(j)
    assert len(cols) == n
    form = _matmul(_matmul(cols, j), [list(c) for c in zip(*cols)])
    assert form == [[(a % 2 == 0 and b == a + 1) - (b % 2 == 0 and a == b + 1)
                     for b in range(n)] for a in range(n)]
    with pytest.raises(ValueError):
        intlinalg.symplectic_basis([[0, 2], [-2, 0]])
