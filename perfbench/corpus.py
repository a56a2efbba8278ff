"""Seeded inputs for the three workloads (standard library only).

A run is made of whole rounds.  Every round of a workload has the same
make-up (the same kinds of operation, in the same number, at the same
sizes), so the work and the share of failing operations per round do
not depend on the seed.  The seed picks the Seifert basis each knot or
matrix is written in, the random genus-1 matrices and the family
parameters drawn from fixed pools.  Knots and matrices that recur from
round to round (the torus and twist knots, the catalogue matrices, the
paper's examples) are re-expressed in a fresh Seifert basis or under a
fresh name, so no input repeats within a run and a memo keyed on the
input can only help inside one operation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import isqrt

F = Fraction

R9 = "1/1000000000"
R30 = "1/" + "1" + "0" * 30

TORUS_PAIRS = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13),
               (3, 4), (3, 5), (3, 7), (4, 5))        # every torus knot, genus <= 6
TWIST_1E30 = (-1, -2, -3, -4, -5, -6)                 # twist knots with jumps
SUMS_1E30 = ((-2, -3),)                               # genus-2 sums with jumps
# The trefoil at 1e-30, in as many bases per round: the cheaper half of a
# round's operations ends inside this block of equal-cost calls, so
# op_p50_ms measures them rather than the rank order of unlike ones.
TREFOILS_1E30 = 10


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def skew(v):
    n = len(v)
    return [[v[a][b] - v[b][a] for b in range(n)] for a in range(n)]


def max_entry(v):
    return max((abs(x) for r in v for x in r), default=0)


def twist_matrix(tw):
    return [[tw, 1], [0, -1]]


def genus_one_matrix(l, tw):
    return [[0, l], [l + 1, tw]]


def block_sum(*mats):
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    base = 0
    for m in mats:
        for i, row in enumerate(m):
            out[base + i][base:base + len(m)] = list(row)
        base += len(m)
    return out


def torus_matrix(p, q):
    """Seifert matrix of T(p, q) in the symplectic block form.

    Built from the bidiagonal tensor form, then re-based by a symplectic
    Gram-Schmidt so that V - V^T is a sum of 2x2 blocks.  The benchmark
    does not take this from the program: its rho0 is checked against the
    closed form -(p^2 - 1)(q^2 - 1)/(3pq).
    """
    def e(n):
        return [[1 if i == j else (-1 if j == i + 1 else 0)
                 for j in range(n - 1)] for i in range(n - 1)]

    ep, eq = e(p), e(q)
    rows = [[-ep[i1][j1] * eq[i2][j2] for j1 in range(p - 1) for j2 in range(q - 1)]
            for i1 in range(p - 1) for i2 in range(q - 1)]
    cols = _symplectic_columns(skew(rows))
    return matmul(matmul(transpose(cols), rows), cols)


def _symplectic_columns(j):
    """Columns c_1..c_2g of a unimodular P with P^T J P block diagonal
    with blocks [[0, 1], [-1, 0]] (J integral, skew, unimodular)."""
    n = len(j)

    def form(x, y):
        return sum(x[a] * j[a][b] * y[b] for a in range(n) for b in range(n))

    pool = [[int(i == k) for i in range(n)] for k in range(n)]
    out = []
    while pool:
        x = pool.pop(0)
        k = next(i for i, y in enumerate(pool) if abs(form(x, y)) == 1)
        y = pool.pop(k)
        if form(x, y) == -1:
            y = [-c for c in y]
        out += [x, y]
        pool = [[z[i] - form(z, y) * x[i] + form(z, x) * y[i] for i in range(n)]
                for z in pool]
    return transpose(out)


def transvections(rng, v, moves):
    """Re-express V in a random symplectic basis.

    Each move is a symplectic transvection x -> x + c (u^T J x) u with
    J = V - V^T, u = e_i or e_i +- e_k and c = +-1, so P^T J P = J and
    V' = P^T V P is a Seifert matrix of the same knot.  Returns V' and
    P^-1 (which carries a metabolizer of V to one of V').
    """
    n = len(v)
    j = skew(v)
    p, pinv = identity(n), identity(n)
    for _ in range(moves):
        u = [0] * n
        i = rng.randrange(n)
        u[i] = 1
        k = rng.randrange(n)
        if k != i:
            u[k] = rng.choice((1, -1))
        c = rng.choice((1, -1))
        uj = [sum(u[a] * j[a][b] for a in range(n)) for b in range(n)]
        step = [[int(a == b) + c * u[a] * uj[b] for b in range(n)] for a in range(n)]
        back = [[int(a == b) - c * u[a] * uj[b] for b in range(n)] for a in range(n)]
        p, pinv = matmul(p, step), matmul(back, pinv)
    return matmul(matmul(transpose(p), v), p), pinv


def pair_permutation(rng, v):
    """Re-express V in a basis made of its own basis vectors: the pairs
    (a_i, b_i) are permuted, and within each pair a and b may swap and
    change sign.  V - V^T stays block diagonal, the entries keep their
    sizes, so the knot and the cost of computing with it stay the same.
    Returns V' = P^T V P and P^-1 = P^T."""
    n = len(v)
    order = list(range(n // 2))
    rng.shuffle(order)
    p = [[0] * n for _ in range(n)]
    for new, old in enumerate(order):
        cols = [2 * new, 2 * new + 1]
        if rng.random() < 0.5:
            cols.reverse()
        p[2 * old][cols[0]] = rng.choice((1, -1))
        p[2 * old + 1][cols[1]] = rng.choice((1, -1))
    return matmul(matmul(transpose(p), v), p), transpose(p)


def random_seifert(rng, genus, bound):
    """Random Seifert matrix in the interleaved block convention."""
    n = 2 * genus
    m = [[0] * n for _ in range(n)]
    for i in range(genus):
        c = rng.randint(-bound, bound)
        m[2 * i][2 * i] = rng.randint(-bound, bound)
        m[2 * i][2 * i + 1] = c + rng.choice((1, -1))
        m[2 * i + 1][2 * i] = c
        m[2 * i + 1][2 * i + 1] = rng.randint(-bound, bound)
    for i in range(genus):
        for k in range(i + 1, genus):
            for r in range(2):
                for s in range(2):
                    m[2 * i + r][2 * k + s] = m[2 * k + s][2 * i + r] = \
                        rng.randint(-bound, bound)
    return m


def random_metabolic(rng, genus, bound, moves):
    """Metabolic Seifert matrix with a planted integral metabolizer.

    In the basis a_1, b_1, ..., a_g, b_g the form is zero on the a's:
    V(a_i, a_k) = 0, V(a_i, b_k) = L_ik, V(b_i, a_k) = L_ki + [i = k],
    V(b_i, b_k) = N_ik with N symmetric.  The basis is then scrambled
    by symplectic transvections; the a's, carried along, stay a
    metabolizer.
    """
    g = genus
    lmat = [[rng.randint(-bound, bound) for _ in range(g)] for _ in range(g)]
    nmat = [[0] * g for _ in range(g)]
    for i in range(g):
        for k in range(i, g):
            nmat[i][k] = nmat[k][i] = rng.randint(-bound, bound)
    v = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        for k in range(g):
            v[2 * i][2 * k + 1] = lmat[i][k]
            v[2 * i + 1][2 * k] = lmat[k][i] + (i == k)
            v[2 * i + 1][2 * k + 1] = nmat[i][k]
    vp, pinv = transvections(rng, v, moves)
    basis = [[pinv[r][2 * i] for r in range(2 * g)] for i in range(g)]
    return vp, basis


# ---------------------------------------------------------------------------
# Alexander polynomial by evaluation and interpolation
# ---------------------------------------------------------------------------

def _det(m):
    m = [[F(x) for x in row] for row in m]
    n = len(m)
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def delta_coeffs(v):
    """Integer coefficients (ascending in t) of det(tV - V^T)."""
    n = len(v)
    pts = list(range(n + 1))
    vals = [_det([[t * v[a][b] - v[b][a] for b in range(n)] for a in range(n)])
            for t in pts]
    coeffs = [F(0)] * (n + 1)
    for i, xi in enumerate(pts):
        basis, denom = [F(1)], F(1)
        for k, xk in enumerate(pts):
            if k != i:
                basis = [F(0)] + basis
                for d in range(len(basis) - 1):
                    basis[d] -= xk * basis[d + 1]
                denom *= xi - xk
        for d, c in enumerate(basis):
            coeffs[d] += vals[i] * c / denom
    return [int(c) for c in coeffs]


def _poly_rem(a, b):
    a = [F(x) for x in a]
    while len(a) >= len(b) and any(a):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for d, c in enumerate(b):
            a[shift + d] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def is_squarefree(coeffs):
    a = list(coeffs)
    while a and a[-1] == 0:
        a.pop()
    b = [d * c for d, c in enumerate(a)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


# ---------------------------------------------------------------------------
# Workload rounds
# ---------------------------------------------------------------------------

@cache
def seifert_catalogue():
    """Random Seifert matrices of genus 2, 2, 3, 3, 4, 4 for the signatures
    workload, drawn once from a fixed seed (see metabolic_catalogue)."""
    rng = random.Random("concord-seifert-catalogue")
    return tuple(random_seifert(rng, g, 3) for g in (2, 2, 3, 3, 4, 4))


# (operation, genus, smallest and largest entry, count) of the metabolic
# matrices of every algebra round.  Genus 4 Lagrangians and the genus-3
# metabolizer search are left out: one such call costs 3 to 17 s
# (Lagrangians) or 1 to 34 s (search) depending on the draw, which no
# input property we found predicts, so a run's throughput would follow
# the draw.
METABOLIC_MAKEUP = (("lagrangians", 2, 4, 8, 4), ("lagrangians", 3, 4, 8, 5),
                    ("higher_genus", 2, 4, 8, 12))


@cache
def metabolic_catalogue():
    """The algebra workload's metabolic matrices, before re-basing.

    Drawn once from a fixed seed: even at one genus and entry size the
    cost of a Lagrangian computation varies several-fold between random
    matrices, so every run uses the same ones, each in a basis of its own.
    det V != 0 keeps the module in its direct model; a square-free Delta
    keeps it cyclic, so lagrangians() accepts it.
    """
    rng = random.Random("concord-algebra-catalogue")
    out = []
    for kind, genus, lo, hi, count in METABOLIC_MAKEUP:
        while count:
            v, basis = random_metabolic(rng, genus, 2, 2 * genus)
            d = delta_coeffs(v)
            if lo <= max_entry(v) <= hi and d[0] != 0 and is_squarefree(d):
                out.append((kind, v, basis))
                count -= 1
    return tuple(out)


class Corpus:
    """Deterministic stream of rounds for one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()

    def fresh(self, make):
        """Draw matrices from make() until one is new in this run."""
        while True:
            out = make()
            if repr(out) not in self.seen:
                self.seen.add(repr(out))
                return out

    def round(self, index):
        """The operations of round `index`, in a seeded order.  Each carries
        its `slot`: its place in the round's fixed make-up, the same in
        every round."""
        ops = getattr(self, "_" + self.workload)(index)
        for slot, op in enumerate(ops):
            op["slot"] = slot
        self.rng.shuffle(ops)
        return ops

    def rebase(self, base):
        """A basis of the Seifert form `base` not used before in this run:
        (V', P^-1).  Signed permutations of the symplectic pairs come first,
        as they keep the entries and hence the cost; only once those run
        out are symplectic transvections taken, one more move per 100 draws."""
        draws = 0
        while True:
            if draws < 100:
                v, pinv = pair_permutation(self.rng, base)
            else:
                v, pinv = transvections(self.rng, base, draws // 100)
            draws += 1
            if repr(v) not in self.seen:
                self.seen.add(repr(v))
                return v, pinv

    def _signatures(self, index):
        rng = self.rng
        ops = []
        for p, q in TORUS_PAIRS:
            ops.append({"kind": "torus", "p": p, "q": q, "radius": R9,
                        "matrix": self.rebase(torus_matrix(p, q))[0]})
        for v0 in seifert_catalogue():
            ops.append({"kind": "random", "radius": R9, "matrix": self.rebase(v0)[0]})
        for tw in TWIST_1E30:
            ops.append({"kind": "twist", "radius": R30,
                        "matrix": self.rebase(twist_matrix(tw))[0]})
        for a, b in SUMS_1E30:
            sum_ab = block_sum(twist_matrix(a), twist_matrix(b))
            ops.append({"kind": "twist_sum", "radius": R30, "matrix": self.rebase(sum_ab)[0]})
        for _ in range(TREFOILS_1E30):
            ops.append({"kind": "torus", "p": 2, "q": 3, "radius": R30,
                        "matrix": self.rebase(torus_matrix(2, 3))[0]})
        return ops

    def _algebra(self, index):
        rng = self.rng
        ops = []
        for kind, v0, planted in metabolic_catalogue():
            v, pinv = self.rebase(v0)
            basis = [[sum(pinv[r][c] * b[c] for c in range(len(b))) for r in range(len(b))]
                     for b in planted]
            ops.append({"kind": kind, "matrix": v, "planted": basis})
        for _ in range(8):
            v = self.fresh(lambda: random_seifert(rng, 1, 6))
            ops.append({"kind": "genus1", "matrix": v})
        return ops

    def _reports(self, index):
        rng = self.rng
        tag = f"r{index}"
        ops = [example73(tag), example74(tag)]
        nonsquare = [t for t in range(1, 16) if not is_square(4 * t + 1)]
        # 0, 2, 6, 12: 4tw+1 a square (the slice ones and two that are not);
        # twist(20) is left out: its report costs five times the others
        for tw in (0, 2, 6, 12, rng.choice(nonsquare), rng.randint(-9, -1)):
            ops.append(_doc(f"twist({tw}).{tag}", {"type": "twist", "tw": tw}))
        l = rng.randint(1, 4)
        ops.append(_doc(f"g1({l}).{tag}", {
            "type": "genus_one", "l": l, "tw": 0,
            "cores": [f"A{tag}", {"name": f"C{tag}", "family": {
                "type": "genus_one", "l": rng.randint(1, 3), "tw": 0,
                "cores": [f"D{tag}", f"E{tag}"]}}]}))
        a, b = rng.choice(nonsquare), rng.randint(-6, -1)
        ops.append(_doc(f"sum({a},{b}).{tag}", {
            "type": "connected_sum", "parts": [
                {"name": f"tw{a}", "family": {"type": "twist", "tw": a}},
                {"name": f"tw{b}", "family": {"type": "twist", "tw": b}}]}))
        # l1 != l2: equal blocks give a non-cyclic module, which report refuses (exit 3)
        l1, l2 = rng.sample(range(1, 5), 2)
        ops.append(_doc(f"fig9({l1},{l2}).{tag}", {
            "type": "genus_two_fig9", "l1": l1, "l2": l2,
            "L": [f"P{tag}", f"Q{tag}"], "LL": [f"S{tag}", f"U{tag}"],
            "B": f"B{tag}"}))
        ops.append(_doc(f"T(2,3).{tag}", {"type": "torus", "p": 2, "q": 3}))
        ops.append(_doc(f"T(2,5).{tag}", {"type": "torus", "p": 2, "q": 5}))
        return ops


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def _doc(name, family):
    return {"kind": "report", "doc": {"name": name, "family": family}}


def example73(tag):
    """Example 7.3 of the paper (the spec of tests/test_pipeline.py)."""
    doc = {"name": f"K73.{tag}", "family": {
        "type": "genus_one", "l": 3, "tw": 0, "cores": [
            {"name": "L1", "family": {"type": "genus_one", "l": 1, "tw": 0,
                                      "base_name": "9_46", "cores": ["J1", "J2"]}},
            "L2"]}}
    assume = {"rho0(L2)": {"sign": "nonzero"},
              "rho0(J1)": {"interval": ["6", None]},
              "rho0(J2)": {"interval": ["6", None]},
              "rho1(9_46)": {"interval": ["-10", "10"]}}
    return {"kind": "report", "example": "7.3", "doc": doc, "assume": assume}


def example74(tag):
    """Example 7.4 of the paper (the spec of tests/test_pipeline.py)."""
    doc = {"name": f"K74.{tag}", "family": {
        "type": "genus_two_fig9", "l1": 2, "l2": 1,
        "L": [{"name": "L1", "family": {"type": "genus_one", "l": 1, "tw": 0,
                                        "base_name": "9_46", "cores": ["J1", "J2"]}},
              "L2"],
        "LL": ["LL1", {"name": "LL2", "family": {"type": "unknot"}}],
        "B": "B"}}
    assume = {"rho0(L2)": {"sign": "positive"},
              "rho0(LL1)": {"sign": "positive"},
              "rho0(B)": {"sign": "nonnegative"},
              "rho0(J1)": {"interval": ["6", None]},
              "rho0(J2)": {"interval": ["6", None]},
              "rho1(9_46)": {"interval": ["-10", "10"]}}
    return {"kind": "report", "example": "7.4", "doc": doc, "assume": assume}


def family_matrix(fam):
    """Seifert matrix of a report document's family, or None if abstract."""
    t = fam["type"]
    if t == "twist":
        return twist_matrix(fam["tw"])
    if t == "genus_one":
        return genus_one_matrix(fam["l"], fam["tw"])
    if t == "genus_two_fig9":
        return block_sum(genus_one_matrix(fam["l1"], 0), genus_one_matrix(fam["l2"], 0))
    if t == "connected_sum":
        return block_sum(*[family_matrix(p["family"]) for p in fam["parts"]])
    if t == "torus":
        return torus_matrix(fam["p"], fam["q"])
    return None
