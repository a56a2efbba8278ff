"""Exact integer matrix utilities: the row Hermite normal form, which is
the one integer elimination; the Smith form from alternating Hermite
forms of M and M^T; direct-summand tests and symplectic basis extraction.

Everything works on plain Python ints (arbitrary precision); matrices
are lists of lists and are never mutated in place by public functions.
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(mat):
    """Invariant factors d_1 | d_2 | ... of an integer matrix (d_i > 0).

    Zero rows/columns contribute nothing; the list length is the rank.
    Row HNFs of M and of its transpose alternate (Kannan & Bachem, SIAM
    J. Comput. 1979) until the matrix is diagonal up to the order of its
    rows and columns; pairwise gcd/lcm then orders the diagonal by
    divisibility.
    """
    m = hermite_normal_form(mat)
    # HNF rows have distinct pivots: one nonzero per row is diagonal
    while any(sum(1 for x in row if x) > 1 for row in m):
        m = hermite_normal_form(zip(*m))
    d = [abs(x) for row in m for x in row if x]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def spans_summand(vectors, ambient_dim):
    """True iff the integer row vectors span a rank-len(vectors) direct
    summand of Z^ambient_dim (all invariant factors 1)."""
    if not vectors:
        return True
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError("vector length mismatch")
    d = smith_normal_form([list(v) for v in vectors])
    return len(d) == len(vectors) and all(x == 1 for x in d)


def primitive_part(vector):
    g = 0
    for v in vector:
        g = gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(v // g for v in vector)


def sign_normalized(vector):
    """Flip so the first nonzero entry is positive."""
    for v in vector:
        if v:
            return tuple(vector) if v > 0 else tuple(-x for x in vector)
    return tuple(vector)


def hermite_normal_form(mat):
    """Row-style HNF (canonical lattice basis) as a tuple of tuples."""
    m = [list(r) for r in mat if any(r)]
    if not m:
        return ()
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # clear below by gcd steps
        for i in range(r + 1, len(m)):
            while m[i][c]:
                if abs(m[i][c]) < abs(m[r][c]):
                    m[r], m[i] = m[i], m[r]
                q = m[i][c] // m[r][c]
                for k in range(cols):
                    m[i][k] -= q * m[r][k]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                for k in range(cols):
                    m[i][k] -= q * m[r][k]
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r] if any(row))


def symplectic_basis(j):
    """Columns of an integer change of basis P with P^T J P in interleaved
    block form diag([[0, e_i], [-e_i, 0]]), e_i = 1, for a unimodular
    antisymmetric J.

    Returns P as a list of columns.
    """
    n = len(j)
    if n % 2:
        raise ValueError("antisymmetric form on odd rank is degenerate")

    def form(u, v):
        return sum(u[a] * j[a][b] * v[b] for a in range(n) for b in range(n))

    basis = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
    pairs = []
    while basis:
        v = basis.pop(0)
        # integer combination w of the remaining basis with form(v, w) = 1
        vals = [form(v, u) for u in basis]
        g = 0
        for x in vals:
            g = gcd(g, abs(x))
        if g != 1:
            raise ValueError("form is not unimodular on the remaining lattice")
        w = [0] * n
        # greedy extended gcd over the list
        acc_g = 0
        acc_w = [0] * n
        for u, x in zip(basis, vals):
            if x == 0:
                continue
            if acc_g == 0:
                acc_g = abs(x)
                s = 1 if x > 0 else -1
                acc_w = [s * t for t in u]
            else:
                a, b = acc_g, x
                # solve a*s + b*t = gcd(a, b)
                old_r, r_ = a, b
                old_s, s_ = 1, 0
                old_t, t_ = 0, 1
                while r_:
                    q = old_r // r_
                    old_r, r_ = r_, old_r - q * r_
                    old_s, s_ = s_, old_s - q * s_
                    old_t, t_ = t_, old_t - q * t_
                acc_w = [old_s * aw + old_t * uw for aw, uw in zip(acc_w, u)]
                acc_g = old_r
            if acc_g == 1:
                break
        w = acc_w
        assert form(v, w) == 1
        pairs.append((v, w))
        # project the rest into the symplectic complement of (v, w)
        new_basis = []
        for u in basis:
            cu_v = form(u, w)
            cu_w = form(u, v)
            u2 = [u[i] - cu_v * v[i] + cu_w * w[i] for i in range(n)]
            if any(u2):
                new_basis.append(u2)
        # v is already popped: the complement has rank len(basis) - 1
        rank = len(basis) - 1
        basis = [list(r) for r in hermite_normal_form(new_basis)]
        if len(basis) != rank:
            raise ValueError("unexpected rank during symplectic reduction")
    cols = []
    for v, w in pairs:
        cols.append(v)
        cols.append(w)
    return cols

