"""Dense univariate polynomials over exact rationals.

A polynomial is a list of Fractions, index = degree, with no trailing
zeros; the zero polynomial is the empty list.  This module carries the
shared exact kernel: arithmetic, Euclidean division, gcd, content,
squarefree decomposition, Sturm chains, real root isolation and the
fraction-free elimination of integer polynomial matrices, which runs on
integer coefficient lists over Z[x].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

F = Fraction

Poly = list  # list[Fraction], ascending degree


def trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def deg(p):
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p):
    return not p


def const(c) -> Poly:
    c = F(c)
    return [c] if c != 0 else []


def add(p, q):
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    return trim(out)


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


def scale(p, c):
    c = F(c)
    if c == 0:
        return []
    return [c * a for a in p]


def mul(p, q):
    if not p or not q:
        return []
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def mul_xk(p, k):
    if not p:
        return []
    return [F(0)] * k + list(p)


def divmod_poly(a, b):
    """Quotient and remainder in Q[x]; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [F(0)] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] / lb
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        trim(a)
    return trim(q), a


def rem(a, b):
    return divmod_poly(a, b)[1]


def exact_div(a, b):
    q, r = divmod_poly(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def monic(p):
    if not p:
        return []
    lc = p[-1]
    return [c / lc for c in p]


def gcd_monic(a, b):
    """Monic gcd in Q[x]; gcd(0, 0) = 0."""
    a, b = list(a), list(b)
    while b:
        a, b = b, rem(a, b)
    return monic(a)


def diff(p):
    return trim([i * p[i] for i in range(1, len(p))])


def evaluate(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def primitive_positive(p):
    """Scale by a positive rational so coefficients are coprime integers.

    Positive scaling only: safe inside Sturm chains.
    """
    if not p:
        return []
    den = 1
    for c in p:
        den = den * c.denominator // _igcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = _igcd(g, abs(v))
    return [F(v, g) for v in ints]


def yun(p):
    """Squarefree decomposition: list of (factor, multiplicity).

    Product of factor**multiplicity equals p up to a rational constant;
    factors are monic, squarefree and pairwise coprime.
    """
    if not p or deg(p) == 0:
        return []
    p = monic(p)
    dp = diff(p)
    g = gcd_monic(p, dp)
    out = []
    c = exact_div(p, g)
    d = sub(exact_div(dp, g), diff(c))
    m = 1
    while deg(c) > 0:
        a = gcd_monic(c, d)
        if deg(a) > 0:
            out.append((a, m))
        c = exact_div(c, a)
        d = sub(exact_div(d, a), diff(c))
        m += 1
    return out


def squarefree_part(p):
    if not p or deg(p) == 0:
        return monic(p)
    return monic(exact_div(p, gcd_monic(p, diff(p))))


def sturm_chain(p):
    chain = [primitive_positive(p), primitive_positive(diff(p))]
    while chain[-1] and deg(chain[-1]) > 0:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive_positive(neg(r)))
    return [c for c in chain if c]


def sign_variations(values):
    n = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            n += 1
        prev = s
    return n


def sturm_count(chain, a, b):
    """Number of distinct roots in (a, b); endpoints must not be roots."""
    va = sign_variations([evaluate(c, a) for c in chain])
    vb = sign_variations([evaluate(c, b) for c in chain])
    return va - vb


def isolate_real_roots(p, a, b):
    """Isolating intervals for the distinct roots of squarefree p in (a, b).

    Returns a sorted list of (lo, hi) with lo == hi for roots hit exactly;
    otherwise p changes sign on [lo, hi].  Requires p(a) != 0 != p(b).
    """
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        raise ValueError("isolation endpoints must avoid roots")
    if deg(p) <= 0:
        return []
    chain = sturm_chain(p)
    out = []

    def go(lo, hi, count):
        if count == 0:
            return
        if count == 1 and evaluate(p, lo) * evaluate(p, hi) < 0:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if evaluate(p, mid) == 0:
            w = (hi - lo) / 4
            while evaluate(p, mid - w) == 0 or evaluate(p, mid + w) == 0 or \
                    sturm_count(chain, mid - w, mid + w) != 1:
                w /= 2
            out.append((mid, mid))
            go(lo, mid - w, sturm_count(chain, lo, mid - w))
            go(mid + w, hi, sturm_count(chain, mid + w, hi))
        else:
            cl = sturm_count(chain, lo, mid)
            go(lo, mid, cl)
            go(mid, hi, count - cl)

    go(a, b, sturm_count(chain, a, b))
    out.sort()
    return out


def refine_root(p, lo, hi, width):
    """Shrink a sign-change interval of p strictly below the given width."""
    if lo == hi:
        return lo, hi
    flo = evaluate(p, lo)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        fm = evaluate(p, mid)
        if fm == 0:
            return mid, mid
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return lo, hi


def _zmul(p, q):
    """Product in Z[x]."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def _zexact_div(a, b):
    """a / b in Z[x]; raises unless b divides a there."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        c, r = divmod(a[k + db], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                a[k + i] -= c * bi
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return trim(q)


def _zpoly(p):
    """The coefficients of p as ints; p must have integer coefficients."""
    out = [int(c) for c in p]
    if out != list(p):
        raise ValueError("bareiss needs integer coefficients")
    return out


def bareiss(mat, rhs=None):
    """Fraction-free (Bareiss, 1968) elimination of a square matrix over Z[x].

    Entries are polynomials with integer coefficients (ints or integral
    Fractions); the elimination runs on integer coefficient lists and
    every division is an exact division in Z[x], checked: after step k
    each entry is a minor of order k + 1.  Returns (d, x) with
    d = det(mat), as Fraction polynomials.  Given right-hand columns rhs
    (one list of polynomials per row), the pass also clears above each
    pivot and x = d * mat^-1 * rhs; otherwise it clears below only, which
    is all the determinant needs, and x is None.
    """
    n = len(mat)
    a = [[_zpoly(e) for e in (*row, *(rhs[i] if rhs else ()))]
         for i, row in enumerate(mat)]
    width = len(a[0]) if a else 0
    sign, prev, pivot = 1, [1], [1]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return [], None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for i in (range(n) if rhs else range(k + 1, n)):
            if i == k:
                continue
            row, f = a[i], a[i][k]
            for j in range(k + 1, width):
                row[j] = _zexact_div(
                    sub(_zmul(row[j], pivot), _zmul(f, top[j])), prev)
            row[k] = []
        prev = pivot

    def out(p):
        return [F(sign * c) for c in p]

    if not rhs:
        return out(pivot), None
    # the left block is now pivot * I, so the right block is pivot * mat^-1 rhs
    return out(pivot), [[out(e) for e in row[n:]] for row in a]
