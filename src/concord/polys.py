"""Dense univariate polynomials over exact rationals.

A polynomial is a list of Fractions, index = degree, with no trailing
zeros; the zero polynomial is the empty list.  This module carries the
shared exact kernel: arithmetic, Euclidean division, gcd, content,
squarefree decomposition, Sturm chains, real root isolation, and two
routines on integer coefficient lists over Z[x]: the fraction-free
elimination of integer polynomial matrices and the factorization of an
integer polynomial into irreducibles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, zip_longest
from math import gcd as _igcd, isqrt

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
    return monic([F(c) for c in _zgcd(_zprim(a), _zprim(b))])


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
    return [(monic([F(c) for c in a]), m) for a, m in _zyun(_zprim(p))]


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


def _zprem(a, b):
    """Pseudo-remainder in Z[x]: lc(b)^k a mod b for the k that keeps the
    division free of fractions."""
    a, db, lb = list(a), len(b) - 1, b[-1]
    while len(a) > db:
        c, k = a[-1], len(a) - 1 - db
        a = [lb * x for x in a]
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        trim(a)
    return a


def _zprim(p):
    """A polynomial over Q scaled by a positive rational to coprime ints."""
    return [int(c) for c in primitive_positive(p)]


def _zgcd(a, b):
    """gcd in Z[x], primitive with positive leading coefficient; Euclid's
    algorithm on primitive pseudo-remainders, which keeps the coefficients
    small."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _zprem(a, b)
        a, b = b, _zprimitive(r) if r else []
    return _zprimitive(a) if a else []


def _zyun(f):
    """Yun's squarefree decomposition of f in Z[x]: (a, m) pairs, each a
    squarefree, primitive, with positive leading coefficient, pairwise
    coprime, and prod a**m = f up to a constant.  Every division is exact
    in Z[x] because each divisor is a primitive factor (Gauss's lemma)."""
    df = diff(f)
    g = _zgcd(f, df)
    c = _zexact_div(f, g)
    d = sub(_zexact_div(df, g), diff(c))
    out, m = [], 1
    while len(c) > 1:
        a = _zgcd(c, d)
        if len(a) > 1:
            out.append((a, m))
        c = _zexact_div(c, a)
        d = sub(_zexact_div(d, a), diff(c))
        m += 1
    return out


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


# ---------------------------------------------------------------------------
# Factorization over Z[x]: Berlekamp (1967) mod p, Hensel lifting and
# Zassenhaus (1969) recombination.  Polynomials mod p are int lists with
# entries in [0, p), ascending, no trailing zeros.
# ---------------------------------------------------------------------------

def _pnorm(a, p):
    return trim([c % p for c in a])


def _pmonic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pdivmod(a, b, p):
    """Quotient and remainder in F_p[x]; b must be nonzero."""
    a = [c % p for c in a]
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + db] * inv % p
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                a[k + i] = (a[k + i] - c * bi) % p
    return trim(q), trim(a[:db])


def _prem(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    """Monic gcd in F_p[x]."""
    while b:
        a, b = b, _prem(a, b, p)
    return _pmonic(a, p) if a else []


def _pinvmod(a, g, p):
    """s with s * a = 1 mod g in F_p[x]; a and g must be coprime."""
    r0, r1, s0, s1 = g, _prem(a, g, p), [], [1]
    while len(r1) > 1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pnorm(sub(s0, _zmul(q, s1)), p)
    if not r1:
        raise ArithmeticError("polynomials are not coprime mod p")
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _ppowmod(a, e, f, p):
    """a**e mod f in F_p[x]."""
    out, a = [1], _prem(a, f, p)
    while e:
        if e & 1:
            out = _prem(_zmul(out, a), f, p)
        a = _prem(_zmul(a, a), f, p)
        e >>= 1
    return out


def _pnullspace(rows, p):
    """A basis of {v : rows v = 0} over F_p, one vector per free column in
    ascending order, from the reduced row echelon form."""
    m = [list(r) for r in rows]
    n = len(m[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                k = m[i][c]
                m[i] = [(x - k * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for c in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][c] % p
        basis.append(trim(v))
    return basis


def _berlekamp_basis(f, p):
    """A basis of the Berlekamp algebra {v : v**p = v mod f} of a monic f,
    squarefree mod p; its size is the number of irreducible factors of f
    mod p, and its first vector is the constant 1."""
    n = len(f) - 1
    xp = _ppowmod([0, 1], p, f, p)
    q, row = [], [1]
    for _ in range(n):
        q.append(row + [0] * (n - len(row)))
        row = _prem(_zmul(row, xp), f, p)
    # v = sum v_i x^i is in the algebra iff sum_i v_i (x^(ip) - x^i) = 0
    return _pnullspace([[(q[i][j] - (i == j)) % p for i in range(n)]
                        for j in range(n)], p)


def _berlekamp_split(f, basis, p):
    """The monic irreducible factors of f mod p: each algebra element v
    splits each factor u as the product of gcd(u, v - s), s in F_p."""
    factors = [f]
    for v in basis[1:]:
        if len(factors) == len(basis):
            break
        split = []
        for u in factors:
            if len(u) == 2:
                split.append(u)
                continue
            found = 0
            for s in range(p):
                g = _pgcd(u, _pnorm([v[0] - s] + v[1:], p), p)
                if len(g) > 1:
                    split.append(g)
                    found += len(g) - 1
                    if found == len(u) - 1:
                        break
        factors = split
    return factors


def _good_primes(f, wanted):
    """The first primes p not dividing lc(f) with f squarefree mod p."""
    df = diff(f)
    found = 0
    for p in count(2):
        if found == wanted:
            return
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)) or f[-1] % p == 0:
            continue
        if len(_pgcd(_pnorm(f, p), _pnorm(df, p), p)) == 1:
            found += 1
            yield p


def _hensel_lift(f, gs, p, k):
    """Monic G_i = g_i mod p with f = lc(f) * prod G_i mod p**k, by linear
    lifting from f = lc(f) * prod g_i mod p (g_i monic, pairwise coprime)."""
    lc = f[-1]
    inv_lc = pow(lc, -1, p)
    # s_i with sum_i s_i * prod_{j != i} g_j = 1 mod p
    inverses = []
    for i, g in enumerate(gs):
        cof = [1]
        for j, h in enumerate(gs):
            if j != i:
                cof = _prem(_zmul(cof, h), g, p)
        inverses.append(_pinvmod(cof, g, p))
    lifted, m = [list(g) for g in gs], p
    for _ in range(k - 1):
        mp = m * p
        prod = [lc]
        for g in lifted:
            prod = [c % mp for c in _zmul(prod, g)]
        e = _pnorm([(a - b) // m * inv_lc
                    for a, b in zip_longest(f, prod, fillvalue=0)], p)
        for i, g in enumerate(gs):
            d = _prem(_zmul(e, inverses[i]), g, p)
            lifted[i] = [c + m * dc for c, dc in
                         zip_longest(lifted[i], d, fillvalue=0)]
        m = mp
    return lifted


def _zprimitive(g):
    """g divided by its content, with positive leading coefficient."""
    c = 0
    for a in g:
        c = _igcd(c, a)
    c = c if g[-1] > 0 else -c
    return [a // c for a in g]


def _zdivides(f, g):
    """f / g in Z[x], or None when g does not divide f there."""
    try:
        return _zexact_div(f, g)
    except ArithmeticError:
        return None


def _recombine(f, lifted, m):
    """The irreducible factors of f over Z from monic factors of f mod m,
    m > 2 |lc(f)| B for a bound B on the coefficients of factors of f.

    Subsets of the modular factors are tried by size; with the leading
    coefficient trick, lc(f) * prod_S G_i taken symmetrically mod m is
    (lc(f) / lc(g)) * g for a true factor g when S belongs to one."""
    out = []
    size = 1
    while 2 * size <= len(lifted):
        lc = f[-1]
        for subset in combinations(range(len(lifted)), size):
            g = [lc]
            for i in subset:
                g = [(c + m // 2) % m - m // 2 for c in _zmul(g, lifted[i])]
            if not g[0] or (lc * f[0]) % g[0]:
                continue
            g = _zprimitive(g)
            q = _zdivides(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _zassenhaus(f):
    """Irreducible factors of a primitive, squarefree f with positive
    leading coefficient and f(0) != 0, over the prime with the fewest
    modular factors among the first five good primes."""
    best = None
    for p in _good_primes(f, 5):
        fp = _pmonic(_pnorm(f, p), p)
        basis = _berlekamp_basis(fp, p)
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        if len(basis) == 1:
            return [f]
    p, fp, basis = best
    # Mignotte: a factor of f has coefficients at most 2^deg(f) |f|_2
    bound = 2 * f[-1] * ((isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1))
    m, k = p, 1
    while m <= bound:
        m, k = m * p, k + 1
    return _recombine(
        f, _hensel_lift(f, _berlekamp_split(fp, basis, p), p, k), m)


def _totient(n):
    out, m = n, n
    for d in range(2, isqrt(n) + 1):
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
    return out - out // m if m > 1 else out


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """Phi_n as a tuple of ints: x^n - 1 over the Phi_d, d | n, d < n."""
    q = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = _zexact_div(q, _cyclotomic(d))
    return tuple(q)


@lru_cache(maxsize=None)
def _cyclotomic_orders(d):
    """Every n with phi(n) <= d, ascending; phi(n) >= sqrt(n / 2)."""
    return tuple(n for n in range(1, 2 * d * d + 1) if _totient(n) <= d)


def _factor_squarefree(f):
    """Irreducible factors of a primitive, squarefree f with positive
    leading coefficient and f(0) != 0: cyclotomic factors by trial
    division, the rest by Zassenhaus's method."""
    out = []
    for n in _cyclotomic_orders(len(f) - 1):
        phi = _cyclotomic(n)
        if len(phi) > len(f):
            continue
        q = _zdivides(f, phi)
        if q is not None:
            out.append(list(phi))
            f = q
    if len(f) == 2:
        out.append(f)
    elif len(f) > 2:
        out.extend(_zassenhaus(f))
    return out


def factor_z(f):
    """Irreducible factorization over Z of a primitive integer polynomial f
    (a list of ints, ascending) with positive leading coefficient.

    Returns a list of (g, m), each g a primitive irreducible int list with
    positive leading coefficient and prod g**m == f, sorted by degree and
    then by the coefficients from the top down.  Deterministic: squarefree
    decomposition (Yun), trial division by cyclotomic polynomials, then
    Berlekamp mod a small prime, Hensel lifting and recombination.
    """
    f = list(f)
    out = []
    k = next(i for i, c in enumerate(f) if c)
    if k:
        out.append(([0, 1], k))
        f = f[k:]
    if len(f) > 1:
        for part, m in _zyun(f):
            out.extend((g, m) for g in _factor_squarefree(part))
    return sorted(out, key=lambda gm: (len(gm[0]), gm[0][::-1]))
