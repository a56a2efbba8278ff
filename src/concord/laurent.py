"""Exact rational Laurent polynomials in one variable t.

Carries the unit-of-Q[t,t^-1] bookkeeping the rest of the toolkit leans
on: canonical forms make "equal up to units" a plain equality test, and
conjugation t -> 1/t together with irreducible factorization supports
coprime module decompositions.
"""

from __future__ import annotations

from fractions import Fraction

from . import polys
from .records import frozen

F = Fraction


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero Laurent polynomial."""


class UnsupportedDegree(ValueError):
    """Factorization request above the configured degree bound."""


class LaurentPoly:
    """Immutable Laurent polynomial: finite map exponent -> Fraction."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                v = F(v)
                if v != 0:
                    c[int(k)] = c.get(int(k), F(0)) + v
        self._c = {k: v for k, v in c.items() if v != 0}

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t_power(cls, k, c=1):
        return cls({k: c})

    @classmethod
    def from_dense(cls, dense, shift=0):
        return cls({i + shift: c for i, c in enumerate(dense)})

    @property
    def is_zero(self):
        return not self._c

    @property
    def min_exp(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return min(self._c)

    @property
    def max_exp(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return max(self._c)

    @property
    def span(self):
        """Degree of the polynomial shadow (max_exp - min_exp); -1 if zero."""
        return -1 if not self._c else self.max_exp - self.min_exp

    def to_dense(self):
        """(coefficient list ascending, shift) with list[0] != 0."""
        if not self._c:
            return [], 0
        lo = self.min_exp
        dense = [F(0)] * (self.max_exp - lo + 1)
        for k, v in self._c.items():
            dense[k - lo] = v
        return dense, lo

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return LaurentPoly({k: v * other for k, v in self._c.items()})
        out = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                out[k] = out.get(k, F(0)) + v1 * v2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers only for monomials")
        acc = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self):
        return f"LaurentPoly({render(self)!r})"

    def substitute_inverse(self):
        """t -> 1/t, without normalization."""
        return LaurentPoly({-k: v for k, v in self._c.items()})

    def evaluate(self, x):
        x = F(x)
        if x == 0:
            raise ZeroDivisionError("Laurent polynomials need t != 0")
        return sum((v * x ** k for k, v in self._c.items()), F(0))


@frozen
class PrimeFactorization:
    """unit_coeff * t**unit_exp * prod(f**m for f, m in factors) == input."""

    unit_coeff: Fraction
    unit_exp: int
    factors: tuple  # tuple[(LaurentPoly, int)]

    def recompose(self):
        acc = LaurentPoly.t_power(self.unit_exp, self.unit_coeff)
        for f, m in self.factors:
            acc = acc * f ** m
        return acc


def normalize(p: LaurentPoly) -> LaurentPoly:
    """Canonical associate: min exponent 0, coprime integer coefficients,
    positive leading coefficient."""
    if p.is_zero:
        raise ZeroPolynomial("cannot normalize 0")
    prim = polys.primitive_positive(p.to_dense()[0])
    return LaurentPoly.from_dense(prim if prim[-1] > 0 else polys.neg(prim))


def unit_between(p: LaurentPoly, canon: LaurentPoly):
    """(coeff, exp) with p == coeff * t**exp * canon."""
    dense, lo = p.to_dense()
    cd, _ = canon.to_dense()
    return dense[-1] / cd[-1], lo


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Canonical-form gcd; gcd(p, 0) = normalize(p)."""
    if p.is_zero and q.is_zero:
        raise ZeroPolynomial("gcd(0, 0) undefined")
    if p.is_zero:
        return normalize(q)
    if q.is_zero:
        return normalize(p)
    a, _ = p.to_dense()
    b, _ = q.to_dense()
    return normalize(LaurentPoly.from_dense(polys.gcd_monic(a, b)))


def conjugate(p: LaurentPoly) -> LaurentPoly:
    """Substitute 1/t for t, then normalize."""
    if p.is_zero:
        raise ZeroPolynomial("cannot conjugate 0")
    return normalize(p.substitute_inverse())


# The largest degree factor accepts; specs refuses Seifert matrices of
# larger order when it parses them.
MAX_FACTOR_DEGREE = 32


def factor(p: LaurentPoly,
           max_degree: int = MAX_FACTOR_DEGREE) -> PrimeFactorization:
    """Complete factorization into rationally irreducible canonical factors,
    sorted by degree and then by coefficients from the top down; the
    canonical form is factored over Z[t] by polys.factor_z."""
    if p.is_zero:
        raise ZeroPolynomial("cannot factor 0")
    if p.span > max_degree:
        raise UnsupportedDegree(
            f"degree {p.span} exceeds factorization bound {max_degree}")
    canon = normalize(p)
    ucoeff, uexp = unit_between(p, canon)
    dense, _ = canon.to_dense()
    factors = tuple((LaurentPoly.from_dense(g), m)
                    for g, m in polys.factor_z([int(c) for c in dense]))
    result = PrimeFactorization(ucoeff, uexp, factors)
    if result.recompose() != p:
        raise ArithmeticError("factorization failed to recompose input")
    return result


def render(p: LaurentPoly) -> str:
    """Text form "a_k*t^k + ...", exponents descending."""
    if p.is_zero:
        return "0"
    parts = []
    for k, v in sorted(p._c.items(), reverse=True):
        sign = "-" if v < 0 else "+"
        a = abs(v)
        if k == 0:
            body = f"{a}"
        else:
            tpart = "t" if k == 1 else f"t^{k}"
            body = tpart if a == 1 else f"{a}*{tpart}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
