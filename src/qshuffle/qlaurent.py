"""Exact Laurent polynomials in q with rational coefficients.

The scalar ring for the whole package. Coefficients are Python ints where
possible and fractions.Fraction otherwise; there is no floating point
anywhere. Values are immutable after construction: every operation returns
a fresh polynomial and the term dict of an existing one is never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InexactDivisionError


def _norm(v):
    # keep integers as int so the hot paths stay on fast int arithmetic
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _clean(terms: dict) -> dict:
    return {e: _norm(c) for e, c in terms.items() if c}


class LaurentPoly:
    """A Laurent polynomial in q, stored as {exponent: coefficient}."""

    __slots__ = ("_c",)

    def __init__(self, terms=None, _raw=False):
        if terms is None:
            self._c = {}
        elif _raw:
            # caller guarantees: no zeros, values normalized, dict not shared
            self._c = terms
        else:
            self._c = _clean(dict(terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def const(c) -> "LaurentPoly":
        c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return LaurentPoly({0: c} if c else {}, _raw=True)

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        coeff = _norm(coeff)
        return LaurentPoly({exp: coeff} if coeff else {}, _raw=True)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_integral(self) -> bool:
        """True when every coefficient has denominator 1."""
        return Fraction not in map(type, self._c.values())

    def terms(self):
        """Sorted (exponent, coefficient) pairs, ascending in powers of q."""
        return sorted(self._c.items())

    def coeff(self, exp: int):
        return self._c.get(exp, 0)

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm(s) if type(s) is Fraction else s
            else:
                out.pop(e, None)
        return LaurentPoly(out, _raw=True)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = _norm(s) if type(s) is Fraction else s
            else:
                out.pop(e, None)
        return LaurentPoly(out, _raw=True)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._c.items()}, _raw=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        if Fraction in map(type, a.values()) or Fraction in map(type, b.values()):
            out = {e: _norm(c) for e, c in out.items()}
        return LaurentPoly(out, _raw=True)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        if not c:
            return _ZERO
        return LaurentPoly({e: _norm(v * c) for e, v in self._c.items()}, _raw=True)

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division, raising InexactDivisionError on nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        # shift both to ordinary polynomials and long-divide in one pass over
        # a dense remainder, from the top exponent down
        smin, omin = self.min_exp(), other.min_exp()
        rem = [0] * (self.max_exp() - smin + 1)
        for e, c in self._c.items():
            rem[e - smin] = c
        den = [(e - omin, c) for e, c in other._c.items()]
        dn = other.max_exp() - omin
        dlead = other._c[dn + omin]
        quot: dict = {}
        for qe in range(len(rem) - 1 - dn, -1, -1):
            r = rem[qe + dn]
            if not r:
                continue
            if type(r) is int and type(dlead) is int and not r % dlead:
                qc = r // dlead  # always so for a monic divisor such as q_int(n) or Q_COMM
            else:
                qc = _norm(Fraction(r, dlead))
            quot[qe] = qc
            for e, c in den:
                rem[e + qe] -= qc * c
        if any(rem[:dn]):
            raise InexactDivisionError(f"{self!r} is not divisible by {other!r}")
        shift = smin - omin
        return LaurentPoly({e + shift: _norm(c) for e, c in quot.items()}, _raw=True)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._c == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant hashes as the number it equals, so `poly == 0` implies equal hashes
        c = self._c
        if not c:
            return hash(0)
        if len(c) == 1 and 0 in c:
            return hash(c[0])
        return hash(frozenset(c.items()))

    # -- display / serialization ---------------------------------------------

    def __str__(self):
        from . import render  # render imports this module

        return render.laurent_expanded(self)

    def __repr__(self):
        return f"LaurentPoly({self._c!r})"

    def to_json(self) -> dict:
        """Map {str(exponent): "p" or "p/q"}, deterministic order."""
        out = {}
        for e, c in self.terms():
            out[str(e)] = str(c)
        return out

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        terms = {}
        for e, c in obj.items():
            terms[int(e)] = Fraction(c)
        return LaurentPoly(terms)


_ZERO = LaurentPoly({}, _raw=True)
_ONE = LaurentPoly({0: 1}, _raw=True)

#: q - q^-1, the denominator of every commutator in the package
Q_COMM = LaurentPoly({1: 1, -1: -1}, _raw=True)


@lru_cache(maxsize=4096)
def q_int(n: int) -> LaurentPoly:
    """The q-integer (q^n - q^-n)/(q - q^-1).

    Expands to q^(n-1) + q^(n-3) + ... + q^(1-n) for n > 0, vanishes at
    n = 0, and is odd in n.
    """
    if n == 0:
        return _ZERO
    if n < 0:
        return -q_int(-n)
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)}, _raw=True)


def q_falling(m: int, n: int) -> LaurentPoly:
    """Falling product [m]_q [m-1]_q ... [m-n+1]_q; 1 at n = 0, 0 for n < 0."""
    if n < 0:
        return _ZERO
    out = _ONE
    for i in range(n):
        out = out * q_int(m - i)
    return out


def q_pow(n: int) -> LaurentPoly:
    """The monomial q^n."""
    return LaurentPoly.monomial(n)
