"""Shared oracles and helpers for the test suite.

The shuffle oracle here enumerates interleavings directly and is kept
independent of the recursive production implementation.
"""

import re
from fractions import Fraction
from itertools import combinations

import pytest

from qshuffle import algebra, words
from qshuffle.algebra import Element
from qshuffle.errors import InexactDivisionError
from qshuffle.qlaurent import LaurentPoly, q_int


def memo_state(monkeypatch, cached: bool) -> None:
    """Empty the persistent shuffle memo. With cached=False it also stores
    nothing more, as once it is full at _MEMO_CAP, so every kernel call is
    computed cold; with cached=True later products reuse earlier entries."""
    algebra.clear_caches()
    if not cached:
        monkeypatch.setattr(algebra, "_MEMO_CAP", 0)


def shuffle_bruteforce(u: str, v: str) -> Element:
    """Sum over all interleavings of u and v.

    Each interleaving is weighted q^e where e adds <a, b> = +/-2 for every
    pair (a from u, b from v) such that b lands before a. This is a direct
    combinatorial reading of the product, with no recursion.
    """
    r, s = len(u), len(v)
    total: dict = {}
    for upos in combinations(range(r + s), r):
        letters = [None] * (r + s)
        for i, p in enumerate(upos):
            letters[p] = u[i]
        vpos = [j for j in range(r + s) if letters[j] is None]
        for j, p in enumerate(vpos):
            letters[p] = v[j]
        e = 0
        for i, p in enumerate(upos):
            for j, q in enumerate(vpos):
                if q < p:
                    e += 2 if u[i] == v[j] else -2
        w = "".join(letters)
        total.setdefault(w, {})
        total[w][e] = total[w].get(e, 0) + 1
    return Element(
        {words.word(w): LaurentPoly(c) for w, c in total.items()}
    )


def div_exact_longhand(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """num / den by long division on sparse dicts, one quotient term at a
    time from the top remaining exponent, raising InexactDivisionError when
    that exponent falls below the divisor's degree with a remainder left.
    A quotient coefficient is an int when both it and the divisor's leading
    coefficient are ints and the division is even, a Fraction otherwise."""
    if num.is_zero():
        return LaurentPoly.zero()
    smin, omin = num.min_exp(), den.min_exp()
    rem = {e - smin: c for e, c in num.terms()}
    dterms = {e - omin: c for e, c in den.terms()}
    dn = max(dterms)
    dlead = dterms[dn]
    quot = {}
    while rem:
        rn = max(rem)
        if rn < dn:
            raise InexactDivisionError(f"{num!r} is not divisible by {den!r}")
        r = rem[rn]
        if type(r) is int and type(dlead) is int and not r % dlead:
            qc = r // dlead
        else:
            qc = Fraction(r, dlead)
            qc = qc.numerator if qc.denominator == 1 else qc
        quot[rn - dn] = qc
        for e, c in dterms.items():
            s = rem.get(e + rn - dn, 0) - qc * c
            if s:
                rem[e + rn - dn] = s
            else:
                rem.pop(e + rn - dn, None)
    return LaurentPoly({e + smin - omin: c for e, c in quot.items()})


_BRACKET = re.compile(r"\[(\d+)\](?:\^(\d+))?")


def P(expr: str) -> LaurentPoly:
    """Parse compact bracket products: '-[2]^2[3]', '0', '1', '-1'."""
    expr = expr.strip()
    sign = 1
    if expr.startswith("-"):
        sign = -1
        expr = expr[1:]
    if expr == "0":
        return LaurentPoly.zero()
    if expr == "1":
        return LaurentPoly.const(sign)
    out = LaurentPoly.one()
    pos = 0
    for mo in _BRACKET.finditer(expr):
        assert mo.start() == pos, f"unparsed junk in {expr!r}"
        pos = mo.end()
        n = int(mo.group(1))
        e = int(mo.group(2) or 1)
        out = out * q_int(n) ** e
    assert pos == len(expr), f"unparsed junk in {expr!r}"
    return out.scale(sign)


def bracket_str(expr: str) -> str:
    """The display form this package uses for a compact bracket expression."""
    sign = ""
    body = expr
    if expr.startswith("-"):
        sign, body = "-", expr[1:]
    if body in ("0", "1"):
        return expr
    rendered = _BRACKET.sub(
        lambda mo: f"[{mo.group(1)}]_q" + (f"^{mo.group(2)}" if mo.group(2) else ""),
        body,
    )
    return sign + rendered


def all_words_upto(max_len: int):
    """Every word of length <= max_len, in (length, lex) order."""
    out = []
    for n in range(max_len + 1):
        for bits in range(1 << n):
            out.append(words.Word(bits | (1 << n)))
    out.sort(key=lambda w: (len(w), w.letter_bits()))
    return out
