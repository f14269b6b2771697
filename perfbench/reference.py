"""Independent reference arithmetic for checking qshuffle's outputs.

Nothing here imports qshuffle. Laurent polynomials are plain
``{exponent: int | Fraction}`` dicts without zero values, words are strings
over ``x`` and ``y``, and elements are ``{word: poly}`` dicts.

* ``shuffle`` is the front-peeling q-shuffle
  u*v = a1 (u' * v) + q^<u, b1> b1 (u * v'), with u = a1 u', v = b1 v'.
* ``augmentation`` is the sum of all coefficients of u*v, from the same
  recursion: S(u, v) = S(u', v) + q^<u, b1> S(u, v').
* ``family`` evaluates the defining products of the Delta^(m), nabla^(m),
  C and D coefficients over its own Catalan-word enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

# -- Laurent polynomials as dicts ---------------------------------------------


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def pscale(a: dict, c) -> dict:
    return {e: v * c for e, v in a.items()} if c else {}


def pnorm(a: dict) -> dict:
    """Integral Fractions become ints, so dicts compare by value alone."""
    return {
        e: (c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c)
        for e, c in a.items()
        if c
    }


def qint(n: int) -> dict:
    """[n]_q = (q^n - q^-n) / (q - q^-1); [0] = 0 and [-n] = -[n]."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    return {e: sign for e in range(1 - n, n, 2)}


@lru_cache(maxsize=None)
def _qint_product(factors: tuple) -> tuple:
    """Product of [f] over a sorted tuple of factors, as sorted items."""
    if not factors:
        return ((0, 1),)
    rest = dict(_qint_product(factors[:-1]))
    return tuple(sorted(pmul(rest, qint(factors[-1])).items()))


def qint_product(factors) -> dict:
    """Product of q-integers; zero as soon as one factor is [0]."""
    fs = sorted(factors)
    if 0 in fs:
        return {}
    return dict(_qint_product(tuple(fs)))


# -- words and the q-shuffle ---------------------------------------------------


def form(u: str, b: str) -> int:
    """<u, b> summed over the letters of u, with <x, x> = <y, y> = 2, <x, y> = -2."""
    same = u.count(b)
    return 2 * same - 2 * (len(u) - same)


@lru_cache(maxsize=1 << 16)
def _shuffle(u: str, v: str) -> tuple:
    if not u:
        return ((v, ((0, 1),)),)
    if not v:
        return ((u, ((0, 1),)),)
    out: dict = {}
    for w, p in _shuffle(u[1:], v):
        out[u[0] + w] = dict(p)
    e = form(u, v[0])
    for w, p in _shuffle(u, v[1:]):
        key = v[0] + w
        out[key] = padd(out.get(key, {}), {x + e: c for x, c in p})
    return tuple((w, tuple(sorted(p.items()))) for w, p in out.items() if p)


def shuffle(u: str, v: str) -> dict:
    """u * v as {word: poly}."""
    return {w: dict(p) for w, p in _shuffle(u, v)}


@lru_cache(maxsize=1 << 16)
def _augmentation(u: str, v: str) -> tuple:
    if not u or not v:
        return ((0, 1),)
    e = form(u, v[0])
    left = dict(_augmentation(u[1:], v))
    right = {x + e: c for x, c in _augmentation(u, v[1:])}
    return tuple(sorted(padd(left, right).items()))


def augmentation(u: str, v: str) -> dict:
    """S(u, v): the sum of all coefficients of u * v."""
    return dict(_augmentation(u, v))


def element_shuffle(a: dict, b: dict) -> dict:
    """Bilinear extension of ``shuffle`` to {word: poly} dicts."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            c = pmul(cu, cv)
            for w, p in _shuffle(u, v):
                acc = padd(out.get(w, {}), pmul(c, dict(p)))
                if acc:
                    out[w] = acc
                else:
                    out.pop(w, None)
    return out


def element_augmentation(a: dict, b: dict) -> dict:
    """Sum of all coefficients of a * b, from S(u, v) alone."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            out = padd(out, pmul(pmul(cu, cv), augmentation(u, v)))
    return out


def y_inverse(a: dict) -> dict:
    """Strip a trailing y; words that end in x, and the empty word, go to 0."""
    return {w[:-1]: c for w, c in a.items() if w.endswith("y")}


# -- Catalan words and the families ----------------------------------------------


@lru_cache(maxsize=None)
def catalan_words(n: int) -> tuple:
    """Every word of n x's and n y's whose prefixes never have more y's."""
    out = []

    def walk(prefix: str, xs: int, ys: int) -> None:
        if xs == n and ys == n:
            out.append(prefix)
            return
        if xs < n:
            walk(prefix + "x", xs + 1, ys)
        if ys < xs:
            walk(prefix + "y", xs, ys + 1)

    walk("", 0, 0)
    return tuple(out)


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def factors(family: str, m: int, w: str):
    """The q-integer factors of one coefficient, and its sign.

    delta: [e + m] at each x and [e] at each y, e the height before the step.
    nabla: the same with the first factor dropped.
    C: [1 + e] for every height e after a step.
    D: (-1)^n times [e + 1] at each x and [e] at each y.
    """
    fs = []
    e = 0
    for a in w:
        if family == "C":
            e += 1 if a == "x" else -1
            fs.append(1 + e)
            continue
        shift = 1 if family == "D" else m
        fs.append(e + shift if a == "x" else e)
        e += 1 if a == "x" else -1
    if family == "nabla":
        fs = fs[1:]
    sign = -1 if family == "D" and (len(w) // 2) % 2 else 1
    return fs, sign


def coefficient(family: str, m: int, w: str) -> dict:
    fs, sign = factors(family, m, w)
    return pscale(qint_product(fs), sign)


def family(family: str, m: int, n: int) -> dict:
    """The element as {word: poly}, vanishing words left out."""
    out = {}
    for w in catalan_words(n):
        c = coefficient(family, m, w)
        if c:
            out[w] = c
    return out


def beck_argument(m: int, cutoff: int) -> list:
    """Coefficients of sum ([mn]_q / n) x C_(n-1) y t^n, degree 0 first."""
    out = [{}]
    for n in range(1, cutoff + 1):
        scale = {e: Fraction(c, n) for e, c in qint(m * n).items()}
        out.append({"x" + w + "y": pmul(scale, p) for w, p in family("C", 0, n - 1).items()})
    return out
