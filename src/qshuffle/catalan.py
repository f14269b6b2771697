"""The weighted Catalan-word families: scalars, elements, and named specializations.

Two one-parameter families weight each Catalan word by a product of
q-integers, one factor [k]_q per letter, read off the word's elevation walk:
the full family Δ⁽ᵐ⁾ and the reduced family ∇⁽ᵐ⁾. _factor is the one
definition of k; the scalars, the walk and the walk's coefficient bound all
read it. Summing the weights against the Catalan words of length 2n gives
the elements delta_element(m, n) and nabla_element(m, n). The m = 2 column
of the full family is the Catalan element C_n, m = 1 gives the inverse
family D_n up to sign, and m = -1 picks out the single alternating word
(xy)^n.

The builders walk the Catalan prefixes once (_walk). Each prefix carries its
product as one packed int (kronecker.py, the codec the shuffle kernel uses)
and its word key (words.py), which the kernel reads as it is. The slot width
comes from an exact bound on every coefficient computed before the walk
(_path_bound).
The walk returns its leaves packed, as an algebra.Packed operand, never
decoded: packed_member hands them to shuffle_sum as they are, and the
builders decode each word once. Each leaf also carries its L1 norm, the
product of |k| over its factors [k]_q. That is exact, not only a bound:
every [k]_q has coefficients of one sign, and for polynomials P, Q whose
coefficients each have one sign ‖PQ‖₁ = ‖P‖₁‖Q‖₁. By tracemalloc, a word
of ∇⁽⁰⁾₁₀ costs about 0.5 KB packed and 3.0 KB decoded, and the 58,786
words of ∇⁽⁰⁾₁₂ take 34 MB packed against 219 MB decoded.
"""

from __future__ import annotations

from fractions import Fraction

from . import kronecker as K
from . import words as W
from .algebra import Element, Packed, X_EL, Y_EL
from .errors import DegenerateProfileError, NonCatalanWordError, TrivialWordError
from .qlaurent import LaurentPoly, Q_COMM, q_falling, q_int, q_pow


def _factor(m: int, b: int, e: int, reduced_first: bool = False) -> int:
    """The k of the factor [k]_q that both families give a letter: k = e + m
    at an x (b = 0) and k = e at a y (b = 1), e the elevation before the
    letter. The reduced family drops its first letter's factor, written here
    as [1]_q = 1 when reduced_first."""
    if reduced_first:
        return 1
    return e if b else e + m


def _require_catalan(w: W.Word) -> None:
    if not W.is_catalan(w):
        raise NonCatalanWordError(f"{w.display()} is not a Catalan word")


def _factors(m: int, w: W.Word, reduced: bool):
    """The letter bit and _factor's k of each letter of the Catalan word w."""
    _require_catalan(w)
    if reduced and w.is_trivial():
        raise TrivialWordError("the reduced product is not defined on the empty word")
    e = 0
    for i, b in enumerate(w.letter_bits()):
        yield b, _factor(m, b, e, reduced and i == 0)
        e += -1 if b else 1


def _scalar(m: int, w: W.Word, reduced: bool) -> LaurentPoly:
    """The weight of w in the full family, or in the reduced one when reduced."""
    out = LaurentPoly.one()
    for _, k in _factors(m, w, reduced):
        if k == 0:
            return LaurentPoly.zero()
        if k != 1:
            out = out * q_int(k)
    return out


def delta_scalar(m: int, w: W.Word) -> LaurentPoly:
    """The full family's weight of w; 1 on the empty word."""
    return _scalar(m, w, False)


def nabla_scalar(m: int, w: W.Word) -> LaurentPoly:
    """The reduced family's weight of w; undefined on the empty word."""
    return _scalar(m, w, True)


def nabla_split(m: int, w: W.Word):
    """The x-part and y-part partial products; their product is nabla_scalar."""
    parts = [LaurentPoly.one()] * 2
    for b, k in _factors(m, w, True):
        if k != 1:
            parts[b] = parts[b] * q_int(k)
    return tuple(parts)


def nabla_from_profile(m: int, p) -> LaurentPoly:
    """The reduced product evaluated on a valley/peak sequence.

    Accepts a Profile or any odd-length integer sequence
    (l_0, h_1, l_1, ..., h_r, l_r) with r >= 1; the shifted sequences used
    by the telescoping identity are legal inputs even when they are not the
    profile of any word. Out-of-range descents are absorbed by the falling
    product's zero rule.
    """
    entries = tuple(p)
    if len(entries) % 2 == 0 or len(entries) < 3:
        raise DegenerateProfileError(
            f"need an odd-length sequence with at least one peak, got {entries}"
        )
    ls = entries[0::2]
    hs = entries[1::2]
    out = q_falling(hs[0] + m - 1, hs[0] - ls[0] - 1) * q_falling(hs[0], hs[0] - ls[0] - 1)
    for i in range(1, len(hs)):
        if out.is_zero():
            return out
        out = out * q_falling(hs[i] + m - 1, hs[i] - ls[i]) * q_falling(hs[i], hs[i] - ls[i])
    return out


def vanishing_bound(m: int, w: W.Word) -> bool:
    """For m <= -1: whether the full product is nonzero, read off the path.

    True exactly when every elevation stays <= |m|.
    """
    if m >= 0:
        raise ValueError("the vanishing criterion applies to negative m only")
    _require_catalan(w)
    return max(W.elevation_sequence(w)) <= -m


def _path_bound(n: int, m: int, reduced: bool) -> int:
    """The largest product of |k| over the factors [k]_q (_factor) along a
    Catalan word of length 2n. ‖[k]_q‖₁ = |k|, and ‖PQ‖₁ ≤ ‖P‖₁‖Q‖₁, so the
    product of the norms bounds every coefficient of the word's product.

    A DP over (letters, elevation) states: best[e] is the largest product
    over the prefixes of the current length that end at elevation e.
    """
    best = {0: 1}
    for i in range(2 * n):
        nxt: dict = {}
        for e, b in best.items():
            up = b * abs(_factor(m, 0, e, reduced and i == 0))
            nxt[e + 1] = max(nxt.get(e + 1, 0), up)
            if e > 0:
                nxt[e - 1] = max(nxt.get(e - 1, 0), b * abs(_factor(m, 1, e)))
        best = nxt
    return best[0]


def _walk(n: int, m: int, reduced: bool = False, sign: int = 1, packed: bool = False):
    """Sum of the Catalan words of length 2n, each weighted by sign times
    the product of its letters' factors [k]_q (_factor), of the reduced
    family when reduced.

    One depth-first walk over Catalan prefixes. Each prefix carries its
    product as one packed entry (o, N) (kronecker.py), so each letter is one
    big-int multiply, and its word key, one letter appended per step; a
    prefix whose product is zero is dropped with all its extensions. Every
    factor's exponents have one parity, so the slots hold q^2 steps; their
    width comes from _path_bound. Each leaf also carries its L1 norm, the product
    of |k| over its factors [k]_q, exact since each factor has coefficients
    of one sign. Returns the leaves, never decoded, as a Packed operand when
    packed, else the Element they decode to, its words in the lexicographic
    order of enumerate_catalan.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    W.check_catalan_cost(n)
    unit = K.slot_width(_path_bound(n, m, reduced)) // 2

    def entry(k: int):
        return None if k == 0 else (*K.pack(dict(q_int(k).terms()), unit), abs(k))

    xf = [entry(_factor(m, 0, e)) for e in range(n)]
    yf = [entry(_factor(m, 1, e)) for e in range(n + 1)]
    end = 2 * n
    terms: dict = {}
    norm = 0

    def rec(key: int, pos: int, xs: int, e: int, o: int, c: int, nm: int) -> None:
        nonlocal norm
        if pos == end:
            terms[key] = (o, c)
            norm += nm
            return
        if xs < n:
            f = xf[e]
            if f is not None:
                rec(key << 1, pos + 1, xs + 1, e + 1, o + f[0], c * f[1], nm * f[2])
        if e > 0:
            f = yf[e]
            rec(key << 1 | 1, pos + 1, xs, e - 1, o + f[0], c * f[1], nm * f[2])

    if n == 0:
        rec(W.EMPTY_KEY, 0, 0, 0, 0, sign, 1)
    else:
        # every nontrivial Catalan word starts with x at elevation 0
        first = entry(_factor(m, 0, 0, reduced))
        if first is not None:
            rec(W.EMPTY_KEY << 1, 1, 1, 1, first[0], sign * first[1], first[2])
    parities = {o // unit & 1 for o, _ in terms.values()}
    parity = parities.pop() if len(parities) == 1 else None
    norms = {end: (len(terms), norm)} if terms else {}
    leaves = Packed(terms, unit, 2, norms, parity)
    return leaves if packed else leaves.decoded()


def delta_element(m: int, n: int, packed: bool = False) -> Element | Packed:
    """Δ⁽ᵐ⁾ₙ; with packed=True, the walk's leaves as a Packed operand."""
    return _walk(n, m, packed=packed)


def nabla_element(m: int, n: int, packed: bool = False) -> Element | Packed:
    """∇⁽ᵐ⁾ₙ; with packed=True, the walk's leaves as a Packed operand."""
    if n < 1:
        raise TrivialWordError("the reduced family starts at n = 1")
    return _walk(n, m, reduced=True, packed=packed)


def catalan_element(n: int, packed: bool = False) -> Element | Packed:
    """C_n = Δ⁽²⁾ₙ; with packed=True, the walk's leaves as a Packed operand."""
    return _walk(n, 2, packed=packed)


def d_element(n: int, packed: bool = False) -> Element | Packed:
    """D_n = (-1)^n Δ⁽¹⁾ₙ; with packed=True, the walk's leaves as a Packed
    operand."""
    return _walk(n, 1, sign=(-1) ** n, packed=packed)


def gtilde_element(n: int) -> Element:
    return Element.from_word(W.gtilde_word(n))


def x_cn_y(n: int) -> Element:
    """The free product x C_{n-1} y, defined for n >= 1."""
    if n < 1:
        raise ValueError("x C_(n-1) y needs n >= 1")
    return X_EL * catalan_element(n - 1) * Y_EL


# family name -> (builder, whether it takes m, first index n)
FAMILIES = {
    "delta": ("delta_element", True, 0),
    "nabla": ("nabla_element", True, 1),
    "C": ("catalan_element", False, 0),
    "D": ("d_element", False, 0),
    "Gtilde": ("gtilde_element", False, 0),
    "xCny": ("x_cn_y", False, 1),
}


def _build(family: str, m, n: int, **kw):
    """Call the builder of a named family, looked up by name at call time,
    so that a builder wrapped or patched on this module is the one called."""
    try:
        builder, takes_m, _ = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown element family {family!r}") from None
    if takes_m != (m is not None):
        raise ValueError(f"{family} takes {'an integer' if takes_m else 'no'} parameter m")
    build = globals()[builder]
    return build(m, n, **kw) if takes_m else build(n, **kw)


def member(family: str, m, n: int) -> Element:
    """The n-th member of a named family: delta and nabla take the parameter
    m, the others take m = None."""
    return _build(family, m, n)


def packed_member(family: str, m, n: int) -> Packed:
    """member(family, m, n) as a Packed operand for shuffle_sum. The walked
    families hand over their walk's leaves, never decoded; Gtilde and xCny,
    which are not walked, are packed from their member."""
    if family in ("Gtilde", "xCny"):
        return Packed.of(member(family, m, n))
    return _build(family, m, n, packed=True)


def embedding_image(kind: str, n: int) -> Element:
    """Shuffle images of the classical PBW generators, with scalar prefactors.

    Damiani_E0(n)     -> q^-2n (q - q^-1)^2n  x C_n
    Damiani_E1(n)     -> q^-2n (q - q^-1)^2n  C_n y
    Damiani_Edelta(n) -> -q^-2n (q - q^-1)^(2n-1) C_n          (n >= 1)
    Beck_Edelta(n)    -> ([2n]_q / n) q^-2n (q - q^-1)^(2n-1) x C_(n-1) y   (n >= 1)
    """
    if kind in ("Damiani_E0", "Damiani_E1"):
        if n < 0:
            raise ValueError(f"{kind} needs n >= 0")
        pref = q_pow(-2 * n) * Q_COMM ** (2 * n)
        body = X_EL * catalan_element(n) if kind == "Damiani_E0" else catalan_element(n) * Y_EL
        return body.scale(pref)
    if kind == "Damiani_Edelta":
        if n < 1:
            raise ValueError("Damiani_Edelta needs n >= 1")
        pref = -(q_pow(-2 * n) * Q_COMM ** (2 * n - 1))
        return catalan_element(n).scale(pref)
    if kind == "Beck_Edelta":
        if n < 1:
            raise ValueError("Beck_Edelta needs n >= 1")
        pref = (q_pow(-2 * n) * Q_COMM ** (2 * n - 1) * q_int(2 * n)).scale(Fraction(1, n))
        return x_cn_y(n).scale(pref)
    raise ValueError(f"unknown embedding image {kind!r}")
