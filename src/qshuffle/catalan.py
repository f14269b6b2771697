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

The members of delta, nabla, C and D come from one walk over the Catalan
prefixes (_walk), priced when called, that yields its leaves one at a time:
each word's key (words.py), its product as one packed int (kronecker.py, the
kernel's codec) in slots as wide as an exact coefficient bound needs
(_path_bound), and its L1 norm, the product of |k| over its factors [k]_q.
That norm is exact: every [k]_q has coefficients of one sign, and then
‖PQ‖₁ = ‖P‖₁‖Q‖₁. packed_member collects the leaves into an algebra.Packed
operand for shuffle_sum, the builders decode them into an Element, and
terms decodes them one word at a time for a writer.
"""

from __future__ import annotations

from fractions import Fraction

from . import kronecker as K
from . import words as W
from .algebra import Element, Packed, X_EL, Y_EL, _decode
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

    Takes an odd-length integer sequence (l_0, h_1, l_1, ..., h_r, l_r)
    with r >= 1, such as words.profile(w); the shifted sequences used
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


def _walk(n: int, m: int, reduced: bool, sign: int):
    """(unit, leaves): the slot unit, exponents stepping by 2, and a
    generator of (key, o, N, L1 norm) for the Catalan words of length 2n in
    key order, each weighted by sign times its letters' factors (_factor) of
    the reduced family when reduced. Depth first, y pushed under x so that x
    comes out first; a zero factor drops its prefix with its extensions."""
    if reduced and n < 1:
        raise TrivialWordError("the reduced family starts at n = 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    W.check_catalan_cost(n)
    unit = K.slot_width(_path_bound(n, m, reduced)) // 2

    def entry(k: int):
        return None if k == 0 else (*K.pack(dict(q_int(k).terms()), unit), abs(k))

    xf = [entry(_factor(m, 0, e)) for e in range(n)]
    yf = [entry(_factor(m, 1, e)) for e in range(n + 1)]
    # tails[e]: the y's from elevation e down to 0, which end a word once its n x's are placed
    tails = [(0, 1, 1)]
    for o, c, nm in yf[1:]:
        tails.append((tails[-1][0] + o, tails[-1][1] * c, tails[-1][2] * nm))
    if n == 0:
        stack = [(W.EMPTY_KEY, 0, 0, 0, sign, 1)]
    else:  # every nontrivial Catalan word starts with x at elevation 0
        f = entry(_factor(m, 0, 0, reduced))
        stack = [(W.EMPTY_KEY << 1, 1, 1, f[0], sign * f[1], f[2])] if f else []

    def leaves():
        pop, push = stack.pop, stack.append
        while stack:
            key, xs, e, o, c, nm = pop()
            if xs == n:
                to, tc, tn = tails[e]
                yield key << e | (1 << e) - 1, o + to, c * tc, nm * tn
                continue
            if e > 0:
                f = yf[e]
                push((key << 1 | 1, xs, e - 1, o + f[0], c * f[1], nm * f[2]))
            f = xf[e]
            if f is not None:
                push((key << 1, xs + 1, e + 1, o + f[0], c * f[1], nm * f[2]))

    return unit, leaves()


def delta_element(m: int, n: int) -> Element:
    """Δ⁽ᵐ⁾ₙ."""
    return Element(dict(terms("delta", m, n)), _raw=True)


def nabla_element(m: int, n: int) -> Element:
    """∇⁽ᵐ⁾ₙ, defined for n >= 1."""
    return Element(dict(terms("nabla", m, n)), _raw=True)


def catalan_element(n: int) -> Element:
    """C_n = Δ⁽²⁾ₙ."""
    return Element(dict(terms("C", None, n)), _raw=True)


def d_element(n: int) -> Element:
    """D_n = (-1)^n Δ⁽¹⁾ₙ."""
    return Element(dict(terms("D", None, n)), _raw=True)


def gtilde_element(n: int) -> Element:
    return Element.from_word(W.alternating_word("Gtilde", n))


def x_cn_y(n: int) -> Element:
    """The free product x C_{n-1} y, defined for n >= 1."""
    if n < 1:
        raise ValueError("x C_(n-1) y needs n >= 1")
    return X_EL * catalan_element(n - 1) * Y_EL


# family name -> (builder, whether it takes m, first index n, walk, LaTeX
# symbol): walk gives the (m, reduced, sign) of _walk for the member (m, n),
# None when the family is not walked
FAMILIES = {
    "delta": ("delta_element", True, 0, lambda m, n: (m, False, 1), "\\Delta"),
    "nabla": ("nabla_element", True, 1, lambda m, n: (m, True, 1), "\\nabla"),
    "C": ("catalan_element", False, 0, lambda m, n: (2, False, 1), "C"),
    "D": ("d_element", False, 0, lambda m, n: (1, False, (-1) ** n), "D"),
    "Gtilde": ("gtilde_element", False, 0, None, "\\tilde{G}"),
    "xCny": ("x_cn_y", False, 1, None, "xC_{n-1}y"),
}


def _row(family: str, m) -> tuple:
    """The FAMILIES row of a named family, which takes m exactly when m is given."""
    try:
        row = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown element family {family!r}") from None
    if row[1] != (m is not None):
        raise ValueError(f"{family} takes {'an integer' if row[1] else 'no'} parameter m")
    return row


def price(family: str, m, n_max: int) -> tuple:
    """The FAMILIES row of a named family (see _row), once a walked family's
    members n <= n_max are priced: refused up front, before any is built."""
    row = _row(family, m)
    if row[3] is not None:
        for n in range(n_max + 1):
            W.check_catalan_cost(n)
    return row


def member(family: str, m, n: int) -> Element:
    """The n-th member of a named family, m None unless it is delta or nabla;
    the builder is looked up by name at call time, so that a builder wrapped
    or patched on this module is the one called."""
    builder, takes_m, *_ = _row(family, m)
    build = globals()[builder]
    return build(m, n) if takes_m else build(n)


def terms(family: str, m, n: int):
    """An iterator over member(family, m, n).terms(); a walked family's are
    decoded from its walk one at a time, and refused on the call, before any."""
    walk = _row(family, m)[3]
    if walk is None:
        return iter(member(family, m, n).terms())
    unit, leaves = _walk(n, *walk(m, n))
    return _decode(((key, o, c) for key, o, c, _ in leaves), unit, 2)


def packed_member(family: str, m, n: int) -> Packed:
    """A walked family's member (m, n) as a Packed shuffle_sum operand, never decoded."""
    walk = _row(family, m)[3]
    if walk is None:
        raise ValueError(f"{family} is not a walked family")
    unit, leaves = _walk(n, *walk(m, n))
    packed, norm = {}, 0
    for key, o, c, nm in leaves:
        packed[key] = (o, c)
        norm += nm
    parities = {o // unit & 1 for o, _ in packed.values()}
    parity = parities.pop() if len(parities) == 1 else None
    return Packed(packed, unit, 2, {2 * n: (len(packed), norm)} if packed else {}, parity)


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
