"""Noncommutative polynomials in x, y over the Laurent ring, with both products.

An Element is a finite map from words to nonzero Laurent coefficients. It
carries the free (concatenation) product and the q-shuffle product. Every
q-shuffle product enters the kernel through one function, shuffle_sum
(or Packed.sum, the same sum left packed), which computes a sum
Σ c·(a ⋆ b) of products in one accumulation, with weights c that are
ints, Fractions or LaurentPolys. Element.shuffle is its
one-term case and commutator its two-term case, with weights q^m and
-q^-m; the series layer makes one call per output coefficient, and the
commutation and y^-1 checks make one per identity. The kernel works on
word keys, Word.key as it is (words.py), and on packed coefficients, and
is integer-only: shuffle_sum clears the Fraction denominators of each
operand and weight once on the way in and divides their common multiple
back out once on the way out, where results are wrapped back into
Element/LaurentPoly. A sum that vanishes decodes to the zero element
without building a coefficient.

Inside the kernel a Laurent coefficient is one packed entry (o, N), one big
int by Kronecker substitution (see kronecker.py), so that adding two
entries is a shift and an add and multiplying by a coefficient is one
multiply. The slots are w bits wide: w = unit, or w = 2·unit when every
product's operands and weight have exponents of one parity and all the
results have the same parity, since then the odd slots would stay empty.
Only the final sum is decoded, once per word, and the decoding is exact
when every result coefficient lies below 2^(w-1) in absolute value. The
pre-flight bounds the coefficients of one product by

    ‖(a ⋆ b)_w‖∞ ≤ Σ_{u,v} ‖c_u‖₁ ‖c_v‖₁ C(|u| + |v|, |u|) = B,

since u ⋆ v has C(|u| + |v|, |u|) interleavings, each with coefficient 1;
a sum takes w = kronecker.slot_width(Σ |r|·‖P‖₁·B), where a weight is
r·P with r an integer and P an integer polynomial (P = 1 for a scalar
weight).

shuffle_sum adds a product by a constant (an operand holding only the
empty word) as a scaled copy of the other operand, and feeds every other
product to one of two kernel paths, chosen by its operands' longest words:

* at most _SMALL_LIMIT letters together (every series product at cutoff 6):
  one kernel call per word pair, memoized in a persistent table that later
  products reuse, with the partial sums added up by _accumulate;
* more letters: one walk over the suffix tries of both operands
  (_trie_shuffle), which shares the work of every common suffix among all
  word pairs and keeps nothing once the product is done.

Results are identical on both paths and whatever the memo holds; only
speed changes.

An operand may also come already packed, as a Packed: its entries
{word key: (o, N)} at a unit and step, the per-length (word count, L1 norm)
the pre-flight needs, and the parity of its exponents, so shuffle_sum
neither decodes it nor recounts it. It is packed again, through the exact
decoder, only when the sum's unit differs from its own. catalan's
packed_member collects a walked family member's leaves into one, their
L1 norms exact. Its y^-1 image keeps the entries of the words that end in y
(bit 0 of the key) under their keys shifted right by one, so the (n, k)
recursion takes ∇⁽⁰⁾ₙ₊ₖ to the kernel without a LaurentPoly per word.

A sum's result can stay packed too (Packed.sum): the series layer packs
each coefficient of its operands once per operation, feeds each Horner
level and each partial inverse to the next sum packed, and decodes only
the coefficients it returns. A packed result is counted (its norms and
parity read off its entries) only when it is used again as an operand.

Before any kernel call each product is priced on its own: the
interleavings it would walk are summed over its word pairs, and a product
above _SHUFFLE_BUDGET is refused with CapExceededError instead of running
for hours.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from . import kronecker as K
from . import words as W
from .errors import CapExceededError, InexactDivisionError
from .qlaurent import LaurentPoly, Q_COMM, q_pow

_ONE = (0, 1)  # the packed coefficient 1

# Products whose longest words have at most this many letters together take
# the word-pair path and its persistent memo; longer ones take the trie walk.
_SMALL_LIMIT = 12
_MEMO_CAP = 1 << 17      # persistent entries
# Interleavings one product may walk. The (6, 6) pair of the (n, k) recursion
# at n_max = 6 needs about 2.4e9; nabla(3, 7) * delta(2, 6) needs 5.5e11.
_SHUFFLE_BUDGET = 10**10

_memo: dict = {}


def clear_caches() -> None:
    _memo.clear()


def _shuffle_keys(u: int, v: int, unit: int) -> dict:
    """q-shuffle of two word keys as {key: (o, N)}.

    Peels the last letters of the words (bit 0 of their keys):
    u*v = (u*(v minus last))·v_s + ((u minus last)*v)·u_r q^<u_r, v>.
    Working back-to-front lets truncated words (y^-1 images) share memo
    state with their parents. Every pair is memoized, keyed with the unit
    its entries are packed in: shuffle_sum sends only pairs of at most
    _SMALL_LIMIT letters here.
    """
    if u == 1:
        return {v: _ONE}
    if v == 1:
        return {u: _ONE}
    key = (u, v, unit)
    res = _memo.get(key)
    if res is not None:
        return res
    a = u & 1
    b = v & 1
    # <u_r, v> summed over all letters of v: 2*(x-count - y-count), negated for
    # u_r = y; as a shift of packed entries, unit bits per power of q
    e = 2 * unit * W.key_weight(v)
    out = {(k << 1) | b: p for k, p in _shuffle_keys(u, v >> 1, unit).items()}
    _add_letter(out, _shuffle_keys(u >> 1, v, unit), a, -e if a else e)
    if len(_memo) < _MEMO_CAP:
        _memo[key] = out
    return out


def _accumulate(out: dict, sub: dict, cw: tuple) -> None:
    """out[k] += cw · sub[k] for every k; packed entries (o, N).

    shuffle_sum clears denominators before packing, so every N here is
    an int and the loop never touches Fraction.
    """
    c0, cn = cw
    get = out.get
    for k, (f, n) in sub.items():
        f += c0
        n *= cn
        cur = get(k)
        if cur is None:
            out[k] = (f, n)
        else:
            g, m = cur
            out[k] = (g, m + (n << f - g)) if g <= f else (f, n + (m << g - f))


def _add_letter(out: dict, terms: dict, letter: int, shift: int) -> None:
    """out[k·letter] += 2^shift · terms[k] for every word key k; packed
    entries (o, N)."""
    if not out:  # nothing to merge into: one comprehension
        out.update({(k << 1) | letter: (f + shift, n) for k, (f, n) in terms.items()})
        return
    get = out.get
    for k, (f, n) in terms.items():
        k = (k << 1) | letter
        f += shift
        cur = get(k)
        if cur is None:
            out[k] = (f, n)
        else:
            g, m = cur
            out[k] = (g, m + (n << f - g)) if g <= f else (f, n + (m << g - f))


def _scaled(terms: dict, c: tuple) -> dict:
    """c · terms[k] for every k; packed entries (o, N)."""
    c0, cn = c
    return {k: (f + c0, n * cn) for k, (f, n) in terms.items()}


class _Node:
    """A node of the suffix trie of an operand's word keys.

    It stands for the operand's words that end in one suffix s. ``rest``
    holds their nonempty prefixes (each word with s removed) as
    {key: (o, N)}, ``alpha`` the packed coefficient of the word s itself
    (None when s is not a word of the operand), ``kids`` the (letter, child)
    split of ``rest`` by last letter, and ``wt`` the weight #x - #y of every
    prefix in ``rest`` when the operand is weight-homogeneous.
    """

    __slots__ = ("alpha", "rest", "kids", "wt")

    def __init__(self, terms: dict, wt: int = 0):
        self.alpha = terms.get(1)
        self.rest = rest = {k: p for k, p in terms.items() if k != 1}
        self.wt = wt
        split: tuple = ({}, {})
        for k, p in rest.items():
            split[k & 1][k >> 1] = p
        # peeling an x (bit 0) lowers the weight of what is left by one, a y raises it
        self.kids = tuple(
            (letter, _Node(sub, wt - 1 + 2 * letter)) for letter, sub in enumerate(split) if sub
        )


def _trie_shuffle(left: dict, right: dict, unit: int) -> dict:
    """The q-shuffle of two packed operands {key: (o, N)}, walking
    their suffix tries instead of their word pairs.

    For nodes a, b let A_a, B_b be their prefix sums (``rest``) and α, β the
    coefficients of their suffixes as words (``alpha``). The last letter ℓ of
    an interleaving of p in A_a and r in B_b is the last letter of r, or the
    last letter of p, which then comes after every letter of r and weighs
    q^(2 wt(ℓ) wt(r)). So T(a, b) = A_a ⋆ B_b is, over the children aℓ, bℓ,

        T(a, b) = Σ_ℓ [T(a, bℓ) + β_bℓ A_a + q^(±2 wt_b) (T(aℓ, b) + α_aℓ B_b)] ℓ

    with + for ℓ = x. The right operand is split by weight, so that wt_b,
    the weight of every prefix in B_b, is one number per node. Each table
    T(a, b) has two readers, (a, parent of b) and (parent of a, b), and is
    dropped after the second read. The empty-word terms are added at the
    root. Coefficients that cancel stay in the tables as N = 0.
    """
    ra = _Node(left)
    parts: dict = {}
    for k, p in right.items():
        parts.setdefault(W.key_weight(k), {})[k] = p
    tables: dict = {}

    def add_table(out, a, b, letter, shift):
        t = tables.pop((a, b), None)
        if t is None:
            t = pair(a, b)
            if a is not ra and b is not rb:  # a second reader will come
                tables[(a, b)] = t
        _add_letter(out, t, letter, shift)

    def pair(a, b):
        out: dict = {}
        for letter, bc in b.kids:
            if bc.kids:
                add_table(out, a, bc, letter, 0)
            if bc.alpha is not None:
                _add_letter(out, _scaled(a.rest, bc.alpha), letter, 0)
        ex = 2 * unit * b.wt
        for letter, ac in a.kids:
            e = -ex if letter else ex
            if ac.kids:
                add_table(out, ac, b, letter, e)
            if ac.alpha is not None:
                _add_letter(out, _scaled(b.rest, ac.alpha), letter, e)
        return out

    out: dict = {}
    for wt, part in parts.items():
        rb = _Node(part, wt)
        if ra.kids and rb.kids:
            _accumulate(out, pair(ra, rb), _ONE)
        if ra.alpha is not None:
            _accumulate(out, part, ra.alpha)
        if rb.alpha is not None:
            _accumulate(out, ra.rest, rb.alpha)
    return out


def _decode(entries, unit: int, step: int, den: int = 1):
    """Yield (Word, LaurentPoly) for each entry (key, o, N), N ≠ 0, of a kernel
    result or a walk, in order, one at a time, its exponents stepping by
    ``step`` and its coefficients divided by den."""
    unpack = K.unpacker(unit, step)
    for k, o, n in entries:
        if n:
            p = unpack(o, n)
            if den != 1:
                p = {e: c // den if not c % den else Fraction(c, den) for e, c in p.items()}
            yield W.Word(k), LaurentPoly(p, _raw=True)


def _drain(out: dict):
    """The entries (key, o, N) of {key: (o, N)} in its order, each dropped from
    out as it is handed over, so that no word is held packed and decoded at once."""
    for k in out:
        o, n = out[k]
        out[k] = None
        yield k, o, n
    out.clear()


def _length_norms(terms: dict) -> dict:
    """{word length: (word count, summed L1 norm of their coefficients)}."""
    out: dict = {}
    for word, c in terms.items():
        count, norm = out.get(len(word), (0, 0))
        out[len(word)] = (count + 1, norm + sum(map(abs, c._c.values())))
    return out


def _parity(coeffs):
    """The parity shared by every exponent of the coefficients, or None."""
    parities = {e & 1 for c in coeffs for e in c._c}
    return parities.pop() if len(parities) == 1 else None


def _entry_norms(terms: dict, unit: int, step: int) -> tuple:
    """(_length_norms, _parity) of packed entries {key: (o, N)}, N ≠ 0, at
    unit and step, each entry unpacked once and none decoded."""
    unpack = K.unpacker(unit, step)
    norms: dict = {}
    parities = set()
    for k, p in terms.items():
        c = unpack(*p)
        i = k.bit_length() - 1
        count, norm = norms.get(i, (0, 0))
        norms[i] = (count + 1, norm + sum(map(abs, c.values())))
        parities.update(e & 1 for e in c)
    return norms, parities.pop() if len(parities) == 1 else None


def _preflight(la: dict, lb: dict) -> tuple:
    """(longest word, bound B) for the product of two operands given by
    their length norms. Refuses the product up front when its longest word
    passes the length cap or it would walk more than _SHUFFLE_BUDGET
    interleavings: C(i + j, i) for every pair of a word of length i in one
    operand and a word of length j in the other.

    Every result coefficient is bounded by B = Σ C(i + j, i) L1_i L1_j, over
    the summed L1 norms L1_i of the coefficients of the words of length i.
    """
    if not la or not lb:
        return 0, 0
    longest = max(la) + max(lb)
    if longest > W.LENGTH_CAP:
        raise CapExceededError(f"shuffle would create a word of length {longest}")
    cost = bound = 0
    for i, (na, norm_a) in la.items():
        for j, (nb, norm_b) in lb.items():
            c = comb(i + j, i)
            cost += na * nb * c
            bound += norm_a * norm_b * c
    if cost > _SHUFFLE_BUDGET:
        raise CapExceededError(
            f"shuffle would walk {cost:.2e} interleavings, over the budget of"
            f" {_SHUFFLE_BUDGET:.0e}"
        )
    return longest, bound


def _merged(out: dict, terms) -> dict:
    """out[w] += c for every (w, c) of terms, dropping the words whose sum is zero."""
    for w, c in terms:
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


class Element:
    """A finite linear combination of words with LaurentPoly coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None, _raw=False):
        if terms is None:
            self._terms = {}
        elif _raw:
            self._terms = terms
        else:
            self._terms = {w: c for w, c in dict(terms).items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Element":
        return Element({}, _raw=True)

    @staticmethod
    def unit() -> "Element":
        return Element({W.EMPTY_WORD: LaurentPoly.one()}, _raw=True)

    @staticmethod
    def from_word(w, coeff=None) -> "Element":
        if isinstance(w, str):
            w = W.word(w)
        if coeff is None:
            coeff = LaurentPoly.one()
        elif not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.const(coeff)  # refuses a float
        if coeff.is_zero():
            return Element.zero()
        return Element({w: coeff}, _raw=True)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Sorted (word, coefficient) pairs: by length, then lexicographic."""
        return sorted(self._terms.items(), key=lambda t: t[0].key)

    def support(self):
        return sorted(self._terms, key=lambda w: w.key)

    def coeff(self, w) -> LaurentPoly:
        """The coefficient of a word: the bilinear pairing (w, self)."""
        if isinstance(w, str):
            w = W.word(w)
        return self._terms.get(w, LaurentPoly.zero())

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def max_word_len(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element(_merged(dict(self._terms), other._terms.items()), _raw=True)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = out.get(w)
            s = -c if s is None else s - c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return Element(out, _raw=True)

    def __neg__(self):
        return Element({w: -c for w, c in self._terms.items()}, _raw=True)

    def scale(self, c) -> "Element":
        if isinstance(c, (int, Fraction)):
            if not c:
                return Element.zero()
            return Element({w: p.scale(c) for w, p in self._terms.items()}, _raw=True)
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)  # refuses a float
        if c.is_zero():
            return Element.zero()
        return Element({w: p * c for w, p in self._terms.items()}, _raw=True)

    def __mul__(self, other):
        """Free (concatenation) product with an Element; scaling otherwise."""
        if isinstance(other, Element):
            return self.free_mul(other)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    # -- products ------------------------------------------------------------

    def free_mul(self, other: "Element") -> "Element":
        longest = self.max_word_len() + other.max_word_len()
        if longest > W.LENGTH_CAP and self._terms and other._terms:
            raise CapExceededError(f"free product would create a word of length {longest}")
        terms = ((u.concat(v), cu * cv) for u, cu in self._terms.items()
                 for v, cv in other._terms.items())
        return Element(_merged({}, terms), _raw=True)

    def _cleared(self):
        """(d, terms scaled by d): d is the lcm of the coefficient denominators,
        so every scaled coefficient is an int; d == 1 returns the terms as they are."""
        d = 1
        for c in self._terms.values():
            for v in c._c.values():
                if type(v) is Fraction:
                    d = lcm(d, v.denominator)
        if d == 1:
            return 1, self._terms
        # c·d in ints: a Fraction's numerator times the cofactor of its denominator
        return d, {
            w: LaurentPoly({e: v * d if type(v) is int else v.numerator * (d // v.denominator)
                            for e, v in c._c.items()}, _raw=True)
            for w, c in self._terms.items()
        }

    def shuffle(self, other: "Element") -> "Element":
        """The q-shuffle product: a one-term shuffle_sum."""
        return shuffle_sum(((1, self, other),))

    def __matmul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.shuffle(other)

    # -- the maps of the calculus ---------------------------------------------

    def y_inverse(self) -> "Element":
        """Strip a trailing y from each word; words ending in x (and 1) go to 0.
        Stripping is injective on the words kept, so no two terms merge."""
        # the last letter is bit 0 of the key, and the empty word's key is 1
        return Element(
            {W.Word(w.key >> 1): c for w, c in self._terms.items() if w.key & 1 and w.key != 1},
            _raw=True,
        )

    def x_inverse(self) -> "Element":
        """Strip a leading x from each word; words starting with y (and 1) go to 0.
        Stripping is injective on the words kept, so no two terms merge."""
        # a leading x puts the bits 10 at the top of the key; 01 is the key without it
        return Element(
            {W.Word(w.key - (1 << len(w) - 1)): c for w, c in self._terms.items()
             if len(w) and w.key >> len(w) - 1 == 2},
            _raw=True,
        )

    def zeta(self) -> "Element":
        """Linear extension of the reverse-and-swap antiautomorphism."""
        return Element({W.zeta_word(w): c for w, c in self._terms.items()}, _raw=True)

    def div_exact(self, p: LaurentPoly) -> "Element":
        try:
            return Element({w: c.div_exact(p) for w, c in self._terms.items()}, _raw=True)
        except InexactDivisionError:
            raise InexactDivisionError(f"the element is not divisible by {p}", self) from None

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self._terms.values())

    # -- display / serialization ----------------------------------------------

    def __str__(self):
        from . import render  # render imports this module

        return render.element_expanded(self)

    def __repr__(self):
        return f"Element<{len(self._terms)} words>"

    def to_json(self) -> list:
        return [
            {"word": str(w), "coeff": c.to_json()}
            for w, c in self.terms()
        ]


class Packed:
    """A shuffle_sum operand or result held in the kernel's packed form.

    ``terms`` maps the key of each word to its coefficient packed
    at ``unit`` as (o, N), with N ≠ 0 and exponents that step by ``step``,
    and with the operand's Fraction denominators cleared into ``den``.
    ``norms`` is what the pre-flight reads, {word length: (word count,
    summed L1 norm)}, and ``parity`` the parity shared by every exponent
    (None when there are two). catalan.packed_member makes one from a
    walk, decoding no word, Packed.of packs a built Element, and
    Packed.sum keeps a shuffle_sum's result packed. A sum's result has no
    norms until it is used as an operand (see counted), and is decoded only
    by decoded().
    """

    __slots__ = ("terms", "unit", "step", "norms", "parity", "den")

    def __init__(self, terms: dict, unit: int, step: int, norms: dict, parity, den: int = 1):
        self.terms = terms
        self.unit = unit
        self.step = step
        self.norms = norms
        self.parity = parity
        self.den = den

    @staticmethod
    def of(el: Element) -> "Packed":
        """el packed at the unit its largest coefficient needs."""
        den, terms = el._cleared()
        parity = _parity(terms.values())
        step = 1 if parity is None else 2
        top = max((max(map(abs, c._c.values())) for c in terms.values()), default=0)
        unit = K.slot_width(top) // step
        return Packed(_packed(terms, unit), unit, step, _length_norms(terms), parity, den)

    @staticmethod
    def sum(triples) -> "Packed":
        """shuffle_sum(triples) left packed, its cancelled entries dropped."""
        out, unit, step, den = _sum(triples)
        return Packed({k: p for k, p in out.items() if p[1]}, unit, step, None, None, den)

    def counted(self) -> tuple:
        """(norms, parity), read off the entries on first use when this is
        a sum's result."""
        if self.norms is None:
            self.norms, self.parity = _entry_norms(self.terms, self.unit, self.step)
        return self.norms, self.parity

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def at(self, unit: int) -> dict:
        """The terms packed at unit: as they are at the operand's own unit,
        otherwise each decoded exactly and packed again."""
        if unit == self.unit:
            return self.terms
        unpack = K.unpacker(self.unit, self.step)
        return {k: K.pack(unpack(o, n), unit) for k, (o, n) in self.terms.items()}

    def y_inverse(self) -> "Packed":
        """Strip a trailing y from each word, as Element.y_inverse does.

        Bit 0 of a word's key is its last letter, so a word ending in y
        keeps its entry under its key shifted right by one; stripping
        is injective, so nothing merges. The words that go (those ending in
        x, and 1) are unpacked to take their norms off their length; every
        word of a Catalan member ends in y, so its image unpacks nothing.
        """
        terms = {k >> 1: p for k, p in self.terms.items() if k & 1 and k != 1}
        norms, parity = self.counted()
        norms = dict(norms)
        if len(terms) < len(self.terms):
            gone = {k: p for k, p in self.terms.items() if not k & 1 or k == 1}
            for i, (count, norm) in _entry_norms(gone, self.unit, self.step)[0].items():
                kept, total = norms[i]
                norms[i] = (kept - count, total - norm)
        norms = {i - 1: v for i, v in norms.items() if v[0]}
        return Packed(terms, self.unit, self.step, norms, parity, self.den)

    def decoded(self) -> Element:
        """The Element, emptying this operand as _drain does."""
        return _decoded(self.terms, self.unit, self.step, self.den)


def _operand(x) -> tuple:
    """(den, terms, length norms, parity) of a shuffle_sum operand, an
    Element or a Packed, its terms cleared of denominators."""
    if isinstance(x, Packed):
        return (x.den, x, *x.counted())
    den, terms = x._cleared()
    return den, terms, _length_norms(terms), _parity(terms.values())


def _packed(terms, unit: int) -> dict:
    """An operand's cleared terms as {key: (o, N)} at unit."""
    if isinstance(terms, Packed):
        return terms.at(unit)
    return {w.key: K.pack(c._c, unit) for w, c in terms.items()}


def shuffle_sum(triples) -> Element:
    """Σ c·(a ⋆ b) over the triples (c, a, b), c an int, a Fraction or a
    LaurentPoly, and a, b Elements or Packed operands: _sum's packed table,
    decoded once. Packed.sum leaves the same table packed instead.
    """
    return _decoded(*_sum(triples))


def _decoded(out: dict, unit: int, step: int, den: int) -> Element:
    """The Element of a packed table {key: (o, N)}, emptied as it is decoded
    (see _drain): one decoder, and each word unpacked once."""
    return Element(dict(_decode(_drain(out), unit, step, den)), _raw=True)


def _sum(triples) -> tuple:
    """(out, unit, step, den): Σ c·(a ⋆ b) over the triples (c, a, b) as one
    packed table out = {key: (o, N)} at unit and step, its coefficients
    times den. Entries that cancelled stay in out with N = 0.

    Fraction coefficients never reach the kernel. A weight is written
    c = s·P, s rational and P an integer polynomial: P = 1 for an int or a
    Fraction, and s = 1/d_c for a LaurentPoly with denominators d_c. Each
    operand is cleared of its denominators d_a, d_b, and each product gets
    the integer weight r·D, where r = s/(d_a·d_b) and D is the lcm of the
    denominators of every r. P is packed at the chosen unit and folded into
    the entry the product is accumulated with. All products are
    accumulated in one packed table, whose coefficients are bounded by
    Σ |r·D|·‖P‖₁·B over the products' bounds B, and whose exponents step
    by two only when every product, P included, has results of one parity.
    The table's den is D, which its decoder divides out of each result
    coefficient once. A Packed operand brings its own denominator, norms
    and parity, and its entries are packed again only when its unit
    differs from the sum's.

    Each product is priced and refused on its own. Zero weights and zero
    operands are skipped, and a product by a constant (an operand holding
    only the empty word) adds a scaled copy of the other operand. Each
    distinct operand object is cleared, counted and packed once per call,
    however many products use it.
    """
    # id(operand) -> (operand, den, terms, norms, parity); holding the
    # operand keeps its id from being reused while the call runs
    prepared: dict = {}
    prods = []
    for c, a, b in triples:
        if a.is_zero() or b.is_zero():
            continue
        poly = None
        if isinstance(c, LaurentPoly):
            if c.is_zero():
                continue
            d = lcm(*(v.denominator for v in c._c.values() if type(v) is Fraction))
            poly, c = c.scale(d), Fraction(1, d)
        elif not c:
            continue
        ia, ib = id(a), id(b)
        if ia not in prepared:
            prepared[ia] = (a, *_operand(a))
        if ib not in prepared:
            prepared[ib] = (b, *_operand(b))
        _, da, _, la, pa = prepared[ia]
        _, db, _, lb, pb = prepared[ib]
        longest, bound = _preflight(la, lb)
        r = c if da == db == 1 else Fraction(c, da * db)
        parity = None if pa is None or pb is None else pa ^ pb
        if poly is not None:
            bound *= sum(map(abs, poly._c.values()))
            pp = _parity((poly,))
            parity = None if parity is None or pp is None else parity ^ pp
        prods.append((r, poly, ia, ib, longest, bound, parity))
    den = lcm(*(r.denominator for r, *_ in prods))
    prods = [(r.numerator * (den // r.denominator), *rest) for r, *rest in prods]
    bound = sum(abs(weight) * b for weight, *_, b, _ in prods)
    parities = {parity for *_, parity in prods}
    step = 1 if None in parities or len(parities) > 1 else 2
    unit = K.slot_width(bound) // step
    packed = {i: _packed(terms, unit) for i, (_, _, terms, _, _) in prepared.items()}
    out: dict = {}
    for weight, poly, ia, ib, longest, _, _ in prods:
        if poly is None:
            c0, cn = 0, weight
        else:
            c0, cn = K.pack(poly._c, unit)
            cn *= weight
        left, right = packed[ia], packed[ib]
        # the packed empty word is 1: a constant operand scales the other one
        if len(left) == 1 and 1 in left:
            o, n = left[1]
            _accumulate(out, right, (c0 + o, cn * n))
        elif len(right) == 1 and 1 in right:
            o, n = right[1]
            _accumulate(out, left, (c0 + o, cn * n))
        elif longest > _SMALL_LIMIT:
            _accumulate(out, _trie_shuffle(left, right, unit), (c0, cn))
        else:
            # one memoized kernel call per word pair
            for u, (o1, n1) in left.items():
                o1 += c0
                n1 *= cn
                for v, (o2, n2) in right.items():
                    _accumulate(out, _shuffle_keys(u, v, unit), (o1 + o2, n1 * n2))
    return out, unit, step, den


X_EL = Element.from_word("x")
Y_EL = Element.from_word("y")
XY_EL = Element.from_word("xy")
UNIT = Element.unit()


def commutator(m: int, a: Element, b: Element) -> Element:
    """(q^m a ⋆ b − q^-m b ⋆ a) / (q − q^-1): one shuffle_sum, divided once.

    With a = x and b a Catalan word this is the weighted sum over all
    single-x insertions. The division is exact for all operands: every
    q-shuffle weight is an even power of q, so at q = ±1 both products are
    the commutative shuffle and q^m = q^-m. The numerator vanishes at q = ±1,
    so q^2 − 1 = q·(q − q^-1) divides it.
    """
    return shuffle_sum(((q_pow(m), a, b), (-q_pow(-m), b, a))).div_exact(Q_COMM)


def shuffle_fold(elements) -> Element:
    """Left-associated shuffle product of a sequence of Elements."""
    out = None
    for el in elements:
        out = el if out is None else out.shuffle(el)
    return UNIT if out is None else out
