"""Words over the two-letter alphabet {x, y} and their lattice-path combinatorics.

A word is stored packed: a single int whose low bits encode the letters
(bit i is letter i, x = 0, y = 1) with a sentinel 1-bit just above the last
letter. The empty word is the bare sentinel 1. This makes words cheap to
hash, to split at the front, and to share as memo keys.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .errors import CapExceededError

EMPTY_KEY = 1

_length_cap = 32


def length_cap() -> int:
    return _length_cap


def set_length_cap(n: int) -> None:
    """Adjust the global word-length guard (memory protection, default 32)."""
    global _length_cap
    if n < 0:
        raise ValueError("length cap must be non-negative")
    _length_cap = n


class Letter(enum.Enum):
    X = 0
    Y = 1

    def __str__(self):
        return "x" if self is Letter.X else "y"


X = Letter.X
Y = Letter.Y


def weight(a: Letter) -> int:
    """+1 for x, -1 for y."""
    return 1 if a is Letter.X else -1


class Word:
    """An immutable word over {x, y}; the empty word is the algebra unit."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: int = EMPTY_KEY):
        if key < 1:
            raise ValueError("invalid packed word key")
        self.key = key
        self._hash = hash(key)

    @staticmethod
    def from_string(s: str) -> "Word":
        key = EMPTY_KEY
        for ch in reversed(s):
            if ch == "x":
                key = key << 1
            elif ch == "y":
                key = (key << 1) | 1
            else:
                raise ValueError(f"invalid letter {ch!r}; words use only 'x' and 'y'")
        return Word(key)

    def __len__(self) -> int:
        return self.key.bit_length() - 1

    def __iter__(self):
        k = self.key
        while k > 1:
            yield Letter(k & 1)
            k >>= 1

    def __getitem__(self, i: int) -> Letter:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return Letter((self.key >> i) & 1)

    def __eq__(self, other):
        return isinstance(other, Word) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        # length first, then lexicographic with x < y
        if not isinstance(other, Word):
            return NotImplemented
        a, b = self.letter_bits(), other.letter_bits()
        return (len(a), a) < (len(b), b)

    def letter_bits(self) -> tuple:
        return tuple((self.key >> i) & 1 for i in range(len(self)))

    def concat(self, other: "Word") -> "Word":
        n = len(self)
        bits = self.key - (1 << n)
        return Word(bits | (other.key << n))

    def __str__(self):
        return "".join("y" if b else "x" for b in self.letter_bits())

    def __repr__(self):
        return f"Word({str(self)!r})"

    def display(self) -> str:
        """Human form: '1' for the empty word."""
        return str(self) or "1"

    def is_trivial(self) -> bool:
        return self.key == EMPTY_KEY


EMPTY_WORD = Word(EMPTY_KEY)


def word(s: str) -> Word:
    """Shorthand parser, accepting '' or '1' for the empty word."""
    if s == "1":
        return EMPTY_WORD
    return Word.from_string(s)


def elevation_sequence(w: Word) -> tuple:
    """Running weight sums (e_0, ..., e_n), starting at e_0 = 0."""
    out = [0]
    e = 0
    for b in w.letter_bits():
        e += -1 if b else 1
        out.append(e)
    return tuple(out)


def is_balanced(w: Word) -> bool:
    """Equal numbers of x and y; equivalently the final elevation is 0."""
    n = len(w)
    if n % 2:
        return False
    ys = bin(w.key).count("1") - 1
    return 2 * ys == n


def is_catalan(w: Word) -> bool:
    """Partial elevations stay >= 0 and the final elevation is 0."""
    e = 0
    for b in w.letter_bits():
        e += -1 if b else 1
        if e < 0:
            return False
    return e == 0


class Profile:
    """End points and turning points of a word's Dyck path.

    For a nontrivial Catalan word this is the odd-length valley/peak
    sequence (l_0, h_1, l_1, ..., h_r, l_r). Arbitrary words may yield
    even-length sequences (e.g. a word ending mid-climb); the Catalan
    helpers below only apply to the odd-length shape.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise ValueError("a profile has at least one entry")
        for i in range(1, len(entries)):
            if entries[i] == entries[i - 1]:
                raise ValueError("profile entries must change at every step")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.entries == other
        return isinstance(other, Profile) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Profile{self.entries!r}"

    @property
    def r(self) -> int:
        """Number of peaks, for odd-length (l, h, ..., l) profiles."""
        if len(self.entries) % 2 == 0:
            raise ValueError("peak count is defined for odd-length profiles only")
        return (len(self.entries) - 1) // 2

    def valleys(self) -> tuple:
        return self.entries[0::2]

    def peaks(self) -> tuple:
        return self.entries[1::2]

    def is_catalan(self) -> bool:
        """l_i >= 0 for 1 <= i <= r-1 and l_r = 0 (with l_0 = 0)."""
        if len(self.entries) % 2 == 0 or self.entries[0] != 0:
            return False
        ls = self.valleys()
        if ls[-1] != 0:
            return False
        if any(l < 0 for l in ls[1:-1]):
            return False
        hs = self.peaks()
        return all(h > ls[i] and h > ls[i + 1] for i, h in enumerate(hs))


def profile(w: Word) -> Profile:
    """Subsequence of the elevation sequence at end points and turning points."""
    es = elevation_sequence(w)
    n = len(es) - 1
    if n == 0:
        return Profile((0,))
    kept = [es[0]]
    for i in range(1, n):
        if es[i] - es[i - 1] != es[i + 1] - es[i]:
            kept.append(es[i])
    kept.append(es[n])
    return Profile(kept)


def _check_cap(nletters: int) -> None:
    if nletters > _length_cap:
        raise CapExceededError(
            f"word length {nletters} exceeds the configured cap {_length_cap}"
        )


# Catalan words one enumeration or family build may walk. The (6, 6) pair of
# the (n, k) recursion at n_max = 6 walks nabla(0, 12), priced at
# C_12 = 208,012 words; C_13 = 742,900 would take about four times that.
_CATALAN_BUDGET = 300_000


def check_catalan_cost(n: int) -> None:
    """Refuse a walk over the Catalan words of length 2n up front: past the
    length cap, or past _CATALAN_BUDGET words."""
    _check_cap(2 * n)
    count = catalan_number(n)
    if count > _CATALAN_BUDGET:
        raise CapExceededError(
            f"n = {n} has {count} Catalan words, over the budget of {_CATALAN_BUDGET}"
        )


def enumerate_catalan(n: int) -> tuple:
    """All Catalan words of length 2n, lexicographic with x < y."""
    if n < 0:
        raise ValueError("n must be non-negative")
    check_catalan_cost(n)
    return _enumerate_catalan(n)


@lru_cache(maxsize=64)
def _enumerate_catalan(n: int) -> tuple:
    out = []

    def rec(key: int, pos: int, xs: int, e: int) -> None:
        if pos == 2 * n:
            out.append(Word(key | (1 << pos)))
            return
        if xs < n:
            rec(key, pos + 1, xs + 1, e + 1)
        if e > 0:
            rec(key | (1 << pos), pos + 1, xs, e - 1)

    rec(0, 0, 0, 0)
    return tuple(out)


def catalan_number(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def alternating_word(kind: str, n: int) -> Word:
    """The alternating families: W_minus(n) = (xy)^n x, W_plus(n) = y(xy)^n
    (the word indexed n+1 in the plus family), G(n) = (yx)^n, Gtilde(n) = (xy)^n.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if kind == "W_minus":
        _check_cap(2 * n + 1)
        return word("xy" * n + "x")
    if kind == "W_plus":
        _check_cap(2 * n + 1)
        return word("y" + "xy" * n)
    if kind == "G":
        _check_cap(2 * n)
        return word("yx" * n)
    if kind == "Gtilde":
        _check_cap(2 * n)
        return word("xy" * n)
    raise ValueError(f"unknown alternating family {kind!r}")


def gtilde_word(n: int) -> Word:
    return alternating_word("Gtilde", n)


def zeta_word(w: Word) -> Word:
    """Reverse the word and swap x <-> y."""
    key = EMPTY_KEY
    for b in w.letter_bits():
        key = (key << 1) | (b ^ 1)
    return Word(key)
