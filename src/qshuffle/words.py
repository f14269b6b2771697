"""Words over the two-letter alphabet {x, y} and their lattice-path combinatorics.

A word is stored as one int, its key: the word read as a binary number
(x = 0, y = 1) behind a sentinel 1-bit, so its last letter is bit 0. The
empty word's key is the bare sentinel 1, and word("xy").key == 0b101. Key
order is word order: by length, then lexicographic with x < y. The shuffle
kernel, its memo and the family walk use these keys as they are: appending
a letter b is key << 1 | b, and dropping the last letter is key >> 1.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapExceededError

EMPTY_KEY = 1
_BITS = str.maketrans("xy", "01")  # letters to key bits
_LETTERS = str.maketrans("01", "xy")  # key bits to letters

_length_cap = 32


def length_cap() -> int:
    return _length_cap


def set_length_cap(n: int) -> None:
    """Adjust the global word-length guard (memory protection, default 32)."""
    global _length_cap
    if n < 0:
        raise ValueError("length cap must be non-negative")
    _length_cap = n


class Word:
    """An immutable word over {x, y}; the empty word is the algebra unit."""

    __slots__ = ("key",)

    def __init__(self, key: int = EMPTY_KEY):
        if key < 1:
            raise ValueError("invalid packed word key")
        self.key = key

    @staticmethod
    def from_string(s: str) -> "Word":
        bad = s.strip("xy")  # starts at the first letter that is not x or y
        if bad:
            raise ValueError(f"invalid letter {bad[0]!r}; words use only 'x' and 'y'")
        return Word(int("1" + s.translate(_BITS), 2))

    def __len__(self) -> int:
        return self.key.bit_length() - 1

    def __eq__(self, other):
        return isinstance(other, Word) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        # key order is word order: length first, then lexicographic with x < y
        if not isinstance(other, Word):
            return NotImplemented
        return self.key < other.key

    def letter_bits(self) -> tuple:
        """The letters as bits (x = 0, y = 1), first letter first."""
        return tuple(map(int, bin(self.key)[3:]))

    def concat(self, other: "Word") -> "Word":
        n = len(other)
        return Word((self.key << n) | (other.key - (1 << n)))

    def __str__(self):
        return bin(self.key)[3:].translate(_LETTERS)

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


def key_weight(key: int) -> int:
    """#x - #y of the word with this key: the set bits past the sentinel are the y's."""
    return key.bit_length() + 1 - 2 * bin(key).count("1")


def is_balanced(w: Word) -> bool:
    """Equal numbers of x and y; equivalently the final elevation is 0."""
    return key_weight(w.key) == 0


def is_catalan(w: Word) -> bool:
    """Partial elevations stay >= 0 and the final elevation is 0."""
    es = elevation_sequence(w)
    return min(es) == es[-1] == 0


def profile(w: Word) -> tuple:
    """Subsequence of the elevation sequence at end points and turning points.

    For a nontrivial Catalan word this is the odd-length valley/peak
    sequence (l_0, h_1, l_1, ..., h_r, l_r). Arbitrary words may yield
    even-length sequences (e.g. a word ending mid-climb).
    """
    es = elevation_sequence(w)
    n = len(es) - 1
    if n == 0:
        return (0,)
    kept = [es[0]]
    for i in range(1, n):
        if es[i] - es[i - 1] != es[i + 1] - es[i]:
            kept.append(es[i])
    kept.append(es[n])
    return tuple(kept)


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
            out.append(Word(key))
            return
        if xs < n:
            rec(key << 1, pos + 1, xs + 1, e + 1)
        if e > 0:
            rec(key << 1 | 1, pos + 1, xs, e - 1)

    rec(EMPTY_KEY, 0, 0, 0)
    return tuple(out)


def catalan_number(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


# kind -> (head, body, tail) of the word head + body^n + tail
_ALTERNATING = {"W_minus": ("", "xy", "x"), "W_plus": ("y", "xy", ""),
                "G": ("", "yx", ""), "Gtilde": ("", "xy", "")}


def alternating_word(kind: str, n: int) -> Word:
    """The alternating families: W_minus(n) = (xy)^n x, W_plus(n) = y(xy)^n
    (the word indexed n+1 in the plus family), G(n) = (yx)^n, Gtilde(n) = (xy)^n.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    head, body, tail = _ALTERNATING.get(kind, (None,) * 3)
    if body is None:
        raise ValueError(f"unknown alternating family {kind!r}")
    _check_cap(2 * n + len(head + tail))
    return word(head + body * n + tail)


def zeta_word(w: Word) -> Word:
    """Reverse the word and swap x <-> y: its key's letter bits reversed, then flipped."""
    return Word(int("1" + bin(w.key)[:2:-1], 2) ^ ((1 << len(w)) - 1))
