from itertools import product

import pytest

from qshuffle import words as W
from qshuffle.algebra import Element
from qshuffle.errors import CapExceededError
from qshuffle.qlaurent import LaurentPoly
from qshuffle.words import (
    EMPTY_WORD,
    Word,
    alternating_word,
    catalan_number,
    elevation_sequence,
    enumerate_catalan,
    is_balanced,
    is_catalan,
    profile,
    word,
    zeta_word,
)

from conftest import all_words_upto


def test_word_round_trip_and_identity():
    for s in ("", "x", "y", "xy", "xxyy", "xyxxyy", "yyxx"):
        w = word(s)
        assert str(w) == s
        assert len(w) == len(s)
    assert word("1") == EMPTY_WORD
    assert EMPTY_WORD.display() == "1"
    assert word("xy").display() == "xy"
    with pytest.raises(ValueError):
        word("xz")


def test_word_hash_and_order():
    assert hash(word("xxyy")) == hash(word("xxyy"))
    assert word("xxyy") != word("xyxy")
    ws = sorted([word("y"), word("x"), word("xy"), EMPTY_WORD, word("yx")])
    assert [str(w) for w in ws] == ["", "x", "y", "xy", "yx"]


def test_word_order_against_a_non_word_is_a_type_error():
    for other in (3, "x", None):
        with pytest.raises(TypeError):
            word("x") < other
        with pytest.raises(TypeError):
            other > word("x")


def _strings_upto(n):
    return ["".join(t) for k in range(n + 1) for t in product("xy", repeat=k)]


def test_key_is_the_word_read_as_a_binary_number():
    # x = 0, y = 1, behind a sentinel 1; the last letter is bit 0
    assert word("xy").key == 0b101 and EMPTY_WORD.key == 1
    strings = _strings_upto(8)
    to_bits = str.maketrans("xy", "01")
    ws = [word(s) for s in strings]
    for s, w in zip(strings, ws):
        assert w.key == int("1" + s.translate(to_bits), 2), s
        assert str(w) == s and Word(w.key) == w
        assert w.letter_bits() == tuple(int(b) for b in s.translate(to_bits))
    # key order is word order: by length, then lexicographic with x < y
    by_key = sorted(ws, key=lambda w: w.key)
    assert [str(w) for w in by_key] == sorted(strings, key=lambda s: (len(s), s))
    assert sorted(reversed(ws)) == by_key
    assert all(a < b and not b < a for a, b in zip(by_key, by_key[1:]))


def test_key_operations_match_their_string_definitions():
    strings = _strings_upto(8)
    swap = str.maketrans("xy", "yx")
    for s in strings:
        w = word(s)
        assert str(zeta_word(w)) == s[::-1].translate(swap), s
        assert W.is_balanced(w) == (s.count("x") == s.count("y")), s
        assert W.key_weight(w.key) == s.count("x") - s.count("y"), s
        for t in strings[:63]:  # every word of up to 5 letters
            assert str(w.concat(word(t))) == s + t, (s, t)
    el = Element({word(s): LaurentPoly.const(i + 1) for i, s in enumerate(strings)})
    y_inv = {str(w)[:-1]: c for w, c in el.terms() if str(w).endswith("y")}
    x_inv = {str(w)[1:]: c for w, c in el.terms() if str(w).startswith("x")}
    assert {str(w): c for w, c in el.y_inverse().terms()} == y_inv
    assert {str(w): c for w, c in el.x_inverse().terms()} == x_inv


def test_concat():
    assert word("xx").concat(word("yy")) == word("xxyy")
    assert EMPTY_WORD.concat(word("xy")) == word("xy")
    assert word("xy").concat(EMPTY_WORD) == word("xy")


def test_elevation_sequences_match_reference():
    assert elevation_sequence(word("xxyy")) == (0, 1, 2, 1, 0)
    assert elevation_sequence(EMPTY_WORD) == (0,)
    assert elevation_sequence(word("xyxxyy")) == (0, 1, 0, 1, 2, 1, 0)
    assert elevation_sequence(word("xxxyyy")) == (0, 1, 2, 3, 2, 1, 0)


def test_elevation_steps_are_unit():
    for w in all_words_upto(7):
        es = elevation_sequence(w)
        assert es[0] == 0
        assert all(abs(a - b) == 1 for a, b in zip(es, es[1:]))


def test_balanced():
    assert is_balanced(word("xyyx"))
    assert not is_balanced(word("x"))
    assert is_balanced(EMPTY_WORD)
    ref = {"", "xy", "yx", "xxyy", "xyxy", "xyyx", "yxxy", "yxyx", "yyxx"}
    got = {str(w) for w in all_words_upto(4) if is_balanced(w)}
    assert got == ref


def test_catalan_predicate():
    assert is_catalan(word("xxyxyy"))
    assert not is_catalan(word("yx"))
    assert is_catalan(EMPTY_WORD)
    for w in all_words_upto(8):
        if is_catalan(w):
            assert is_balanced(w) and len(w) % 2 == 0
            if len(w) > 0:
                assert str(w)[0] == "x" and str(w)[-1] == "y"


def test_enumerate_catalan_against_bruteforce():
    for n in range(0, 6):
        brute = sorted(
            (w for w in all_words_upto(2 * n) if len(w) == 2 * n and is_catalan(w)),
            key=lambda w: w.letter_bits(),
        )
        got = list(enumerate_catalan(n))
        assert got == brute
        assert len(got) == catalan_number(n)


def test_enumerate_catalan_examples():
    assert {str(w) for w in enumerate_catalan(2)} == {"xyxy", "xxyy"}
    assert list(enumerate_catalan(0)) == [EMPTY_WORD]
    assert len(enumerate_catalan(4)) == 14
    assert {str(w) for w in enumerate_catalan(3)} == {
        "xyxyxy", "xxyyxy", "xyxxyy", "xxyxyy", "xxxyyy",
    }


def test_length_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        enumerate_catalan(17)
    monkeypatch.setattr(W, "LENGTH_CAP", 4)
    with pytest.raises(CapExceededError):
        enumerate_catalan(3)
    assert len(enumerate_catalan(2)) == 2


def test_catalan_count_bound(monkeypatch):
    # C_12 = 208,012 (the n_max = 6 grid builds nabla(0, 12)) is admitted;
    # C_13 = 742,900 is refused before any word is walked
    W.check_catalan_cost(12)
    monkeypatch.setattr(W, "_enumerate_catalan", None)
    with pytest.raises(CapExceededError, match="742900 Catalan words"):
        enumerate_catalan(13)


def test_profiles_match_reference_table():
    expected = {
        "": (0,),
        "xy": (0, 1, 0),
        "xyxy": (0, 1, 0, 1, 0),
        "xxyy": (0, 2, 0),
        "xyxyxy": (0, 1, 0, 1, 0, 1, 0),
        "xxyyxy": (0, 2, 0, 1, 0),
        "xyxxyy": (0, 1, 0, 2, 0),
        "xxyxyy": (0, 2, 1, 2, 0),
        "xxxyyy": (0, 3, 0),
    }
    for s, entries in expected.items():
        assert profile(word(s)) == entries


def test_alternating_words():
    assert str(alternating_word("W_minus", 0)) == "x"
    assert str(alternating_word("W_minus", 2)) == "xyxyx"
    assert str(alternating_word("W_plus", 0)) == "y"
    assert str(alternating_word("W_plus", 2)) == "yxyxy"
    assert str(alternating_word("G", 2)) == "yxyx"
    assert alternating_word("G", 0) == EMPTY_WORD
    assert str(alternating_word("Gtilde", 3)) == "xyxyxy"
    assert alternating_word("Gtilde", 0) == EMPTY_WORD
    with pytest.raises(ValueError):
        alternating_word("bogus", 1)


def test_alternating_word_characterization():
    # a word of length 2n is (xy)^n exactly when its elevations stay in {0, 1}
    for w in all_words_upto(8):
        if len(w) % 2:
            continue
        n = len(w) // 2
        flat = all(e in (0, 1) for e in elevation_sequence(w))
        assert flat == (w == alternating_word("Gtilde", n))


def test_zeta_word():
    assert zeta_word(word("xxy")) == word("xyy")
    assert zeta_word(EMPTY_WORD) == EMPTY_WORD
    assert zeta_word(word("xxyy")) == word("xxyy")
    for w in all_words_upto(8):
        assert zeta_word(zeta_word(w)) == w
        if is_catalan(w):
            assert is_catalan(zeta_word(w))
