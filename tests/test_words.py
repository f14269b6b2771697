import pytest

from qshuffle import words as W
from qshuffle.errors import CapExceededError
from qshuffle.words import (
    EMPTY_WORD,
    Letter,
    Profile,
    alternating_word,
    catalan_number,
    elevation_sequence,
    enumerate_catalan,
    is_balanced,
    is_catalan,
    profile,
    weight,
    word,
    zeta_word,
)

from conftest import all_words_upto


def test_weights():
    assert weight(Letter.X) == 1
    assert weight(Letter.Y) == -1
    assert weight(Letter.X) + weight(Letter.Y) == 0


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


def test_length_cap():
    with pytest.raises(CapExceededError):
        enumerate_catalan(17)
    W.set_length_cap(4)
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


def test_profile_catalan_criterion():
    for w in all_words_upto(8):
        assert profile(w).is_catalan() == is_catalan(w)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(())
    with pytest.raises(ValueError):
        Profile((0, 0))
    p = Profile((0, 2, 1, 2, 0))
    assert p.r == 2
    assert p.valleys() == (0, 1, 0)
    assert p.peaks() == (2, 2)


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
