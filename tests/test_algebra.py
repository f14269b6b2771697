import random
from fractions import Fraction

import pytest

from qshuffle import algebra, catalan, kronecker, words as W
from qshuffle.algebra import (
    Element, Packed, UNIT, X_EL, XY_EL, Y_EL, commutator, shuffle_fold,
)
from qshuffle.errors import CapExceededError
from qshuffle.qlaurent import LaurentPoly, Q_COMM, q_int, q_pow
from conftest import all_words_upto, memo_state, shuffle_bruteforce


def el(s, coeff=None):
    return Element.from_word(s, coeff)


# -- alternative recursion rules, used only as cross-checks ---------------------


def _bracket(a: str, b: str) -> int:
    return 2 if a == b else -2


def shuffle_letter_into_word(u: str, v: str) -> Element:
    """Letter * word: insert u at every slot, weighting by the prefix passed."""
    assert len(u) == 1
    out = Element.zero()
    for i in range(len(v) + 1):
        e = sum(_bracket(u, v[j]) for j in range(i))
        out = out + el(v[:i] + u + v[i:], q_pow(e))
    return out


def shuffle_word_with_letter(v: str, u: str) -> Element:
    """Word * letter: insert u at every slot, weighting by the suffix passed."""
    assert len(u) == 1
    out = Element.zero()
    for i in range(len(v) + 1):
        e = sum(_bracket(u, v[j]) for j in range(i, len(v)))
        out = out + el(v[:i] + u + v[i:], q_pow(e))
    return out


def shuffle_left_recursion(u: str, v: str) -> Element:
    """The front-peeling word rule."""
    if not u:
        return el(v)
    if not v:
        return el(u)
    first = el(u[0]) * shuffle_left_recursion(u[1:], v)
    e = sum(_bracket(v[0], a) for a in u)
    second = (el(v[0]) * shuffle_left_recursion(u, v[1:])).scale(q_pow(e))
    return first + second


def test_unit_laws():
    for s in ("", "x", "xy", "yxx"):
        assert UNIT.shuffle(el(s)) == el(s)
        assert el(s).shuffle(UNIT) == el(s)


def test_letter_products():
    assert X_EL @ Y_EL == el("xy") + el("yx", q_pow(-2))
    assert Y_EL @ X_EL == el("yx") + el("xy", q_pow(-2))
    assert X_EL @ X_EL == el("xx", LaurentPoly({0: 1, 2: 1}))


def test_shuffle_matches_bruteforce_exhaustively():
    pool = [str(w) for w in all_words_upto(3)]
    for u in pool:
        for v in pool:
            assert el(u) @ el(v) == shuffle_bruteforce(u, v), (u, v)


def test_shuffle_matches_bruteforce_longer_samples():
    rng = random.Random(7)
    for _ in range(25):
        u = "".join(rng.choice("xy") for _ in range(rng.randint(4, 6)))
        v = "".join(rng.choice("xy") for _ in range(rng.randint(4, 5)))
        assert el(u) @ el(v) == shuffle_bruteforce(u, v), (u, v)


def test_shuffle_agrees_with_all_recursion_rules():
    pool = [str(w) for w in all_words_upto(4)]
    rng = random.Random(3)
    sample = rng.sample([(u, v) for u in pool for v in pool], 120)
    for u, v in sample:
        got = el(u) @ el(v)
        assert got == shuffle_left_recursion(u, v), (u, v)
        if len(u) == 1 and v:
            assert got == shuffle_letter_into_word(u, v)
        if len(v) == 1 and u:
            assert got == shuffle_word_with_letter(u, v)


def test_xy_squared():
    assert el("xy") @ el("xy") == el("xyxy", LaurentPoly.const(2)) + el(
        "xxyy", q_int(2) ** 2
    )


def test_associativity_sampled():
    rng = random.Random(11)
    pool = [str(w) for w in all_words_upto(3) if len(w)]
    elements = [
        el(rng.choice(pool)) + el(rng.choice(pool), q_int(2)) for _ in range(6)
    ]
    for _ in range(12):
        a, b, c = rng.sample(elements, 3)
        assert (a @ b) @ c == a @ (b @ c)


def test_grading():
    a = el("xy") + el("x")
    b = el("yx")
    for w in (a @ b).support():
        assert len(w) in (3, 4)
    assert all(len(w) == 4 for w in (el("xy") @ el("yx")).support())


def test_free_product():
    assert X_EL * Y_EL == el("xy")
    assert UNIT * el("yx") == el("yx")
    assert el("xy", q_int(2)) * Y_EL == el("xyy", q_int(2))
    a = el("x") + el("y")
    assert a * a == el("xx") + el("xy") + el("yx") + el("yy")


def test_bilinear_form():
    prod = X_EL @ Y_EL
    assert prod.coeff("xy") == LaurentPoly.one()
    assert prod.coeff("yx") == q_pow(-2)
    assert prod.coeff("xx").is_zero()
    assert UNIT.coeff(W.EMPTY_WORD) == LaurentPoly.one()


def test_y_inverse():
    e = (
        el("xxyy") - el("xyxy", 6) + el("xyyx", 2)
        + el("yxxy", 3) - el("yxyx", 5) - el("yyxx", 4)
    )
    assert e.y_inverse() == el("xxy") - el("xyx", 6) + el("yxx", 3)
    assert UNIT.y_inverse().is_zero()
    assert X_EL.y_inverse().is_zero()
    assert Y_EL.y_inverse() == UNIT


def test_x_inverse():
    assert el("xxy").x_inverse() == el("xy")
    assert el("yxy").x_inverse().is_zero()
    assert UNIT.x_inverse().is_zero()
    assert X_EL.x_inverse() == UNIT


def test_y_inverse_leibniz_on_balanced_words():
    balanced = [w for w in all_words_upto(4) if W.is_balanced(w)]
    for u in balanced:
        for v in balanced:
            a, b = Element.from_word(u), Element.from_word(v)
            lhs = a.shuffle(b).y_inverse()
            rhs = a.y_inverse().shuffle(b) + a.shuffle(b.y_inverse())
            assert lhs == rhs, (str(u), str(v))


def test_zeta():
    assert el("xxy").zeta() == el("xyy")
    assert (X_EL @ Y_EL).zeta() == el("xy") + el("yx", q_pow(-2))
    rng = random.Random(5)
    pool = [str(w) for w in all_words_upto(4)]
    els = [el(rng.choice(pool), q_int(rng.randint(1, 3))) + el(rng.choice(pool)) for _ in range(6)]
    for u in els:
        assert u.zeta().zeta() == u
        assert u.y_inverse().zeta() == u.zeta().x_inverse()
        for v in els:
            assert (u @ v).zeta() == v.zeta() @ u.zeta()
            assert (u * v).zeta() == v.zeta() * u.zeta()


def insertion_formula(m: int, w) -> Element:
    """Independent oracle: weighted single-letter insertions into a word."""
    s = str(w)
    out = Element.zero()
    prefix_weight = 0
    for i in range(len(s) + 1):
        coeff = q_int(m + 2 * prefix_weight)
        out = out + el(s[:i] + "x" + s[i:], coeff)
        if i < len(s):
            prefix_weight += 1 if s[i] == "x" else -1
    return out


def test_commutator_x_examples():
    assert commutator(0, X_EL, el("xy")) == el("xxy", q_int(2))
    assert commutator(1, X_EL, UNIT) == X_EL
    assert commutator(-2, X_EL, UNIT) == X_EL.scale(q_int(-2))
    assert commutator(1, UNIT, Y_EL) == Y_EL
    # swapping the operands and negating m negates the commutator
    assert commutator(1, XY_EL, Y_EL) == -commutator(-1, Y_EL, XY_EL)


def test_commutator_x_matches_insertion_formula():
    for n in (1, 2, 3):
        for w in W.enumerate_catalan(n):
            for m in range(-2, 3):
                assert commutator(m, X_EL, Element.from_word(w)) == insertion_formula(m, w)


def test_qserre_relations():
    for a, b in ((X_EL, Y_EL), (Y_EL, X_EL)):
        t = (
            shuffle_fold([a, a, a, b])
            - shuffle_fold([a, a, b, a]).scale(q_int(3))
            + shuffle_fold([a, b, a, a]).scale(q_int(3))
            - shuffle_fold([b, a, a, a])
        )
        assert t.is_zero()


def test_cap_guard():
    W.set_length_cap(4)
    with pytest.raises(CapExceededError):
        el("xxx") @ el("yy")
    with pytest.raises(CapExceededError):
        el("xxx") * el("yy")
    assert (el("xx") @ el("yy")).max_word_len() == 4


def test_cache_disabled_gives_identical_results(monkeypatch):
    # cold (empty memo), warm (every pair memoized), and with a full memo
    # that stores nothing more
    a = el("xyxy") + el("xxyy", q_int(2))
    b = el("xyxxyy")
    algebra.clear_caches()
    cold = a @ b
    assert algebra._memo
    assert a @ b == cold
    memo_state(monkeypatch, cached=False)
    assert a @ b == cold
    assert not algebra._memo


def test_fraction_coefficients_leave_an_integral_product_integral():
    prod = Element.from_word("xy", Fraction(1, 2)).shuffle(Element.from_word("xy", 2))
    assert prod.is_integral()
    assert all(type(c) is int for _, p in prod.terms() for _, c in p.terms())
    assert prod == el("xy") @ el("xy")


def _random_rational_element(rng, integral):
    out = Element.zero()
    for _ in range(rng.randint(1, 3)):
        w = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
        coeff = LaurentPoly({
            rng.randint(-3, 3): rng.choice((-1, 1)) * (
                rng.randint(1, 5) if integral else Fraction(rng.randint(1, 9), rng.randint(2, 7))
            )
            for _ in range(rng.randint(1, 3))
        })
        out = out + el(w, coeff)
    return out


def _shuffle_by_oracle(a, b):
    out = Element.zero()
    for u, cu in a.terms():
        for v, cv in b.terms():
            out = out + shuffle_bruteforce(str(u), str(v)).scale(cu * cv)
    return out


@pytest.mark.parametrize("cached", [True, False])
def test_rational_shuffle_matches_bruteforce(monkeypatch, cached):
    memo_state(monkeypatch, cached)
    rng = random.Random(11)
    for i in range(30):
        a = _random_rational_element(rng, integral=i % 3 == 0)
        b = _random_rational_element(rng, integral=i % 3 == 1)
        assert a @ b == _shuffle_by_oracle(a, b), (a, b)


def _commutator_operands(rng, kind):
    """Operands of mixed weights with int coefficients that are not
    bar-invariant, the same with Fraction coefficients, or family members
    and their y^-1 images; each list ends with zero and UNIT."""
    if kind == "members":
        ops = [catalan.nabla_element(m, n) for m in (-2, 0, 3) for n in (1, 2)]
        ops += [catalan.delta_element(-1, 2).y_inverse(), catalan.nabla_element(2, 3).y_inverse()]
    else:
        ops = [_random_rational_element(rng, integral=kind == "integral") for _ in range(8)]
    return ops + [Element.zero(), UNIT]


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("kind", ["integral", "fraction", "members"])
def test_commutator_is_its_definition(monkeypatch, kind, cached):
    # one shuffle_sum equals two products, scaled, subtracted and divided by
    # q - q^-1, and that division is exact on every operand, m in -4..4
    memo_state(monkeypatch, cached)
    rng = random.Random(kind)
    ops = _commutator_operands(rng, kind)
    for a in ops:
        for b in ops:
            m = rng.randint(-4, 4)
            want = (a.shuffle(b).scale(q_pow(m)) - b.shuffle(a).scale(q_pow(-m))).div_exact(Q_COMM)
            assert commutator(m, a, b) == want, (m, a, b)


# -- the two product paths: word pairs and the trie walk ---------------------------


def _on_trie(monkeypatch):
    """Send every product down the trie walk; any word-pair kernel call fails."""
    monkeypatch.setattr(algebra, "_SMALL_LIMIT", -1)
    monkeypatch.setattr(algebra, "_shuffle_keys", None)


@pytest.mark.parametrize("cached", [True, False])
def test_trie_walk_matches_bruteforce(monkeypatch, cached):
    # mixed weights, empty words, multi-term int and Fraction coefficients
    memo_state(monkeypatch, cached)
    _on_trie(monkeypatch)
    rng = random.Random(31)
    for i in range(150):
        a = _random_rational_element(rng, integral=i % 3 == 0)
        b = _random_rational_element(rng, integral=i % 3 == 1)
        assert a @ b == _shuffle_by_oracle(a, b), (a, b)


def test_trie_walk_edge_operands(monkeypatch):
    _on_trie(monkeypatch)
    a = el("xyy", q_int(2)) + el("yxy") + UNIT.scale(Fraction(1, 3))
    for other in (UNIT, UNIT.scale(q_pow(2)), Element.zero(), el("x"), a):
        assert a @ other == _shuffle_by_oracle(a, other)
        assert other @ a == _shuffle_by_oracle(other, a)
    # x * xy and x * yx both make xyx with coefficient 1, so it cancels here
    prod = el("x") @ (el("xy") - el("yx"))
    assert prod == el("xxy", q_int(2) * q_pow(1)) - el("yxx", q_int(2) * q_pow(-1))
    assert W.word("xyx") not in prod.support()
    # ... and again in the weight-0 part of a right operand split by weight,
    # after the weight-2 part has made xyx with another power of q
    a, b = el("x") + el("y"), el("xx") + el("xy") - el("yx")
    assert a @ b == _shuffle_by_oracle(a, b)


# -- the packed coefficients (Kronecker substitution) ----------------------------


@pytest.mark.parametrize("unit, step", [(64, 1), (32, 2), (128, 1), (64, 2)])
def test_packed_coefficients_round_trip(unit, step):
    # balanced digits at both ends of the slot range, in every sign pattern,
    # so that negative digits borrow from the slot above
    rng = random.Random(unit + step)
    top = (1 << (step * unit - 1)) - 1
    key = W.word("xy").key
    for _ in range(200):
        e0 = rng.randint(-9, 9)
        digits = [rng.choice((top, -top, 1, -1, 0, rng.randint(-top, top))) for _ in range(8)]
        digits[0] = digits[0] or -1
        p = {e0 + step * i: c for i, c in enumerate(digits) if c}
        out = {key: kronecker.pack(p, unit)}
        assert algebra._decode(out, unit, step, 1) == {W.word("xy"): LaurentPoly(p)}


def _unpack_per_slot(unit, step, o, n):
    """The decoder of kronecker.unpacker, one int.from_bytes per slot."""
    w = step * unit
    slots = abs(n).bit_length() // w + 1
    bias = ((1 << w * slots) - 1) // ((1 << w) - 1) << (w - 1)
    raw = ((n + bias) ^ bias).to_bytes(slots * w // 8, "little")
    digits = [int.from_bytes(raw[i:i + w // 8], "little", signed=True)
              for i in range(0, len(raw), w // 8)]
    return {o // unit + step * i: c for i, c in enumerate(digits) if c}


@pytest.mark.parametrize("unit, step", [(128, 1), (64, 2), (256, 1), (128, 2)])
def test_wide_slots_decode_like_the_per_slot_decoder(unit, step):
    # random balanced digits, negative ones and the extremes of the slot included
    rng = random.Random(7 * unit + step)
    top = (1 << (step * unit - 1)) - 1
    unpack = kronecker.unpacker(unit, step)
    for _ in range(300):
        e0 = rng.randint(-9, 9)
        digits = [rng.choice((top, -top, -1, 0, rng.randint(-top, top), rng.randint(-9, 9)))
                  for _ in range(rng.randint(1, 9))]
        digits[0] = digits[0] or 1
        p = {e0 + step * i: c for i, c in enumerate(digits) if c}
        o, n = kronecker.pack(p, unit)
        assert unpack(o, n) == _unpack_per_slot(unit, step, o, n) == p


def test_slot_width_is_the_smallest_power_of_two_that_decodes_the_bound():
    bounds = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 127) - 1, 1 << 127)
    assert [kronecker.slot_width(b) for b in bounds] == [64, 64, 64, 128, 128, 256]


def _on_word_pairs(monkeypatch):
    """Leave the routing alone: every operand below is short enough for the
    word-pair path."""


def _decoded_widths(monkeypatch):
    """Record (slot width, step) of every decoder made from here on."""
    widths = []
    real = kronecker.unpacker

    def spy(unit, step):
        widths.append((unit * step, step))
        return real(unit, step)

    monkeypatch.setattr(kronecker, "unpacker", spy)
    return widths


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
@pytest.mark.parametrize("cached", [True, False])
def test_slot_width_follows_the_coefficient_bound(monkeypatch, path, cached):
    # the unit times a word: its one result coefficient reaches the bound
    # B = |c| L1(c'), so B = 2^63 - 1 fits 64-bit slots and B = 2^63 does not
    memo_state(monkeypatch, cached)
    path(monkeypatch)
    widths = _decoded_widths(monkeypatch)
    for c in ((1 << 63) - 1, 1 << 63, -(1 << 63) + 1, (1 << 62) - 1, 1 << 62):
        # one exponent; two of one parity, with a borrow; two of both parities
        for exps, step in (({0: 1}, 2), ({0: 1, 2: -1}, 2), ({0: -1, 1: 1}, 1)):
            a, b = UNIT.scale(c), el("xy", LaurentPoly(exps))
            bound = abs(c) * len(exps)
            want = el("xy", LaurentPoly({e: c * v for e, v in exps.items()}))
            widths.clear()
            assert a @ b == want and b @ a == want
            assert widths == [(64 if bound < 1 << 63 else 128, step)] * 2, (c, exps)
    # a bound either side of 2^63 over a real shuffle: x * x has two
    # interleavings, (1 + q^2) xx, so B = 2 L1(c) = 4|c|
    for c in ((1 << 61) - 1, 1 << 61, -(1 << 61)):
        a, b = el("x", LaurentPoly({0: c, 2: -c})), el("x", LaurentPoly({-2: 1}))
        widths.clear()
        assert a @ b == _shuffle_by_oracle(a, b)
        assert widths == [(64 if 4 * abs(c) < 1 << 63 else 128, 2)]


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
@pytest.mark.parametrize("cached", [True, False])
def test_packed_products_with_signed_rational_and_cancelling_coefficients(
    monkeypatch, path, cached
):
    memo_state(monkeypatch, cached)
    path(monkeypatch)
    # every operand has a common suffix "xy", so the trie walk makes a table
    # for it below the root, and (xy - yx) * x cancels at xyx inside it
    a = (el("xyxy") - el("yxxy")).scale(q_int(3)) + el("xy", LaurentPoly({1: -5, 3: 2}))
    b = el("x", Fraction(-2, 3)) + el("yxy", LaurentPoly({0: Fraction(1, 2), 2: -7}))
    zeros = {"table": 0, "root": 0}
    add, acc = algebra._add_letter, algebra._accumulate

    def count_zeros(where, terms):
        zeros[where] += sum(1 for o, n in terms.values() if not n)

    def add_spy(out, terms, letter, shift):
        count_zeros("table", terms)
        add(out, terms, letter, shift)

    def acc_spy(out, sub, cw):
        count_zeros("root", sub)
        acc(out, sub, cw)

    monkeypatch.setattr(algebra, "_add_letter", add_spy)
    monkeypatch.setattr(algebra, "_accumulate", acc_spy)
    for left, right in ((a, b), (b, a), (a, a), (a - a.scale(q_pow(2)), b)):
        assert left @ right == _shuffle_by_oracle(left, right)
    # x * xy and x * yx both make xyx with coefficient 1 at the root
    prod = el("x") @ (el("xy") - el("yx"))
    assert prod == _shuffle_by_oracle(el("x"), el("xy") - el("yx"))
    assert W.word("xyx") not in prod.support()
    if path is _on_trie:
        assert zeros["table"] and zeros["root"]


# -- sums of products: one accumulation, decoded once ---------------------------------


def _sum_by_oracle(triples):
    out = Element.zero()
    for c, a, b in triples:
        out = out + _shuffle_by_oracle(a, b).scale(c)
    return out


WEIGHTS = (
    1, -1, 3, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4),
    q_pow(-3), q_int(3).scale(Fraction(-1, 2)), LaurentPoly({-2: 2, 1: Fraction(1, 3), 4: -1}),
)


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
@pytest.mark.parametrize("cached", [True, False])
def test_shuffle_sum_matches_bruteforce(monkeypatch, path, cached):
    # Fraction and LaurentPoly weights times operands with Fraction coefficients
    memo_state(monkeypatch, cached)
    path(monkeypatch)
    rng = random.Random(41)
    for i in range(40):
        triples = [
            (rng.choice(WEIGHTS), _random_rational_element(rng, integral=i % 3 == 0),
             _random_rational_element(rng, integral=i % 3 == 1))
            for _ in range(rng.randint(1, 4))
        ]
        assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples), triples


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
def test_shuffle_sum_cancels_exactly(monkeypatch, path):
    path(monkeypatch)
    a = el("xyx", Fraction(1, 3)) + el("yy", LaurentPoly({-1: 2, 1: Fraction(-1, 5)}))
    b = el("xy", q_int(2)) - el("y", Fraction(3, 7))
    shift = q_pow(1)
    # the same product twice, with weights and scales that cancel
    for triples in (
        [(Fraction(2, 3), a, b), (-1, a.scale(Fraction(2, 3)), b)],
        [(1, a, b.scale(shift)), (-1, a.scale(shift), b)],
        [(Fraction(-1, 2), a, b), (1, a, b.scale(Fraction(1, 2)))],
    ):
        got = algebra.shuffle_sum(triples)
        assert got.is_zero() and got == Element.zero()
    # a cancelling pair beside a product that stays
    triples = [(3, a, b), (Fraction(1, 2), b, a), (-3, a, b)]
    assert algebra.shuffle_sum(triples) == (b @ a).scale(Fraction(1, 2))
    assert algebra.shuffle_sum([]) == Element.zero()
    assert algebra.shuffle_sum([(0, a, b), (2, Element.zero(), b)]) == Element.zero()


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
def test_shuffle_sum_steps_by_two_only_when_every_result_has_one_parity(monkeypatch, path):
    path(monkeypatch)
    widths = _decoded_widths(monkeypatch)
    even, odd = el("x") + el("y", q_pow(2)), el("xy", q_pow(1)) - el("y", q_pow(-1))
    mixed = el("x", LaurentPoly({0: 1, 1: -1}))
    for triples, step in (
        ([(1, even, even), (Fraction(1, 2), odd, odd)], 2),    # even results
        ([(1, even, odd), (-2, odd, even)], 2),                 # odd results
        ([(1, even, even), (1, even, odd)], 1),                 # one even, one odd
        ([(1, even, even), (1, mixed, even)], 1),               # an operand of both parities
        # a LaurentPoly weight adds its parity to its product's
        ([(q_pow(1), even, even), (1, even, odd)], 2),          # odd results
        ([(q_int(3).scale(Fraction(1, 2)), even, even)], 2),    # even results
        ([(q_pow(1), even, even), (1, even, even)], 1),         # one odd, one even
        ([(LaurentPoly({0: 1, 1: Fraction(-1, 2)}), even, even)], 1),  # a weight of both
    ):
        widths.clear()
        assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples), triples
        assert widths == [(64, step)], triples


@pytest.mark.parametrize("cached", [True, False])
def test_shuffle_sum_mixes_the_trie_walk_and_word_pairs(monkeypatch, cached):
    memo_state(monkeypatch, cached)
    walks, pairs = [], []
    trie, keys = algebra._trie_shuffle, algebra._shuffle_keys

    def trie_spy(left, right, unit):
        walks.append(unit)
        return trie(left, right, unit)

    def keys_spy(u, v, unit):
        pairs.append(unit)
        return keys(u, v, unit)

    monkeypatch.setattr(algebra, "_trie_shuffle", trie_spy)
    monkeypatch.setattr(algebra, "_shuffle_keys", keys_spy)
    long_a = el("xyxxyyx", Fraction(1, 2)) + el("yxyxxyx")
    long_b = el("yxyxxy", q_pow(1))
    assert long_a.max_word_len() + long_b.max_word_len() > algebra._SMALL_LIMIT
    triples = [
        (Fraction(-1, 3), long_a, long_b),
        (2, el("xy", Fraction(3, 4)), el("yx") + el("x", q_pow(2))),
        (Fraction(1, 3), long_a.scale(q_pow(1)), long_b.scale(q_pow(-1))),
    ]
    assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples)
    assert len(walks) == 2 and pairs
    assert set(pairs) == set(walks)  # one unit for the whole sum


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
@pytest.mark.parametrize("cached", [True, False])
def test_shuffle_sum_widens_the_slots_for_the_summed_bound(monkeypatch, path, cached):
    # each product's bound fits 64-bit slots, their sum needs 128
    memo_state(monkeypatch, cached)
    path(monkeypatch)
    widths = _decoded_widths(monkeypatch)
    c = 1 << 62
    big, xy = UNIT.scale(c), el("xy")
    assert big @ xy == el("xy", c)
    assert widths == [(64, 2)]
    for triples, coeff in (
        ([(1, big, xy), (1, xy, big)], 2 * c),
        # halved weights: the packed sum reaches 2c before the one division
        ([(Fraction(1, 2), big, xy), (Fraction(1, 2), xy, big)], c),
        ([(-1, big, xy), (1, xy, big.scale(-1))], -2 * c),
    ):
        widths.clear()
        want = el("xy", coeff)
        assert algebra.shuffle_sum(triples) == want == _sum_by_oracle(triples)
        assert widths == [(128, 2)], triples
    # x * x has two interleavings, (1 + q^2) xx: two such products bound
    # the sum by 8|c|, either side of 2^63. So does x * y = xy + q^-2 yx
    # (bound 2) under the weight 2c (1 + q^2) / 3, which clears to an
    # integer polynomial of L1 norm 4c
    for c in ((1 << 60) - 1, 1 << 60):
        a, b = el("x", LaurentPoly({0: c, 2: -c})), el("x", LaurentPoly({-2: 1}))
        weight = LaurentPoly({0: Fraction(2 * c, 3), 2: Fraction(2 * c, 3)})
        for triples in ([(1, a, b), (1, b, a)], [(weight, X_EL, Y_EL)]):
            widths.clear()
            assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples)
            assert widths == [(64 if 8 * c < 1 << 63 else 128, 2)]


def test_shuffle_sum_prices_each_product_on_its_own(monkeypatch):
    # xy * xy walks C(4, 2) = 6 interleavings: a budget of 6 admits any
    # number of them, and refuses one product of 3 + 2 letters (10)
    monkeypatch.setattr(algebra, "_SHUFFLE_BUDGET", 6)
    xy, yx = el("xy"), el("yx")
    triples = [(1, xy, xy), (2, xy, yx), (Fraction(1, 2), yx, xy)]
    assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples)
    with pytest.raises(CapExceededError, match="interleavings"):
        algebra.shuffle_sum(triples + [(1, el("xyx"), xy)])
    W.set_length_cap(4)
    with pytest.raises(CapExceededError, match="length 5"):
        algebra.shuffle_sum([(1, xy, xy), (1, el("x"), el("xyyx"))])


def test_shuffle_sum_skips_a_zero_laurent_weight(monkeypatch):
    # a zero LaurentPoly is truthy; skipped, it is not even priced
    a, b = el("xyx", q_int(2)), el("yy", Fraction(1, 3))
    monkeypatch.setattr(algebra, "_shuffle_keys", None)   # any kernel call fails
    monkeypatch.setattr(algebra, "_trie_shuffle", None)
    monkeypatch.setattr(algebra, "_SHUFFLE_BUDGET", 1)
    with pytest.raises(CapExceededError, match="1.00e[+]01 interleavings"):
        algebra.shuffle_sum([(q_int(2), a, b)])
    for zero in (LaurentPoly.zero(), q_int(0), q_int(2) - q_int(2)):
        assert algebra.shuffle_sum([(zero, a, b)]) == Element.zero()
        assert algebra.shuffle_sum([(zero, a, b), (q_int(2), a, UNIT)]) == a.scale(q_int(2))


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
def test_shuffle_sum_scales_by_a_constant_operand_without_the_kernel(monkeypatch, path):
    path(monkeypatch)
    monkeypatch.setattr(algebra, "_shuffle_keys", None)   # any kernel call fails
    monkeypatch.setattr(algebra, "_trie_shuffle", None)
    rng = random.Random(61)
    for i in range(20):
        a = _random_rational_element(rng, integral=i % 2 == 0)
        const = UNIT.scale(rng.choice(WEIGHTS))
        weight = rng.choice(WEIGHTS)
        for triples in ([(weight, a, const)], [(weight, const, a)],
                        [(1, a, const), (Q_COMM, const, a), (-1, UNIT, UNIT)]):
            assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples), triples


# -- packed operands: what the walk hands over, never decoded ------------------------


def _packed_operands(rng):
    """Random operands for shuffle_sum, each with its Packed form: rational
    elements with words that end in x and the empty word, constants, and
    their y^-1 images."""
    out = []
    for i in range(12):
        a = _random_rational_element(rng, integral=i % 2 == 0)
        out.append((a, Packed.of(a)))
        out.append((a.y_inverse(), Packed.of(a).y_inverse()))
    for c in (3, Fraction(-1, 2), q_int(2).scale(Fraction(1, 3))):
        const = UNIT.scale(c)
        out.append((const, Packed.of(const)))
    return [(a, p) for a, p in out if not a.is_zero()]


def test_packed_decoded_terms_are_the_element_terms_in_order():
    # one entry at a time, in key order whatever the operand's own order,
    # with the cleared denominators divided back out, emptying the operand
    rng = random.Random(72)
    for _ in range(40):
        a = _random_rational_element(rng, integral=False) + el("", Fraction(1, 5))
        packed = Packed.of(a)
        assert list(packed.decoded_terms()) == a.terms()
        assert not packed.terms
    for family, m in (("delta", 2), ("delta", 0), ("nabla", -2), ("D", None)):
        for n in range(catalan.FAMILIES[family][2], 7):
            packed = catalan.packed_member(family, m, n)
            terms = packed.decoded_terms()
            assert all(packed.terms.values())  # nothing decoded before it is asked for
            assert list(terms) == catalan.member(family, m, n).terms()
            assert not packed.terms


def test_packed_y_inverse_matches_the_element_y_inverse(monkeypatch):
    rng = random.Random(71)
    for _ in range(60):
        a = _random_rational_element(rng, integral=False) + el("", Fraction(1, 5))
        packed = Packed.of(a)
        image = packed.y_inverse()
        assert image.decoded() == a.y_inverse()
        # the norms of the words that go are taken off exactly
        assert image.norms == algebra._length_norms(a.y_inverse().scale(image.den)._terms)
    # a member's words all end in y: its image shifts keys and decodes nothing
    widths = _decoded_widths(monkeypatch)
    for n in range(1, 7):
        packed = catalan.packed_member("nabla", 0, n)
        widths.clear()
        image = packed.y_inverse()
        assert not widths
        assert image.norms == {2 * n - 1: packed.norms[2 * n]}
        assert image.decoded() == catalan.nabla_element(0, n).y_inverse()


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
@pytest.mark.parametrize("cached", [True, False])
def test_shuffle_sum_takes_packed_operands(monkeypatch, path, cached):
    # the same sums with Packed operands in place of Elements, on either
    # kernel path and the constant-operand path, int, Fraction and
    # LaurentPoly weights
    memo_state(monkeypatch, cached)
    path(monkeypatch)
    rng = random.Random(43)
    ops = _packed_operands(rng)
    for _ in range(40):
        picked = [(rng.choice(WEIGHTS), rng.choice(ops), rng.choice(ops))
                  for _ in range(rng.randint(1, 4))]
        elements = [(c, a, b) for c, (a, _), (b, _) in picked]
        mixed = [(c, rng.choice((a, pa)), rng.choice((b, pb))) for c, (a, pa), (b, pb) in picked]
        want = _sum_by_oracle(elements)
        assert algebra.shuffle_sum(elements) == want
        assert algebra.shuffle_sum([(c, pa, pb) for c, (_, pa), (_, pb) in picked]) == want
        assert algebra.shuffle_sum(mixed) == want
    # a member's y^-1 image, packed straight from the walk, in the sum of
    # the (1, 3) truncated recursion, which vanishes, and beside it
    lhs = catalan.packed_member("nabla", 0, 4).y_inverse()
    lhs_el = catalan.nabla_element(0, 4).y_inverse()
    a, b = catalan.nabla_element(0, 1).y_inverse(), catalan.nabla_element(0, 3)
    rest = [(-1, a, b), (1, b, a)]
    assert algebra.shuffle_sum([(Q_COMM, lhs, UNIT)] + rest).is_zero()
    for other in (X_EL, XY_EL, b):
        got = algebra.shuffle_sum([(Q_COMM, lhs, other)] + rest)
        assert got == algebra.shuffle_sum([(Q_COMM, lhs_el, other)] + rest)
        assert not got.is_zero()


@pytest.mark.parametrize("path", [_on_word_pairs, _on_trie])
def test_shuffle_sum_packs_an_operand_again_only_at_another_unit(monkeypatch, path):
    path(monkeypatch)
    widths = _decoded_widths(monkeypatch)
    even = el("xy", q_pow(2)) + el("x", LaurentPoly({0: 3, 4: -1}))
    packed = Packed.of(even)
    assert (packed.unit, packed.step) == (32, 2)
    mixed = el("yx", LaurentPoly({0: 1, 1: Fraction(-1, 2)}))
    big = UNIT.scale(1 << 62)
    for triples, decoders in (
        # the sum's unit is the operand's: only the result is decoded
        ([(1, packed, even)], [(64, 2)]),
        ([(q_int(3), even, packed), (1, packed, UNIT)], [(64, 2)]),
        # results of both parities take unit 64: the operand is decoded at
        # unit 32 and packed again once per call, however many products use
        # it; so is the 128-bit sum's
        ([(1, packed, mixed)], [(64, 2), (64, 1)]),
        ([(q_int(2), even, packed), (1, packed, UNIT)], [(64, 2), (64, 1)]),
        ([(1, packed, big), (1, big, packed)], [(64, 2), (128, 2)]),
    ):
        plain = [(c, even if a is packed else a, even if b is packed else b) for c, a, b in triples]
        want = _sum_by_oracle(plain)
        widths.clear()
        assert algebra.shuffle_sum(triples) == want, triples
        assert widths == decoders, triples


# -- commutator pairs: c·(a ⋆ b) − c·(b ⋆ a) from one table per word pair --------------


def _table_calls(monkeypatch):
    """Record the word pair of every u ⋆ v − v ⋆ u table asked for from here
    on, and check that no table keeps a cancelled entry."""
    calls = []
    real = algebra._commutator_keys

    def spy(u, v, unit):
        calls.append((u, v))
        table = real(u, v, unit)
        assert all(n for _, n in table.values()), (u, v)
        return table

    monkeypatch.setattr(algebra, "_commutator_keys", spy)
    return calls


def _word_pairs(a, b):
    """The table calls one paired product of a and b makes: one per word
    pair, none when an operand is a constant (the pair cancels)."""
    if a.support() == [W.EMPTY_WORD] or b.support() == [W.EMPTY_WORD]:
        return 0
    return len(a) * len(b)


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("kind", ["integral", "fraction", "mixed"])
def test_paired_products_match_bruteforce(monkeypatch, kind, cached):
    # int, Fraction and mixed-denominator operands, scalar weights and
    # constant LaurentPoly weights, each pair in either order and beside an
    # unpaired product
    memo_state(monkeypatch, cached)
    calls = _table_calls(monkeypatch)
    rng = random.Random(kind)
    for i in range(12):
        a = _random_rational_element(rng, integral=kind == "integral")
        b = _random_rational_element(rng, integral=kind == "integral" or (kind == "mixed" and i % 2))
        gap = _shuffle_by_oracle(a, b) - _shuffle_by_oracle(b, a)
        square = _shuffle_by_oracle(a, a).scale(q_pow(1))
        for c in (1, -3, Fraction(5, 2), LaurentPoly.const(2), LaurentPoly.const(Fraction(-1, 3))):
            for triples, want, pairs in (
                ([(c, a, b), (-c, b, a)], gap.scale(c), _word_pairs(a, b)),
                ([(-c, b, a), (c, a, b)], gap.scale(c), _word_pairs(b, a)),
                ([(q_pow(1), a, a), (c, b, a), (-c, a, b)], square - gap.scale(c), _word_pairs(b, a)),
            ):
                calls.clear()
                assert algebra.shuffle_sum(triples) == want, triples
                assert len(calls) == pairs, triples
    # commutator(0, ...) takes the route with its weights q^0 and -q^0
    a, b = el("xy", Fraction(1, 2)) + el("yxx", 3), el("x") - el("yy", q_pow(2))
    calls.clear()
    want = (_shuffle_by_oracle(a, b) - _shuffle_by_oracle(b, a)).div_exact(Q_COMM)
    assert commutator(0, a, b) == want
    assert len(calls) == 4


@pytest.mark.parametrize("cached", [True, False])
def test_paired_products_of_special_operands(monkeypatch, cached):
    memo_state(monkeypatch, cached)
    calls = _table_calls(monkeypatch)
    a = el("xyy", Fraction(1, 3)) + el("yx", q_int(2)) + el("", 2)
    b = el("xxy", LaurentPoly({-1: 1, 1: Fraction(-1, 2)})) + el("y", 5)
    packed = Packed.of(b)
    for triples, pairs in (
        # a ⋆ a − a ⋆ a: every table is taken, and the sum vanishes
        ([(3, a, a), (-3, a, a)], 9),
        # a constant operand: the pair cancels without a table
        ([(2, UNIT, a), (-2, a, UNIT)], 0),
        ([(Fraction(1, 2), a, UNIT.scale(q_pow(2))), (Fraction(-1, 2), UNIT.scale(q_pow(2)), a)], 0),
        # a zero operand is skipped before any pairing
        ([(1, Element.zero(), a), (-1, a, Element.zero()), (1, a, b)], 0),
        # only one pair forms from three products; the third is a plain product
        ([(2, a, b), (-2, b, a), (-2, b, a)], 6),
        # a Packed operand pairs by its identity too
        ([(1, packed, a), (-1, a, packed)], 6),
        # weights that are not negatives, or not constant, do not pair
        ([(2, a, b), (2, b, a)], 0),
        ([(q_int(2), a, b), (-q_int(2), b, a)], 0),
        ([(q_pow(1), a, b), (-q_pow(-1), b, a)], 0),
        # equal operands that are distinct objects do not pair
        ([(1, a, b), (-1, b, a + Element.zero())], 0),
    ):
        plain = [(c, b if x is packed else x, b if y is packed else y) for c, x, y in triples]
        calls.clear()
        assert algebra.shuffle_sum(triples) == _sum_by_oracle(plain), triples
        assert len(calls) == pairs, triples


@pytest.mark.parametrize("cached", [True, False])
def test_paired_products_above_the_word_pair_limit_take_the_trie_walk(monkeypatch, cached):
    memo_state(monkeypatch, cached)
    calls = _table_calls(monkeypatch)
    walks = []
    real = algebra._trie_shuffle
    monkeypatch.setattr(algebra, "_trie_shuffle", lambda *args: walks.append(1) or real(*args))
    a = el("xxyxyyx", q_int(2)) + el("xyxyxy", Fraction(-1, 2))
    b = el("xxyyxy") + el("yxxyy", q_pow(-1))
    assert a.max_word_len() + b.max_word_len() > algebra._SMALL_LIMIT
    triples = [(1, a, b), (-1, b, a)]
    assert algebra.shuffle_sum(triples) == _sum_by_oracle(triples)
    assert not calls and len(walks) == 2


def test_products_route_by_combined_word_length(monkeypatch):
    calls = []
    real = algebra._shuffle_keys

    def counted(u, v, unit):
        calls.append((u, v))
        return real(u, v, unit)

    monkeypatch.setattr(algebra, "_shuffle_keys", counted)
    a = catalan.nabla_element(1, 3)  # six letters
    a.shuffle(a)
    assert calls  # 6 + 6 letters: the word-pair path
    calls.clear()
    longer = a * X_EL
    assert longer.shuffle(a) == _shuffle_by_oracle(longer, a)
    assert not calls  # 7 + 6 letters: the trie walk


def test_trie_walk_matches_word_pairs_on_members(monkeypatch):
    # 40 products of 13 or more letters among the members and y^-1 images
    # with n <= 4, m in -3..3, against the word-pair path forced on each pair
    ops = []
    for m in range(-3, 4):
        for n in range(3, 5):
            for u in (catalan.delta_element(m, n), catalan.nabla_element(m, n)):
                for op in (u, u.y_inverse()):
                    if not op.is_zero() and op not in ops:
                        ops.append(op)
    rng = random.Random(5)
    pairs = [(a, b) for a in ops for b in ops if a.max_word_len() + b.max_word_len() > 12]
    try:
        for a, b in rng.sample(pairs, 40):
            trie = a.shuffle(b)
            monkeypatch.setattr(algebra, "_SMALL_LIMIT", 64)
            assert trie == a.shuffle(b)
            monkeypatch.setattr(algebra, "_SMALL_LIMIT", 12)
    finally:
        algebra.clear_caches()  # the forced word-pair path memoized long pairs


def test_json_round_trip_and_order():
    e = el("yx", q_int(2)) + el("xy") + UNIT.scale(q_int(-3)) + el("xxy", q_pow(-1))
    obj = e.to_json()
    assert [t["word"] for t in obj] == ["", "xy", "yx", "xxy"]
    assert Element.from_json(obj) == e


def test_linear_ops():
    a = el("xy", q_int(2))
    assert a + (-a) == Element.zero()
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(q_int(3)) == el("xy", q_int(2) * q_int(3))
    assert 2 * a == a + a
    assert (a + el("yx")) - el("yx") == a


def test_str_forms():
    assert str(Element.zero()) == "0"
    assert str(UNIT) == "(1) 1"
    assert str(el("xy", q_int(2))) == "(q^-1 + q) xy"


# -- pre-flight cost bound --------------------------------------------------------


def test_absurd_product_is_refused_up_front(monkeypatch):
    a, b = catalan.nabla_element(3, 7), catalan.delta_element(2, 6)
    monkeypatch.setattr(algebra, "_shuffle_keys", None)  # any kernel call would fail
    monkeypatch.setattr(algebra, "_trie_shuffle", None)
    with pytest.raises(CapExceededError, match="interleavings"):
        a.shuffle(b)


class _KernelReached(Exception):
    pass


def test_cost_bound_admits_the_grid_products(monkeypatch):
    # the (5, 5) pair of the default grid's (n, k) recursion (about 1.8e7
    # interleavings) and the (6, 6) pair at n_max = 6 (about 2.4e9) pass the
    # pre-flight and reach a kernel, patched to stop there
    def reached(*args):
        raise _KernelReached

    monkeypatch.setattr(algebra, "_shuffle_keys", reached)
    monkeypatch.setattr(algebra, "_trie_shuffle", reached)
    for n in (5, 6):
        nn = catalan.nabla_element(0, n)
        with pytest.raises(_KernelReached):
            algebra.shuffle_sum([(1, nn.y_inverse(), nn)])
    assert algebra.shuffle_sum([(1, Element.zero(), catalan.nabla_element(3, 7))]).is_zero()
