"""The scalar families against the frozen reference tables, entry for entry."""

from fractions import Fraction
from math import prod

import pytest

from qshuffle import algebra, kronecker, words as W
from qshuffle.algebra import Element, Packed, UNIT, X_EL, Y_EL
from qshuffle.catalan import (
    FAMILIES,
    _path_bound,
    catalan_element,
    d_element,
    delta_element,
    delta_scalar,
    embedding_image,
    gtilde_element,
    nabla_element,
    nabla_from_profile,
    nabla_scalar,
    nabla_split,
    member,
    packed_member,
    terms,
    vanishing_bound,
    x_cn_y,
)
from qshuffle.errors import (
    CapExceededError,
    DegenerateProfileError,
    NonCatalanWordError,
    TrivialWordError,
)
from qshuffle.qlaurent import LaurentPoly, Q_COMM, q_int, q_pow
from qshuffle.render import laurent_str
from qshuffle.words import profile, word

from conftest import P, bracket_str

# the full-family value table: word -> cells for m = -3 .. 3
DELTA_TABLE = {
    "": ["1", "1", "1", "1", "1", "1", "1"],
    "xy": ["-[3]", "-[2]", "-1", "0", "1", "[2]", "[3]"],
    "xyxy": ["[3]^2", "[2]^2", "1", "0", "1", "[2]^2", "[3]^2"],
    "xxyy": ["[2]^2[3]", "[2]^2", "0", "0", "[2]^2", "[2]^2[3]", "[2][3][4]"],
    "xyxyxy": ["-[3]^3", "-[2]^3", "-1", "0", "1", "[2]^3", "[3]^3"],
    "xxyyxy": ["-[2]^2[3]^2", "-[2]^3", "0", "0", "[2]^2", "[2]^3[3]", "[2][3]^2[4]"],
    "xyxxyy": ["-[2]^2[3]^2", "-[2]^3", "0", "0", "[2]^2", "[2]^3[3]", "[2][3]^2[4]"],
    "xxyxyy": ["-[2]^4[3]", "-[2]^3", "0", "0", "[2]^4", "[2]^3[3]^2", "[2]^2[3][4]^2"],
    "xxxyyy": ["-[2]^2[3]^2", "0", "0", "0", "[2]^2[3]^2", "[2]^2[3]^2[4]", "[2][3]^2[4][5]"],
}

# the reduced-family value table: word -> cells for m = -3 .. 3
NABLA_TABLE = {
    "xy": ["1", "1", "1", "1", "1", "1", "1"],
    "xyxy": ["-[3]", "-[2]", "-1", "0", "1", "[2]", "[3]"],
    "xxyy": ["-[2]^2", "-[2]", "0", "[2]", "[2]^2", "[2][3]", "[2][4]"],
    "xyxyxy": ["[3]^2", "[2]^2", "1", "0", "1", "[2]^2", "[3]^2"],
    "xxyyxy": ["[2]^2[3]", "[2]^2", "0", "0", "[2]^2", "[2]^2[3]", "[2][3][4]"],
    "xyxxyy": ["[2]^2[3]", "[2]^2", "0", "0", "[2]^2", "[2]^2[3]", "[2][3][4]"],
    "xxyxyy": ["[2]^4", "[2]^2", "0", "[2]^2", "[2]^4", "[2]^2[3]^2", "[2]^2[4]^2"],
    "xxxyyy": ["[2]^2[3]", "0", "0", "[2]^2[3]", "[2]^2[3]^2", "[2][3]^2[4]", "[2][3][4][5]"],
}


def test_delta_table_entry_for_entry():
    for s, cells in DELTA_TABLE.items():
        w = word(s)
        for m, expr in zip(range(-3, 4), cells):
            assert delta_scalar(m, w) == P(expr), (s, m)


def test_nabla_table_entry_for_entry():
    for s, cells in NABLA_TABLE.items():
        w = word(s)
        for m, expr in zip(range(-3, 4), cells):
            assert nabla_scalar(m, w) == P(expr), (s, m)


def test_table_rendering_matches_factored_forms():
    for table, scalar in ((DELTA_TABLE, delta_scalar), (NABLA_TABLE, nabla_scalar)):
        for s, cells in table.items():
            for m, expr in zip(range(-3, 4), cells):
                assert laurent_str(scalar(m, word(s))) == bracket_str(expr), (s, m)


def test_scalar_domain_errors():
    with pytest.raises(NonCatalanWordError):
        delta_scalar(2, word("yx"))
    with pytest.raises(NonCatalanWordError):
        nabla_scalar(2, word("xyy"))
    with pytest.raises(TrivialWordError):
        nabla_scalar(2, W.EMPTY_WORD)
    with pytest.raises(TrivialWordError):
        nabla_split(1, W.EMPTY_WORD)
    assert delta_scalar(5, W.EMPTY_WORD) == LaurentPoly.one()


def test_nabla_split():
    assert nabla_split(1, word("xy")) == (LaurentPoly.one(), LaurentPoly.one())
    for m in range(-3, 4):
        px, py = nabla_split(m, word("xxyy"))
        assert px == q_int(1 + m)
        assert py == q_int(2) * q_int(1)
        assert px * py == nabla_scalar(m, word("xxyy"))


def test_nabla_from_profile():
    for m in range(-3, 4):
        assert nabla_from_profile(m, profile(word("xy"))) == LaurentPoly.one()
    assert nabla_from_profile(2, profile(word("xxyy"))) == P("[2][3]")
    for n in range(1, 6):
        for w in W.enumerate_catalan(n):
            p = profile(w)
            for m in range(-3, 4):
                assert nabla_from_profile(m, p) == nabla_scalar(m, w), (str(w), m)


def test_nabla_from_profile_arbitrary_sequences():
    # shifted sequences from the telescoping identity are legal inputs
    assert nabla_from_profile(1, (0, 1, 1, 2, 0)) is not None
    assert nabla_from_profile(2, (0, 3, -1, 2, 0)).is_zero()
    with pytest.raises(DegenerateProfileError):
        nabla_from_profile(1, (0,))
    with pytest.raises(DegenerateProfileError):
        nabla_from_profile(1, (0, 1, 0, 1))


def test_delta_element_examples():
    assert delta_element(2, 2) == catalan_element(2)
    assert delta_element(0, 3).is_zero()
    assert delta_element(0, 0) == UNIT
    assert delta_element(-1, 2) == Element.from_word("xyxy")
    assert delta_element(-1, 3) == -Element.from_word("xyxyxy")


def test_nabla_element_examples():
    for m in range(-3, 4):
        assert nabla_element(m, 1) == Element.from_word("xy")
    for n in range(1, 5):
        assert nabla_element(0, n) == x_cn_y(n)
    exp = Element.from_word("xyxy", q_int(2)) + Element.from_word("xxyy", P("[2][3]"))
    assert nabla_element(2, 2) == exp
    with pytest.raises(TrivialWordError):
        nabla_element(2, 0)


def test_catalan_elements_match_reference_expansions():
    assert catalan_element(0) == UNIT
    assert catalan_element(1) == Element.from_word("xy", q_int(2))
    assert catalan_element(2) == (
        Element.from_word("xyxy", P("[2]^2")) + Element.from_word("xxyy", P("[2]^2[3]"))
    )
    assert catalan_element(3) == (
        Element.from_word("xyxyxy", P("[2]^3"))
        + Element.from_word("xxyyxy", P("[2]^3[3]"))
        + Element.from_word("xyxxyy", P("[2]^3[3]"))
        + Element.from_word("xxyxyy", P("[2]^3[3]^2"))
        + Element.from_word("xxxyyy", P("[2]^2[3]^2[4]"))
    )


def test_d_elements_match_reference_expansions():
    assert d_element(0) == UNIT
    assert d_element(1) == -Element.from_word("xy")
    assert d_element(2) == (
        Element.from_word("xyxy") + Element.from_word("xxyy", P("[2]^2"))
    )
    assert d_element(3) == -(
        Element.from_word("xyxyxy")
        + Element.from_word("xxyyxy", P("[2]^2"))
        + Element.from_word("xyxxyy", P("[2]^2"))
        + Element.from_word("xxyxyy", P("[2]^4"))
        + Element.from_word("xxxyyy", P("[2]^2[3]^2"))
    )


def test_prefix_walk_matches_word_by_word_products(monkeypatch):
    # the builders walk Catalan prefixes; the scalar functions multiply each
    # word's factors from scratch, as the builders once did
    for n in range(0, 8):
        cat = W.enumerate_catalan(n)
        for m in range(-3, 4):
            full = {w: delta_scalar(m, w) for w in cat}
            assert delta_element(m, n) == Element(full)
            if n >= 1:
                assert nabla_element(m, n) == Element({w: nabla_scalar(m, w) for w in cat})
        c_terms = {}
        for w in cat:
            c = LaurentPoly.one()
            for e in W.elevation_sequence(w)[1:]:
                c = c * q_int(1 + e)
            c_terms[w] = c
        assert catalan_element(n) == Element(c_terms)
        assert d_element(n) == Element(
            {w: delta_scalar(1, w).scale((-1) ** n) for w in cat}
        )
        # terms come out in enumerate_catalan order, vanishing words left out
        for el in (delta_element(-1, n), delta_element(2, n), catalan_element(n), d_element(n)):
            assert list(el._terms) == [w for w in cat if w in el._terms]
    # a bound above 2^63 takes 128-bit slots; every word is kept, in order
    widths = []
    unpacker = kronecker.unpacker
    monkeypatch.setattr(
        kronecker, "unpacker", lambda unit, step: widths.append(unit * step) or unpacker(unit, step)
    )
    cat = W.enumerate_catalan(9)
    assert _path_bound(9, 30, False) >= 1 << 63
    big = delta_element(30, 9)
    assert widths == [128]
    assert list(big._terms) == list(cat)
    for w in cat[::37] + cat[-1:]:
        assert big.coeff(w) == delta_scalar(30, w), w


def test_path_bound_is_the_largest_product_of_factor_norms():
    # the L1 norm of [k]_q is |k|; reduced drops the first factor
    for n in range(1, 7):
        for m in range(-3, 4):
            for reduced in (False, True):
                want = 0
                for w in W.enumerate_catalan(n):
                    es = W.elevation_sequence(w)
                    norms = [
                        abs(e + m) if b == 0 else abs(e)
                        for i, (e, b) in enumerate(zip(es, w.letter_bits()))
                        if i or not reduced
                    ]
                    want = max(want, prod(norms))
                assert _path_bound(n, m, reduced) == want, (n, m, reduced)


def test_the_factor_rule_has_one_definition(monkeypatch):
    # a wrong weight, [e + m + 1]_q at an x, patched into catalan._factor
    # reaches the scalars, the walked members and the walk's bound
    from qshuffle import catalan

    ms, ws = range(-3, 4), [word(s) for s in NABLA_TABLE]

    def readings():
        return {
            "delta_scalar": [delta_scalar(m, w) for m in ms for w in ws],
            "nabla_split": [nabla_split(m, w) for m in ms for w in ws],
            "delta_element": [delta_element(m, 3) for m in ms],
            "nabla_element": [nabla_element(m, 3) for m in ms],
            "_path_bound": [_path_bound(3, m, r) for m in ms for r in (False, True)],
        }

    before = readings()

    def wrong(m, b, e, reduced_first=False):
        return 1 if reduced_first else e if b else e + m + 1

    monkeypatch.setattr(catalan, "_factor", wrong)
    after = readings()
    assert [name for name in before if before[name] == after[name]] == []
    assert any(
        delta_scalar(m, word(s)) != P(expr)
        for s, cells in DELTA_TABLE.items()
        for m, expr in zip(ms, cells)
    )


def test_packed_members_decode_to_the_built_members():
    # the walk's leaves, decoded on their own (their keys are the words'
    # keys), are the member the builder decodes, in the same order;
    # the norms the walk carries are the member's L1 norms, exactly, and
    # decoding empties the leaves
    for n in range(0, 9):
        for family, ms in (("delta", range(-3, 4)), ("nabla", range(-3, 4)),
                           ("C", [None]), ("D", [None])):
            if n < FAMILIES[family][2]:
                continue
            for m in ms:
                packed, el = packed_member(family, m, n), member(family, m, n)
                assert isinstance(packed, Packed) and packed.step == 2
                assert len(packed) == len(el) and all(c for _, c in packed.terms.values())
                assert packed.norms == algebra._length_norms(el._terms), (family, m, n)
                assert packed.parity == algebra._parity(el._terms.values()), (family, m, n)
                decoded = packed.decoded()
                assert decoded == el and list(decoded._terms) == list(el._terms), (family, m, n)
                assert not packed.terms
    # n = 8 against the word-by-word products, on a sample of its 1,430 words
    cat = W.enumerate_catalan(8)
    for m in (-2, 1, 3):
        for fam, scalar in (("delta", delta_scalar), ("nabla", nabla_scalar)):
            el = member(fam, m, 8)
            for w in cat[::53]:
                assert el.coeff(w) == scalar(m, w), (fam, m, w)
    # a walk whose bound needs 128-bit slots (unit 64 at step 2)
    packed = packed_member("delta", 59, 8)
    assert packed.unit == 64
    assert packed.norms == algebra._length_norms(packed.decoded()._terms)
    # the families that are not walked have no leaves to hand over
    for family in ("Gtilde", "xCny"):
        with pytest.raises(ValueError, match=f"{family} is not a walked family"):
            packed_member(family, None, 3)


def test_terms_are_the_member_terms_in_order():
    # every family, empty members (m = 0, n >= 1) included; a walked
    # family's terms come from its walk one word at a time
    for family, (_, takes_m, first, *_) in FAMILIES.items():
        for m in range(-3, 4) if takes_m else [None]:
            for n in range(first, 8):
                assert list(terms(family, m, n)) == member(family, m, n).terms(), (family, m, n)
    assert list(terms("delta", 0, 3)) == []


def test_terms_refuse_on_the_call():
    # before the first next(): a caller prices its request up front
    with pytest.raises(CapExceededError):
        terms("delta", 2, 16)
    with pytest.raises(TrivialWordError):
        terms("nabla", 0, 0)
    for family, m in (("bogus", None), ("bogus", 2), ("C", 2), ("Gtilde", 1), ("delta", None)):
        with pytest.raises(ValueError):
            terms(family, m, 3)


def test_builders_keep_the_length_cap(monkeypatch):
    monkeypatch.setattr(W, "LENGTH_CAP", 6)
    assert len(nabla_element(2, 3)) == 5
    for build in (lambda: delta_element(1, 4), lambda: nabla_element(0, 4),
                  lambda: catalan_element(4), lambda: d_element(4)):
        with pytest.raises(CapExceededError):
            build()


def test_builders_refuse_oversized_families_up_front(monkeypatch):
    monkeypatch.setattr(W, "_CATALAN_BUDGET", 13)  # C_3 = 5 and C_4 = 14
    assert len(delta_element(2, 3)) == 5
    for build in (lambda: delta_element(2, 4), lambda: nabla_element(0, 4),
                  lambda: catalan_element(4), lambda: d_element(4)):
        with pytest.raises(CapExceededError, match="14 Catalan words"):
            build()


def test_member_matches_the_direct_builders():
    direct = {
        "delta": delta_element,
        "nabla": nabla_element,
        "C": catalan_element,
        "D": d_element,
        "Gtilde": gtilde_element,
        "xCny": x_cn_y,
    }
    assert set(direct) == set(FAMILIES)
    for family, build in direct.items():
        first = FAMILIES[family][2]
        for n in range(first, 5):
            if FAMILIES[family][1]:
                for m in range(-3, 4):
                    assert member(family, m, n) == build(m, n), (family, m, n)
            else:
                assert member(family, None, n) == build(n), (family, n)
    assert FAMILIES["nabla"][2] == FAMILIES["xCny"][2] == 1
    assert member("Gtilde", None, 0) == UNIT
    # below the first index the builder's own error comes through
    with pytest.raises(TrivialWordError):
        member("nabla", 0, 0)
    with pytest.raises(ValueError):
        member("xCny", None, 0)
    for bad in (("Q", None, 1), ("named", None, 1), ("delta", None, 1), ("C", 2, 1)):
        with pytest.raises(ValueError):
            member(*bad)


def test_member_calls_the_builder_bound_at_call_time(monkeypatch):
    import qshuffle.catalan as catalan_module

    calls = []
    real = catalan_module.delta_element

    def spy(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(catalan_module, "delta_element", spy)
    assert member("delta", 2, 3) == real(2, 3)
    assert calls == [(2, 3)]


def test_family_comparison_identities():
    for n in range(1, 5):
        for m in range(-3, 4):
            assert delta_element(m, n) == nabla_element(m, n).scale(q_int(m))
        sign = -1 if n % 2 else 1
        assert delta_element(1, n) == d_element(n).scale(sign)
        assert delta_element(-1, n) == gtilde_element(n).scale(sign)
        assert delta_element(2, n) == catalan_element(n)


def test_vanishing_bound():
    assert not vanishing_bound(-1, word("xxyy"))
    assert vanishing_bound(-2, word("xxyy"))
    for n in range(0, 5):
        assert vanishing_bound(-1, W.alternating_word("Gtilde", n))
    with pytest.raises(ValueError):
        vanishing_bound(0, word("xy"))
    for n in range(0, 5):
        for w in W.enumerate_catalan(n):
            for m in (-3, -2, -1):
                assert vanishing_bound(m, w) == (not delta_scalar(m, w).is_zero())


def test_embedding_images():
    assert embedding_image("Damiani_E0", 0) == X_EL
    assert embedding_image("Damiani_E1", 0) == Y_EL
    pref = q_pow(-2) * Q_COMM ** 2
    assert embedding_image("Damiani_E0", 1) == (X_EL * catalan_element(1)).scale(pref)
    assert embedding_image("Damiani_E1", 1) == (catalan_element(1) * Y_EL).scale(pref)
    exp_delta = Element.from_word("xy", (q_pow(-2) * Q_COMM * q_int(2)).scale(-1))
    assert embedding_image("Damiani_Edelta", 1) == exp_delta
    exp_beck = Element.from_word("xy", q_pow(-2) * Q_COMM * q_int(2))
    assert embedding_image("Beck_Edelta", 1) == exp_beck
    b2 = embedding_image("Beck_Edelta", 2)
    assert b2 == x_cn_y(2).scale(
        (q_pow(-4) * Q_COMM ** 3 * q_int(4)).scale(Fraction(1, 2))
    )
    with pytest.raises(ValueError):
        embedding_image("Damiani_Edelta", 0)
    with pytest.raises(ValueError):
        embedding_image("Beck_Edelta", 0)
    with pytest.raises(ValueError):
        embedding_image("nope", 1)


def test_zeta_invariance_of_scalars():
    for n in range(1, 5):
        for w in W.enumerate_catalan(n):
            zw = W.zeta_word(w)
            for m in range(-2, 3):
                assert delta_scalar(m, w) == delta_scalar(m, zw)
                assert nabla_scalar(m, w) == nabla_scalar(m, zw)


def test_zeta_fixes_elements():
    for n in range(0, 5):
        for m in range(-2, 3):
            d = delta_element(m, n)
            assert d.zeta() == d
            if n >= 1:
                nn = nabla_element(m, n)
                assert nn.zeta() == nn
