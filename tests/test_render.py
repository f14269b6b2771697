import json
from fractions import Fraction

import pytest

from qshuffle import catalan
from qshuffle.algebra import Element, UNIT
from qshuffle.catalan import delta_element
from qshuffle.errors import InexactDivisionError
from qshuffle.qlaurent import LaurentPoly, q_int, q_pow
from qshuffle.render import (
    element_str,
    json_chunks,
    laurent_latex,
    laurent_str,
    qint_factorization,
    scalar_table,
    series_str,
    table_csv,
    table_human,
    table_json,
    table_latex,
)
from qshuffle.series import delta_series

from conftest import P


def test_qint_factorization_results_are_not_shared():
    # memoized by coefficient; a caller that edits its result must not edit the memo
    p = P("[2]^2[3]")
    qint_factorization(p)[1][2] = 99
    assert qint_factorization(p) == (Fraction(1), {2: 2, 3: 1})
    assert laurent_str(p) == "[2]_q^2[3]_q"


def test_qint_factorization_products():
    assert qint_factorization(P("[2]^2[3]")) == (Fraction(1), {2: 2, 3: 1})
    assert qint_factorization(P("-[2][3]^2[4]")) == (Fraction(-1), {2: 1, 3: 2, 4: 1})
    assert qint_factorization(P("[2][3][4][5]")) == (Fraction(1), {2: 1, 3: 1, 4: 1, 5: 1})
    assert qint_factorization(LaurentPoly.one()) == (Fraction(1), {})
    assert qint_factorization(LaurentPoly.zero()) == (Fraction(0), {})
    assert qint_factorization(P("[2]").scale(Fraction(3, 2))) == (Fraction(3, 2), {2: 1})


def test_qint_factorization_rejects_non_products():
    assert qint_factorization(q_pow(1)) is None          # bare monomial q
    assert qint_factorization(q_int(2) + LaurentPoly.one()) is None
    assert qint_factorization(q_pow(2) - q_pow(-2)) is None  # [2](q - q^-1)


def _greedy_factorization(p):
    """The greedy q-integer factorization with no divisibility filter: try
    every [n]_q from the largest plausible n down, by exact division."""
    if p.is_zero():
        return Fraction(0), ()
    factors: dict = {}
    cur = p
    while not cur.is_zero() and (cur.max_exp() != 0 or cur.min_exp() != 0):
        for n in range((cur.max_exp() - cur.min_exp()) // 2 + 1, 1, -1):
            try:
                cur = cur.div_exact(q_int(n))
            except InexactDivisionError:
                continue
            factors[n] = factors.get(n, 0) + 1
            break
        else:
            return None
    return Fraction(cur.coeff(0)), tuple(sorted(factors.items()))


def test_factorization_filter_matches_the_unfiltered_greedy():
    # every coefficient of every family member up to n = 6 (m in -3..3 for
    # the families that take m), their sums with 1 and halves, and the PBW
    # images, which do not factor
    coeffs = set()
    for family, (_, takes_m, first) in catalan.FAMILIES.items():
        for n in range(first, 7):
            for m in range(-3, 4) if takes_m else (None,):
                coeffs.update(c for _, c in catalan.member(family, m, n).terms())
    coeffs |= {c + LaurentPoly.one() for c in coeffs} | {c.scale(Fraction(1, 2)) for c in coeffs}
    for kind in ("Damiani_E0", "Damiani_Edelta", "Beck_Edelta"):
        for n in (1, 2, 3):
            coeffs.update(c for _, c in catalan.embedding_image(kind, n).terms())
    factored = 0
    for c in coeffs:
        want = _greedy_factorization(c)
        assert qint_factorization(c) == (None if want is None else (want[0], dict(want[1]))), c
        factored += want is not None
    assert 0 < factored < len(coeffs)


def test_laurent_str():
    assert laurent_str(P("[2]^2[3]")) == "[2]_q^2[3]_q"
    assert laurent_str(P("-[3]")) == "-[3]_q"
    assert laurent_str(LaurentPoly.zero()) == "0"
    assert laurent_str(LaurentPoly.one()) == "1"
    assert laurent_str(LaurentPoly.const(-1)) == "-1"
    assert laurent_str(P("[2]").scale(Fraction(1, 2))) == "(1/2)[2]_q"
    assert laurent_str(q_pow(1)) == "(q)"
    assert str(q_int(2)) == "q^-1 + q"


def test_laurent_latex():
    assert laurent_latex(P("[2]^2[3]")) == "[2]_q^2[3]_q"
    assert laurent_latex(P("-[2]")) == "-[2]_q"
    assert laurent_latex(q_pow(-2) + LaurentPoly.one() * 0 + q_pow(2)) == "q^{-2}+q^{2}"
    # a rational coefficient of the expanded form is a fraction, its sign outside
    half = LaurentPoly({-1: Fraction(-1, 2), 0: Fraction(3, 4), 2: 1})
    assert laurent_latex(half) == r"-\tfrac{1}{2}q^{-1}+\tfrac{3}{4}+q^{2}"


def test_element_str():
    assert element_str(Element.zero()) == "0"
    assert element_str(UNIT) == "1"
    assert element_str(-UNIT) == "-1"
    assert element_str(delta_element(2, 2)) == "[2]_q^2[3]_q xxyy + [2]_q^2 xyxy"
    assert element_str(Element.from_word("xy") - Element.from_word("yx")) == "xy - yx"


def test_json_writer_is_json_dumps():
    for el in (Element.zero(), UNIT, catalan.embedding_image("Beck_Edelta", 2),
               -delta_element(-2, 3), Element.from_word("yx", LaurentPoly({-3: 5}))):
        assert "".join(json_chunks(el.terms())) == json.dumps(el.to_json(), indent=2)


def test_series_str():
    s = delta_series(-1, 2)
    assert series_str(s) == "(1) + (-xy) t + (xyxy) t^2"


def test_scalar_table_rows():
    rows = scalar_table("delta", -1, 1, 1)
    assert [w.display() for w, _ in rows] == ["1", "xy"]
    rows_n = scalar_table("nabla", -1, 1, 1)
    assert [w.display() for w, _ in rows_n] == ["xy"]
    with pytest.raises(ValueError):
        scalar_table("other", 0, 0, 1)
    with pytest.raises(ValueError):
        scalar_table("delta", 1, 0, 1)


def test_table_formats_are_consistent():
    csv = table_csv("nabla", -2, 2, 2)
    human = table_human("nabla", -2, 2, 2)
    js = table_json("nabla", -2, 2, 2)
    latex = table_latex("nabla", -2, 2, 2)
    assert csv.splitlines()[1].startswith("xy,")
    assert "xy" in human
    assert js["rows"][0]["word"] == "xy"
    assert js["m_range"] == [-2, 2]
    assert LaurentPoly.from_json(js["rows"][1]["cells"][4]) == P("[2][3]")
    assert "\\begin{tabular}" in latex and "\\nabla" in latex
