import json
import re
from fractions import Fraction

import pytest

from qshuffle import catalan
from qshuffle.algebra import Element, UNIT
from qshuffle.catalan import delta_element
from qshuffle.errors import CapExceededError, InexactDivisionError
from qshuffle.qlaurent import LaurentPoly, q_int, q_pow
from qshuffle.render import (
    _factorization,
    element_str,
    json_chunks,
    laurent_latex,
    laurent_str,
    scalar_table,
    series_str,
    table_csv,
    table_human,
    table_json,
    table_latex,
)
from qshuffle.series import delta_series
from qshuffle.words import enumerate_catalan

from conftest import P


def test_qint_factorization_products():
    assert _factorization(P("[2]^2[3]")) == (Fraction(1), ((2, 2), (3, 1)))
    assert _factorization(P("-[2][3]^2[4]")) == (Fraction(-1), ((2, 1), (3, 2), (4, 1)))
    assert _factorization(P("[2][3][4][5]")) == (Fraction(1), ((2, 1), (3, 1), (4, 1), (5, 1)))
    assert _factorization(LaurentPoly.one()) == (Fraction(1), ())
    assert _factorization(LaurentPoly.zero()) == (Fraction(0), ())
    assert _factorization(P("[2]").scale(Fraction(3, 2))) == (Fraction(3, 2), ((2, 1),))


def test_qint_factorization_rejects_non_products():
    assert _factorization(q_pow(1)) is None          # bare monomial q
    assert _factorization(q_int(2) + LaurentPoly.one()) is None
    assert _factorization(q_pow(2) - q_pow(-2)) is None  # [2](q - q^-1)


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
    for family, (_, takes_m, first, *_) in catalan.FAMILIES.items():
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
        assert _factorization(c) == want, c
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


def test_table_cells_are_the_scalars():
    # every cell of every format against the per-word scalar, m in -3..3 and
    # n <= 5; at negative m the walk drops the words whose product vanishes
    ms = range(-3, 4)
    for family, scalar, start in (("delta", catalan.delta_scalar, 0),
                                  ("nabla", catalan.nabla_scalar, 1)):
        want = [(w, [scalar(m, w) for m in ms])
                for n in range(start, 6) for w in enumerate_catalan(n)]
        assert any(c.is_zero() for _, cells in want for c in cells)
        csv = "".join(table_csv(family, -3, 3, 5)).splitlines()
        human = table_human(family, -3, 3, 5).splitlines()
        latex = "".join(table_latex(family, -3, 3, 5)).splitlines()
        js = json.loads("".join(table_json(family, -3, 3, 5)))["rows"]
        assert len(csv) - 1 == len(human) - 2 == len(latex) - 4 == len(js) == len(want)
        for i, (w, cells) in enumerate(want):
            strs = [laurent_str(c) for c in cells]
            assert csv[i + 1].split(",") == [w.display()] + strs, w
            assert re.split(" {2,}", human[i + 2]) == [w.display()] + strs, w
            word = w.display() if not w.is_trivial() else "\\mathbb{1}"
            assert latex[i + 3] == " & ".join(
                [f"${word}$"] + [f"${laurent_latex(c)}$" for c in cells]) + "\\\\", w
            assert js[i]["word"] == w.display()
            assert js[i]["cells"] == [c.to_json() for c in cells], w


def test_table_formats_are_consistent():
    csv = "".join(table_csv("nabla", -2, 2, 2))
    human = table_human("nabla", -2, 2, 2)
    js = json.loads("".join(table_json("nabla", -2, 2, 2)))
    latex = "".join(table_latex("nabla", -2, 2, 2))
    assert csv.splitlines()[1].startswith("xy,")
    assert "xy" in human
    assert js["rows"][0]["word"] == "xy"
    assert js["m_range"] == [-2, 2]
    assert js["rows"][1]["cells"][4] == P("[2][3]").to_json()
    assert "\\begin{tabular}" in latex and "\\nabla" in latex


def test_table_latex_heads_each_family_with_its_symbol(monkeypatch):
    # the symbol is the family's FAMILIES row, so a third family that takes
    # m is headed by its own symbol, not by the delta's or the nabla's
    monkeypatch.setitem(catalan.FAMILIES, "theta", catalan.FAMILIES["delta"][:4] + ("\\Theta",))
    for family, sym in (("delta", "\\Delta"), ("nabla", "\\nabla"), ("theta", "\\Theta")):
        head = next(iter(table_latex(family, -1, 0, 1)))
        assert head.endswith(f"$w$ & ${sym}^{{(-1)}}(w)$ & ${sym}^{{(0)}}(w)$\\\\\n\\hline\n"), family


def _table_tree(family, m_min, m_max, n_max):
    """The whole JSON tree the table's json format once built before writing."""
    return {
        "family": family,
        "m_range": [m_min, m_max],
        "rows": [
            {"word": w.display(), "cells": [c.to_json() for c in cells]}
            for w, cells in scalar_table(family, m_min, m_max, n_max)
        ],
    }


@pytest.mark.parametrize("family, m_min, m_max, n_max", [
    ("nabla", 0, 0, 0),  # no rows: nabla starts at n = 1
    ("delta", 0, 0, 0),
    ("delta", -3, 3, 4),
    ("nabla", -2, 1, 3),
    ("delta", 2, 2, 5),
])
def test_streamed_table_json_is_json_dumps_of_the_tree(family, m_min, m_max, n_max):
    chunks = list(table_json(family, m_min, m_max, n_max))
    want = json.dumps(_table_tree(family, m_min, m_max, n_max), indent=2) + "\n"
    assert "".join(chunks) == want
    # the head, one chunk per row, the tail
    assert len(chunks) == len(list(scalar_table(family, m_min, m_max, n_max))) + 2


def test_oversized_table_is_refused_before_its_first_row():
    # C_13 = 742,900 words: refused when the table is asked for, so a
    # streamed writer never writes a partial table
    for writer in (table_csv, table_latex, table_json):
        with pytest.raises(CapExceededError, match="742900 Catalan words"):
            writer("delta", 0, 0, 13)
