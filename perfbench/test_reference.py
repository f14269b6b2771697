"""Tests of the benchmark's own references and parsers.

    python3 -m pytest perfbench

They need no qshuffle: the reference shuffle is checked against brute-force
enumeration of interleavings, the evaluator against hand-worked values, and
the parsers against hand-written output in each of the CLI's formats.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import parse  # noqa: E402
import reference as ref  # noqa: E402


def words_upto(n):
    for k in range(n + 1):
        for letters in product("xy", repeat=k):
            yield "".join(letters)


def pair(a: str, b: str) -> int:
    """The symmetric form on letters: <x, x> = <y, y> = 2, <x, y> = -2."""
    return 2 if a == b else -2


def brute_shuffle(u: str, v: str) -> dict:
    """Every interleaving, weighted by <a, b> for each b of v placed before a of u."""
    out: dict = {}
    r, s = len(u), len(v)
    for upos in combinations(range(r + s), r):
        vpos = [j for j in range(r + s) if j not in upos]
        letters = [""] * (r + s)
        for i, p in enumerate(upos):
            letters[p] = u[i]
        for j, p in enumerate(vpos):
            letters[p] = v[j]
        e = sum(pair(u[i], v[j]) for i, p in enumerate(upos) for j, q in enumerate(vpos) if q < p)
        w = "".join(letters)
        out[w] = ref.padd(out.get(w, {}), {e: 1})
    return {w: p for w, p in out.items() if p}


def test_shuffle_matches_brute_force_up_to_four_plus_four_letters():
    for u in words_upto(4):
        for v in words_upto(4):
            want = brute_shuffle(u, v)
            assert ref.shuffle(u, v) == want, (u, v)
            total: dict = {}
            for p in want.values():
                total = ref.padd(total, p)
            assert ref.augmentation(u, v) == total, (u, v)
            assert sum(sum(p.values()) for p in want.values()) == comb(len(u) + len(v), len(u))


def test_letter_products():
    assert ref.shuffle("x", "y") == {"xy": {0: 1}, "yx": {-2: 1}}
    assert ref.shuffle("x", "x") == {"xx": {0: 1, 2: 1}}


def test_qint():
    assert ref.qint(0) == {}
    assert ref.qint(1) == {0: 1}
    assert ref.qint(3) == {-2: 1, 0: 1, 2: 1}
    assert ref.qint(-2) == {-1: -1, 1: -1}
    assert ref.qint_product([2, 0, 3]) == {}


def test_catalan_words():
    assert ref.catalan_words(2) == ("xxyy", "xyxy")
    assert [len(ref.catalan_words(n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert all(ref.catalan_number(n) == len(ref.catalan_words(n)) for n in range(9))


def q(*fs):
    return ref.qint_product(fs)


def test_hand_worked_coefficients():
    # Delta^(2)(xxyy): [0+2] [1+2] [2] [1] = [2]^2 [3]
    assert ref.coefficient("delta", 2, "xxyy") == q(2, 2, 3)
    assert ref.coefficient("delta", 2, "xyxy") == q(2, 2)
    # nabla drops the first factor
    assert ref.coefficient("nabla", 2, "xxyy") == q(2, 3)
    # Delta^(-1) keeps only the alternating word, with sign (-1)^n
    assert ref.family("delta", -1, 2) == {"xyxy": {0: 1}}
    assert ref.family("delta", -1, 3) == {"xyxyxy": {0: -1}}
    # C_n is the m = 2 column; D_n is (-1)^n times the m = 1 column
    for n in range(5):
        assert ref.family("C", 0, n) == ref.family("delta", 2, n)
        sign = -1 if n % 2 else 1
        assert ref.family("D", 0, n) == {w: ref.pscale(p, sign) for w, p in ref.family("delta", 1, n).items()}
    assert ref.family("D", 0, 3)["xxxyyy"] == ref.pscale(q(2, 2, 3, 3), -1)


def test_beck_argument():
    arg = ref.beck_argument(2, 2)
    assert arg[0] == {}
    assert arg[1] == {"xy": q(2)}
    half = {e: Fraction(c, 2) for e, c in q(4).items()}
    assert arg[2] == {"xxyy": ref.pmul(half, q(2))}


def test_parse_human_element():
    text = "[2]_q^2[3]_q^2[4]_q xxxyyy + [2]_q^3 xyxyxy - xyxxyy - [2]_q xxyyxy"
    assert parse.human_element(text) == {
        "xxxyyy": q(2, 2, 3, 3, 4),
        "xyxyxy": q(2, 2, 2),
        "xyxxyy": {0: -1},
        "xxyyxy": ref.pscale(q(2), -1),
    }
    assert parse.human_element("(1/2)[3]_q xy + (-2)[2]_q xxyy") == {
        "xy": ref.pscale(q(3), Fraction(1, 2)),
        "xxyy": ref.pscale(q(2), -2),
    }
    assert parse.human_element("(-1/2*q^-3 + 2 - q) xy + 1") == {
        "xy": {-3: Fraction(-1, 2), 0: 2, 1: -1},
        "": {0: 1},
    }
    assert parse.human_element("0") == {}
    assert parse.human_element("-1") == {"": {0: -1}}


def test_parse_human_series():
    text = "(1) + ([2]_q xy) t + ([2]_q^2[3]_q xxyy + [2]_q^2 xyxy) t^2"
    assert parse.human_series(text) == [
        {"": {0: 1}},
        {"xy": q(2)},
        {"xxyy": q(2, 2, 3), "xyxy": q(2, 2)},
    ]


def test_parse_csv_and_json():
    ms, rows = parse.table_csv("w,m=-1,m=0,m=2\n1,1,1,1\nxy,-1,0,[2]_q\n")
    assert ms == [-1, 0, 2]
    assert rows == {"": [{0: 1}] * 3, "xy": [{0: -1}, {}, q(2)]}
    assert parse.json_output('[{"word": "xxyy", "coeff": {"-1": "1", "1": "1/2"}}]') == {
        "xxyy": {-1: 1, 1: Fraction(1, 2)}
    }
    series = '{"cutoff": 1, "coeffs": [[{"word": "", "coeff": {"0": "1"}}], []]}'
    assert parse.json_output(series) == [{"": {0: 1}}, {}]
