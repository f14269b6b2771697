"""Every text form of a scalar, element and series, plus tables.

Coefficients that factor exactly as a rational times a product of q-integers
are shown in bracket notation ([2]_q^2[3]_q), like the tables this package
reproduces; anything else falls back to the expanded Laurent form. The
expanded forms are also what str() of a LaurentPoly, Element or Series returns.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

from . import catalan, words as W
from .algebra import Element
from .errors import InexactDivisionError
from .qlaurent import LaurentPoly, q_int


@lru_cache(maxsize=4096)
def _factorization(p: LaurentPoly):
    """Factor p as (rational, ((n, multiplicity), ...)) over q-integers, the
    pairs ascending in n, or None. Factors are extracted greedily from the
    largest plausible q-integer down; the remaining unit must be a rational
    constant. Memoized, since a family element repeats few distinct
    coefficients.

    A q-integer [n]_q is tried only when (4^n - 1)/3 divides A(2), where
    A = d·q^(-e0)·cur is the remaining cofactor made an integer polynomial
    (d the lcm of its denominators, e0 its lowest exponent): (4^n - 1)/3 is
    N(2) for the monic N = q^(n-1)·[n]_q, and N | A in Q[q] leaves an
    integer quotient. div_exact still confirms every factor it accepts.
    """
    if p.is_zero():
        return Fraction(0), ()
    factors: dict = {}
    cur = p
    while not cur.is_zero() and (cur.max_exp() != 0 or cur.min_exp() != 0):
        span = cur.max_exp() - cur.min_exp()
        n = span // 2 + 1
        d = lcm(*(c.denominator for c in cur._c.values() if type(c) is Fraction))
        e0 = cur.min_exp()
        at2 = sum(int(c * d) << e - e0 for e, c in cur._c.items())
        while n >= 2:
            if not at2 % ((4**n - 1) // 3):
                try:
                    cur = cur.div_exact(q_int(n))
                    factors[n] = factors.get(n, 0) + 1
                    break
                except InexactDivisionError:
                    pass
            n -= 1
        else:
            return None
    c = cur.coeff(0)
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c, tuple(sorted(factors.items()))


def _rational_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _latex_rational(c: Fraction) -> str:
    """A non-integer rational as -\\tfrac{p}{q}, its sign outside the fraction."""
    return ("-" if c < 0 else "") + f"\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _bracket_body(factors) -> str:
    """The q-integer product [n]_q^e ... of ascending (n, e) pairs."""
    return "".join(f"[{n}]_q" + (f"^{e}" if e > 1 else "") for n, e in factors)


def _join(parts, plus=" + ", minus=" - "):
    """Yield signed terms joined, writing a later term's leading minus as its
    separator; no terms at all is "0"."""
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        yield "0"
        return
    yield first
    for t in parts:
        yield minus + t[1:] if t.startswith("-") else plus + t


def laurent_expanded(p: LaurentPoly, latex: bool = False) -> str:
    """p as a sum of monomials in ascending degree: q^-1 + 3*q^2, what str()
    returns, or q^{-1}+3q^{2} in LaTeX."""
    power, times = ("q^{{{}}}", "") if latex else ("q^{}", "*")
    parts = []
    for e, c in p.terms():
        if latex and type(c) is Fraction:
            c = _latex_rational(c)
        if e == 0:
            parts.append(str(c))
            continue
        mono = "q" if e == 1 else power.format(e)
        parts.append(mono if c == 1 else "-" + mono if c == -1 else f"{c}{times}{mono}")
    return "".join(_join(parts, *(("+", "-") if latex else (" + ", " - "))))


def laurent_str(p: LaurentPoly, latex: bool = False) -> str:
    """Render a coefficient; bracket notation when it factors, else expanded
    (in parentheses outside LaTeX)."""
    fact = _factorization(p)
    if fact is None:
        return laurent_expanded(p, True) if latex else f"({laurent_expanded(p)})"
    c, factors = fact
    if not factors:
        return _rational_str(c)
    body = _bracket_body(factors)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    if not latex:
        return f"({_rational_str(c)}){body}"
    if c.denominator == 1:
        return f"{c.numerator}{body}"
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}{body}"


def laurent_latex(p: LaurentPoly) -> str:
    return laurent_str(p, latex=True)


# The element writers take (word, coefficient) terms in word order, as
# Element.terms() or catalan.terms() gives them, and yield the text in
# chunks, one term at a time, so that a caller can write an element while it
# is still being decoded.


def _human_term(w: W.Word, c: LaurentPoly) -> str:
    cs = laurent_str(c)
    wd = w.display()
    if cs == "1":
        return wd
    if cs == "-1":
        return "-" + wd
    return cs if w.is_trivial() else f"{cs} {wd}"


def latex_chunks(terms):
    """LaTeX for an element: each coefficient in parentheses before its word;
    the empty word shows its coefficient alone."""
    return _join((laurent_latex(c) if w.is_trivial() else f"({laurent_latex(c)}){w.display()}"
                  for w, c in terms), "+", "-")


def human_chunks(terms):
    return _join(_human_term(w, c) for w, c in terms)


def json_chunks(terms):
    """json.dumps(Element.to_json(), indent=2), one term per chunk. Every
    string in it is a word over x, y or an integer or rational, which JSON
    writes as it is."""
    sep = "[\n"
    for w, c in terms:
        coeff = ",\n".join(f'      "{e}": "{v}"' for e, v in c.terms())
        yield f'{sep}  {{\n    "word": "{w}",\n    "coeff": {{\n{coeff}\n    }}\n  }}'
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n]"


def element_str(el: Element) -> str:
    return "".join(human_chunks(el.terms()))


def element_expanded(el: Element) -> str:
    """What str() returns: each coefficient expanded, in parentheses, before its word."""
    return "".join(_join(f"({laurent_expanded(c)}) {w.display()}" for w, c in el.terms()))


def series_str(s) -> str:
    return "".join(_join(f"({element_str(a)})" + ("" if n == 0 else " t" if n == 1 else f" t^{n}")
                         for n, a in enumerate(s.coeffs) if not a.is_zero()))


def series_expanded(s) -> str:
    """What str() returns: t^n [coefficient], each coefficient in expanded form."""
    return "".join(_join(("" if n == 0 else "t " if n == 1 else f"t^{n} ") + f"[{element_expanded(a)}]"
                         for n, a in enumerate(s.coeffs) if not a.is_zero()))


# -- scalar tables ---------------------------------------------------------------


def scalar_table(family: str, m_min: int, m_max: int, n_max: int):
    """Rows (word, cells) of the weighted-Catalan-word scalar table, yielded
    one at a time.

    family "delta" includes the empty word; "nabla" starts at length 2.
    Rows are sorted by length then lexicographically; columns ascend in m.
    Each column of length 2n is read from the family's walk one word at a
    time, catalan.terms(family, m, n); a word the walk dropped (a zero
    product) gets a zero cell.
    """
    if family not in ("delta", "nabla"):
        raise ValueError(f"unknown table family {family!r}")
    if m_min > m_max or n_max < 0:
        raise ValueError("empty table range")
    for n in range(n_max + 1):  # refused before a streamed writer writes a row
        W.check_catalan_cost(n)
    return _table_rows(family, range(m_min, m_max + 1), 0 if family == "delta" else 1, n_max)


def _table_rows(family, ms, start, n_max):
    zero, end = LaurentPoly.zero(), (None, None)
    for n in range(start, n_max + 1):
        columns = [catalan.terms(family, m, n) for m in ms]
        # heads[i] is column i's next (word, coefficient), in enumerate_catalan's order
        heads = [next(col, end) for col in columns]
        for w in W.enumerate_catalan(n):
            yield w, [c if u == w else zero for u, c in heads]
            heads = [next(col, end) if u == w else (u, c) for col, (u, c) in zip(columns, heads)]


def table_csv(family, m_min, m_max, n_max):
    """The CSV text in chunks: the header, then one row at a time."""
    rows = scalar_table(family, m_min, m_max, n_max)  # refuses a bad range now
    header = "w," + ",".join(f"m={m}" for m in range(m_min, m_max + 1)) + "\n"
    return chain([header], (w.display() + "," + ",".join(laurent_str(c) for c in cells) + "\n"
                            for w, cells in rows))


def table_latex(family, m_min, m_max, n_max):
    """The tabular in chunks: its head, one row at a time, then its end."""
    rows = scalar_table(family, m_min, m_max, n_max)  # refuses a bad range now
    sym = "\\Delta" if family == "delta" else "\\nabla"
    head = ("\\begin{tabular}{ c|" + "|".join("c" * (m_max - m_min + 1)) + " }\n$w$ & "
            + " & ".join(f"${sym}^{{({m})}}(w)$" for m in range(m_min, m_max + 1)) + "\\\\\n\\hline\n")
    return chain([head], _latex_rows(rows), ["\\end{tabular}\n"])


def _latex_rows(rows):
    for w, cells in rows:
        disp = w.display() if not w.is_trivial() else "\\mathbb{1}"
        yield f"${disp}$ & " + " & ".join(f"${laurent_latex(c)}$" for c in cells) + "\\\\\n"


def table_human(family, m_min, m_max, n_max) -> str:
    """The aligned text, joined whole: its column widths need every row."""
    rows = scalar_table(family, m_min, m_max, n_max)
    header = ["w"] + [f"m={m}" for m in range(m_min, m_max + 1)]
    table = [header] + [
        [w.display()] + [laurent_str(c) for c in cells] for w, cells in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines) + "\n"


def table_json(family, m_min, m_max, n_max):
    """json.dumps of {"family", "m_range", "rows"}, indent 2, plus a newline, in
    chunks: the head, then one row (a word and its cells' to_json()) at a time."""
    rows = scalar_table(family, m_min, m_max, n_max)  # refuses a bad range now
    head = json.dumps({"family": family, "m_range": [m_min, m_max], "rows": []}, indent=2)
    return _json_rows(head[:-len("[]\n}")], rows)


def _json_rows(head, rows):
    yield head
    sep = "[\n    "
    for w, cells in rows:
        row = json.dumps({"word": w.display(), "cells": [c.to_json() for c in cells]}, indent=2)
        yield sep + row.replace("\n", "\n    ")
        sep = ",\n    "
    yield "[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n"
