"""Parsers for the CLI's human (bracket), CSV and JSON output.

Every coefficient comes back as a ``{exponent: int | Fraction}`` dict, in
the representation of ``reference``, so it can be compared with the
reference evaluator directly. Words come back as strings, with the empty
word as "".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from reference import padd, pnorm, pscale, qint_product

_BRACKET = re.compile(r"\[(\d+)\]_q(?:\^(\d+))?")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?$")
_WORD = re.compile(r"[xy]+|1")
_MONO = re.compile(r"(?:(-?\d+(?:/\d+)?)\*)?(-)?q(?:\^(-?\d+))?$")


class ParseError(ValueError):
    pass


def _closing(s: str, i: int) -> int:
    """Index of the parenthesis that closes the one at s[i]."""
    depth = 0
    for j in range(i, len(s)):
        if s[j] == "(":
            depth += 1
        elif s[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    raise ParseError(f"unbalanced parentheses in {s!r}")


def _split_top(s: str, seps=(" + ", " - ")):
    """Split s at separators outside parentheses; yields (sign, piece)."""
    out = []
    depth = 0
    start = 0
    sign = 1
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep in seps:
                if s.startswith(sep, i):
                    out.append((sign, s[start:i]))
                    sign = -1 if sep == " - " else 1
                    i += len(sep)
                    start = i
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    out.append((sign, s[start:]))
    return out


def expanded_poly(s: str) -> dict:
    """A LaurentPoly as printed: '-1/2*q^-11 + 1/2*q^-9 + 3 - q'."""
    out: dict = {}
    for sign, term in _split_top(s.strip()):
        if _RATIONAL.match(term):
            out = padd(out, {0: sign * Fraction(term)})
            continue
        mono = _MONO.match(term)
        if not mono:
            raise ParseError(f"bad polynomial term {term!r}")
        c = Fraction(mono.group(1)) if mono.group(1) else Fraction(1)
        if mono.group(2):
            c = -c
        e = int(mono.group(3)) if mono.group(3) is not None else 1
        out = padd(out, {e: sign * c})
    return pnorm(out)


def coefficient(s: str) -> dict:
    """A rendered coefficient: '0', '-3/2', '[2]_q^2[3]_q', '(1/2)[3]_q', '(poly)'."""
    s = s.strip()
    sign = 1
    if s.startswith("-") and not _RATIONAL.match(s):
        sign, s = -1, s[1:]
    scale: Fraction = Fraction(1)
    if s.startswith("("):
        j = _closing(s, 0)
        inner, s = s[1:j], s[j + 1:]
        if _RATIONAL.match(inner):
            scale = Fraction(inner)
        elif not s:
            return pnorm(pscale(expanded_poly(inner), sign))
        else:
            raise ParseError(f"expanded polynomial followed by {s!r}")
    elif _RATIONAL.match(s):
        return pnorm({0: sign * Fraction(s)} if Fraction(s) else {})
    fs = []
    pos = 0
    for mt in _BRACKET.finditer(s):
        if mt.start() != pos:
            raise ParseError(f"bad bracket product {s!r}")
        fs += [int(mt.group(1))] * int(mt.group(2) or 1)
        pos = mt.end()
    if pos != len(s) or not fs:
        raise ParseError(f"bad bracket product {s!r}")
    return pnorm(pscale(qint_product(fs), sign * scale))


def _term(s: str):
    """One term of element_str: 'coeff word', 'word', 'coeff' (empty word)."""
    head, _, tail = s.rpartition(" ")
    if head and _WORD.fullmatch(tail):
        return tail, coefficient(head)
    if _WORD.fullmatch(s):
        return ("" if s == "1" else s), {0: 1}
    if s.startswith("-") and _WORD.fullmatch(s[1:]):
        return ("" if s[1:] == "1" else s[1:]), {0: -1}
    return "", coefficient(s)


def human_element(text: str) -> dict:
    """Parse render.element_str output into {word: poly}."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for sign, piece in _split_top(text):
        w, c = _term(piece)
        if w in out:
            raise ParseError(f"word {w!r} printed twice")
        out[w] = pnorm(pscale(c, sign))
    return out


def human_series(text: str) -> list:
    """Parse render.series_str output into a list of {word: poly} by degree."""
    text = text.strip()
    coeffs: dict = {}
    if text == "0":
        return []
    for sign, piece in _split_top(text, seps=(" + ",)):
        if sign != 1 or not piece.startswith("("):
            raise ParseError(f"bad series term {piece!r}")
        j = _closing(piece, 0)
        rest = piece[j + 1:]
        if rest == "":
            deg = 0
        elif rest == " t":
            deg = 1
        elif rest.startswith(" t^"):
            deg = int(rest[3:])
        else:
            raise ParseError(f"bad power of t {rest!r}")
        coeffs[deg] = human_element(piece[1:j])
    top = max(coeffs)
    return [coeffs.get(d, {}) for d in range(top + 1)]


def table_csv(text: str):
    """Parse a scalar table: returns (list of m, {word: [poly per m]})."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    if header[0] != "w":
        raise ParseError("table header must start with 'w'")
    ms = [int(h[2:]) for h in header[1:]]
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"ragged table row {line!r}")
        w = "" if cells[0] == "1" else cells[0]
        rows[w] = [coefficient(c) for c in cells[1:]]
    return ms, rows


def json_poly(obj: dict) -> dict:
    return pnorm({int(e): Fraction(c) for e, c in obj.items()})


def json_element(obj: list) -> dict:
    out = {}
    for entry in obj:
        if entry["word"] in out:
            raise ParseError(f"word {entry['word']!r} listed twice")
        out[entry["word"]] = json_poly(entry["coeff"])
    return out


def json_output(text: str):
    """An element (list) or a series ({cutoff, coeffs}) printed as JSON."""
    obj = json.loads(text)
    if isinstance(obj, dict):
        return [json_element(c) for c in obj["coeffs"]]
    return json_element(obj)

