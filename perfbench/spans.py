"""Traced mode: wrap qshuffle's public entry points and record spans.

``install(path)`` replaces each entry point with a wrapper that times the
call, keeps per-name aggregates of its spans in memory (calls, total time,
time covered by child spans, and work counts) and writes them to ``path``
once, when the process exits. A span's self time is its total time minus
the time its child spans cover; the wrapper's own bookkeeping is charged to
the child, so parents' self times stay clean of it.

Run as a script, it traces one CLI request in this process:

    python3 perfbench/spans.py TRACE.json -- compute delta --m 2 --n 5
"""

from __future__ import annotations

import atexit
import json
import sys
import time
from collections import Counter
from math import comb

from reference import catalan_number

BUILDERS = ("delta_element", "nabla_element", "catalan_element", "d_element")


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self._stack: list = []
        self.top_covered = 0.0
        self.active = True

    def wrap(self, fn, name, count=None):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "child_s": 0.0})
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat["calls"] += 1
                stat["s"] += t1 - t0
                stat["child_s"] += stack.pop()
            if count is not None:
                count(stat, args, out)
            covered = clock() - t0
            if stack:
                stack[-1] += covered
            else:
                self.top_covered += covered
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        stats = {
            name: {**s, "self_s": s["s"] - s["child_s"]} for name, s in self.stats.items()
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": stats, "top_covered_s": self.top_covered}, fh)


def _bump(stat, key, n):
    stat[key] = stat.get(key, 0) + n


def _lengths(el) -> Counter:
    return Counter(len(w) for w in el.support())


def _count_shuffle(stat, args, out):
    a, b = args
    _bump(stat, "word_pairs", len(a) * len(b))
    la, lb = _lengths(a), _lengths(b)
    _bump(
        stat,
        "interleavings",
        sum(na * nb * comb(i + j, i) for i, na in la.items() for j, nb in lb.items()),
    )
    _bump(stat, "out_terms", len(out))


def _count_build(stat, args, out):
    n = args[-1]
    _bump(stat, "words_scanned", catalan_number(n))
    _bump(stat, "words_kept", len(out))


def _count_element(stat, args, out):
    _bump(stat, "coeffs", len(args[0]))


def _count_table(stat, args, out):
    family, m_min, m_max, n_max = args
    start = 0 if family == "delta" else 1
    rows = sum(catalan_number(n) for n in range(start, n_max + 1))
    _bump(stat, "coeffs", rows * (m_max - m_min + 1))


def install(path: str) -> Tracer:
    """Wrap the entry points of every layer and write the spans at exit."""
    from qshuffle import algebra, catalan, checks, qlaurent, render, series, words

    tr = Tracer()
    Element, Series = algebra.Element, series.Series
    Element.shuffle = tr.wrap(Element.shuffle, "algebra.shuffle", _count_shuffle)
    for op in ("star_mul", "exp", "log", "inverse"):
        setattr(Series, op, tr.wrap(getattr(Series, op), f"series.{op}"))
    for name in BUILDERS:
        setattr(catalan, name, tr.wrap(getattr(catalan, name), "catalan.build", _count_build))
    words.enumerate_catalan = tr.wrap(words.enumerate_catalan, "words.enumerate")
    qlaurent.LaurentPoly.__mul__ = tr.wrap(qlaurent.LaurentPoly.__mul__, "qlaurent.mul")
    render.element_str = tr.wrap(render.element_str, "render.element_str", _count_element)
    render.table_csv = tr.wrap(render.table_csv, "render.table", _count_table)
    Element.to_json = tr.wrap(Element.to_json, "render.json", _count_element)
    for name, fn in list(checks.CHECKS.items()):
        checks.CHECKS[name] = tr.wrap(fn, f"checks.{name}")
    atexit.register(tr.dump, path)
    return tr


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py TRACE.json -- <qshuffle cli arguments>", file=sys.stderr)
        return 2
    install(argv[0])
    from qshuffle import cli

    return cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
