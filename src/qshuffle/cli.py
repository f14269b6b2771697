"""Command-line front end: compute, verify, enumerate, table.

Flags are the only settings: a subcommand takes only the flags it reads, a
compute kind only the values its row of KINDS lists. Exit codes: 0 on
success or all checks passing, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# checks and series are imported by the commands that use them, so that a
# compute request loads neither
from . import catalan, render, words
from .errors import QShuffleError

USAGE_ERROR = 2
FORMATS = ("human", "json", "latex", "csv")
CUTOFF = 5


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _verify_human(reports, timings) -> str:
    ok = sum(r.passed for r in reports)
    return "\n".join([r.line() for r in reports] + [f"{ok}/{len(reports)} checks passed"]) + "\n"


def _enumerate_human(rows) -> str:
    return "\n".join(
        "  ".join([row["word"]] + [f"{k}=" + ",".join(map(str, v)) for k, v in row.items() if k != "word"])
        for row in rows
    ) + "\n"


def _lines(chunks):
    yield from chunks
    yield "\n"


# The formats each kind of output renders, in the order refusals list them,
# and the writer of each. Writers look render's functions up at call time.
# An element's writers take its (word, coefficient) terms and return chunks.
WRITERS = {
    "element": {
        "human": lambda terms: _lines(render.human_chunks(terms)),
        "json": lambda terms: _lines(render.json_chunks(terms)),
        "latex": lambda terms: _lines(render.latex_chunks(terms)),
    },
    "series": {
        "human": lambda s: render.series_str(s) + "\n",
        "json": lambda s: _json(s.to_json()),
    },
    "verify": {
        "human": _verify_human,
        "json": lambda reports, timings: _json([r.to_json(timings=timings) for r in reports]),
    },
    "enumerate": {"human": _enumerate_human, "json": _json},
    "table": {
        "human": lambda *a: render.table_human(*a),
        "json": lambda *a: render.table_json(*a),
        "latex": lambda *a: render.table_latex(*a),
        "csv": lambda *a: render.table_csv(*a),
    },
}


# each value a compute kind may take -> how a refusal ("takes no …") and a
# "needs …" message name it; no kind needs --cutoff, which has a default
VALUES = {"m": ("--m", "--m"), "n": ("index", "--n"), "cutoff": ("--cutoff", None),
          "sub": ("--kind", "--kind {E0,E1,Edelta}")}


def _series(family, m, cutoff):
    from . import series

    return series.family_series(family, m, CUTOFF if cutoff is None else cutoff)


# compute kind -> (its WRITERS key, the VALUES it takes, its output from args);
# the element rows, each streamed one word at a time, are catalan.FAMILIES'
KINDS = {
    **{family: ("element", ("m", "n") if takes_m else ("n",),
                lambda a, f=family: catalan.terms(f, a.m, a.n))
       for family, (_, takes_m, _) in catalan.FAMILIES.items()},
    "damiani": ("element", ("sub", "n"),
                lambda a: catalan.embedding_image(f"Damiani_{a.sub}", a.n).terms()),
    "beck": ("element", ("n",), lambda a: catalan.embedding_image("Beck_Edelta", a.n).terms()),
    "series:delta": ("series", ("m", "cutoff"), lambda a: _series("delta", a.m, a.cutoff)),
    "series:nabla0": ("series", ("cutoff",), lambda a: _series("nabla", 0, a.cutoff)),
    **{f"series:{family}": ("series", ("cutoff",), lambda a, f=family: _series(f, None, a.cutoff))
       for family in ("C", "D", "Gtilde")},
}


def _output(args) -> str:
    """The WRITERS key of a request's output: its command, or its compute kind's."""
    if args.command != "compute":
        return args.command
    name = args.kind.removeprefix("series:")
    if args.kind not in KINDS:
        raise ValueError(f"unknown {'compute kind' if name == args.kind else 'series'} {name!r}")
    return KINDS[args.kind][0]


def _render(output: str, args, *values):
    return WRITERS[output][args.output_format](*values)


def _emit(out, args) -> int:
    """Write a request's output, a string or an iterable of chunks, to the
    --output file or to stdout. An unwritable path is a usage error. A
    reader that closes stdout early (say, `| head`) ends the request
    quietly: stdout is pointed at devnull, so that the interpreter's exit
    flush writes nothing more."""
    chunks = (out,) if isinstance(out, str) else out
    if args.output_path:
        try:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        return 0
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def cmd_compute(args) -> int:
    output, takes, build = KINDS[args.kind]  # main's _output refused an unknown kind
    if args.pos_n is not None:
        if args.n not in (None, args.pos_n):
            raise ValueError(f"index {args.pos_n} disagrees with --n {args.n}")
        args.n = args.pos_n
    # refuse each value this kind would drop, then name all it needs
    for value, (label, _) in VALUES.items():
        if getattr(args, value) is not None and value not in takes:
            raise ValueError(f"compute {args.kind} takes no {label}")
    needs = [value for value in takes if VALUES[value][1]]
    if any(getattr(args, value) is None for value in needs):
        raise ValueError(f"compute {args.kind} needs {' and '.join(VALUES[v][1] for v in needs)}")
    return _emit(_render(output, args, build(args)), args)


def cmd_verify(args) -> int:
    from . import checks

    # every named check must exist, with or without --all
    unknown = [n for n in args.checks if n not in checks.CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)};"
                         f" available: {', '.join(checks.CHECKS)}")
    if args.all and args.checks:
        raise ValueError(f"verify --all takes no check names, got {', '.join(args.checks)}")
    vcfg = checks.VerifyConfig(m_min=args.m_min, m_max=args.m_max, n_max=args.n_max,
                               cutoff=args.cutoff)
    reports = checks.run_all(vcfg, names=args.checks or None)
    code = _emit(_render("verify", args, reports, args.timings), args)
    return code or (0 if all(r.passed for r in reports) else 1)


def cmd_enumerate(args) -> int:
    cat = words.enumerate_catalan(args.n)
    if args.count_only:
        return _emit(f"{len(cat)}\n", args)
    rows = []
    for w in cat:
        row = {"word": w.display()}
        if args.profiles:
            row["profile"] = list(words.profile(w))
        if args.elevations:
            row["elevation"] = list(words.elevation_sequence(w))
        rows.append(row)
    return _emit(_render("enumerate", args, rows), args)


def cmd_table(args) -> int:
    return _emit(_render("table", args, args.family, args.m_min, args.m_max, args.n_max), args)


def _check_ranges(args):
    """Refuse an out-of-range value among those the subcommand has."""
    if getattr(args, "cutoff", None) is not None and args.cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if getattr(args, "m_min", 0) > getattr(args, "m_max", 0):
        raise ValueError("m-min must be <= m-max")
    if getattr(args, "n_max", 0) < 0:
        raise ValueError("n-max must be >= 0")


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads, so none is silently ignored
    output = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    output.add_argument("--format", dest="output_format", choices=FORMATS, default="human",
                        help="output format (default %(default)s)")
    output.add_argument("--output", dest="output_path", metavar="OUTPUT",
                        help="write output to this path instead of stdout")

    p = argparse.ArgumentParser(
        prog="qshuffle",
        description="Exact q-shuffle algebra computations and identity verification.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", parents=[output], help="compute an element or series")
    c.set_defaults(handler=cmd_compute)
    c.add_argument("kind", help=", ".join(KINDS))
    c.add_argument("pos_n", nargs="?", type=int, help="index n (positional shorthand)")
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    # no argparse default, so that an element kind can refuse an explicit --cutoff
    c.add_argument("--cutoff", type=int, help=f"series truncation degree (default {CUTOFF})")
    c.add_argument("--kind", dest="sub", choices=("E0", "E1", "Edelta"))

    v = sub.add_parser("verify", parents=[output], help="run identity checks")
    v.set_defaults(handler=cmd_verify)
    v.add_argument("checks", nargs="*", help="check names (default: all)")
    v.add_argument("--all", action="store_true", help="run every check")
    v.add_argument("--timings", action="store_true", help="include elapsed times in JSON")
    for flag, default, what in (("--cutoff", CUTOFF, "series truncation degree"),
                                ("--m-min", -3, "smallest parameter m"),
                                ("--m-max", 3, "largest parameter m"),
                                ("--n-max", 5, "largest family index n")):
        v.add_argument(flag, type=int, default=default, help=f"{what} (default {default})")

    e = sub.add_parser("enumerate", parents=[output], help="list the Catalan words of length 2n")
    e.set_defaults(handler=cmd_enumerate)
    e.add_argument("n", type=int)
    e.add_argument("--profiles", action="store_true")
    e.add_argument("--elevations", action="store_true")
    e.add_argument("--count-only", dest="count_only", action="store_true")

    t = sub.add_parser("table", parents=[output], help="export a scalar table")
    t.set_defaults(handler=cmd_table)
    t.add_argument("family", choices=("delta", "nabla"))
    t.add_argument("m_min", type=int)
    t.add_argument("m_max", type=int)
    t.add_argument("n_max", type=int)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one place where an error becomes a usage error
    try:
        formats = WRITERS[_output(args)]
        _check_ranges(args)
        if args.output_format not in formats:
            what = f"{args.command} {args.kind}" if args.command == "compute" else args.command
            raise ValueError(f"{what} does not render --format {args.output_format};"
                             f" it renders {', '.join(formats)}")
        return args.handler(args)
    except (ValueError, QShuffleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
