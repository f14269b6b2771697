"""Command-line front end: compute, verify, enumerate, table.

Configuration precedence: command-line flags > QSHUFFLE_* environment
variables > JSON config file > built-in defaults. Exit codes: 0 on success
or all checks passing, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

# checks and series are imported by the commands that use them, so that a
# compute request loads neither
from . import catalan, render, words
from .errors import QShuffleError

USAGE_ERROR = 2
FORMATS = ("human", "json", "latex", "csv")


@dataclass
class CliConfig:
    cutoff: int = 5
    m_min: int = -3
    m_max: int = 3
    n_max: int = 5
    output_format: str = "human"
    output_path: str | None = None

    def validate(self):
        for key in ("cutoff", "m_min", "m_max", "n_max"):
            val = getattr(self, key)
            if type(val) is not int:
                raise ValueError(f"{key} must be an integer, got {val!r}")
        if self.output_format not in FORMATS:
            raise ValueError(
                f"output_format must be one of {', '.join(FORMATS)}, got {self.output_format!r}"
            )
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string or null, got {self.output_path!r}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.m_min > self.m_max:
            raise ValueError("m-min must be <= m-max")
        if self.n_max < 0:
            raise ValueError("n-max must be >= 0")


def resolve_config(args) -> CliConfig:
    layers = {}
    path = args.config or os.environ.get("QSHUFFLE_CONFIG")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        keys = {f.name for f in fields(CliConfig)}
        for k, v in file_cfg.items():
            if k not in keys:
                raise ValueError(f"unknown config key {k!r}")
            layers[k] = v
    raw = os.environ.get("QSHUFFLE_CUTOFF")
    if raw is not None:
        try:
            layers["cutoff"] = int(raw)
        except ValueError:
            raise ValueError(f"QSHUFFLE_CUTOFF must be an integer, got {raw!r}") from None
    flag_map = {
        "cutoff": args.cutoff,
        "m_min": args.m_min,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "output_format": args.format,
        "output_path": args.output,
    }
    for key, val in flag_map.items():
        if val is not None:
            layers[key] = val
    cfg = CliConfig(**layers)
    cfg.validate()
    return cfg


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
        "json": lambda *a: _json(render.table_json(*a)),
        "latex": lambda *a: render.table_latex(*a),
        "csv": lambda *a: render.table_csv(*a),
    },
}


def _output(args) -> str:
    """The WRITERS key of a request's output: its command, or what compute builds."""
    if args.command == "compute":
        return "series" if args.kind.startswith("series:") else "element"
    return args.command


def _render(output: str, cfg: CliConfig, *values):
    return WRITERS[output][cfg.output_format](*values)


def _emit(out, cfg: CliConfig) -> int:
    """Write a request's output, a string or an iterable of chunks, to the
    --output file or to stdout. An unwritable path is a usage error. A
    reader that closes stdout early (say, `| head`) ends the request
    quietly: stdout is pointed at devnull, so that the interpreter's exit
    flush writes nothing more."""
    chunks = (out,) if isinstance(out, str) else out
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
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


def cmd_compute(args, cfg: CliConfig) -> int:
    kind = args.kind
    try:
        if args.pos_n is not None:
            if args.n not in (None, args.pos_n):
                raise ValueError(f"index {args.pos_n} disagrees with --n {args.n}")
            args.n = args.pos_n
        takes_m = kind in ("delta", "nabla", "series:delta")
        if args.m is not None and not takes_m:
            raise ValueError(f"compute {kind} takes no --m")
        if kind.startswith("series:"):
            from . import series

            name = kind.split(":", 1)[1]
            if name not in ("delta", "nabla0", "C", "D", "Gtilde"):
                raise ValueError(f"unknown series {name!r}")
            if name == "delta" and args.m is None:
                raise ValueError("compute series:delta needs --m")
            family, m = {"delta": ("delta", args.m), "nabla0": ("nabla", 0)}.get(name, (name, None))
            out = _render("series", cfg, series.family_series(family, m, cfg.cutoff))
        elif kind in ("C", "D", "Gtilde", "delta", "nabla"):
            if args.n is None or (takes_m and args.m is None):
                raise ValueError(f"compute {kind} needs {'--m and --n' if takes_m else '--n'}")
            # streamed from the walk's leaves (Gtilde's one word is packed
            # from its member), one word decoded at a time
            packed = catalan.packed_member(kind, args.m, args.n)
            out = _render("element", cfg, packed.decoded_terms())
        elif kind == "damiani":
            if args.sub is None or args.n is None:
                raise ValueError("compute damiani needs --kind {E0,E1,Edelta} and --n")
            out = _render("element", cfg, catalan.embedding_image(f"Damiani_{args.sub}", args.n).terms())
        elif kind == "beck":
            if args.n is None:
                raise ValueError("compute beck needs --n")
            out = _render("element", cfg, catalan.embedding_image("Beck_Edelta", args.n).terms())
        else:
            raise ValueError(f"unknown compute kind {kind!r}")
    except (ValueError, QShuffleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return _emit(out, cfg)


def cmd_verify(args, cfg: CliConfig) -> int:
    from . import checks

    # every named check must exist, with or without --all
    unknown = [n for n in args.checks if n not in checks.CHECKS]
    if unknown:
        print(
            f"error: unknown checks: {', '.join(unknown)};"
            f" available: {', '.join(checks.CHECKS)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    names = None if (args.all or not args.checks) else args.checks
    vcfg = checks.VerifyConfig(
        m_min=cfg.m_min,
        m_max=cfg.m_max,
        n_max=cfg.n_max,
        cutoff=cfg.cutoff,
    )
    try:
        reports = checks.run_all(vcfg, names=names)
    except QShuffleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    code = _emit(_render("verify", cfg, reports, args.timings), cfg)
    return code or (0 if all(r.passed for r in reports) else 1)


def cmd_enumerate(args, cfg: CliConfig) -> int:
    try:
        cat = words.enumerate_catalan(args.n)
    except (ValueError, QShuffleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.count_only:
        return _emit(f"{len(cat)}\n", cfg)
    rows = []
    for w in cat:
        row = {"word": w.display()}
        if args.profiles:
            row["profile"] = list(words.profile(w))
        if args.elevations:
            row["elevation"] = list(words.elevation_sequence(w))
        rows.append(row)
    return _emit(_render("enumerate", cfg, rows), cfg)


def cmd_table(args, cfg: CliConfig) -> int:
    try:
        out = _render("table", cfg, args.family, args.m_min, args.m_max, args.n_max)
    except (ValueError, QShuffleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return _emit(out, cfg)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", help="JSON config file (or set QSHUFFLE_CONFIG)")
    common.add_argument("--cutoff", type=int, help="series truncation degree")
    common.add_argument("--m-min", dest="m_min", type=int, help="smallest parameter m")
    common.add_argument("--m-max", dest="m_max", type=int, help="largest parameter m")
    common.add_argument("--n-max", dest="n_max", type=int, help="largest family index n")
    common.add_argument(
        "--format",
        choices=FORMATS,
        help="output format (default human)",
    )
    common.add_argument("--output", help="write output to this path instead of stdout")

    p = argparse.ArgumentParser(
        prog="qshuffle",
        description="Exact q-shuffle algebra computations and identity verification.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", parents=[common], help="compute an element or series")
    c.add_argument("kind", help="C, D, Gtilde, delta, nabla, damiani, beck, or series:<name>")
    c.add_argument("pos_n", nargs="?", type=int, help="index n (positional shorthand)")
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--kind", dest="sub", choices=("E0", "E1", "Edelta"))

    v = sub.add_parser("verify", parents=[common], help="run identity checks")
    v.add_argument("checks", nargs="*", help="check names (default: all)")
    v.add_argument("--all", action="store_true", help="run every check")
    v.add_argument("--timings", action="store_true", help="include elapsed times in JSON")

    e = sub.add_parser("enumerate", parents=[common], help="list the Catalan words of length 2n")
    e.add_argument("n", type=int)
    e.add_argument("--profiles", action="store_true")
    e.add_argument("--elevations", action="store_true")
    e.add_argument("--count-only", dest="count_only", action="store_true")

    t = sub.add_parser("table", parents=[common], help="export a scalar table")
    t.add_argument("family", choices=("delta", "nabla"))
    t.add_argument("m_min", type=int)
    t.add_argument("m_max", type=int)
    t.add_argument("n_max", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    formats = WRITERS[_output(args)]
    if cfg.output_format not in formats:
        what = f"{args.command} {args.kind}" if args.command == "compute" else args.command
        print(
            f"error: {what} does not render --format {cfg.output_format};"
            f" it renders {', '.join(formats)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "table": cmd_table,
    }
    return handlers[args.command](args, cfg)


if __name__ == "__main__":
    sys.exit(main())
