"""Command-line front end: compute, verify, enumerate, plot, table, bench.

Configuration precedence: command-line flags > QSHUFFLE_* environment
variables > JSON config file > built-in defaults. Exit codes: 0 on success
or all checks passing, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain

from . import algebra, catalan, checks, render, series, words
from .algebra import Element
from .errors import QShuffleError
from .series import Series

USAGE_ERROR = 2

DEFAULTS = {
    "cutoff": 5,
    "m_min": -3,
    "m_max": 3,
    "n_max": 5,
    "output_format": "human",
    "output_path": None,
    "cache_enabled": True,
}


@dataclass
class CliConfig:
    cutoff: int = 5
    m_min: int = -3
    m_max: int = 3
    n_max: int = 5
    output_format: str = "human"
    output_path: str | None = None
    cache_enabled: bool = True

    def validate(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.m_min > self.m_max:
            raise ValueError("m-min must be <= m-max")
        if self.n_max < 0:
            raise ValueError("n-max must be >= 0")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def resolve_config(args) -> CliConfig:
    layers = dict(DEFAULTS)
    path = args.config or os.environ.get("QSHUFFLE_CONFIG")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        for k, v in file_cfg.items():
            if k not in DEFAULTS:
                raise ValueError(f"unknown config key {k!r}")
            layers[k] = v
    env_map = {
        "QSHUFFLE_CUTOFF": ("cutoff", int),
        "QSHUFFLE_CACHE": ("cache_enabled", _parse_bool),
    }
    for var, (key, conv) in env_map.items():
        raw = os.environ.get(var)
        if raw is not None:
            layers[key] = conv(raw)
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
    if args.cache is not None:
        layers["cache_enabled"] = args.cache
    cfg = CliConfig(**layers)
    cfg.validate()
    return cfg


def _emit(text: str, cfg: CliConfig) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _render_element(el: Element, cfg: CliConfig) -> str:
    fmt = cfg.output_format
    if fmt == "json":
        return json.dumps(el.to_json(), indent=2) + "\n"
    if fmt == "latex":
        parts = []
        for w, c in el.terms():
            cs = render.laurent_latex(c)
            wd = w.display() if not w.is_trivial() else "\\mathbb{1}"
            parts.append(f"({cs}){wd}" if not w.is_trivial() else cs)
        return ("+".join(parts) if parts else "0") + "\n"
    return render.element_str(el) + "\n"


def _render_series(s: Series, cfg: CliConfig) -> str:
    if cfg.output_format == "json":
        return json.dumps(s.to_json(), indent=2) + "\n"
    return render.series_str(s) + "\n"


def cmd_compute(args, cfg: CliConfig) -> int:
    kind = args.kind
    try:
        if kind in ("C", "D", "Gtilde"):
            if args.n is None:
                raise ValueError(f"compute {kind} needs --n")
            out = _render_element(catalan.named_element(kind, args.n), cfg)
        elif kind in ("delta", "nabla"):
            if args.m is None or args.n is None:
                raise ValueError(f"compute {kind} needs --m and --n")
            el = (
                catalan.delta_element(args.m, args.n)
                if kind == "delta"
                else catalan.nabla_element(args.m, args.n)
            )
            out = _render_element(el, cfg)
        elif kind == "damiani":
            if args.sub is None or args.n is None:
                raise ValueError("compute damiani needs --kind {E0,E1,Edelta} and --n")
            el = catalan.embedding_image(f"Damiani_{args.sub}", args.n)
            out = _render_element(el, cfg)
        elif kind == "beck":
            if args.n is None:
                raise ValueError("compute beck needs --n")
            out = _render_element(catalan.embedding_image("Beck_Edelta", args.n), cfg)
        elif kind.startswith("series:"):
            name = kind.split(":", 1)[1]
            N = cfg.cutoff
            builders = {
                "C": lambda: series.c_series(N),
                "D": lambda: series.d_series(N),
                "Gtilde": lambda: series.gtilde_series(N),
                "nabla0": lambda: series.nabla0_series(N),
            }
            if name == "delta":
                if args.m is None:
                    raise ValueError("compute series:delta needs --m")
                s = series.delta_series(args.m, N)
            elif name in builders:
                s = builders[name]()
            else:
                raise ValueError(f"unknown series {name!r}")
            out = _render_series(s, cfg)
        else:
            raise ValueError(f"unknown compute kind {kind!r}")
    except (ValueError, QShuffleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit(out, cfg)
    return 0


def cmd_verify(args, cfg: CliConfig) -> int:
    names = None if (args.all or not args.checks) else args.checks
    if names:
        unknown = [n for n in names if n not in checks.CHECKS]
        if unknown:
            print(
                f"error: unknown checks: {', '.join(unknown)};"
                f" available: {', '.join(checks.CHECKS)}",
                file=sys.stderr,
            )
            return USAGE_ERROR
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
    if cfg.output_format == "json":
        payload = [r.to_json(timings=args.timings) for r in reports]
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
    else:
        lines = [r.line() for r in reports]
        ok = sum(r.passed for r in reports)
        lines.append(f"{ok}/{len(reports)} checks passed")
        _emit("\n".join(lines) + "\n", cfg)
    return 0 if all(r.passed for r in reports) else 1


def cmd_enumerate(args, cfg: CliConfig) -> int:
    try:
        cat = words.enumerate_catalan(args.n)
    except QShuffleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.count_only:
        _emit(f"{len(cat)}\n", cfg)
        return 0
    if cfg.output_format == "json":
        rows = []
        for w in cat:
            row = {"word": w.display()}
            if args.profiles:
                row["profile"] = list(words.profile(w).entries)
            if args.elevations:
                row["elevation"] = list(words.elevation_sequence(w))
            rows.append(row)
        _emit(json.dumps(rows, indent=2) + "\n", cfg)
        return 0
    lines = []
    for w in cat:
        line = w.display()
        if args.profiles:
            line += "  profile=" + ",".join(str(e) for e in words.profile(w).entries)
        if args.elevations:
            line += "  elevation=" + ",".join(str(e) for e in words.elevation_sequence(w))
        lines.append(line)
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_plot(args, cfg: CliConfig) -> int:
    try:
        w = words.word(args.word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    svg = render.dyck_svg(w)
    try:
        with open(args.svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_table(args, cfg: CliConfig) -> int:
    try:
        fmt = cfg.output_format
        if fmt == "csv":
            out = render.table_csv(args.family, args.m_min, args.m_max, args.n_max)
        elif fmt == "latex":
            out = render.table_latex(args.family, args.m_min, args.m_max, args.n_max)
        elif fmt == "json":
            out = json.dumps(
                render.table_json(args.family, args.m_min, args.m_max, args.n_max),
                indent=2,
            ) + "\n"
        else:
            out = render.table_human(args.family, args.m_min, args.m_max, args.n_max)
    except (ValueError, QShuffleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit(out, cfg)
    return 0


def cmd_bench(args, cfg: CliConfig) -> int:
    pairs = chain([(2, 2)], ((n, k) for n in range(3, args.max_n + 1) for k in (n, n + 1)))
    operands = []
    try:
        # price every product before timing any, so an absurd --max-n is refused at once
        for n, k in pairs:
            if k <= args.max_n:
                a, b = catalan.nabla_element(0, n), catalan.nabla_element(0, k)
                algebra.check_shuffle_cost(a, b)
                operands.append((n, k, a, b))
    except QShuffleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rows = []
    for n, k, a, b in operands:
        algebra.clear_caches()
        t0 = time.perf_counter()
        a.shuffle(b)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        a.shuffle(b)
        warm = time.perf_counter() - t0
        rows.append((f"nabla0_{n} * nabla0_{k}", cold, warm))
    t0 = time.perf_counter()
    series.delta_series(2, cfg.cutoff)
    rows.append((f"delta series m=2 cutoff={cfg.cutoff}", time.perf_counter() - t0, 0.0))
    lines = [f"{'operation':34s} {'cold(s)':>9s} {'warm(s)':>9s}"]
    for name, cold, warm in rows:
        lines.append(f"{name:34s} {cold:9.3f} {warm:9.3f}")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", help="JSON config file (or set QSHUFFLE_CONFIG)")
    common.add_argument("--cutoff", type=int, help="series truncation degree")
    common.add_argument("--m-min", dest="m_min", type=int, help="smallest parameter m")
    common.add_argument("--m-max", dest="m_max", type=int, help="largest parameter m")
    common.add_argument("--n-max", dest="n_max", type=int, help="largest family index n")
    common.add_argument(
        "--format",
        choices=("human", "json", "latex", "csv"),
        help="output format (default human)",
    )
    common.add_argument("--output", help="write output to this path instead of stdout")
    cache = common.add_mutually_exclusive_group()
    cache.add_argument("--cache", dest="cache", action="store_true", default=None)
    cache.add_argument("--no-cache", dest="cache", action="store_false", default=None)

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

    pl = sub.add_parser("plot", parents=[common], help="write an SVG of a word's lattice path")
    pl.add_argument("word")
    pl.add_argument("svg_path")

    t = sub.add_parser("table", parents=[common], help="export a scalar table")
    t.add_argument("family", choices=("delta", "nabla"))
    t.add_argument("m_min", type=int)
    t.add_argument("m_max", type=int)
    t.add_argument("n_max", type=int)

    b = sub.add_parser("bench", parents=[common], help="time representative products")
    b.add_argument("--max-n", dest="max_n", type=int, default=4)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute" and args.pos_n is not None and args.n is None:
        args.n = args.pos_n
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    algebra.set_cache_enabled(cfg.cache_enabled)
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "plot": cmd_plot,
        "table": cmd_table,
        "bench": cmd_bench,
    }
    return handlers[args.command](args, cfg)


if __name__ == "__main__":
    sys.exit(main())
