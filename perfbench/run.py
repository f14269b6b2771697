"""Run one qshuffle benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qshuffle checkout; the program is imported from
``src``. Each round of a workload is a fresh ``worker.py`` process that sets
up its inputs through the program and runs the workload's fixed operation
list once. With ``--trace 0`` the run makes as many rounds as fit in about
S seconds, plus set-up-only processes, and prints the end-to-end metrics;
the first round checks every output and later rounds must reproduce its
digest. With ``--trace 1`` it makes one plain and one traced round and
prints the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from worker import CHECK_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench"

# Nominal time of one round on a 2-core x86 machine with Python 3.11; the
# number of rounds is S divided by this, so a run measures about S seconds.
ROUND_S = {"verify_default": 15.0, "products": 6.0, "series_calculus": 5.0, "cli_requests": 6.5}
SETUP_SAMPLES = 11  # set-up times per run: one per round, the rest set-up-only
WORKER_TIMEOUT_S = 150

# per-layer metric -> (span name, field, unit)
LAYER_METRICS = {
    "algebra.shuffle.calls": ("algebra.shuffle", "calls", "count"),
    "algebra.shuffle.s": ("algebra.shuffle", "s", "s"),
    "algebra.shuffle.word_pairs": ("algebra.shuffle", "word_pairs", "count"),
    "algebra.shuffle.interleavings": ("algebra.shuffle", "interleavings", "count"),
    "algebra.shuffle.out_terms": ("algebra.shuffle", "out_terms", "count"),
    "series.star_mul.calls": ("series.star_mul", "calls", "count"),
    "series.star_mul.self_s": ("series.star_mul", "self_s", "s"),
    "series.exp.s": ("series.exp", "s", "s"),
    "series.log.s": ("series.log", "s", "s"),
    "series.inverse.s": ("series.inverse", "s", "s"),
    "qlaurent.mul.calls": ("qlaurent.mul", "calls", "count"),
    "qlaurent.mul.s": ("qlaurent.mul", "s", "s"),
    "catalan.build.calls": ("catalan.build", "calls", "count"),
    "catalan.build.s": ("catalan.build", "s", "s"),
    "catalan.words_scanned": ("catalan.build", "words_scanned", "count"),
    "catalan.words_kept": ("catalan.build", "words_kept", "count"),
    "words.enumerate.s": ("words.enumerate", "s", "s"),
    "render.element_str.s": ("render.element_str", "s", "s"),
    "render.table.s": ("render.table", "s", "s"),
    "render.json.s": ("render.json", "s", "s"),
    **{f"checks.{c}.s": (f"checks.{c}", "s", "s") for c in CHECK_NAMES},
}
RENDER_SPANS = ("render.element_str", "render.table", "render.json")


class BenchError(RuntimeError):
    pass


def percentile(values, p):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, *flags, deadline):
    """Run one worker process and return its JSON result."""
    cmd = [sys.executable, WORKER, workload, str(seed)]
    timeout = min(WORKER_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before the next round")
    t_spawn = time.monotonic()
    p = subprocess.run(
        cmd + [repr(t_spawn), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        timeout=timeout,
    )
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"worker {workload} {' '.join(flags)} exited {p.returncode}")
    return json.loads(lines[-1])


def rounds(workload, seed, n, deadline):
    """n rounds; the first checks its outputs, the others must match its digest."""
    out = [spawn(workload, seed, "--check", deadline=deadline)]
    for _ in range(n - 1):
        out.append(spawn(workload, seed, deadline=deadline))
    return out


def verdict(results):
    same = all(r["digest"] == results[0]["digest"] for r in results)
    if not same:
        print("a later round's outputs differ from the checked round's", file=sys.stderr)
    return bool(results[0].get("correct")) and same, sum(r["attempted"] for r in results), sum(
        r["failed"] for r in results
    )


def end_to_end(workload, seed, seconds, deadline):
    n = max(1, round(seconds / ROUND_S[workload]))
    results = rounds(workload, seed, n, deadline)
    setups = [r["setup_s"] for r in results]
    for _ in range(SETUP_SAMPLES - n):
        setups.append(spawn(workload, seed, "--setup-only", deadline=deadline)["setup_s"])
    # Each operation's time is its median over the rounds, which drops a
    # garbage-collection pause or a slow spell that hit it in one round only.
    per_op = [statistics.median(ts) for ts in zip(*(r["op_s"] for r in results))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "op_p50_ms": (1000 * percentile(per_op, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(per_op, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    return verdict(results), metrics


def load_spans(path):
    """Span aggregates from one trace file, or from every file in a directory."""
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))
    ]
    stats, top = {}, []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            data = json.load(fh)
        top.append(data["top_covered_s"])
        for name, s in data["stats"].items():
            acc = stats.setdefault(name, {})
            for k, v in s.items():
                acc[k] = acc.get(k, 0) + v
    return stats, top


def per_layer(workload, seed, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"trace-{workload}-", dir=OUT_DIR)
    try:
        if workload == "cli_requests":
            target = tmp
        else:
            target = os.path.join(tmp, "spans.json")
        plain = spawn(workload, seed, "--check", deadline=deadline)
        traced = spawn(workload, seed, "--trace", target, deadline=deadline)
        stats, top = load_spans(target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {}
    for name, (span, field, unit) in LAYER_METRICS.items():
        metrics[name] = (stats.get(span, {}).get(field, 0), unit)
    metrics["render.coeffs"] = (sum(stats.get(s, {}).get("coeffs", 0) for s in RENDER_SPANS), "count")
    # a request's time outside the top-level spans (catalan, render, ...) is the CLI's own
    cli_self = sum(traced["op_s"]) - sum(top) if workload == "cli_requests" else 0.0
    metrics["cli.self_s"] = (cli_self, "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return verdict([plain, traced]), metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    deadline = time.monotonic() + 170
    if not os.path.isfile(os.path.join("src", "qshuffle", "__init__.py")):
        print("error: run from the root of a qshuffle checkout (no src/qshuffle)", file=sys.stderr)
        return 2
    # compile the package once, untimed, so no set-up sample pays for bytecode
    warm = subprocess.run([sys.executable, "-c", "import qshuffle.cli"], env=child_env())
    if warm.returncode != 0:
        print("error: cannot import qshuffle from src", file=sys.stderr)
        return 2
    try:
        if a.trace:
            (correct, attempted, failed), metrics = per_layer(a.workload, a.seed, deadline)
        else:
            (correct, attempted, failed), metrics = end_to_end(
                a.workload, a.seed, a.seconds, deadline
            )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6f} {unit}" if unit != "count" else f"{name:32s} {value:>16d} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
