"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED T_SPAWN [--setup-only] [--check]
                                [--trace PATH]

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start. Until the first timed
operation the worker imports only the standard library and qshuffle, and
builds every input through the program. It then runs the workload's fixed
operation list once, timing each operation, and prints one JSON line.

With --check it also compares every output with the independent reference
(``reference.py``, ``parse.py``) or with a theorem of the paper, outside
the timed region; without it, it reports a digest of the outputs, which the
parent compares with the checked round's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))

# -- inputs ----------------------------------------------------------------------

M_RANGE = range(-3, 4)
SERIES_M = (-3, -2, -1, 1, 2, 3)
SERIES_CUTOFF = 6
PRODUCT_OPS = 40
PRODUCT_LETTERS = (13, 16)  # the band around the transient memo tier's 15 letters
PRODUCT_INTERLEAVINGS = (100_000, 1_500_000)  # per operation
SAMPLE_SIZE = 3  # products checked against the reference coefficient for coefficient
SAMPLE_MAX_INTERLEAVINGS = 150_000
VERIFY_ARGS = ["verify", "--all", "--format", "json", "--timings"]
CHECK_NAMES = (
    "qserre", "qint_identities", "structural", "nabla_recursion", "commutation",
    "yinv_calculus", "ode", "exp_theorem", "genfuns", "main_theorems",
    "expderivative", "zeta_suite",
)


def _interleavings(a, b, la: int, lb: int) -> int:
    return len(a) * len(b) * comb(la + lb, la)


def product_ops(members: dict, images: dict, seed: int) -> list:
    """A seeded list of (kind, left, right, sampled).

    An operand is (key, is_image, k): the member or its y^-1 image, times
    q^k. The pairs are fixed: every product a*b, y^-1(a)*b and commutator
    a*b - b*a whose total word length lies in PRODUCT_LETTERS, sorted by
    interleaving count, cut into PRODUCT_OPS strata of equal size, one pair
    drawn from each, in a fixed order, with a fixed sample of products to
    check coefficient for coefficient. The seed picks each operand's power
    of q, which shifts exponents and leaves the work unchanged. Drawing the
    pairs by seed moved wall time by 10-15% between seeds, and flipping a*b
    to b*a moved peak RSS by 5%; the memo also makes an operation's time
    depend on what ran before it, hence the fixed order.
    """
    lo, hi = PRODUCT_LETTERS
    cands = []
    for ka in sorted(members):
        for kb in sorted(members):
            na, nb = ka[2], kb[2]
            a, b = members[ka], members[kb]
            if lo <= 2 * (na + nb) <= hi:
                cost = _interleavings(a, b, 2 * na, 2 * nb)
                cands.append((cost, "prod", (ka, False), (kb, False)))
                if ka < kb:
                    cands.append((2 * cost, "comm", (ka, False), (kb, False)))
            if ka in images and lo <= 2 * (na + nb) - 1 <= hi:
                cost = _interleavings(images[ka], b, 2 * na - 1, 2 * nb)
                cands.append((cost, "prod", (ka, True), (kb, False)))
    lo_cost, hi_cost = PRODUCT_INTERLEAVINGS
    cands = sorted(c for c in cands if lo_cost <= c[0] <= hi_cost)
    pick = random.Random("products")
    step = len(cands) / PRODUCT_OPS
    fixed = [cands[int(i * step) + pick.randrange(int(step))] for i in range(PRODUCT_OPS)]
    pick.shuffle(fixed)
    sample = set(pick.sample(
        [i for i, (cost, kind, _, _) in enumerate(fixed)
         if kind == "prod" and cost <= SAMPLE_MAX_INTERLEAVINGS],
        SAMPLE_SIZE,
    ))
    rng = random.Random(seed)
    return [
        (kind, left + (rng.randint(-3, 3),), right + (rng.randint(-3, 3),), i in sample)
        for i, (_, kind, left, right) in enumerate(fixed)
    ]


def cli_requests(seed: int) -> list:
    """A seeded list of CLI argument lists.

    Twenty-four tiny requests (n <= 3, work far below interpreter start-up) set
    the median; the seed picks their family, m and n. The heavier requests
    come in slots of fixed cost: where the seed chooses, it chooses among
    requests that do the same work (C_n is Delta^(2)_n, and D_n is
    Delta^(1)_n up to sign). The seed also sets the order.
    """
    rng = random.Random(seed)

    def fam(m, n):
        return ["compute", rng.choice(("delta", "nabla")), "--m", str(m), "--n", str(n)]

    def same_work(named, m, n, fmt=()):
        pick = rng.choice((["compute", named, str(n)], ["compute", "delta", "--m", str(m), "--n", str(n)]))
        return pick + list(fmt)

    def series(m, c):
        return ["compute", "series:delta", "--m", str(m), "--cutoff", str(c)]

    def table(m_min, n_max):
        return ["table", rng.choice(("delta", "nabla")), str(m_min), str(m_min + 3), str(n_max),
                "--format", "csv"]

    out = []
    for _ in range(16):
        n = rng.choice((2, 3))
        out.append(["compute", rng.choice("CD"), str(n)] if rng.random() < 0.25
                   else fam(rng.choice(M_RANGE), n))
    out += [series(rng.choice(M_RANGE), 3) for _ in range(4)]
    out += [table(rng.randint(-3, 0), 3) for _ in range(4)]
    out += [fam(rng.choice(M_RANGE), 4), fam(rng.choice(M_RANGE), 4)]
    out += [series(rng.choice(M_RANGE), 4), table(rng.randint(-3, 0), 4)]
    for n in (5, 6, 7):
        out += [same_work("C", 2, n), same_work("D", 1, n)]
    out += [series(rng.choice((-3, 1)), 5), table(rng.choice((-3, -2)), 5), series(rng.choice((-3, 1)), 6)]
    out += [["compute", "delta", "--m", "-3", "--n", "7"], ["compute", "delta", "--m", "-3", "--n", "8"]]
    json_fmt = ("--format", "json")
    out += [same_work("C", 2, 9, json_fmt), same_work("D", 1, 9, json_fmt)]
    out += [["compute", "delta", "--m", "-3", "--n", "10", *json_fmt]]
    rng.shuffle(out)
    return out


# -- workloads ---------------------------------------------------------------------
#
# setup(seed) builds the inputs through the program and returns a list of
# (label, thunk) operations plus the state that ``keep`` and the checks need.


def setup_verify(seed):
    from qshuffle import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(VERIFY_ARGS)
        return rc, buf.getvalue()

    return [("verify --all", run)], {}


def setup_products(seed):
    from qshuffle import catalan
    from qshuffle.qlaurent import q_pow

    members, images = {}, {}
    for fam in ("delta", "nabla"):
        build = catalan.delta_element if fam == "delta" else catalan.nabla_element
        for m in M_RANGE:
            for n in range(1, 6):
                el = build(m, n)
                if not el.is_zero():
                    members[(fam, m, n)] = el
                    img = el.y_inverse()
                    if not img.is_zero():
                        images[(fam, m, n)] = img

    def operand(spec):
        key, image, k = spec
        return (images[key] if image else members[key]).scale(q_pow(k))

    ops, plan, sample = [], [], set()
    for kind, left, right, sampled in product_ops(members, images, seed):
        a, b = operand(left), operand(right)
        if kind == "prod":
            run = lambda a=a, b=b: a.shuffle(b)  # noqa: E731
        else:
            run = lambda a=a, b=b: a.shuffle(b) - b.shuffle(a)  # noqa: E731
        label = f"{kind} {left} {right}"
        ops.append((label, run))
        plan.append((kind, left, right))
        if sampled:
            sample.add(label)
    return ops, {"members": members, "images": images, "plan": plan, "sample": sample}


def setup_series(seed):
    from qshuffle import series
    from qshuffle.qlaurent import q_pow

    N = SERIES_CUTOFF
    arg = {m: series.beck_log_argument(m, N) for m in SERIES_M}
    delta = {m: series.delta_series(m, N) for m in SERIES_M}
    gt, dt = series.gtilde_series(N), series.d_series(N)

    def fold(base, m):
        prod = None
        for i in range(m):
            fac = base.rescale_t(q_pow(m - 1 - 2 * i).scale(-1))
            prod = fac if prod is None else prod.star_mul(fac)
        return prod

    run = {
        "exp": lambda m: arg[m].exp(),
        "log": lambda m: delta[m].log(),
        "inverse": lambda m: delta[m].inverse(),
        "gtilde_product": lambda m: fold(gt, m),
        "d_product": lambda m: fold(dt, m),
    }
    plan = [(kind, m) for m in SERIES_M for kind in ("exp", "log", "inverse")]
    plan += [(kind, m) for m in (1, 2, 3) for kind in ("gtilde_product", "d_product")]
    ops = [(f"{kind} m={m}", lambda kind=kind, m=m: run[kind](m)) for kind, m in plan]
    return ops, {"arg": arg, "delta": delta, "plan": plan}


def setup_cli(seed, trace_dir=None):
    import qshuffle.cli  # noqa: F401  the start-up every request pays

    ops, requests = [], cli_requests(seed)
    for i, args in enumerate(requests):
        if trace_dir:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"),
                   os.path.join(trace_dir, f"request-{i}.json"), "--"] + args
        else:
            cmd = [sys.executable, "-m", "qshuffle.cli"] + args

        def run(cmd=cmd):
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            return p.returncode, p.stdout, p.stderr

        ops.append((" ".join(args), run))
    return ops, {"requests": requests}


SETUPS = {
    "verify_default": setup_verify,
    "products": setup_products,
    "series_calculus": setup_series,
    "cli_requests": setup_cli,
}


# -- outputs: what is kept, and its digest ---------------------------------------------


def keep(workload, label, out, state):
    """The part of one output that the digest and the checks need."""
    if workload == "products":
        if label in state["sample"]:
            return {"terms": [(str(w), c.to_json()) for w, c in out.terms()]}
        aug: dict = {}
        for _, c in out.terms():
            for e, v in c.terms():
                aug[e] = aug.get(e, 0) + v
        return {"len": len(out), "aug": sorted((e, str(v)) for e, v in aug.items() if v)}
    if workload == "series_calculus":
        return out.to_json()
    if workload == "verify_default":
        rc, text = out
        reports = json.loads(text)
        for r in reports:
            r.pop("elapsed", None)
        return rc, reports
    return out[0], out[1]


def digest(kept) -> str:
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(SETUPS))
    p.add_argument("seed", type=int)
    p.add_argument("t_spawn", type=float)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--trace", help="write spans to this file (cli_requests: a directory)")
    a = p.parse_args(argv)

    tracer = None
    if a.trace and a.workload != "cli_requests":
        import spans

        tracer = spans.install(a.trace)
    if a.workload == "cli_requests":
        ops, state = setup_cli(a.seed, a.trace)
    else:
        ops, state = SETUPS[a.workload](a.seed)
    t_first = time.monotonic()
    result = {"setup_s": t_first - a.t_spawn}
    if a.setup_only:
        print(json.dumps(result))
        return 0

    op_s, kept, failed = [], [], 0
    for label, run in ops:
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # an operation that raises counts as failed
            op_s.append(time.perf_counter() - t0)
            failed += 1
            kept.append(None)
            print(f"operation {label!r} failed: {exc!r}", file=sys.stderr)
            continue
        op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if a.workload == "cli_requests" and out[0] != 0:
            failed += 1
            print(f"request {label!r} exited {out[0]}: {out[2][-500:]}", file=sys.stderr)
        kept.append(keep(a.workload, label, out, state))
        del out
        if tracer is not None:
            tracer.active = True
    if tracer is not None:
        tracer.active = False
    usage = resource.RUSAGE_CHILDREN if a.workload == "cli_requests" else resource.RUSAGE_SELF
    result.update(
        op_s=op_s,
        wall_s=sum(op_s),
        rss_mb=resource.getrusage(usage).ru_maxrss / 1024,
        attempted=len(ops),
        failed=failed,
        digest=digest(kept),
    )
    if a.check:
        import oracle

        problems = oracle.CHECKERS[a.workload]([lbl for lbl, _ in ops], kept, state)
        for msg in problems[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        result["correct"] = not problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
