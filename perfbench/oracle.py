"""Checks of each workload's outputs, run outside the timed region.

Each checker takes the operation labels, what the worker kept of each
output, and the workload's state, and returns a list of problems (empty
when every output is right). Outputs are compared with ``reference``,
which shares no arithmetic with qshuffle, or with a theorem of the paper.
"""

from __future__ import annotations

from fractions import Fraction

import parse
import reference as ref
from worker import CHECK_NAMES, SERIES_CUTOFF, SERIES_M


def as_dict(el) -> dict:
    """A qshuffle Element as {word: poly}, read through its public terms()."""
    return {str(w): ref.pnorm(dict(c.terms())) for w, c in el.terms()}


def check_verify(labels, kept, state) -> list:
    problems = []
    rc, reports = kept[0]
    names = tuple(r["check"] for r in reports)
    if rc != 0:
        problems.append(f"verify exited {rc}")
    if names != CHECK_NAMES:
        problems.append(f"verify reported {names}")
    for r in reports:
        if r["status"] != "pass" or r["witness"] is not None:
            problems.append(f"{r['check']} reported {r['status']}")
    problems += negative_control()
    return problems


def negative_control() -> list:
    """A perturbed Delta^(2)_2 must turn a consuming check red with a witness."""
    from qshuffle import Element, VerifyConfig, run_all

    hits = []

    def bump(family, m, n, el):
        if (family, m, n) == ("delta", 2, 2):
            hits.append(n)
            return el + Element.from_word("xyxy")
        return el

    cfg = VerifyConfig(m_min=2, m_max=2, n_max=3, cutoff=3, perturb=bump)
    reports = run_all(cfg, names=["nabla_recursion", "commutation", "exp_theorem"])
    red = [r for r in reports if not r.passed and r.witness and not r.witness.diff.is_zero()]
    if not hits:
        return ["negative control: the perturbed member was never built"]
    if not red:
        return ["negative control: no check noticed the perturbed Delta^(2)_2"]
    return []


def _aug(pairs) -> dict:
    return ref.pnorm({e: Fraction(v) for e, v in pairs})


def check_products(labels, kept, state) -> list:
    problems = []
    members = {k: ref.family(*k) for k in state["members"]}
    for k, el in state["members"].items():
        if as_dict(el) != members[k]:
            problems.append(f"member {k} differs from the reference")
        if k in state["images"] and as_dict(state["images"][k]) != ref.y_inverse(members[k]):
            problems.append(f"y^-1 image of {k} differs from the reference")
    def operand(spec):
        key, image, k = spec
        el = ref.y_inverse(members[key]) if image else members[key]
        return {w: {e + k: c for e, c in p.items()} for w, p in el.items()}

    for label, (kind, left, right), k in zip(labels, state["plan"], kept):
        a, b = operand(left), operand(right)
        if k is None:  # raised; counted as failed
            continue
        if kind == "comm":
            # every family member lies in the commutative subalgebra
            if k["len"]:
                problems.append(f"{label} is not zero ({k['len']} words)")
        elif "terms" in k:
            got = {w: parse.json_poly(c) for w, c in k["terms"]}
            if got != ref.element_shuffle(a, b):
                problems.append(f"{label} differs from the reference shuffle")
        elif _aug(k["aug"]) != ref.pnorm(ref.element_augmentation(a, b)):
            problems.append(f"{label}: augmentation differs from S(u, v)")
    return problems


def check_series(labels, kept, state) -> list:
    problems = []
    N = SERIES_CUTOFF
    delta = {m: [ref.family("delta", m, n) for n in range(N + 1)] for m in SERIES_M}
    arg = {m: ref.beck_argument(m, N) for m in SERIES_M}
    for m in SERIES_M:
        if [as_dict(c) for c in state["delta"][m].coeffs] != delta[m]:
            problems.append(f"Delta^({m})(t) differs from the evaluator")
        if [as_dict(c) for c in state["arg"][m].coeffs] != arg[m]:
            problems.append(f"A_{m} differs from the reference")
    # exp A_m = Delta^(m)(t), log Delta^(m)(t) = A_m, inverse = Delta^(-m)(t),
    # and the m-fold rescaled products give Delta^(-m)(t) and Delta^(m)(t)
    want = {
        "exp": lambda m: delta[m],
        "log": lambda m: arg[m],
        "inverse": lambda m: delta[-m],
        "gtilde_product": lambda m: delta[-m],
        "d_product": lambda m: delta[m],
    }
    for label, (kind, m), k in zip(labels, state["plan"], kept):
        if k is not None and [parse.json_element(c) for c in k["coeffs"]] != want[kind](m):
            problems.append(f"{label} differs from the theorem's other side")
    return problems


def _expected_cli(args):
    """The reference value of one request: ("element" | "series" | "table", value)."""
    if args[0] == "table":
        family, m_min, m_max, n_max = args[1], int(args[2]), int(args[3]), int(args[4])
        rows = {}
        for n in range(0 if family == "delta" else 1, n_max + 1):
            for w in ref.catalan_words(n):
                rows[w] = [ref.coefficient(family, m, w) for m in range(m_min, m_max + 1)]
        return "table", (list(range(m_min, m_max + 1)), rows)
    kind = args[1]
    opt = dict(zip(args[2::2], args[3::2]))
    if kind.startswith("series:"):
        m, c = int(opt["--m"]), int(opt["--cutoff"])
        return "series", [ref.family("delta", m, n) for n in range(c + 1)]
    if kind in ("C", "D"):
        return "element", ref.family(kind, 0, int(args[2]))
    return "element", ref.family(kind, int(opt["--m"]), int(opt["--n"]))


def check_cli(labels, kept, state) -> list:
    problems = []
    for args, k in zip(state["requests"], kept):
        label = " ".join(args)
        if k is None or k[0] != 0:  # counted as failed
            continue
        out = k[1]
        shape, want = _expected_cli(args)
        try:
            if shape == "table":
                got = parse.table_csv(out)
            elif "json" in args:
                got = parse.json_output(out)
            elif shape == "series":
                got = parse.human_series(out)
            else:
                got = parse.human_element(out)
        except (parse.ParseError, ValueError, KeyError) as exc:
            problems.append(f"{label}: unreadable output ({exc})")
            continue
        if shape == "series":
            got = got + [{}] * (len(want) - len(got))
        if got != want:
            problems.append(f"{label}: output differs from the reference evaluator")
    return problems


CHECKERS = {
    "verify_default": check_verify,
    "products": check_products,
    "series_calculus": check_series,
    "cli_requests": check_cli,
}
