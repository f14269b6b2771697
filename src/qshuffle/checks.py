"""The identity-verification suite.

Each named check evaluates one family of identities exactly over a finite
grid and reports pass, or the first failure (smallest degree first) with
the nonzero symbolic difference as witness. There are no tolerances
anywhere: pass means the difference is the zero element or zero series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import catalan, words as W
from .algebra import Element, X_EL, XY_EL, Y_EL, commutator_x, shuffle_fold, shuffle_pair
from .qlaurent import LaurentPoly, Q_COMM, q_int, q_pow
from .series import Series, family_series, log_argument


@dataclass
class Witness:
    description: str
    m: Optional[int]
    n: Optional[int]
    diff: Element

    def to_json(self):
        return {
            "description": self.description,
            "m": self.m,
            "n": self.n,
            "diff": self.diff.to_json(),
        }


@dataclass
class CheckReport:
    name: str
    params: dict
    status: str  # "pass", "fail", or "empty" when no identity was evaluated
    witness: Optional[Witness]
    elapsed: float
    evaluated: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, timings: bool = False):
        out = {
            "check": self.name,
            "params": self.params,
            "status": self.status,
            "witness": self.witness.to_json() if self.witness else None,
        }
        if timings:
            out["elapsed"] = round(self.elapsed, 3)
            out["evaluated"] = self.evaluated
        return out

    def line(self) -> str:
        tail = ""
        if self.witness:
            tail = f"  [{self.witness.description}; m={self.witness.m} n={self.witness.n}]"
        return f"{self.status.upper():4s}  {self.name}  ({self.elapsed:.2f}s){tail}"


@dataclass
class VerifyConfig:
    m_min: int = -3
    m_max: int = 3
    n_max: int = 5
    cutoff: int = 5
    pair_degree_cap: int = 6   # total degree for cross-family commutation pairs
    main_m_max: int = 3        # factor count for the factorization theorem
    main_cutoff: int = 4
    qmn_m_max: int = 5
    qmn_n_max: int = 4
    qint_grid: int = 6
    # optional hook (family, m, n, element) -> element, used by negative controls;
    # family is one of catalan.FAMILIES: "delta" and "nabla" with an integer m,
    # "C", "D", "Gtilde" and "xCny" with m = None
    perturb: Optional[Callable] = None

    def m_range(self):
        return range(self.m_min, self.m_max + 1)


class CheckContext:
    """Caches the family members for one run and applies the perturb hook.

    run_all shares one context among all its checks, so each member is
    built and perturbed once per run. Pass ctx.member to series.family_series
    and series.log_argument for series built from the same members.
    """

    def __init__(self, cfg: VerifyConfig):
        self.cfg = cfg
        self._cache: dict = {}

    def member(self, family: str, m, n: int) -> Element:
        key = (family, m, n)
        el = self._cache.get(key)
        if el is None:
            el = catalan.member(family, m, n)
            if self.cfg.perturb is not None:
                el = self.cfg.perturb(family, m, n, el)
            self._cache[key] = el
        return el


class _Run:
    """Collects the first (minimal-degree) failure of one check and counts
    the identity instances it compared; a run that compared none is "empty"."""

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.t0 = time.perf_counter()
        self.witness: Optional[Witness] = None
        self.evaluated = 0

    def ok(self) -> bool:
        return self.witness is None

    def tally(self, holds: bool) -> bool:
        """Count one compared identity instance; returns whether it holds."""
        self.evaluated += 1
        return holds

    def require_zero(self, diff, description, m=None, n=None) -> bool:
        """Record a witness if diff is nonzero; returns True when zero."""
        if isinstance(diff, Series):
            for deg, el in enumerate(diff.coeffs):
                if not self.tally(el.is_zero()):
                    self.witness = Witness(f"{description} (t^{deg})", m, n, el)
                    return False
            return True
        if self.tally(diff.is_zero()):
            return True
        self.witness = Witness(description, m, n, diff)
        return False

    def report(self) -> CheckReport:
        elapsed = time.perf_counter() - self.t0
        if self.witness is not None:
            status = "fail"
        elif self.evaluated == 0:
            status = "empty"
        else:
            status = "pass"
        return CheckReport(self.name, self.params, status, self.witness, elapsed, self.evaluated)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def check_qserre(
    cfg: VerifyConfig = None, third_coeff: LaurentPoly = None, ctx: CheckContext = None
) -> CheckReport:
    """Both shuffle images of the degree-4 defining relations vanish."""
    run = _Run("qserre", {})
    c = q_int(3) if third_coeff is None else third_coeff
    for first, second, label in ((X_EL, Y_EL, "x-leading"), (Y_EL, X_EL, "y-leading")):
        a, b = first, second
        t1 = shuffle_fold([a, a, a, b])
        t2 = shuffle_fold([a, a, b, a]).scale(c)
        t3 = shuffle_fold([a, b, a, a]).scale(c)
        t4 = shuffle_fold([b, a, a, a])
        if not run.require_zero(t1 - t2 + t3 - t4, f"serre relation ({label})", n=4):
            break
    return run.report()


def check_nabla_recursion(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """One-step recursions: both families, both the x- and the mirrored y-form,
    plus the m = 0 specialization for the free products x C_n."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run("nabla_recursion", {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max})
    for n in range(0, cfg.n_max):
        for m in cfg.m_range():
            dn = member("delta", m, n)
            lhs = member("delta", m, n + 1)
            rec_x = commutator_x(m, dn) * Y_EL
            if not run.require_zero(lhs - rec_x, "delta recursion, x form", m, n + 1):
                return run.report()
            dy, yd = shuffle_pair(dn, Y_EL)
            rec_y = X_EL * (dy.scale(q_pow(m)) - yd.scale(q_pow(-m))).div_exact(Q_COMM)
            if not run.require_zero(lhs - rec_y, "delta recursion, y form", m, n + 1):
                return run.report()
            if n >= 1:
                nn = member("nabla", m, n)
                nlhs = member("nabla", m, n + 1)
                nrec_x = commutator_x(m, nn) * Y_EL
                if not run.require_zero(nlhs - nrec_x, "nabla recursion, x form", m, n + 1):
                    return run.report()
                ny, yn = shuffle_pair(nn, Y_EL)
                nrec_y = X_EL * (ny.scale(q_pow(m)) - yn.scale(q_pow(-m))).div_exact(Q_COMM)
                if not run.require_zero(nlhs - nrec_y, "nabla recursion, y form", m, n + 1):
                    return run.report()
    for n in range(1, cfg.n_max):
        # x C_n = (x * xC_(n-1)y - xC_(n-1)y * x)/(q - q^-1)
        body = member("xCny", None, n)
        rec = commutator_x(0, body)
        lhs = X_EL * member("C", None, n)
        if not run.require_zero(lhs - rec, "free-product recursion at m=0", 0, n):
            return run.report()
    # the commutator realizes the weighted single-insertion sum on words
    for n in range(1, min(cfg.n_max, 3) + 1):
        for w in W.enumerate_catalan(n):
            base = Element.from_word(w)
            for m in cfg.m_range():
                ins = Element.zero()
                prefix = 0
                s = str(w)
                for i in range(2 * n + 1):
                    ins = ins + Element.from_word(
                        s[:i] + "x" + s[i:], q_int(m + 2 * prefix)
                    )
                    if i < 2 * n:
                        prefix += 1 if s[i] == "x" else -1
                got = commutator_x(m, base)
                if not run.require_zero(got - ins, "single-insertion expansion", m, n):
                    return run.report()
    return run.report()


def check_commutation(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """xy commutes with every family member; the m = 0 family commutes
    pairwise; cross-family pairs commute up to the configured total degree."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run(
        "commutation",
        {
            "m": [cfg.m_min, cfg.m_max],
            "n_max": cfg.n_max,
            "pair_degree_cap": cfg.pair_degree_cap,
        },
    )
    for n in range(0, cfg.n_max + 1):
        for m in cfg.m_range():
            xyd, dxy = shuffle_pair(XY_EL, member("delta", m, n))
            if not run.require_zero(xyd - dxy, "xy commutation (delta)", m, n):
                return run.report()
            if n >= 1:
                xyn, nxy = shuffle_pair(XY_EL, member("nabla", m, n))
                if not run.require_zero(xyn - nxy, "xy commutation (nabla)", m, n):
                    return run.report()
    for k in range(2, cfg.n_max + 1):
        for n in range(1, k):
            ab, ba = shuffle_pair(member("nabla", 0, n), member("nabla", 0, k))
            if not run.require_zero(ab - ba, f"m=0 family pair ({n},{k})", 0, n + k):
                return run.report()
    # cross-family grid, bounded in total degree, scanned degree-ascending
    members = []
    for m in cfg.m_range():
        for n in range(1, cfg.n_max + 1):
            members.append(("delta", m, n))
            members.append(("nabla", m, n))
    pairs = [
        (a, b)
        for i, a in enumerate(members)
        for b in members[i + 1:]
        if a[2] + b[2] <= cfg.pair_degree_cap
    ]
    pairs.sort(key=lambda p: (p[0][2] + p[1][2], p))
    for (fam_a, ma, na), (fam_b, mb, nb) in pairs:
        a = member(fam_a, ma, na)
        b = member(fam_b, mb, nb)
        ab, ba = shuffle_pair(a, b)
        if not run.require_zero(
            ab - ba,
            f"{fam_a}({ma},{na}) vs {fam_b}({mb},{nb})",
            ma,
            na + nb,
        ):
            return run.report()
    return run.report()


def check_yinv_calculus(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The y^-1 / x^-1 calculus: commutator reformulations, the one-step and
    the (n, k) truncated recursions, the weighted convolution identities, and
    their generating-function forms."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run(
        "yinv_calculus",
        {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max, "cutoff": cfg.cutoff},
    )

    for n in range(0, cfg.n_max + 1):
        for m in cfg.m_range():
            for fam, start in (("delta", 0), ("nabla", 1)):
                if n < start:
                    continue
                u = member(fam, m, n)
                uy = u.y_inverse()
                xu, ux = shuffle_pair(X_EL, u)
                uyxy, xyuy = shuffle_pair(uy, XY_EL)
                lhs = xu - ux
                rhs = uyxy - xyuy
                if not run.require_zero(lhs - rhs, f"commutator via y^-1 ({fam})", m, n):
                    return run.report()

    for n in range(1, cfg.n_max):
        nn = member("nabla", 0, n)
        ny = nn.y_inverse()
        target = member("nabla", 0, n + 1).y_inverse()
        xn, nx = shuffle_pair(X_EL, nn)
        one = (xn - nx).div_exact(Q_COMM)
        if not run.require_zero(target - one, "one-step truncated recursion (i)", 0, n + 1):
            return run.report()
        nyxy, xyny = shuffle_pair(ny, XY_EL)
        two = (nyxy - xyny).div_exact(Q_COMM)
        if not run.require_zero(target - two, "one-step truncated recursion (ii)", 0, n + 1):
            return run.report()

    for total in range(2, 2 * cfg.n_max + 1):
        for n in range(1, cfg.n_max + 1):
            k = total - n
            if not 1 <= k <= cfg.n_max:
                continue
            ny = member("nabla", 0, n).y_inverse()
            nk = member("nabla", 0, k)
            nynk, nkny = shuffle_pair(ny, nk)
            rhs = (nynk - nkny).div_exact(Q_COMM)
            # the (5, 5) pair sets the peak memory of verify --all: drop each
            # pair before building its left side, and both sides before the
            # next pair
            del nynk, nkny
            lhs = member("nabla", 0, n + k).y_inverse()
            if not run.require_zero(lhs - rhs, f"(n,k) truncated recursion ({n},{k})", 0, n + k):
                return run.report()
            del lhs, rhs

    for n in range(0, cfg.n_max):
        for m in cfg.m_range():
            target = member("delta", m, n + 1).y_inverse()
            s1 = Element.zero()
            s2 = Element.zero()
            for k in range(0, n + 1):
                nky = member("nabla", 0, k + 1).y_inverse()
                dk = member("delta", m, n - k)
                nkyd, dnky = shuffle_pair(nky, dk)
                s1 = s1 + nkyd.scale(q_pow(-m * k))
                s2 = s2 + dnky.scale(q_pow(m * k))
            if not run.require_zero(
                target - s1.scale(q_int(m)), "weighted convolution (i)", m, n + 1
            ):
                return run.report()
            if not run.require_zero(
                target - s2.scale(q_int(m)), "weighted convolution (ii)", m, n + 1
            ):
                return run.report()

    N = cfg.cutoff
    nab_t = family_series("nabla", 0, N, member)
    for m in cfg.m_range():
        dt = family_series("delta", m, N, member)
        dty = dt.apply_y_inverse()
        pref = q_pow(m) * q_int(m)
        rhs1 = nab_t.rescale_t(q_pow(-m)).apply_y_inverse().star_mul(dt).scale(pref)
        if not run.require_zero(dty - rhs1, "series y^-1 form (i)", m, None):
            return run.report()
        pref2 = q_pow(-m) * q_int(m)
        rhs2 = dt.star_mul(nab_t.rescale_t(q_pow(m)).apply_y_inverse()).scale(pref2)
        if not run.require_zero(dty - rhs2, "series y^-1 form (ii)", m, None):
            return run.report()
        dtx = dt.apply_x_inverse()
        rhs3 = dt.star_mul(nab_t.rescale_t(q_pow(-m)).apply_x_inverse()).scale(pref)
        if not run.require_zero(dtx - rhs3, "series x^-1 form (iii)", m, None):
            return run.report()
        rhs4 = nab_t.rescale_t(q_pow(m)).apply_x_inverse().star_mul(dt).scale(pref2)
        if not run.require_zero(dtx - rhs4, "series x^-1 form (iv)", m, None):
            return run.report()
    return run.report()


def check_ode(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The t-derivative identity and both generating-function recursions."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run("ode", {"m": [cfg.m_min, cfg.m_max], "cutoff": cfg.cutoff})
    N = cfg.cutoff
    nab_t = family_series("nabla", 0, N, member)

    tx = Series([Element.zero(), X_EL], N)
    lhs = nab_t.apply_y_inverse()
    rhs = tx + (tx.star_mul(nab_t) - nab_t.star_mul(tx)).div_exact(Q_COMM)
    if not run.require_zero(lhs - rhs, "m=0 generating-function recursion"):
        return run.report()

    for m in cfg.m_range():
        dt = family_series("delta", m, N, member)
        lhs = dt.apply_y_inverse()
        rhs = (
            tx.star_mul(dt).scale(q_pow(m)) - dt.star_mul(tx).scale(q_pow(-m))
        ).div_exact(Q_COMM)
        if not run.require_zero(lhs - rhs, "generating-function recursion", m, None):
            return run.report()

        deriv = dt.derivative()
        diff = nab_t.rescale_t(q_pow(m)) - nab_t.rescale_t(q_pow(-m))
        kernel = diff.divide_t().div_exact(Q_COMM)
        rhs_ode = kernel.star_mul(dt.truncate(N - 1))
        if not run.require_zero(deriv - rhs_ode, "derivative identity", m, None):
            return run.report()
    return run.report()


def check_exp_theorem(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The family's generating function equals the exponential of the weighted
    m = 0 series; verified by exponentiating and, independently, by taking log."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run("exp_theorem", {"m": [cfg.m_min, cfg.m_max], "cutoff": cfg.cutoff})
    N = cfg.cutoff
    for m in cfg.m_range():
        arg = log_argument(m, N, "nabla", member)
        dt = family_series("delta", m, N, member)
        if not run.require_zero(arg.exp() - dt, "exp of weighted series", m, None):
            return run.report()
        if not run.require_zero(dt.log() - arg, "log extraction", m, None):
            return run.report()
    return run.report()


def check_main_theorems(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The m-fold rescaled factorizations, their closed-form coefficients,
    and the scalar power-sum identity behind them."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run(
        "main_theorems",
        {
            "m_max": cfg.main_m_max,
            "cutoff": cfg.main_cutoff,
            "qmn": [cfg.qmn_n_max, cfg.qmn_m_max],
        },
    )
    N = cfg.main_cutoff
    gt = family_series("Gtilde", None, N, member)
    dt = family_series("D", None, N, member)
    for m in range(1, cfg.main_m_max + 1):
        gprod = None
        dprod = None
        for i in range(m):
            c = q_pow(m - 1 - 2 * i).scale(-1)
            gfac = gt.rescale_t(c)
            dfac = dt.rescale_t(c)
            gprod = gfac if gprod is None else gprod.star_mul(gfac)
            dprod = dfac if dprod is None else dprod.star_mul(dfac)
        exp_minus = log_argument(-m, N, "xCny", member).exp()
        exp_plus = log_argument(m, N, "xCny", member).exp()
        if not run.require_zero(gprod - exp_minus, "alternating-factor product vs exp", m, None):
            return run.report()
        if not run.require_zero(dprod - exp_plus, "inverse-factor product vs exp", m, None):
            return run.report()
        closed_minus = family_series("delta", -m, N, member)
        closed_plus = family_series("delta", m, N, member)
        if not run.require_zero(gprod - closed_minus, "closed form, negative side", m, None):
            return run.report()
        if not run.require_zero(dprod - closed_plus, "closed form, positive side", m, None):
            return run.report()
    for n in range(1, cfg.qmn_n_max + 1):
        for m in range(1, cfg.qmn_m_max + 1):
            lhs = LaurentPoly({n * (m - 1 - 2 * i): 1 for i in range(m)})
            num = q_pow(m * n) - q_pow(-m * n)
            den = q_pow(n) - q_pow(-n)
            rhs = num.div_exact(den)
            d = lhs - rhs
            if not run.tally(d.is_zero()):
                run.witness = Witness(
                    f"power-sum scalar identity at n={n} m={m}", m, n,
                    Element.from_word(W.EMPTY_WORD, d),
                )
                return run.report()
    return run.report()


def check_recurrences_expderivative(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The derivative-of-exponential convolution recurrences for the three
    named families."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run("expderivative", {"cutoff": cfg.cutoff})
    for n in range(1, cfg.cutoff + 1):
        acc_c = Element.zero()
        acc_g = Element.zero()
        acc_d = Element.zero()
        for k in range(1, n + 1):
            body = member("xCny", None, k)
            sign = -1 if k % 2 else 1
            acc_c = acc_c + body.scale(q_int(2 * k)).shuffle(member("C", None, n - k))
            acc_g = acc_g + body.scale(q_int(k)).scale(sign).shuffle(member("Gtilde", None, n - k))
            acc_d = acc_d + body.scale(q_int(k)).scale(sign).shuffle(member("D", None, n - k))
        inv_n = Fraction(1, n)
        if not run.require_zero(
            member("C", None, n) - acc_c.scale(inv_n), "Catalan family recurrence", None, n
        ):
            return run.report()
        if not run.require_zero(
            member("Gtilde", None, n) + acc_g.scale(inv_n), "alternating family recurrence", None, n
        ):
            return run.report()
        if not run.require_zero(
            member("D", None, n) - acc_d.scale(inv_n), "inverse family recurrence", None, n
        ):
            return run.report()
    return run.report()


def check_zeta_suite(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The reverse-and-swap antiautomorphism: fixes the families, reverses
    both products, turns y^-1 into x^-1, and squares to the identity."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run("zeta_suite", {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max})
    for n in range(0, cfg.n_max + 1):
        for m in cfg.m_range():
            dn = member("delta", m, n)
            if not run.require_zero(dn.zeta() - dn, "delta fixed by zeta", m, n):
                return run.report()
            if n >= 1:
                nn = member("nabla", m, n)
                if not run.require_zero(nn.zeta() - nn, "nabla fixed by zeta", m, n):
                    return run.report()
    for n in range(1, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            zw = W.zeta_word(w)
            if not run.tally(W.is_catalan(zw)):
                run.witness = Witness("zeta image not Catalan", None, n, Element.from_word(w))
                return run.report()
            for m in cfg.m_range():
                if not run.tally(
                    catalan.nabla_scalar(m, w) == catalan.nabla_scalar(m, zw)
                    and catalan.delta_scalar(m, w) == catalan.delta_scalar(m, zw)
                ):
                    run.witness = Witness("scalar not zeta-invariant", m, n, Element.from_word(w))
                    return run.report()
    samples = [
        X_EL,
        Y_EL,
        XY_EL,
        Element.from_word("xxy"),
        member("delta", 2, 1),
        member("nabla", 1, 2),
        member("D", None, 2),
        member("delta", -2, 2),
    ]
    for i, u in enumerate(samples):
        if not run.require_zero(u.zeta().zeta() - u, "zeta is an involution", None, i):
            return run.report()
        if not run.require_zero(
            u.y_inverse().zeta() - u.zeta().x_inverse(), "zeta swaps the truncations", None, i
        ):
            return run.report()
        for v in samples:
            if not run.require_zero(
                u.shuffle(v).zeta() - v.zeta().shuffle(u.zeta()),
                "zeta antiautomorphism (shuffle)", None, i,
            ):
                return run.report()
            if not run.require_zero(
                (u * v).zeta() - v.zeta() * u.zeta(),
                "zeta antiautomorphism (free)", None, i,
            ):
                return run.report()
    return run.report()


def check_qint_identities(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The four q-integer identities on the configured integer grid."""
    cfg = cfg or VerifyConfig()
    g = cfg.qint_grid
    run = _Run("qint_identities", {"grid": g})
    rng = range(-g, g + 1)
    products: dict = {}

    def prod(*ns):
        # each q-integer product once per run, keyed by its sorted factors
        key = tuple(sorted(ns))
        out = products.get(key)
        if out is None:
            out = q_int(key[0]) if len(key) == 1 else prod(*key[:-1]) * q_int(key[-1])
            products[key] = out
        return out

    def wit(desc, diff):
        run.witness = Witness(desc, None, None, Element.from_word(W.EMPTY_WORD, diff))

    for a in rng:
        for b in rng:
            for c in rng:
                d1 = prod(a + c, b + c) - prod(a, b) - prod(c, a + b + c)
                if not run.tally(d1.is_zero()):
                    wit(f"identity (i) at {(a, b, c)}", d1)
                    return run.report()
                d2 = prod(a, b - c) + prod(b, c - a) + prod(c, a - b)
                if not run.tally(d2.is_zero()):
                    wit(f"identity (ii) at {(a, b, c)}", d2)
                    return run.report()
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    d3 = (
                        prod(a, b, c - d)
                        + prod(b, c, d - a)
                        + prod(c, d, a - b)
                        + prod(d, a, b - c)
                    )
                    if not run.tally(d3.is_zero()):
                        wit(f"identity (iii) at {(a, b, c, d)}", d3)
                        return run.report()
                    d4 = (
                        prod(a, b, a - b)
                        + prod(b, c, b - c)
                        + prod(c, d, c - d)
                        + prod(d, a, d - a)
                        - prod(a - c, b - d, a + c - b - d)
                    )
                    if not run.tally(d4.is_zero()):
                        wit(f"identity (iv) at {(a, b, c, d)}", d4)
                        return run.report()
    return run.report()


def check_structural(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """Word-level and scalar-level structure: rise/fall counts, Catalan
    closure of the shuffle, the telescoping profile identity, the family
    comparisons, the vanishing criterion, and the special columns."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run(
        "structural",
        {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max},
    )

    def wit(desc, m=None, n=None, el=None):
        run.witness = Witness(desc, m, n, el if el is not None else Element.unit())

    # rise/fall cardinality on all balanced words of length <= 8
    for half in range(0, 5):
        for bits in range(1 << (2 * half)):
            w = W.Word(bits | (1 << (2 * half)))
            if not W.is_balanced(w):
                continue
            es = W.elevation_sequence(w)
            levels = set(es)
            for k in levels | {max(levels) + 1}:
                rises = sum(
                    1 for i in range(1, len(es)) if es[i] == k and es[i] - es[i - 1] == 1
                )
                falls = sum(
                    1 for i in range(1, len(es)) if es[i - 1] == k and es[i] - es[i - 1] == -1
                )
                if not run.tally(rises == falls):
                    wit(f"rise/fall mismatch at level {k}", None, half, Element.from_word(w))
                    return run.report()

    # shuffle of Catalan supports stays Catalan
    for n in range(0, 3):
        for k in range(0, 3):
            for v in W.enumerate_catalan(n):
                for u in W.enumerate_catalan(k):
                    prod = Element.from_word(v).shuffle(Element.from_word(u))
                    for ww in prod.support():
                        if not run.tally(W.is_catalan(ww)):
                            wit("shuffle left the Catalan span", None, n + k, Element.from_word(ww))
                            return run.report()

    # nontrivial Catalan words start with x and end with y
    for n in range(1, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            bits = w.letter_bits()
            if not run.tally(bits[0] == 0 and bits[-1] == 1):
                wit("Catalan word with wrong boundary letters", None, n, Element.from_word(w))
                return run.report()

    # telescoping identity on profiles, lengths 4 .. 2 n_max, excluding xy
    for n in range(2, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            p = W.profile(w).entries
            r = (len(p) - 1) // 2
            ls = p[0::2]
            xi = max(j for j in range(0, r) if ls[j] == 0)
            for m in cfg.m_range():
                total = LaurentPoly.zero()
                for j in range(xi, r):
                    shifted = p[: 2 * j + 1] + tuple(
                        e - 1 for e in p[2 * j + 1 : 2 * r]
                    ) + (p[2 * r],)
                    h_next = p[2 * j + 1]
                    l_j = p[2 * j]
                    factor = q_int(h_next) * q_int(h_next + m - 1) - q_int(l_j) * q_int(l_j + m - 1)
                    total = total + catalan.nabla_from_profile(m, shifted) * factor
                direct = catalan.nabla_from_profile(m, p)
                if not run.tally(total == direct):
                    wit("telescoping profile identity", m, n, Element.from_word(w, direct - total))
                    return run.report()

    # scalar comparisons and the vanishing criterion
    for n in range(1, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            for m in cfg.m_range():
                ds = catalan.delta_scalar(m, w)
                ns = catalan.nabla_scalar(m, w)
                if not run.tally(ds == q_int(m) * ns):
                    wit("full vs reduced scalar", m, n, Element.from_word(w, ds))
                    return run.report()
                px, py = catalan.nabla_split(m, w)
                if not run.tally(px * py == ns):
                    wit("split product mismatch", m, n, Element.from_word(w))
                    return run.report()
                if not run.tally(py == catalan.nabla_split(1, w)[0]):
                    wit("y-part vs m=1 x-part", m, n, Element.from_word(w))
                    return run.report()
                if not run.tally(catalan.nabla_from_profile(m, W.profile(w)) == ns):
                    wit("profile formula", m, n, Element.from_word(w))
                    return run.report()
                if m <= -1 and not run.tally(catalan.vanishing_bound(m, w) == (not ds.is_zero())):
                    wit("vanishing criterion", m, n, Element.from_word(w))
                    return run.report()

    # element comparisons: the named columns
    for n in range(0, cfg.n_max + 1):
        sign = -1 if n % 2 else 1
        if not run.require_zero(
            member("delta", 2, n) - member("C", None, n), "m=2 column is the Catalan element", 2, n
        ):
            return run.report()
        if not run.require_zero(
            member("delta", 1, n) - member("D", None, n).scale(sign), "m=1 column is the signed inverse family", 1, n
        ):
            return run.report()
        if not run.require_zero(
            member("delta", -1, n) - member("Gtilde", None, n).scale(sign),
            "m=-1 column is the signed alternating word", -1, n,
        ):
            return run.report()
        if n >= 1:
            if not run.require_zero(member("delta", 0, n), "m=0 column vanishes", 0, n):
                return run.report()
            if not run.require_zero(
                member("nabla", 0, n) - member("xCny", None, n), "m=0 reduced column is the free product", 0, n
            ):
                return run.report()
            for m in cfg.m_range():
                if not run.require_zero(
                    member("delta", m, n) - member("nabla", m, n).scale(q_int(m)),
                    "element-level full vs reduced", m, n,
                ):
                    return run.report()
            if not run.require_zero(
                member("nabla", cfg.m_min, 1) - XY_EL, "reduced family starts at xy", cfg.m_min, 1
            ):
                return run.report()
    return run.report()


def check_genfuns(cfg: VerifyConfig = None, ctx: CheckContext = None) -> CheckReport:
    """The classical generating-function package: the inverse pair, the three
    exponential formulas, the two-parameter rescaled product, and mutual
    commutation of the free products."""
    cfg = cfg or VerifyConfig()
    member = (ctx or CheckContext(cfg)).member
    run = _Run("genfuns", {"cutoff": cfg.cutoff, "pair_degree_cap": cfg.pair_degree_cap})
    N = cfg.cutoff
    gt = family_series("Gtilde", None, N, member)
    dt = family_series("D", None, N, member)
    ct = family_series("C", None, N, member)

    if not run.require_zero(gt.star_mul(dt) - Series.unit(N), "two-sided inverse (left)"):
        return run.report()
    if not run.require_zero(dt.star_mul(gt) - Series.unit(N), "two-sided inverse (right)"):
        return run.report()
    if not run.require_zero(gt.inverse() - dt, "inverse equals the closed form"):
        return run.report()

    # mutual commutation of the free products, bounded total degree
    for n in range(1, cfg.pair_degree_cap):
        for k in range(n + 1, cfg.pair_degree_cap - n + 1):
            ab, ba = shuffle_pair(member("xCny", None, n), member("xCny", None, k))
            if not run.require_zero(ab - ba, f"free products commute ({n},{k})", None, n + k):
                return run.report()

    if not run.require_zero(
        log_argument(2, N, "xCny", member).exp() - ct, "exp formula, Catalan family", 2
    ):
        return run.report()
    minus_arg = log_argument(-1, N, "xCny", member)
    if not run.require_zero(minus_arg.exp() - gt.rescale_t(-1), "exp formula, alternating family", -1):
        return run.report()
    plus_arg = log_argument(1, N, "xCny", member)
    if not run.require_zero(plus_arg.exp() - dt.rescale_t(-1), "exp formula, inverse family", 1):
        return run.report()

    lhs = ct.rescale_t(-1)
    rhs = dt.rescale_t(q_pow(1)).star_mul(dt.rescale_t(q_pow(-1)))
    if not run.require_zero(lhs - rhs, "two-factor rescaled product", 2):
        return run.report()

    for m in range(1, cfg.main_m_max + 1):
        prod = family_series("delta", -m, N, member).star_mul(family_series("delta", m, N, member))
        if not run.require_zero(prod - Series.unit(N), "opposite-parameter inverse", m):
            return run.report()
    for n in range(0, cfg.cutoff + 1):
        sign = -1 if n % 2 else 1
        if not run.require_zero(
            member("delta", 1, n) - member("D", None, n).scale(sign), "signed coefficients of the inverse", 1, n
        ):
            return run.report()
    return run.report()


CHECKS = {
    "qserre": check_qserre,
    "qint_identities": check_qint_identities,
    "structural": check_structural,
    "nabla_recursion": check_nabla_recursion,
    "commutation": check_commutation,
    "yinv_calculus": check_yinv_calculus,
    "ode": check_ode,
    "exp_theorem": check_exp_theorem,
    "genfuns": check_genfuns,
    "main_theorems": check_main_theorems,
    "expderivative": check_recurrences_expderivative,
    "zeta_suite": check_zeta_suite,
}


def run_all(cfg: VerifyConfig = None, names=None):
    """Run the selected checks (all by default) in catalog order.

    An empty m-range raises ValueError: it would evaluate nothing, and an
    empty report list reads as a pass. Reports come back in catalog order.
    The checks share one CheckContext.
    """
    cfg = cfg or VerifyConfig()
    if cfg.m_min > cfg.m_max:
        raise ValueError(f"empty m-range: m_min {cfg.m_min} > m_max {cfg.m_max}")
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    ordered = [n for n in CHECKS if n in selected]
    ctx = CheckContext(cfg)
    return [CHECKS[name](cfg, ctx=ctx) for name in ordered]
