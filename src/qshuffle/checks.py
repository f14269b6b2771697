"""The identity-verification suite.

Each named check evaluates one family of identities exactly over a finite
grid and reports pass, or the first failure (smallest degree first) with
the nonzero symbolic difference as witness. There are no tolerances
anywhere: pass means the difference is the zero element or zero series.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import catalan, kronecker as K, words as W
from .algebra import (
    Element, Packed, UNIT, X_EL, XY_EL, Y_EL, commutator, shuffle_fold, shuffle_sum,
)
from .errors import InexactDivisionError
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


# the parts of the grid that no request sets
PAIR_DEGREE_CAP = 6  # the total degree of commutation's pairs, unbounded at m = 0
MAIN_M_MAX, MAIN_CUTOFF = 3, 4  # main_theorems' factor count and cutoff
QMN_N_MAX, QMN_M_MAX = 4, 5  # the n and m of its power-sum scalar identity


@dataclass
class VerifyConfig:
    m_min: int = -3
    m_max: int = 3
    n_max: int = 5
    cutoff: int = 5
    qint_grid: int = 6
    # optional hook (family, m, n, element) -> element, used by negative controls;
    # family is one of catalan.FAMILIES: "delta" and "nabla" with an integer m,
    # "C", "D", "Gtilde" and "xCny" with m = None. run_all calls it in the
    # calling process, never in a worker, so its side effects are seen there
    perturb: Optional[Callable] = None

    def m_range(self):
        return range(self.m_min, self.m_max + 1)


class CheckContext:
    """Caches the family members for one run and applies the perturb hook.

    run_all shares one context among the checks of each process it runs
    them in, so each member is built and perturbed at most once per process.
    Pass ctx.member to series.family_series and series.log_argument for
    series built from the same members.
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

    def packed_member(self, family: str, m, n: int) -> Packed:
        """The member as a Packed shuffle_sum operand, built on each call
        and not kept: straight from catalan's walk, never decoded, when
        there is no perturb hook, and the perturbed member packed when there
        is one."""
        if self.cfg.perturb is None:
            return catalan.packed_member(family, m, n)
        return Packed.of(self.member(family, m, n))


class _Failed(Exception):
    """Raised by _Run.require at a check's first failing instance; the
    harness turns it into the failed report."""


class _Run:
    """Counts the identity instances one check compares and records the
    first (minimal-degree) failure, which ends the check; a run that
    compared none is "empty"."""

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.t0 = time.perf_counter()
        self.witness: Optional[Witness] = None
        self.evaluated = 0

    def require(self, holds, description, m=None, n=None, el=W.EMPTY_WORD, coeff=None):
        """Count one identity instance. A failing one ends the check; its
        witness is el, an Element or a word with coefficient coeff (1 when
        None), built only on failure."""
        self.evaluated += 1
        if not holds:
            if not isinstance(el, Element):
                el = Element.from_word(el, coeff)
            self.witness = Witness(description, m, n, el)
            raise _Failed

    def require_zero(self, diff, description, m=None, n=None):
        """require that diff vanishes, with diff as the witness: an Element,
        a Series degree by degree, or a scalar LaurentPoly on the empty word."""
        if isinstance(diff, Series):
            for deg, el in enumerate(diff.coeffs):
                self.require(el.is_zero(), f"{description} (t^{deg})", m, n, el)
        elif isinstance(diff, LaurentPoly):
            self.require(diff.is_zero(), description, m, n, coeff=diff)
        else:
            self.require(diff.is_zero(), description, m, n, diff)

    def report(self) -> CheckReport:
        elapsed = time.perf_counter() - self.t0
        if self.witness is not None:
            status = "fail"
        elif self.evaluated == 0:
            status = "empty"
        else:
            status = "pass"
        return CheckReport(self.name, self.params, status, self.witness, elapsed, self.evaluated)


def _check(name: str, params: Callable[[VerifyConfig], dict]):
    """The one check harness: it makes check_<name>(cfg=None, ctx=None, **kw)
    from body(run, cfg, ctx, **kw), which only requires identity instances
    on run. The harness defaults cfg and ctx, starts the _Run with
    params(cfg) as the report's params, and returns its report. That is the
    one failure path: the first failing instance, or the Element that an
    exact division in the body could not divide, is the witness; a division
    error that carries no such Element propagates."""

    def wrap(body):
        def run_check(cfg: VerifyConfig = None, ctx: CheckContext = None, **kw) -> CheckReport:
            cfg = cfg or VerifyConfig()
            ctx = ctx or CheckContext(cfg)
            run = _Run(name, params(cfg))
            try:
                body(run, cfg, ctx, **kw)
            except _Failed:
                pass
            except InexactDivisionError as err:
                if err.dividend is None:
                    raise
                run.witness = Witness(str(err), None, None, err.dividend)
            return run.report()

        # the body's name and docstring, but run_check's signature
        run_check.__name__ = run_check.__qualname__ = body.__name__
        run_check.__doc__ = body.__doc__
        return run_check

    return wrap


def _commutes(a: Element, b: Element) -> Element:
    """a ⋆ b − b ⋆ a, as one packed sum."""
    return shuffle_sum(((1, a, b), (-1, b, a)))


def _commutator_gap(lhs: Element, a: Element, b: Element) -> Element:
    """lhs − commutator(0, a, b), from the packed sum of its (q − q⁻¹)
    multiple, divided by q − q⁻¹ only when it does not vanish. The division
    is exact for every lhs, as commutator's is."""
    diff = shuffle_sum(((Q_COMM, lhs, UNIT), (-1, a, b), (1, b, a)))
    return diff if diff.is_zero() else diff.div_exact(Q_COMM)


# the families that take the parameter m, with their first index n
_M_FAMILIES = tuple(
    (family, first) for family, (_, takes_m, first) in catalan.FAMILIES.items() if takes_m
)


def _family_grid(cfg: VerifyConfig, ns):
    """(family, m, n) over the families that take m: n outer, then m, then
    family, from each family's first index on. A check's first-failure
    witness depends on this order."""
    for n in ns:
        for m in cfg.m_range():
            for family, first in _M_FAMILIES:
                if n >= first:
                    yield family, m, n


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


@_check("qserre", lambda cfg: {})
def check_qserre(run: _Run, cfg: VerifyConfig, ctx: CheckContext, third_coeff: LaurentPoly = None):
    """Both shuffle images of the degree-4 defining relations vanish."""
    c = q_int(3) if third_coeff is None else third_coeff
    for a, b, label in ((X_EL, Y_EL, "x-leading"), (Y_EL, X_EL, "y-leading")):
        t1 = shuffle_fold([a, a, a, b])
        t2 = shuffle_fold([a, a, b, a]).scale(c)
        t3 = shuffle_fold([a, b, a, a]).scale(c)
        t4 = shuffle_fold([b, a, a, a])
        run.require_zero(t1 - t2 + t3 - t4, f"serre relation ({label})", n=4)


@_check("nabla_recursion", lambda cfg: {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max})
def check_nabla_recursion(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """One-step recursions: both families, both the x- and the mirrored y-form,
    plus the m = 0 specialization for the free products x C_n."""
    member = ctx.member
    for fam, m, n in _family_grid(cfg, range(0, cfg.n_max)):
        u = member(fam, m, n)
        lhs = member(fam, m, n + 1)
        rec_x = commutator(m, X_EL, u) * Y_EL
        run.require_zero(lhs - rec_x, f"{fam} recursion, x form", m, n + 1)
        rec_y = X_EL * commutator(m, u, Y_EL)
        run.require_zero(lhs - rec_y, f"{fam} recursion, y form", m, n + 1)
    for n in range(1, cfg.n_max):
        # x C_n = (x * xC_(n-1)y - xC_(n-1)y * x)/(q - q^-1)
        rec = commutator(0, X_EL, member("xCny", None, n))
        lhs = X_EL * member("C", None, n)
        run.require_zero(lhs - rec, "free-product recursion at m=0", 0, n)
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
                got = commutator(m, X_EL, base)
                run.require_zero(got - ins, "single-insertion expansion", m, n)


def _reduced_pairs(cfg: VerifyConfig):
    """commutation's pairs (a, b) of reduced members ∇⁽ᵐ⁾ₙ, n ≥ 2, as (m, n):
    those up to total degree PAIR_DEGREE_CAP and those of two m = 0 members,
    by total degree, then a, then b, the order its first failure depends on."""
    members = [(m, n) for m in cfg.m_range() for n in range(2, cfg.n_max + 1)]
    pairs = [
        (a, b)
        for i, a in enumerate(members)
        for b in members[i + 1:]
        if a[1] + b[1] <= PAIR_DEGREE_CAP or a[0] == b[0] == 0
    ]
    return sorted(pairs, key=lambda p: (p[0][1] + p[1][1], p))


@_check("commutation", lambda cfg: {
    "m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max, "pair_degree_cap": PAIR_DEGREE_CAP,
})
def check_commutation(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """xy and the reduced members ∇⁽ᵐ⁾ₙ, n ≥ 2, commute pairwise: xy with
    each of them, and the pairs of _reduced_pairs.

    No other pair is needed. structural states Δ⁽ᵐ⁾ₙ = [m]_q ∇⁽ᵐ⁾ₙ for
    n ≥ 1 (zero at m = 0) and ∇⁽ᵐ⁾₁ = xy, and Δ⁽ᵐ⁾₀ = 1 is the t⁰
    coefficient of exp_theorem. So a pair that holds a Δ member is [m]_q
    times a pair compared here, or holds 1, and a pair that holds ∇⁽ᵐ⁾₁
    holds xy in its place."""
    member = ctx.member
    for n in range(2, cfg.n_max + 1):
        for m in cfg.m_range():
            run.require_zero(_commutes(XY_EL, member("nabla", m, n)), "xy commutation (nabla)", m, n)
    for (ma, na), (mb, nb) in _reduced_pairs(cfg):
        diff = _commutes(member("nabla", ma, na), member("nabla", mb, nb))
        run.require_zero(diff, f"nabla({ma},{na}) vs nabla({mb},{nb})", ma, na + nb)


@_check("yinv_calculus", lambda cfg: {
    "m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max, "cutoff": cfg.cutoff,
})
def check_yinv_calculus(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The y^-1 / x^-1 calculus: commutator reformulations, the (n, k) truncated
    recursion, the weighted convolution identities, and their series forms."""
    member = ctx.member
    for fam, m, n in _family_grid(cfg, range(0, cfg.n_max + 1)):
        u = member(fam, m, n)
        uy = u.y_inverse()
        # (x ⋆ u − u ⋆ x) − (u' ⋆ xy − xy ⋆ u'), u' = y^-1 u
        diff = shuffle_sum(((1, X_EL, u), (-1, u, X_EL), (-1, uy, XY_EL), (1, XY_EL, uy)))
        run.require_zero(diff, f"commutator via y^-1 ({fam})", m, n)

    # its (1, n) and (n, 1) instances are the one-step recursions, as ∇⁽⁰⁾₁y⁻¹ = x
    for total in range(2, 2 * cfg.n_max + 1):
        # the (n_max, n_max) pair sets the peak memory of verify --all: its
        # left side goes from the walk to the kernel packed, held for one
        # total only, and its two products meet in one packed table, never
        # decoded when the identity holds
        lhs = ctx.packed_member("nabla", 0, total).y_inverse()
        for n in range(1, cfg.n_max + 1):
            k = total - n
            if not 1 <= k <= cfg.n_max:
                continue
            diff = _commutator_gap(lhs, member("nabla", 0, n).y_inverse(), member("nabla", 0, k))
            run.require_zero(diff, f"(n,k) truncated recursion ({n},{k})", 0, n + k)

    for n in range(0, cfg.n_max):
        for m in cfg.m_range():
            # target − [m]_q Σ_k q^(∓mk) (the two orders of nky ⋆ dk)
            target = member("delta", m, n + 1).y_inverse()
            sum1 = [(1, target, UNIT)]
            sum2 = [(1, target, UNIT)]
            for k in range(0, n + 1):
                nky = member("nabla", 0, k + 1).y_inverse()
                dk = member("delta", m, n - k)
                sum1.append((-q_pow(-m * k) * q_int(m), nky, dk))
                sum2.append((-q_pow(m * k) * q_int(m), dk, nky))
            run.require_zero(shuffle_sum(sum1), "weighted convolution (i)", m, n + 1)
            run.require_zero(shuffle_sum(sum2), "weighted convolution (ii)", m, n + 1)

    N = cfg.cutoff
    nab_t = family_series("nabla", 0, N, member)
    for m in cfg.m_range():
        dt = family_series("delta", m, N, member)
        dty = dt.apply_y_inverse()
        pref = q_pow(m) * q_int(m)
        rhs1 = nab_t.rescale_t(q_pow(-m)).apply_y_inverse().star_mul(dt).scale(pref)
        run.require_zero(dty - rhs1, "series y^-1 form (i)", m, None)
        pref2 = q_pow(-m) * q_int(m)
        rhs2 = dt.star_mul(nab_t.rescale_t(q_pow(m)).apply_y_inverse()).scale(pref2)
        run.require_zero(dty - rhs2, "series y^-1 form (ii)", m, None)
        dtx = dt.apply_x_inverse()
        rhs3 = dt.star_mul(nab_t.rescale_t(q_pow(-m)).apply_x_inverse()).scale(pref)
        run.require_zero(dtx - rhs3, "series x^-1 form (iii)", m, None)
        rhs4 = nab_t.rescale_t(q_pow(m)).apply_x_inverse().star_mul(dt).scale(pref2)
        run.require_zero(dtx - rhs4, "series x^-1 form (iv)", m, None)


@_check("ode", lambda cfg: {"m": [cfg.m_min, cfg.m_max], "cutoff": cfg.cutoff})
def check_ode(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The t-derivative identity and both generating-function recursions."""
    member = ctx.member
    N = cfg.cutoff
    nab_t = family_series("nabla", 0, N, member)

    def tx_commutator(m, s):
        # (q^m tx ⋆ s − q^-m s ⋆ tx)/(q − q^-1) with tx = t·x, whose t^k
        # coefficient is commutator(m, x, s_(k-1)) and whose t^0 one is 0
        return Series([Element.zero()] + [commutator(m, X_EL, c) for c in s.coeffs[:-1]], N)

    lhs = nab_t.apply_y_inverse()
    rhs = Series([Element.zero(), X_EL], N) + tx_commutator(0, nab_t)
    run.require_zero(lhs - rhs, "m=0 generating-function recursion")

    for m in cfg.m_range():
        dt = family_series("delta", m, N, member)
        lhs = dt.apply_y_inverse()
        run.require_zero(lhs - tx_commutator(m, dt), "generating-function recursion", m, None)

        # at cutoff 0 the derivative has no coefficient to compare
        if N >= 1:
            deriv = dt.derivative()
            diff = nab_t.rescale_t(q_pow(m)) - nab_t.rescale_t(q_pow(-m))
            kernel = diff.divide_t().div_exact(Q_COMM)
            rhs_ode = kernel.star_mul(dt.truncate(N - 1))
            run.require_zero(deriv - rhs_ode, "derivative identity", m, None)


@_check("exp_theorem", lambda cfg: {"m": [cfg.m_min, cfg.m_max], "cutoff": cfg.cutoff})
def check_exp_theorem(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The family's generating function equals the exponential of the weighted
    m = 0 series; verified by exponentiating and, independently, by taking log."""
    member = ctx.member
    N = cfg.cutoff
    for m in cfg.m_range():
        arg = log_argument(m, N, "nabla", member)
        dt = family_series("delta", m, N, member)
        run.require_zero(arg.exp() - dt, "exp of weighted series", m, None)
        run.require_zero(dt.log() - arg, "log extraction", m, None)


@_check("main_theorems", lambda cfg: {
    "m_max": MAIN_M_MAX, "cutoff": MAIN_CUTOFF, "qmn": [QMN_N_MAX, QMN_M_MAX],
})
def check_main_theorems(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The m-fold rescaled factorizations, their closed-form coefficients,
    and the scalar power-sum identity behind them."""
    member = ctx.member
    N = MAIN_CUTOFF
    gt = family_series("Gtilde", None, N, member)
    dt = family_series("D", None, N, member)
    for m in range(1, MAIN_M_MAX + 1):
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
        run.require_zero(gprod - exp_minus, "alternating-factor product vs exp", m, None)
        run.require_zero(dprod - exp_plus, "inverse-factor product vs exp", m, None)
        closed_minus = family_series("delta", -m, N, member)
        closed_plus = family_series("delta", m, N, member)
        run.require_zero(gprod - closed_minus, "closed form, negative side", m, None)
        run.require_zero(dprod - closed_plus, "closed form, positive side", m, None)
    for n in range(1, QMN_N_MAX + 1):
        for m in range(1, QMN_M_MAX + 1):
            lhs = LaurentPoly({n * (m - 1 - 2 * i): 1 for i in range(m)})
            num = q_pow(m * n) - q_pow(-m * n)
            den = q_pow(n) - q_pow(-n)
            rhs = num.div_exact(den)
            run.require_zero(lhs - rhs, f"power-sum scalar identity at n={n} m={m}", m, n)


@_check("expderivative", lambda cfg: {"cutoff": cfg.cutoff})
def check_recurrences_expderivative(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The derivative-of-exponential convolution recurrences for the three
    named families."""
    member = ctx.member
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
        run.require_zero(member("C", None, n) - acc_c.scale(inv_n), "Catalan family recurrence", None, n)
        run.require_zero(
            member("Gtilde", None, n) + acc_g.scale(inv_n), "alternating family recurrence", None, n
        )
        run.require_zero(member("D", None, n) - acc_d.scale(inv_n), "inverse family recurrence", None, n)


@_check("zeta_suite", lambda cfg: {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max})
def check_zeta_suite(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The reverse-and-swap antiautomorphism: fixes the families, reverses
    both products, turns y^-1 into x^-1, and squares to the identity."""
    member = ctx.member
    for fam, m, n in _family_grid(cfg, range(0, cfg.n_max + 1)):
        u = member(fam, m, n)
        run.require_zero(u.zeta() - u, f"{fam} fixed by zeta", m, n)
    for n in range(1, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            zw = W.zeta_word(w)
            run.require(W.is_catalan(zw), "zeta image not Catalan", None, n, w)
            for m in cfg.m_range():
                run.require(
                    catalan.nabla_scalar(m, w) == catalan.nabla_scalar(m, zw)
                    and catalan.delta_scalar(m, w) == catalan.delta_scalar(m, zw),
                    "scalar not zeta-invariant", m, n, w,
                )
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
        run.require_zero(u.zeta().zeta() - u, "zeta is an involution", None, i)
        run.require_zero(
            u.y_inverse().zeta() - u.zeta().x_inverse(), "zeta swaps the truncations", None, i
        )
        for v in samples:
            run.require_zero(
                u.shuffle(v).zeta() - v.zeta().shuffle(u.zeta()),
                "zeta antiautomorphism (shuffle)", None, i,
            )
            run.require_zero(
                (u * v).zeta() - v.zeta() * u.zeta(), "zeta antiautomorphism (free)", None, i
            )


@_check("qint_identities", lambda cfg: {"grid": cfg.qint_grid})
def check_qint_identities(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The four q-integer identities on the configured integer grid.

    Each identity is one int. A product P of q-integers is q^(3s) P
    evaluated at q = 2^w, where s bounds the exponents of every factor, so
    that the evaluation is a polynomial's: a ring map, and injective on
    polynomials whose coefficients lie below 2^(w-1) in absolute value.
    An identity sums at most five products of at most three factors, so
    its coefficients are bounded by 5·L³, L the largest L1 norm of a
    factor, and w = kronecker.slot_width(5·L³). The identity holds when its
    int is 0; only a failing one is decoded, into its witness.
    """
    g = cfg.qint_grid
    rng = range(-g, g + 1)
    # every factor is [n]_q with |n| <= 4g
    qints = {n: q_int(n) for n in range(-4 * g, 4 * g + 1)}
    s = max((abs(e) for p in qints.values() for e in p._c), default=0)
    norm = max(max(sum(map(abs, p._c.values())) for p in qints.values()), 1)
    w = K.slot_width(5 * norm**3)
    # q^s [n]_q at q = 2^w: its packed entry (o, N) shifted to offset 0
    at = {}
    for n, p in qints.items():
        o, N = K.pack(p._c, w) if p._c else (0, 0)
        at[n] = N << o + w * s
    unpack = K.unpacker(w, 1)
    products: dict = {}

    def prod(*ns):
        # each q-integer product once per run, keyed by its sorted factors,
        # scaled to q^(3s) P whatever its number of factors
        key = tuple(sorted(ns))
        out = products.get(key)
        if out is None:
            out = 1 << w * s * (3 - len(key))
            for n in key:
                out *= at[n]
            products[key] = out
        return out

    def require_zero(total, description):
        coeff = LaurentPoly(unpack(-3 * w * s, total), _raw=True) if total else None
        run.require(not total, description, coeff=coeff)

    for a in rng:
        for b in rng:
            for c in rng:
                d1 = prod(a + c, b + c) - prod(a, b) - prod(c, a + b + c)
                require_zero(d1, f"identity (i) at {(a, b, c)}")
                d2 = prod(a, b - c) + prod(b, c - a) + prod(c, a - b)
                require_zero(d2, f"identity (ii) at {(a, b, c)}")
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
                    require_zero(d3, f"identity (iii) at {(a, b, c, d)}")
                    d4 = (
                        prod(a, b, a - b)
                        + prod(b, c, b - c)
                        + prod(c, d, c - d)
                        + prod(d, a, d - a)
                        - prod(a - c, b - d, a + c - b - d)
                    )
                    require_zero(d4, f"identity (iv) at {(a, b, c, d)}")


@_check("structural", lambda cfg: {"m": [cfg.m_min, cfg.m_max], "n_max": cfg.n_max})
def check_structural(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """Word-level and scalar-level structure: rise/fall counts, Catalan
    closure of the shuffle, the telescoping profile identity, the family
    comparisons, the vanishing criterion, and the special columns."""
    member = ctx.member

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
                run.require(rises == falls, f"rise/fall mismatch at level {k}", None, half, w)

    # shuffle of Catalan supports stays Catalan
    for n in range(0, 3):
        for k in range(0, 3):
            for v in W.enumerate_catalan(n):
                for u in W.enumerate_catalan(k):
                    prod = Element.from_word(v).shuffle(Element.from_word(u))
                    for ww in prod.support():
                        run.require(W.is_catalan(ww), "shuffle left the Catalan span", None, n + k, ww)

    # nontrivial Catalan words start with x and end with y
    for n in range(1, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            bits = w.letter_bits()
            run.require(
                bits[0] == 0 and bits[-1] == 1, "Catalan word with wrong boundary letters", None, n, w
            )

    # telescoping identity on profiles, lengths 4 .. 2 n_max, excluding xy
    for n in range(2, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            p = W.profile(w)
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
                run.require(total == direct, "telescoping profile identity", m, n, w, direct - total)

    # scalar comparisons and the vanishing criterion
    for n in range(1, cfg.n_max + 1):
        for w in W.enumerate_catalan(n):
            for m in cfg.m_range():
                ds = catalan.delta_scalar(m, w)
                ns = catalan.nabla_scalar(m, w)
                run.require(ds == q_int(m) * ns, "full vs reduced scalar", m, n, w, ds)
                px, py = catalan.nabla_split(m, w)
                run.require(px * py == ns, "split product mismatch", m, n, w)
                run.require(py == catalan.nabla_split(1, w)[0], "y-part vs m=1 x-part", m, n, w)
                run.require(catalan.nabla_from_profile(m, W.profile(w)) == ns, "profile formula", m, n, w)
                if m <= -1:
                    run.require(
                        catalan.vanishing_bound(m, w) == (not ds.is_zero()), "vanishing criterion", m, n, w
                    )

    # element comparisons: the named columns
    for n in range(0, cfg.n_max + 1):
        sign = -1 if n % 2 else 1
        run.require_zero(
            member("delta", 2, n) - member("C", None, n), "m=2 column is the Catalan element", 2, n
        )
        run.require_zero(
            member("delta", 1, n) - member("D", None, n).scale(sign), "m=1 column is the signed inverse family", 1, n
        )
        run.require_zero(
            member("delta", -1, n) - member("Gtilde", None, n).scale(sign),
            "m=-1 column is the signed alternating word", -1, n,
        )
        if n >= 1:
            run.require_zero(member("delta", 0, n), "m=0 column vanishes", 0, n)
            run.require_zero(
                member("nabla", 0, n) - member("xCny", None, n), "m=0 reduced column is the free product", 0, n
            )
            # at m = 0 this is the "m=0 column vanishes" difference
            for m in (m for m in cfg.m_range() if m != 0):
                run.require_zero(
                    member("delta", m, n) - member("nabla", m, n).scale(q_int(m)),
                    "element-level full vs reduced", m, n,
                )
        # commutation reads each ∇⁽ᵐ⁾₁ as xy
        if n == 1:
            for m in cfg.m_range():
                run.require_zero(member("nabla", m, 1) - XY_EL, "reduced family starts at xy", m, 1)


@_check("genfuns", lambda cfg: {"cutoff": cfg.cutoff})
def check_genfuns(run: _Run, cfg: VerifyConfig, ctx: CheckContext):
    """The classical generating-function package: the inverse pair, the three
    exponential formulas and the two-parameter rescaled product. The free
    products x C₍ₙ₋₁₎ y are ∇⁽⁰⁾ₙ (structural), whose pairs commutation
    compares."""
    member = ctx.member
    N = cfg.cutoff
    gt = family_series("Gtilde", None, N, member)
    dt = family_series("D", None, N, member)
    ct = family_series("C", None, N, member)

    run.require_zero(gt.star_mul(dt) - Series.unit(N), "two-sided inverse (left)")
    run.require_zero(dt.star_mul(gt) - Series.unit(N), "two-sided inverse (right)")
    run.require_zero(gt.inverse() - dt, "inverse equals the closed form")

    run.require_zero(log_argument(2, N, "xCny", member).exp() - ct, "exp formula, Catalan family", 2)
    minus_arg = log_argument(-1, N, "xCny", member)
    run.require_zero(minus_arg.exp() - gt.rescale_t(-1), "exp formula, alternating family", -1)
    plus_arg = log_argument(1, N, "xCny", member)
    run.require_zero(plus_arg.exp() - dt.rescale_t(-1), "exp formula, inverse family", 1)

    lhs = ct.rescale_t(-1)
    rhs = dt.rescale_t(q_pow(1)).star_mul(dt.rescale_t(q_pow(-1)))
    run.require_zero(lhs - rhs, "two-factor rescaled product", 2)

    for m in range(1, MAIN_M_MAX + 1):
        prod = family_series("delta", -m, N, member).star_mul(family_series("delta", m, N, member))
        run.require_zero(prod - Series.unit(N), "opposite-parameter inverse", m)
    for n in range(0, cfg.cutoff + 1):
        sign = -1 if n % 2 else 1
        run.require_zero(
            member("delta", 1, n) - member("D", None, n).scale(sign), "signed coefficients of the inverse", 1, n
        )


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


def _cpu_count() -> int:
    """The CPUs this process may run on. Tests patch it to choose run_all's
    worker count."""
    return len(os.sched_getaffinity(0))


# the CheckContext of a run_all worker process, set by _start_worker
_worker_ctx: Optional[CheckContext] = None


def _start_worker(cfg: VerifyConfig) -> None:
    global _worker_ctx
    _worker_ctx = CheckContext(cfg)


def _run_in_worker(name: str) -> CheckReport:
    return CHECKS[name](_worker_ctx.cfg, ctx=_worker_ctx)


def run_all(cfg: VerifyConfig = None, names=None):
    """Run the selected checks (all by default); reports come back in
    catalog order.

    An empty m-range or an empty list of names raises ValueError: either
    would evaluate nothing, and an empty report list reads as a pass.

    The checks run in forked worker processes, one per CPU this process may
    run on and at most one per check; the workers inherit cfg and every
    module-level patch, and each shares one CheckContext among the checks
    it runs, so a member is built at most once per worker process. Only
    check names go to the workers and only reports come back. The checks
    run in this process instead when that is one worker, off Linux, when
    this process has other threads (a fork copies only the calling one,
    and any lock another holds stays held in the copy), or when
    cfg.perturb is set: the hook is the caller's code, and its side
    effects, such as a record of the members it saw, must be seen here.
    The exception raised, if any, is that of the first failing check in
    catalog order, as in one process; the pending checks are cancelled and
    the workers joined before it propagates.
    """
    cfg = cfg or VerifyConfig()
    if cfg.m_min > cfg.m_max:
        raise ValueError(f"empty m-range: m_min {cfg.m_min} > m_max {cfg.m_max}")
    selected = list(CHECKS) if names is None else list(names)
    if not selected:
        raise ValueError("no checks selected")
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    ordered = [n for n in CHECKS if n in selected]
    forkable = (
        sys.platform == "linux" and threading.active_count() == 1 and cfg.perturb is None
    )
    workers = min(_cpu_count(), len(ordered)) if forkable else 1
    if workers == 1:
        ctx = CheckContext(cfg)
        return [CHECKS[name](cfg, ctx=ctx) for name in ordered]

    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(
        workers, mp_context=get_context("fork"), initializer=_start_worker, initargs=(cfg,),
    )
    try:
        return list(pool.map(_run_in_worker, ordered))
    finally:
        pool.shutdown(cancel_futures=True)
