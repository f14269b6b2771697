"""The verification suite itself: green on small grids, and the negative
controls really turn checks red with a nonzero witness."""

import inspect
import json
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from concurrent.futures.process import BrokenProcessPool

from qshuffle import algebra, catalan, checks, words as W
from qshuffle.algebra import XY_EL, X_EL, Element, Packed, commutator
from qshuffle.checks import (
    CHECKS,
    VerifyConfig,
    check_exp_theorem,
    check_nabla_recursion,
    check_ode,
    check_qint_identities,
    check_qserre,
    check_structural,
    check_yinv_calculus,
    run_all,
)
from qshuffle.errors import CapExceededError, InexactDivisionError
from qshuffle.qlaurent import LaurentPoly, q_int, q_pow
from qshuffle.series import family_series

SMALL = VerifyConfig(m_min=-2, m_max=2, n_max=3, cutoff=3, qint_grid=3)


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_check_passes_on_small_grid(name):
    report = CHECKS[name](SMALL)
    assert report.passed, report.witness and report.witness.description
    assert report.params is not None
    assert report.elapsed >= 0
    assert report.evaluated > 0


def test_qserre_negative_control():
    bad = check_qserre(SMALL, third_coeff=LaurentPoly.one())
    assert not bad.passed
    assert bad.witness is not None
    assert not bad.witness.diff.is_zero()
    assert all(len(w) == 4 for w in bad.witness.diff.support())


DEFAULT_EVALUATED = {
    "qserre": 2,
    "qint_identities": 61516,  # 2 * 13^3 + 2 * 13^4 on the grid -6..6
    "structural": 3055,
    "nabla_recursion": 186,
    "commutation": 172,
    "yinv_calculus": 340,
    "ode": 83,
    "exp_theorem": 84,
    "genfuns": 66,
    "main_theorems": 80,
    "expderivative": 15,
    "zeta_suite": 733,
}


def test_default_grid_evaluates_every_instance():
    reports = run_all(VerifyConfig())
    assert all(r.passed for r in reports)
    assert {r.name: r.evaluated for r in reports} == DEFAULT_EVALUATED


def test_cutoff_zero_skips_only_the_derivative_identity():
    reports = run_all(VerifyConfig(cutoff=0))
    assert len(reports) == 12
    status = {r.name: r.status for r in reports}
    assert status.pop("expderivative") == "empty"  # no recurrence below t^1
    assert set(status.values()) == {"pass"}
    # from cutoff 1 on, each m compares one derivative coefficient per degree
    assert check_ode(VerifyConfig(cutoff=1)).evaluated == 2 + 7 * (2 + 1)


def test_shifted_q_int_fails_qint_identities(monkeypatch):
    # the check consumes no family member, so the perturb hook cannot reach
    # it; shift the q-integers it multiplies instead
    monkeypatch.setattr(checks, "q_int", lambda n: q_int(n + 1) if n else q_int(0))
    report = check_qint_identities(VerifyConfig())
    assert not report.passed
    assert report.witness.description == "identity (i) at (-6, -6, -6)"
    assert not report.witness.diff.is_zero()


def _bump(family, m, n, el):
    """Perturb one table coefficient: add 1 to the xxyy coefficient of the
    m = 2, n = 2 full-family element."""
    if family == "delta" and m == 2 and n == 2:
        return el + Element.from_word("xxyy")
    return el


def test_perturbed_table_fails_recursion_with_minimal_witness():
    cfg = VerifyConfig(m_min=-2, m_max=2, n_max=3, cutoff=3, qint_grid=3, perturb=_bump)
    report = check_nabla_recursion(cfg)
    assert not report.passed
    assert report.witness.n == 2  # smallest degree that can see the bump
    assert not report.witness.diff.is_zero()


def test_perturbed_table_fails_exp_theorem():
    cfg = VerifyConfig(m_min=2, m_max=2, n_max=3, cutoff=3, perturb=_bump)
    report = check_exp_theorem(cfg)
    assert not report.passed
    assert not report.witness.diff.is_zero()


def bump_nabla(family, m, n, el):
    """Add [2]_q xyxy to the m = 0, n = 2 reduced-family element."""
    if family == "nabla" and m == 0 and n == 2:
        return el + Element.from_word("xyxy", q_int(2))
    return el


def test_perturbed_nabla_fails_structural():
    cfg = VerifyConfig(m_min=-1, m_max=1, n_max=3, cutoff=3, perturb=bump_nabla)
    report = check_structural(cfg)
    assert not report.passed


def test_perturbation_through_run_all():
    cfg = VerifyConfig(m_min=2, m_max=2, n_max=3, cutoff=3, qint_grid=2, perturb=_bump)
    reports = run_all(cfg)
    assert any(not r.passed for r in reports)
    failed = [r for r in reports if not r.passed]
    assert all(r.witness is not None and not r.witness.diff.is_zero() for r in failed)


def test_run_all_empty_m_range():
    with pytest.raises(ValueError):
        run_all(VerifyConfig(m_min=1, m_max=0))


def test_run_all_with_no_names_evaluates_nothing_and_is_refused():
    # an empty report list would read as a pass
    for names in ([], (), iter([])):
        with pytest.raises(ValueError):
            run_all(SMALL, names=names)


def test_perturbed_nk_left_side_fails_yinv_calculus():
    # nabla(0, n_max + 1) is consumed only by the left-hand side of the
    # (n, k) truncated recursion, so only that identity can see it
    hits = []

    def bump(family, m, n, el):
        if (family, m, n) == ("nabla", 0, SMALL.n_max + 1):
            hits.append(n)
            return el + Element.from_word("xxyy")
        return el

    report = check_yinv_calculus(VerifyConfig(**{**SMALL.__dict__, "perturb": bump}))
    assert hits
    assert not report.passed
    assert report.witness.description.startswith("(n,k) truncated recursion")
    assert report.witness.n == SMALL.n_max + 1
    assert not report.witness.diff.is_zero()


def test_yinv_calculus_never_decodes_a_member_beyond_n_max(monkeypatch):
    # the (n, k) recursion takes nabla(0, n + k), n + k up to 2 n_max, packed
    # from the walk, once per run; no decoded member lies beyond n_max, and
    # every packed operand already has its sum's unit
    decoded, packed, repacked = [], [], []
    member, packed_member, at = catalan.member, catalan.packed_member, Packed.at

    def member_spy(family, m, n):
        decoded.append((family, m, n))
        return member(family, m, n)

    def packed_spy(family, m, n):
        packed.append((family, m, n))
        return packed_member(family, m, n)

    def at_spy(self, unit):
        if unit != self.unit:
            repacked.append((self.unit, unit))
        return at(self, unit)

    monkeypatch.setattr(catalan, "member", member_spy)
    monkeypatch.setattr(catalan, "packed_member", packed_spy)
    monkeypatch.setattr(Packed, "at", at_spy)
    assert check_yinv_calculus(SMALL).passed
    assert max(n for _, _, n in decoded) == SMALL.n_max
    assert packed == [("nabla", 0, n) for n in range(2, 2 * SMALL.n_max + 1)]
    assert not repacked


def test_grid_that_evaluates_nothing_is_empty_not_pass():
    cfg = VerifyConfig(n_max=0, cutoff=0)
    report = check_nabla_recursion(cfg)
    assert report.evaluated == 0
    assert report.status == "empty"
    assert not report.passed
    assert report.to_json()["status"] == "empty"


def test_run_all_selection_and_order():
    reports = run_all(SMALL, names=["zeta_suite", "qserre"])
    assert [r.name for r in reports] == ["qserre", "zeta_suite"]
    with pytest.raises(KeyError):
        run_all(SMALL, names=["nonexistent"])


def test_run_all_builds_each_member_once(monkeypatch):
    # in one process: members built in a worker process are not counted here
    monkeypatch.setattr(checks, "_cpu_count", lambda: 1)
    built = Counter()
    real = catalan.member

    def counted(family, m, n):
        built[(family, m, n)] += 1
        return real(family, m, n)

    monkeypatch.setattr(catalan, "member", counted)
    reports = run_all(SMALL)
    assert all(r.passed for r in reports)
    assert built and max(built.values()) == 1
    assert {family for family, _, _ in built} == set(catalan.FAMILIES)


@pytest.mark.parametrize(
    "family, check, where",
    [
        ("C", "genfuns", "exp formula, Catalan family (t^2)"),
        ("D", "main_theorems", "inverse-factor product vs exp (t^2)"),
        ("Gtilde", "main_theorems", "alternating-factor product vs exp (t^2)"),
        ("xCny", "main_theorems", "alternating-factor product vs exp (t^2)"),
    ],
)
def test_perturbed_named_family_fails_through_its_series(family, check, where):
    # each named family reaches these checks only through series built by
    # series.family_series / series.log_argument on the context's members
    def bump(fam, m, n, el):
        if (fam, m, n) == (family, None, 2):
            return el + Element.from_word("xyxy")
        return el

    report = CHECKS[check](VerifyConfig(**{**SMALL.__dict__, "perturb": bump}))
    assert not report.passed
    assert report.witness.description == where
    assert not report.witness.diff.is_zero()


@pytest.mark.parametrize(
    "check, where",
    [("commutation", "xy commutation (nabla)"), ("zeta_suite", "delta fixed by zeta")],
)
def test_non_zeta_fixed_catalan_word_fails(check, where):
    # xyxxyy is a Catalan word that zeta does not fix (its image is xxyyxy),
    # so the bumped member is no longer fixed by zeta. commutation compares
    # xy only with the reduced members, so it gets ∇⁽¹⁾₃ bumped; a bumped
    # Δ⁽¹⁾₃ is caught by structural's Δ⁽¹⁾₃ = [1]_q ∇⁽¹⁾₃
    key = ("nabla" if check == "commutation" else "delta", 1, 3)

    def bump(fam, m, n, el):
        return el + Element.from_word("xyxxyy") if (fam, m, n) == key else el

    report = CHECKS[check](VerifyConfig(**{**SMALL.__dict__, "perturb": bump}))
    assert not report.passed
    assert report.witness.description == where
    assert not report.witness.diff.is_zero()


def test_pass_set_monotone_in_cutoff():
    # passing at a cutoff implies passing at every smaller cutoff
    for cutoff in (1, 2, 3):
        cfg = VerifyConfig(m_min=-1, m_max=2, n_max=cutoff, cutoff=cutoff)
        assert check_exp_theorem(cfg).passed
        assert check_ode(cfg).passed


def test_report_json_shape():
    r = check_qserre(SMALL)
    obj = r.to_json()
    assert obj["check"] == "qserre"
    assert obj["status"] == "pass"
    assert obj["witness"] is None
    assert "elapsed" not in obj
    assert "evaluated" not in obj
    timed = r.to_json(timings=True)
    assert "elapsed" in timed
    assert timed["evaluated"] == r.evaluated > 0
    assert "PASS" in r.line()


def test_failed_report_json_contains_witness():
    r = check_qserre(SMALL, third_coeff=LaurentPoly.zero())
    obj = r.to_json()
    assert obj["status"] == "fail"
    assert obj["witness"]["diff"]


# one member of each family, perturbed; each family's bump is seen by some check
NEGATIVE_BUMPS = {
    "delta": (("delta", 2, 2), Element.from_word("xxyy")),
    "nabla": (("nabla", 0, 2), Element.from_word("xyxy", q_int(2))),
    "C": (("C", None, 2), Element.from_word("xyxy")),
    "D": (("D", None, 2), Element.from_word("xyxy")),
    "Gtilde": (("Gtilde", None, 2), Element.from_word("xyxy")),
    "xCny": (("xCny", None, 2), Element.from_word("xyxy")),
}

NEGATIVE_GOLDEN = Path(__file__).parent / "golden" / "negative_controls.json"


def _untimed(report):
    out = report.to_json(timings=True)
    del out["elapsed"]
    return out


def negative_controls(monkeypatch):
    """The reports of every negative control on the SMALL grid: run_all with
    one member of each family perturbed, the qserre control, and the
    shifted-q_int control. NEGATIVE_GOLDEN holds its output, written with
    json.dumps(..., indent=1, sort_keys=True)."""
    out = {}
    for family, (key, extra) in NEGATIVE_BUMPS.items():
        def bump(fam, m, n, el, key=key, extra=extra):
            return el + extra if (fam, m, n) == key else el

        reports = run_all(VerifyConfig(**{**SMALL.__dict__, "perturb": bump}))
        out[family] = [_untimed(r) for r in reports]
    out["qserre"] = _untimed(check_qserre(SMALL, third_coeff=LaurentPoly.one()))
    monkeypatch.setattr(checks, "q_int", lambda n: q_int(n + 1) if n else q_int(0))
    out["qint_shifted"] = _untimed(check_qint_identities(SMALL))
    return out


def test_negative_controls_match_the_golden_reports(monkeypatch):
    golden = json.loads(NEGATIVE_GOLDEN.read_text())
    got = negative_controls(monkeypatch)
    assert got.keys() == golden.keys()
    for name in golden:
        assert got[name] == golden[name], name
    # every family's perturbation turns at least one check red
    for family in NEGATIVE_BUMPS:
        assert any(r["status"] == "fail" for r in got[family]), family


def _swapped_kernel(monkeypatch):
    """Mutate the word-pair kernel to compute v ⋆ u where u ⋆ v is asked
    for, at every step of its recursion. Its tables go to an empty memo of
    their own, and the real memo is back once the test ends."""
    real = algebra._shuffle_keys
    monkeypatch.setattr(algebra, "_memo", {})
    monkeypatch.setattr(algebra, "_shuffle_keys", lambda u, v, unit: real(v, u, unit))


def test_a_swapped_kernel_turns_ten_checks_red(monkeypatch):
    _swapped_kernel(monkeypatch)
    # a wrong product need not leave a numerator that q − q⁻¹ divides: a
    # check reports the element that did not divide instead of raising out
    # of run_all
    reports = run_all(SMALL)
    assert len(reports) == len(CHECKS)
    red = {r.name for r in reports if not r.passed}
    assert red == set(CHECKS) - {"qint_identities", "structural"}
    assert all(r.status == "fail" and not r.witness.diff.is_zero() for r in reports if r.name in red)


def test_each_dropped_commutation_pair_is_a_central_multiple_of_a_compared_one():
    # commutation once also compared every pair of members Δ⁽ᵐ⁾ₙ, ∇⁽ᵐ⁾ₙ with
    # n ≥ 1 up to total degree PAIR_DEGREE_CAP, and ∇⁽⁰⁾₁ with each ∇⁽⁰⁾ₖ.
    # Read Δ⁽ᵐ⁾ₙ as [m]_q ∇⁽ᵐ⁾ₙ and ∇⁽ᵐ⁾₁ as xy, as structural states: each
    # such pair is then a central multiple of an xy instance, of a pair in
    # _reduced_pairs, or of a member against itself
    member = checks.CheckContext(SMALL).member
    members = [(fam, m, n) for m in SMALL.m_range() for n in range(1, SMALL.n_max + 1)
               for fam in ("delta", "nabla")]
    old = {(a, b) for i, a in enumerate(members) for b in members[i + 1:]
           if a[2] + b[2] <= checks.PAIR_DEGREE_CAP}
    old |= {(("nabla", 0, n), ("nabla", 0, k)) for k in range(2, SMALL.n_max + 1) for n in range(1, k)}
    pairs = checks._reduced_pairs(SMALL)
    assert [a[1] + b[1] for a, b in pairs] == sorted(a[1] + b[1] for a, b in pairs)
    kept = set(pairs)

    def reduced(fam, m, n):
        factor = q_int(m) if fam == "delta" else LaurentPoly.one()
        return factor, "xy" if n == 1 else (m, n)

    compared, dropped = set(), 0
    for a, b in old:
        (fa, ra), (fb, rb) = reduced(*a), reduced(*b)
        if a[0] == b[0] == "nabla" and "xy" not in (ra, rb):
            compared.add((ra, rb))
            continue
        dropped += 1
        if "xy" not in (ra, rb) and ra != rb:
            assert tuple(sorted((ra, rb))) in kept, (a, b)
        red_a, red_b = (XY_EL if r == "xy" else member("nabla", *r) for r in (ra, rb))
        want = checks._commutes(red_a, red_b).scale(fa * fb)
        assert checks._commutes(member(*a), member(*b)) == want, (a, b)
    assert compared == kept
    assert dropped == len(old) - len(kept) > 0


# -- the packed identities against their unpacked formulations ------------------
#
# check_commutation, check_yinv_calculus and check_qint_identities test each
# identity as one packed sum, decoded only when it fails. The functions below
# are the formulations they replaced: both orders of a product as two
# products, commutator's exact division, and differences taken in Element
# and LaurentPoly arithmetic.


def _unpacked_commutation(cfg, ctx=None):
    member = (ctx or checks.CheckContext(cfg)).member
    run = checks._Run("commutation", {})
    for n in range(2, cfg.n_max + 1):
        for m in cfg.m_range():
            u = member("nabla", m, n)
            run.require_zero(XY_EL.shuffle(u) - u.shuffle(XY_EL), "xy commutation (nabla)", m, n)
    for (ma, na), (mb, nb) in checks._reduced_pairs(cfg):
        a, b = member("nabla", ma, na), member("nabla", mb, nb)
        diff = a.shuffle(b) - b.shuffle(a)
        run.require_zero(diff, f"nabla({ma},{na}) vs nabla({mb},{nb})", ma, na + nb)


def _unpacked_yinv_calculus(cfg, ctx=None):
    member = (ctx or checks.CheckContext(cfg)).member
    run = checks._Run("yinv_calculus", {})
    for n in range(0, cfg.n_max + 1):
        for m in cfg.m_range():
            for fam, first in checks._M_FAMILIES:
                if n < first:
                    continue
                u = member(fam, m, n)
                uy = u.y_inverse()
                xu, ux = X_EL.shuffle(u), u.shuffle(X_EL)
                uyxy, xyuy = uy.shuffle(XY_EL), XY_EL.shuffle(uy)
                run.require_zero((xu - ux) - (uyxy - xyuy), f"commutator via y^-1 ({fam})", m, n)
    for total in range(2, 2 * cfg.n_max + 1):
        for n in range(1, cfg.n_max + 1):
            k = total - n
            if not 1 <= k <= cfg.n_max:
                continue
            rhs = commutator(0, member("nabla", 0, n).y_inverse(), member("nabla", 0, k))
            lhs = member("nabla", 0, n + k).y_inverse()
            run.require_zero(lhs - rhs, f"(n,k) truncated recursion ({n},{k})", 0, n + k)
    for n in range(0, cfg.n_max):
        for m in cfg.m_range():
            target = member("delta", m, n + 1).y_inverse()
            s1 = Element.zero()
            s2 = Element.zero()
            for k in range(0, n + 1):
                nky = member("nabla", 0, k + 1).y_inverse()
                dk = member("delta", m, n - k)
                nkyd, dnky = nky.shuffle(dk), dk.shuffle(nky)
                s1 = s1 + nkyd.scale(q_pow(-m * k))
                s2 = s2 + dnky.scale(q_pow(m * k))
            run.require_zero(target - s1.scale(q_int(m)), "weighted convolution (i)", m, n + 1)
            run.require_zero(target - s2.scale(q_int(m)), "weighted convolution (ii)", m, n + 1)
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


def _unpacked_qint_identities(cfg, ctx=None):
    run = checks._Run("qint_identities", {})
    rng = range(-cfg.qint_grid, cfg.qint_grid + 1)

    def prod(*ns):
        out = LaurentPoly.one()
        for n in ns:
            out = out * checks.q_int(n)  # through the module, which a test may patch
        return out

    for a in rng:
        for b in rng:
            for c in rng:
                d1 = prod(a + c, b + c) - prod(a, b) - prod(c, a + b + c)
                run.require_zero(d1, f"identity (i) at {(a, b, c)}")
                d2 = prod(a, b - c) + prod(b, c - a) + prod(c, a - b)
                run.require_zero(d2, f"identity (ii) at {(a, b, c)}")
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    d3 = (prod(a, b, c - d) + prod(b, c, d - a)
                          + prod(c, d, a - b) + prod(d, a, b - c))
                    run.require_zero(d3, f"identity (iii) at {(a, b, c, d)}")
                    d4 = (prod(a, b, a - b) + prod(b, c, b - c) + prod(c, d, c - d)
                          + prod(d, a, d - a) - prod(a - c, b - d, a + c - b - d))
                    run.require_zero(d4, f"identity (iv) at {(a, b, c, d)}")


def _instances(monkeypatch, check, cfg):
    """Every instance check compares on cfg, failing or not, as
    (description, m, n, holds, witness); the witness is built as
    _Run.require builds it, and None for an instance that holds."""
    seen = []

    def record(run, holds, description, m=None, n=None, el=W.EMPTY_WORD, coeff=None):
        if not holds and not isinstance(el, Element):
            el = Element.from_word(el, coeff)
        seen.append((description, m, n, bool(holds), None if holds else el))

    with monkeypatch.context() as patch:
        patch.setattr(checks._Run, "require", record)
        check(cfg)
    return seen


def _bumped(key, extra):
    def bump(fam, m, n, el):
        return el + extra if (fam, m, n) == key else el
    return bump


MEMBER_BUMPS = [
    None,
    _bump,
    bump_nabla,
    _bumped(("nabla", 0, 1), Element.from_word("xx", q_pow(1))),
    _bumped(("nabla", 0, SMALL.n_max + 1), Element.from_word("xxyy")),
    _bumped(("delta", 1, 3), Element.from_word("xyxxyy")),
    _bumped(("delta", -1, 2), Element.from_word("xyxy", LaurentPoly({-1: Fraction(1, 3)}))),
    _bumped(("nabla", 2, 3), Element.from_word("xxyxyy", q_int(2).scale(Fraction(-1, 2)))),
]


@pytest.mark.parametrize(
    "packed, unpacked",
    [(checks.check_commutation, _unpacked_commutation),
     (check_yinv_calculus, _unpacked_yinv_calculus)],
    ids=["commutation", "yinv_calculus"],
)
def test_packed_identities_match_their_unpacked_formulations(monkeypatch, packed, unpacked):
    # each instance vanishes exactly when its unpacked difference does, and
    # a failing one has the same witness, with and without a perturbed member
    failed = 0
    for bump in MEMBER_BUMPS:
        cfg = VerifyConfig(**{**SMALL.__dict__, "perturb": bump})
        got, want = _instances(monkeypatch, packed, cfg), _instances(monkeypatch, unpacked, cfg)
        assert got == want, bump
        failed += sum(not holds for _, _, _, holds, _ in got)
    assert failed


def test_packed_qint_identities_match_their_unpacked_formulation(monkeypatch):
    for shifted in (
        None,
        lambda n: q_int(n + 1) if n else q_int(0),
        lambda n: q_int(n) * q_pow(1) if n == 3 else q_int(n),
        lambda n: q_int(n).scale(2) if n == -2 else q_int(n),
    ):
        with monkeypatch.context() as patch:
            if shifted is not None:
                patch.setattr(checks, "q_int", shifted)
            got = _instances(monkeypatch, check_qint_identities, SMALL)
            want = _instances(monkeypatch, _unpacked_qint_identities, SMALL)
        assert got == want
        assert all(holds for *_, holds, _ in got) == (shifted is None)


# -- the check harness ----------------------------------------------------------


@pytest.mark.parametrize("bumped", [None, "delta"], ids=["unperturbed", "delta_bumped"])
def test_each_check_alone_reports_as_in_run_all(bumped):
    # alone, a check builds its own context; in run_all all twelve share one
    perturb = None if bumped is None else _bumped(*NEGATIVE_BUMPS[bumped])
    cfg = VerifyConfig(**{**SMALL.__dict__, "perturb": perturb})
    shared = run_all(cfg)
    assert [r.name for r in shared] == list(CHECKS)
    for check, report in zip(CHECKS.values(), shared):
        assert list(inspect.signature(check).parameters)[:2] == ["cfg", "ctx"]
        assert _untimed(check(cfg)) == _untimed(report), report.name
    statuses = {r.status for r in shared}
    assert statuses == ({"pass"} if bumped is None else {"pass", "fail"})


def _raise_inexact(dividend):
    def commutator(m, a, b):
        raise InexactDivisionError("not divisible by q - q^-1", dividend)
    return commutator


@pytest.mark.parametrize("name", ["nabla_recursion", "ode"])
def test_a_division_error_reports_its_dividend_as_the_witness(monkeypatch, name):
    dividend = Element.from_word("xxy", q_int(2))
    monkeypatch.setattr(checks, "commutator", _raise_inexact(dividend))
    report = CHECKS[name](SMALL)
    assert report.status == "fail"
    assert report.witness.description == "not divisible by q - q^-1"
    assert (report.witness.m, report.witness.n) == (None, None)
    assert report.witness.diff == dividend


def test_a_division_error_without_a_dividend_propagates(monkeypatch):
    monkeypatch.setattr(checks, "commutator", _raise_inexact(None))
    with pytest.raises(InexactDivisionError, match="not divisible"):
        check_nabla_recursion(SMALL)


# -- run_all's worker processes --------------------------------------------------


forks = pytest.mark.skipif(sys.platform != "linux", reason="run_all forks workers on Linux only")


def _run_with(monkeypatch, cpus, cfg=SMALL, names=None):
    """run_all's untimed reports with _cpu_count patched to cpus; no worker
    process may outlive the run."""
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_cpu_count", lambda: cpus)
        reports = [_untimed(r) for r in run_all(cfg, names)]
    assert not multiprocessing.active_children()
    return reports


def _builders(monkeypatch):
    """The pids of the processes that build a member from here on; the
    patched catalan.member is inherited by forked workers, but what it
    records there is not seen here."""
    pids = set()
    real = catalan.member

    def member(family, m, n):
        pids.add(os.getpid())
        return real(family, m, n)

    monkeypatch.setattr(catalan, "member", member)
    return pids


def test_parallel_reports_equal_the_serial_reports(monkeypatch):
    serial = _run_with(monkeypatch, 1)
    assert _run_with(monkeypatch, 2) == serial
    assert [r["check"] for r in serial] == list(CHECKS)


def test_parallel_reports_equal_the_serial_reports_under_a_kernel_mutant(monkeypatch):
    # the workers are forked, so they inherit the patched kernel
    _swapped_kernel(monkeypatch)
    serial = _run_with(monkeypatch, 1)
    assert _run_with(monkeypatch, 2) == serial
    assert {r["status"] for r in serial} == {"pass", "fail"}


@pytest.mark.parametrize("family", NEGATIVE_BUMPS)
def test_a_perturbed_run_stays_in_the_calling_process(monkeypatch, family):
    # the hook's side effects are the caller's: here, the members it saw
    key, extra = NEGATIVE_BUMPS[family]
    seen = []

    def bump(fam, m, n, el):
        seen.append((fam, m, n))
        return el + extra if (fam, m, n) == key else el

    cfg = VerifyConfig(**{**SMALL.__dict__, "perturb": bump})
    serial = _run_with(monkeypatch, 1, cfg)
    seen.clear()
    pids = _builders(monkeypatch)
    assert _run_with(monkeypatch, 2, cfg) == serial
    assert key in seen and pids == {os.getpid()}
    assert "fail" in {r["status"] for r in serial}


@forks
def test_the_checks_run_in_the_workers_and_a_single_check_in_process(monkeypatch):
    pids = _builders(monkeypatch)
    _run_with(monkeypatch, 2, names=["structural", "commutation"])
    assert pids == set()
    _run_with(monkeypatch, 2, names=["structural"])
    assert pids == {os.getpid()}


def test_a_process_with_other_threads_runs_the_checks_itself(monkeypatch):
    # fork would copy only this thread, and no lock another thread holds
    # would ever be released in the copy
    pids, release = _builders(monkeypatch), threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        _run_with(monkeypatch, 2, names=["structural", "commutation"])
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert pids == {os.getpid()}


def test_a_check_that_raises_in_a_worker_raises_as_in_serial(monkeypatch):
    # commutation, yinv_calculus and zeta_suite each refuse a product, with
    # different messages; commutation comes first in catalog order
    monkeypatch.setattr(algebra, "_SHUFFLE_BUDGET", 100)
    raised = []
    for cpus in (1, 2):
        with pytest.raises(CapExceededError) as info:
            _run_with(monkeypatch, cpus)
        assert not multiprocessing.active_children()
        raised.append(str(info.value))
    assert raised[0] == raised[1]


def test_the_first_failure_in_catalog_order_wins_not_the_first_in_time(monkeypatch):
    def late(cfg, ctx=None):
        time.sleep(0.3)
        raise ValueError("qserre")

    def early(cfg, ctx=None):
        raise ValueError("qint_identities")

    monkeypatch.setitem(CHECKS, "qserre", late)
    monkeypatch.setitem(CHECKS, "qint_identities", early)
    for cpus in (1, 2):
        with pytest.raises(ValueError, match="^qserre$"):
            _run_with(monkeypatch, cpus)
        assert not multiprocessing.active_children()


@forks
def test_a_worker_that_dies_breaks_the_pool_without_hanging(monkeypatch):
    monkeypatch.setitem(CHECKS, "structural", lambda cfg, ctx=None: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        _run_with(monkeypatch, 2)
    assert not multiprocessing.active_children()
