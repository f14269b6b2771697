"""The acceptance gate: one test per criterion, each printing a pass/fail
line with its measured runtime and asserting the stated bound. Every
comparison is exact; there is no tolerance anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

from qshuffle import words as W
from qshuffle.algebra import Element, UNIT, X_EL, Y_EL, shuffle_fold
from qshuffle.catalan import (
    catalan_element,
    d_element,
    delta_element,
    delta_scalar,
    nabla_scalar,
)
from qshuffle.checks import (
    VerifyConfig,
    check_commutation,
    check_exp_theorem,
    check_genfuns,
    check_main_theorems,
    check_nabla_recursion,
    check_ode,
    check_qint_identities,
    check_qserre,
    check_structural,
    check_yinv_calculus,
    check_zeta_suite,
)
from qshuffle.qlaurent import LaurentPoly, q_int, q_pow
from qshuffle.series import (
    Series,
    d_series,
    family_series,
    gtilde_series,
    log_argument,
)

from test_catalan import DELTA_TABLE, NABLA_TABLE
from conftest import P


class _Gate:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{status}  {self.label}  ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label} exceeded its runtime budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_golden_tables():
    with _Gate("criterion 1: golden scalar tables, words <= 6, m in -3..3", 1.0):
        for s, cells in DELTA_TABLE.items():
            for m, expr in zip(range(-3, 4), cells):
                assert delta_scalar(m, W.word(s)) == P(expr), (s, m)
        for s, cells in NABLA_TABLE.items():
            for m, expr in zip(range(-3, 4), cells):
                assert nabla_scalar(m, W.word(s)) == P(expr), (s, m)


def test_criterion_02_named_family_expansions():
    with _Gate("criterion 2: reference expansions of C_0..C_3 and D_0..D_3", 1.0):
        w = Element.from_word
        assert catalan_element(0) == UNIT
        assert catalan_element(1) == w("xy", P("[2]"))
        assert catalan_element(2) == w("xyxy", P("[2]^2")) + w("xxyy", P("[2]^2[3]"))
        assert catalan_element(3) == (
            w("xyxyxy", P("[2]^3")) + w("xxyyxy", P("[2]^3[3]"))
            + w("xyxxyy", P("[2]^3[3]")) + w("xxyxyy", P("[2]^3[3]^2"))
            + w("xxxyyy", P("[2]^2[3]^2[4]"))
        )
        assert d_element(0) == UNIT
        assert d_element(1) == -w("xy")
        assert d_element(2) == w("xyxy") + w("xxyy", P("[2]^2"))
        assert d_element(3) == -(
            w("xyxyxy") + w("xxyyxy", P("[2]^2")) + w("xyxxyy", P("[2]^2"))
            + w("xxyxyy", P("[2]^4")) + w("xxxyyy", P("[2]^2[3]^2"))
        )


def test_criterion_03_qserre():
    with _Gate("criterion 3: both shuffle relations vanish exactly", 1.0):
        for a, b in ((X_EL, Y_EL), (Y_EL, X_EL)):
            rel = (
                shuffle_fold([a, a, a, b])
                - shuffle_fold([a, a, b, a]).scale(q_int(3))
                + shuffle_fold([a, b, a, a]).scale(q_int(3))
                - shuffle_fold([b, a, a, a])
            )
            assert rel.is_zero()


def test_criterion_04_series_inversion():
    with _Gate("criterion 4: inverse of the alternating series up to t^5", 10.0):
        N = 5
        G = gtilde_series(N)
        D = G.inverse()
        for n in range(N + 1):
            assert D[n] == d_element(n)
            assert D[n] == delta_element(1, n).scale(-1 if n % 2 else 1)
        assert G.star_mul(D) == Series.unit(N)
        assert D.star_mul(G) == Series.unit(N)


def test_criterion_05_exp_theorem():
    with _Gate("criterion 5: exponential formula, m in -3..3, up to t^5", 120.0):
        report = check_exp_theorem(VerifyConfig(m_min=-3, m_max=3, cutoff=5))
        assert report.passed, report.witness and report.witness.description


def test_criterion_06_factorization_theorems():
    with _Gate("criterion 6: rescaled factorizations (m <= 3, t^4) and the "
               "power-sum identity (n <= 4, m <= 5)", 120.0):
        cfg = VerifyConfig(main_m_max=3, main_cutoff=4, qmn_m_max=5, qmn_n_max=4)
        report = check_main_theorems(cfg)
        assert report.passed, report.witness and report.witness.description


def test_criterion_07_generating_function_package():
    with _Gate("criterion 7: classical generating-function identities up to t^5", 60.0):
        report = check_genfuns(VerifyConfig(cutoff=5, pair_degree_cap=6, main_m_max=3))
        assert report.passed, report.witness and report.witness.description
        # the two-factor rescaled product, stated directly
        N = 5
        lhs = family_series("C", None, N).rescale_t(-1)
        rhs = d_series(N).rescale_t(q_pow(1)).star_mul(d_series(N).rescale_t(q_pow(-1)))
        assert lhs == rhs


def test_criterion_08_recursion_commutation_suite():
    with _Gate("criterion 8: recursion/commutation/truncation suite, "
               "m in -3..3, n <= 5", 300.0):
        cfg = VerifyConfig(m_min=-3, m_max=3, n_max=5, cutoff=5)
        for check in (check_nabla_recursion, check_commutation, check_yinv_calculus, check_ode):
            report = check(cfg)
            assert report.passed, (
                report.name, report.witness and report.witness.description
            )


def test_criterion_09_structural_suites():
    with _Gate("criterion 9: scalar identities, word structure, telescoping, "
               "involution suite", 60.0):
        cfg = VerifyConfig(m_min=-3, m_max=3, n_max=5, qint_grid=6)
        for check in (check_qint_identities, check_structural, check_zeta_suite):
            report = check(cfg)
            assert report.passed, (
                report.name, report.witness and report.witness.description
            )


def test_criterion_10_integrality():
    with _Gate("criterion 10: exp-reconstructed coefficients have denominator 1", 120.0):
        for m in range(-3, 4):
            e = log_argument(m, 5, "nabla").exp()
            for n in range(6):
                assert e[n].is_integral(), (m, n)
                assert e[n] == delta_element(m, n)


def test_criterion_11_negative_controls():
    with _Gate("criterion 11: perturbations are detected with nonzero witnesses", 60.0):
        # dropping the weight-3 coefficient breaks the degree-4 relation
        bad = check_qserre(third_coeff=LaurentPoly.one())
        assert not bad.passed
        assert bad.witness is not None and not bad.witness.diff.is_zero()

        # bumping a single table coefficient breaks the recursion check
        def bump(family, m, n, el):
            if family == "delta" and m == 2 and n == 2:
                return el + Element.from_word("xxyy")
            return el

        cfg = VerifyConfig(m_min=-2, m_max=2, n_max=3, cutoff=3, perturb=bump)
        report = check_nabla_recursion(cfg)
        assert not report.passed
        assert report.witness is not None and not report.witness.diff.is_zero()

        # bumping a reduced-family coefficient breaks the exponential formula
        def bump_nabla(family, m, n, el):
            if family == "nabla" and m == 0 and n == 1:
                return el + Element.from_word("xy", q_pow(1))
            return el

        cfg2 = VerifyConfig(m_min=1, m_max=1, cutoff=3, perturb=bump_nabla)
        report2 = check_exp_theorem(cfg2)
        assert not report2.passed
        assert report2.witness is not None and not report2.witness.diff.is_zero()
