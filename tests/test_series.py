from fractions import Fraction

import pytest

from qshuffle import algebra
from qshuffle.algebra import Element, UNIT, X_EL
from qshuffle.catalan import (
    catalan_element,
    d_element,
    delta_element,
    gtilde_element,
    nabla_element,
    x_cn_y,
)
from qshuffle.errors import CutoffMismatchError, InexactDivisionError
from qshuffle.qlaurent import LaurentPoly, q_int, q_pow
from qshuffle.series import (
    Series,
    beck_log_argument,
    d_series,
    delta_series,
    family_series,
    gtilde_series,
    log_argument,
)

N = 5


def t_times(el, n, cutoff=N):
    coeffs = [Element.zero()] * (cutoff + 1)
    coeffs[n] = el
    return Series(coeffs, cutoff)


def test_construction_and_padding():
    s = Series([UNIT], 3)
    assert s.cutoff == 3
    assert s[0] == UNIT and s[3].is_zero()
    with pytest.raises(ValueError):
        Series([], -1)


def test_cutoff_mismatch_is_an_error():
    with pytest.raises(CutoffMismatchError):
        Series.unit(3).star_mul(Series.unit(4))
    with pytest.raises(CutoffMismatchError):
        Series.unit(3) + Series.unit(2)


def test_star_mul_examples():
    G = gtilde_series(N)
    assert G.star_mul(Series.unit(N)) == G
    assert Series.unit(N).star_mul(G) == G
    a = t_times(Element.from_word("xy"), 1)
    sq = a.star_mul(a)
    assert sq[2] == Element.from_word("xy").shuffle(Element.from_word("xy"))
    assert sq[0].is_zero() and sq[1].is_zero() and sq[3].is_zero()


def test_inverse_is_the_closed_form_and_two_sided():
    G = gtilde_series(N)
    D = G.inverse()
    for n in range(N + 1):
        assert D[n] == d_element(n), n
    assert G.star_mul(D) == Series.unit(N)
    assert D.star_mul(G) == Series.unit(N)
    assert Series.unit(N).inverse() == Series.unit(N)
    with pytest.raises(ValueError):
        t_times(Element.from_word("xy"), 1).inverse()


def test_inverse_of_delta_series():
    for m in (1, 2, 3):
        a = delta_series(m, 4)
        b = delta_series(-m, 4)
        assert a.star_mul(b) == Series.unit(4)
        assert a.inverse() == b


def test_rescale():
    D = d_series(N)
    assert D.rescale_t(1) == D
    flipped = D.rescale_t(-1)
    for n in range(N + 1):
        assert flipped[n] == delta_element(1, n), n
    assert D.rescale_t(q_pow(1)).rescale_t(q_pow(-1)) == D
    a = D.rescale_t(q_int(2)).rescale_t(q_int(3))
    b = D.rescale_t(q_int(2) * q_int(3))
    assert a == b


def test_derivative():
    assert Series.unit(N).derivative() == Series.zero(N - 1)
    ones = Series([UNIT] * (N + 1), N)
    d = ones.derivative()
    for n in range(N):
        assert d[n] == UNIT.scale(n + 1)
    dd = delta_series(1, N).derivative()
    assert dd[0] == delta_element(1, 1)
    assert dd.cutoff == N - 1


def test_derivative_is_a_star_derivation():
    A = delta_series(2, 3)
    B = gtilde_series(3)
    lhs = A.star_mul(B).derivative()
    rhs = A.derivative().star_mul(B.truncate(2)) + A.truncate(2).star_mul(B.derivative())
    assert lhs == rhs


def test_divide_t():
    s = family_series("nabla", 0, N)
    shifted = s.divide_t()
    assert shifted.cutoff == N - 1
    assert shifted[0] == x_cn_y(1)
    with pytest.raises(InexactDivisionError):
        Series.unit(N).divide_t()


def test_exp_basics():
    assert Series.zero(N).exp() == Series.unit(N)
    for m in (-2, 1, 3):
        e = t_times(Element.from_word("xy", q_int(m)), 1).exp()
        assert e[1] == delta_element(m, 1)
    with pytest.raises(ValueError):
        Series.unit(N).exp()


def test_exp_matches_catalan_series():
    assert beck_log_argument(2, 4).exp() == family_series("C", None, 4)


def test_log_basics():
    assert Series.unit(N).log() == Series.zero(N)
    got = family_series("C", None, 4).log()
    expect = beck_log_argument(2, 4)
    assert got == expect
    a = t_times(Element.from_word("xy"), 1)
    assert a.exp().log() == a
    assert (Series.unit(N) + a).log().exp() == Series.unit(N) + a
    with pytest.raises(ValueError):
        Series.zero(N).log()


def test_exp_theorem_all_m():
    for m in range(-3, 4):
        lhs = log_argument(m, 4, "nabla").exp()
        assert lhs == delta_series(m, 4), m
        assert delta_series(m, 4).log() == log_argument(m, 4, "nabla"), m


def test_exp_coefficients_are_integral():
    for m in range(-3, 4):
        e = log_argument(m, N, "nabla").exp()
        for n in range(N + 1):
            assert e[n].is_integral(), (m, n)


def test_shuffle_kernel_sees_only_ints(monkeypatch):
    # every packed entry (o, N) that is accumulated, and every multiplier,
    # holds ints only: no Fraction reaches a packed value
    def packed_ints(entries):
        return all(type(o) is int and type(n) is int for o, n in entries)

    inner_acc, inner_add = algebra._accumulate, algebra._add_letter
    seen = []

    def guarded_acc(out, sub, cw):
        assert packed_ints([cw]) and packed_ints(sub.values())
        seen.append(len(sub))
        inner_acc(out, sub, cw)

    def guarded_add(out, terms, letter, shift):
        assert type(shift) is int and packed_ints(terms.values())
        inner_add(out, terms, letter, shift)

    monkeypatch.setattr(algebra, "_accumulate", guarded_acc)
    monkeypatch.setattr(algebra, "_add_letter", guarded_add)
    for m in (-2, 3):
        assert beck_log_argument(m, 4).exp() == delta_series(m, 4), m
        assert log_argument(m, 4, "nabla").exp() == delta_series(m, 4), m
    assert seen


# -- the literal definitions, kept as the slow reference -----------------------------


def _star_mul_literal(a, b):
    """One Element.shuffle per pair of coefficients, added up as Elements."""
    return Series(
        [sum((a[i].shuffle(b[k - i]) for i in range(k + 1)), Element.zero())
         for k in range(a.cutoff + 1)],
        a.cutoff,
    )


def _exp_literal(a):
    """1 + Σ A^k / k!, each power one more literal Cauchy product."""
    out = power = Series.unit(a.cutoff)
    for k in range(1, a.cutoff + 1):
        power = _star_mul_literal(power, a).scale(Fraction(1, k))
        out = out + power
    return out


def _log_literal(a):
    """Σ (-1)^(k+1) Z^k / k for Z = A - 1."""
    z = a - Series.unit(a.cutoff)
    out, power = Series.zero(a.cutoff), Series.unit(a.cutoff)
    for k in range(1, a.cutoff + 1):
        power = _star_mul_literal(power, z)
        out = out + power.scale(Fraction(1 if k % 2 else -1, k))
    return out


def _inverse_literal(a):
    inv = [UNIT]
    for n in range(1, a.cutoff + 1):
        inv.append(-sum((a[k].shuffle(inv[n - k]) for k in range(1, n + 1)), Element.zero()))
    return Series(inv, a.cutoff)


def _noncommuting(cutoff):
    """x t + (y/3) t^2 + ([2]_q/2) xy t^3, truncated at the cutoff."""
    return Series(
        [Element.zero(), Element.from_word("x"), Element.from_word("y", Fraction(1, 3)),
         Element.from_word("xy", q_int(2).scale(Fraction(1, 2)))],
        cutoff,
    )


@pytest.mark.parametrize("cutoff", [0, 1, 5])
def test_series_calculus_matches_the_literal_definitions(cutoff):
    a = _noncommuting(cutoff)
    b = Series.unit(cutoff) + a.zeta()  # 1 + y t + (x/3) t^2 + ...
    c = Series.unit(cutoff) + a.rescale_t(q_pow(1))
    if cutoff > 1:
        assert a.star_mul(b) != b.star_mul(a)  # the coefficients do not commute
    for left, right in ((a, b), (b, a), (b, c), (a, a)):
        assert left.star_mul(right) == _star_mul_literal(left, right)
    for arg in (a, a.zeta(), a.rescale_t(-1)):
        assert arg.exp() == _exp_literal(arg)
    for arg in (b, c, delta_series(2, cutoff)):
        assert arg.log() == _log_literal(arg)
        assert arg.inverse() == _inverse_literal(arg)


@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
def test_beck_exp_at_cutoff_6(m):
    assert beck_log_argument(m, 6).exp() == delta_series(m, 6)


def test_apply_truncations():
    assert Series.unit(N).apply_y_inverse() == Series.zero(N)
    s = family_series("nabla", 0, N).apply_y_inverse()
    for n in range(1, N + 1):
        assert s[n] == X_EL * catalan_element(n - 1), n
    z = family_series("nabla", 0, N).zeta().apply_x_inverse()
    assert z == s.zeta()


def test_series_json_round_trip():
    s = delta_series(2, 3)
    obj = s.to_json()
    assert obj["cutoff"] == 3
    assert Series.from_json(obj) == s


def test_truncate():
    s = delta_series(2, 4)
    t = s.truncate(2)
    assert t.cutoff == 2 and t[2] == delta_element(2, 2)
    with pytest.raises(ValueError):
        t.truncate(3)


def test_free_form_series_agree_with_reduced():
    assert family_series("xCny", None, 4) == family_series("nabla", 0, 4)
    assert beck_log_argument(3, 4) == log_argument(3, 4, "nabla")


def test_family_series_and_log_argument_match_the_direct_builders():
    zero = Element.zero()
    for m in (-2, 0, 3):
        want = Series([delta_element(m, n) for n in range(N + 1)], N)
        assert family_series("delta", m, N) == want == delta_series(m, N)
        want = Series([zero] + [nabla_element(m, n) for n in range(1, N + 1)], N)
        assert family_series("nabla", m, N) == want
        for body, build in (("xCny", x_cn_y), ("nabla", lambda n: nabla_element(0, n))):
            want = Series(
                [zero] + [build(n).scale(q_int(m * n) * Fraction(1, n)) for n in range(1, N + 1)],
                N,
            )
            assert log_argument(m, N, body) == want, (m, body)
        assert log_argument(m, N) == beck_log_argument(m, N), m
    for family, build in (("C", catalan_element), ("D", d_element), ("Gtilde", gtilde_element)):
        want = Series([build(n) for n in range(N + 1)], N)
        assert family_series(family, None, N) == want, family
    assert d_series(N) == family_series("D", None, N)
    assert gtilde_series(N) == family_series("Gtilde", None, N)
    want = Series([zero] + [x_cn_y(n) for n in range(1, N + 1)], N)
    assert family_series("xCny", None, N) == want
    with pytest.raises(ValueError):
        log_argument(2, N, "delta")
    with pytest.raises(ValueError):
        family_series("Q", None, N)


def test_series_builders_take_their_members_from_the_given_getter():
    calls = []

    def member(family, m, n):
        calls.append((family, m, n))
        return Element.from_word("xy" * n)

    s = family_series("nabla", 0, 3, member)
    assert calls == [("nabla", 0, 1), ("nabla", 0, 2), ("nabla", 0, 3)]
    assert s == Series([Element.zero()] + [Element.from_word("xy" * n) for n in (1, 2, 3)], 3)
    calls.clear()
    arg = log_argument(2, 2, "xCny", member)
    assert calls == [("xCny", None, 1), ("xCny", None, 2)]
    assert arg[2] == Element.from_word("xyxy", q_int(4) * Fraction(1, 2))


def test_arithmetic_against_a_non_series_is_a_type_error():
    s = Series.unit(2)
    for other in (1, Fraction(1, 2), UNIT, None):
        with pytest.raises(TypeError):
            s + other
        with pytest.raises(TypeError):
            s - other
        with pytest.raises(TypeError):
            other + s
        with pytest.raises(TypeError):
            s.star_mul(other)
        with pytest.raises(TypeError):
            s @ other


def test_float_scalars_are_refused():
    s = family_series("Gtilde", None, 2)
    for bad in (0.5, 1.0):
        with pytest.raises(TypeError):
            s.rescale_t(bad)
        with pytest.raises(TypeError):
            X_EL.scale(bad)
        with pytest.raises(TypeError):
            Element.from_word("xy", bad)
    assert s.rescale_t(Fraction(1, 2)) == s.rescale_t(LaurentPoly.const(Fraction(1, 2)))
