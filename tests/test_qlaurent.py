import random
from fractions import Fraction

import pytest

from qshuffle.errors import InexactDivisionError
from qshuffle.qlaurent import LaurentPoly, Q_COMM, q_falling, q_int, q_pow

from conftest import P, div_exact_longhand


def test_q_int_small_values():
    assert q_int(0).is_zero()
    assert q_int(1) == LaurentPoly.one()
    assert q_int(2) == LaurentPoly({1: 1, -1: 1})
    assert q_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert q_int(-3) == -q_int(3)


def test_q_int_antisymmetry_and_palindromy():
    for n in range(-8, 9):
        assert q_int(-n) == -q_int(n)
        for e, c in q_int(n).terms():
            assert q_int(n).coeff(-e) == c


def test_q_int_defining_quotient():
    # [n]_q (q - q^-1) == q^n - q^-n
    for n in range(-6, 7):
        assert q_int(n) * Q_COMM == q_pow(n) - q_pow(-n)


def test_q_falling():
    assert q_falling(5, 0) == LaurentPoly.one()
    assert q_falling(5, -1).is_zero()
    assert q_falling(5, -3).is_zero()
    assert q_falling(3, 2) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    assert q_falling(3, 2) == q_int(3) * q_int(2)
    assert q_falling(2, 3) == q_int(2) * q_int(1) * q_int(0)
    assert q_falling(2, 3).is_zero()


def test_ring_ops():
    two = q_int(2)
    assert two * two == LaurentPoly({2: 1, 0: 2, -2: 1})
    p = P("[3]^2[4]")
    assert (p + (-p)).is_zero()
    assert p - p == LaurentPoly.zero()
    assert q_int(2) * q_int(3) == q_int(4) + q_int(2)
    assert two ** 0 == LaurentPoly.one()
    assert two ** 3 == two * two * two
    assert (-two).scale(-1) == two


def test_scale_rational_normalizes_to_int():
    p = q_int(2).scale(Fraction(1, 2))
    q = p.scale(2)
    assert q == q_int(2)
    assert q.is_integral()
    assert not p.is_integral()


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        q_int(2) ** -1


def test_exact_division():
    assert (q_int(2) * q_int(3)).div_exact(q_int(3)) == q_int(2)
    assert (q_pow(2) - q_pow(-2)).div_exact(Q_COMM) == q_int(2)
    assert LaurentPoly.zero().div_exact(q_int(2)).is_zero()
    with pytest.raises(InexactDivisionError):
        (q_int(2) + LaurentPoly.one()).div_exact(Q_COMM)
    with pytest.raises(ZeroDivisionError):
        q_int(2).div_exact(LaurentPoly.zero())


def test_exact_division_by_monic_divisors_keeps_int_coefficients():
    for n in range(1, 7):
        for k in range(1, 5):
            quot = (q_int(n) * q_int(k) * q_pow(n - k)).div_exact(q_int(n))
            assert quot == q_int(k) * q_pow(n - k)
            assert all(type(c) is int for _, c in quot.terms())
    quot = (q_pow(5) - q_pow(-3)).scale(-7).div_exact(Q_COMM)
    assert quot == q_int(4).scale(-7) * q_pow(1)
    assert all(type(c) is int for _, c in quot.terms())


def test_exact_division_by_a_non_monic_divisor():
    # the leading coefficient 2 does not divide 3: the quotient is rational
    quot = LaurentPoly({0: 3, 2: 3}).div_exact(LaurentPoly({0: 2, 2: 2}))
    assert quot == LaurentPoly.const(Fraction(3, 2))
    assert type(quot.coeff(0)) is Fraction
    # ... and 2 divides 4: the quotient stays an int
    quot = LaurentPoly({0: 4, 2: 4}).div_exact(LaurentPoly({0: 2, 2: 2}))
    assert quot == LaurentPoly.const(2) and type(quot.coeff(0)) is int
    with pytest.raises(InexactDivisionError):
        LaurentPoly({0: 3, 2: 4}).div_exact(LaurentPoly({0: 2, 2: 2}))
    with pytest.raises(InexactDivisionError):
        (q_int(3) + LaurentPoly.const(2)).div_exact(q_int(2))


def test_division_with_rational_coefficients():
    p = P("[2][5]").scale(Fraction(3, 7))
    assert p.div_exact(q_int(5)) == q_int(2).scale(Fraction(3, 7))


def _exactly(p):
    # (exponent, type, value) triples: equal values with different int/Fraction
    # types count as different
    return [(e, type(c), c) for e, c in p.terms()]


_DIVISORS = [q_int(1), q_int(2), q_int(5), q_int(-3), Q_COMM, LaurentPoly({-1: 3, 0: -2, 2: 5})]


@pytest.mark.parametrize("den", _DIVISORS, ids=str)
def test_division_matches_long_division(den):
    rng = random.Random(str(den))
    for i in range(60):
        lo = rng.randint(-6, 6)
        quot = LaurentPoly({
            e: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
            if i % 2 else rng.randint(-9, 9)
            for e in range(lo, lo + rng.randint(0, 7))
        })
        num = den * quot
        want = div_exact_longhand(num, den)
        assert want == quot
        assert _exactly(num.div_exact(den)) == _exactly(want), (num, den)
        # a remainder of lower degree than the divisor makes either division fail
        if den.max_exp() > den.min_exp():
            bad = num + q_pow(num.min_exp() if not num.is_zero() else 0).scale(rng.randint(1, 5))
            for divide in (lambda: bad.div_exact(den), lambda: div_exact_longhand(bad, den)):
                with pytest.raises(InexactDivisionError):
                    divide()


def test_division_refuses_a_numerator_below_the_divisor_degree():
    for num in (LaurentPoly.one(), q_pow(7), q_int(2), q_int(4).scale(Fraction(1, 3))):
        with pytest.raises(InexactDivisionError):
            num.div_exact(q_int(5))


def test_division_refuses_a_remainder_in_the_lowest_exponents_only():
    # the top quotient terms all divide; what is left sits below the divisor's degree
    num = q_int(4) * q_int(3)
    for rest in ({-5: 1}, {-5: -2, -3: 1}, {-5: Fraction(1, 2)}):
        with pytest.raises(InexactDivisionError):
            (num + LaurentPoly(rest)).div_exact(q_int(3))


def test_qint_identity_i_small_grid():
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                lhs = q_int(a + c) * q_int(b + c) - q_int(a) * q_int(b)
                assert lhs == q_int(c) * q_int(a + b + c)


def test_qint_identity_ii_small_grid():
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                total = (
                    q_int(a) * q_int(b - c)
                    + q_int(b) * q_int(c - a)
                    + q_int(c) * q_int(a - b)
                )
                assert total.is_zero()


def test_qint_identities_iii_iv_sampled():
    grid = (-4, -2, -1, 0, 1, 3, 4)
    for a in grid:
        for b in grid:
            for c in grid:
                for d in grid:
                    t3 = (
                        q_int(a) * q_int(b) * q_int(c - d)
                        + q_int(b) * q_int(c) * q_int(d - a)
                        + q_int(c) * q_int(d) * q_int(a - b)
                        + q_int(d) * q_int(a) * q_int(b - c)
                    )
                    assert t3.is_zero()
                    t4 = (
                        q_int(a) * q_int(b) * q_int(a - b)
                        + q_int(b) * q_int(c) * q_int(b - c)
                        + q_int(c) * q_int(d) * q_int(c - d)
                        + q_int(d) * q_int(a) * q_int(d - a)
                    )
                    assert t4 == q_int(a - c) * q_int(b - d) * q_int(a + c - b - d)


def test_serialization_round_trip():
    p = P("-[2]^2[3]").scale(Fraction(5, 3))
    obj = p.to_json()
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in obj.items())
    assert LaurentPoly({int(e): Fraction(c) for e, c in obj.items()}) == p


def test_str_ascending_in_q():
    assert str(LaurentPoly.zero()) == "0"
    assert str(q_int(3)) == "q^-2 + 1 + q^2"
    assert str(-q_int(2)) == "-q^-1 - q"
    assert str(LaurentPoly.const(Fraction(1, 2))) == "1/2"


def test_equality_with_int():
    assert LaurentPoly.zero() == 0
    assert LaurentPoly.one() == 1
    assert LaurentPoly.const(5) == 5
    assert q_int(2) != 1


def test_hash_agrees_with_equality_with_int():
    assert hash(LaurentPoly.const(3)) == hash(3)
    assert hash(LaurentPoly.zero()) == hash(0)
    assert len({LaurentPoly.zero(), 0}) == 1
    assert len({LaurentPoly.const(-4), -4, q_int(2)}) == 2
    table = {0: "zero", 1: "one", q_int(3): "three"}
    assert table[LaurentPoly.zero()] == "zero"
    assert table[LaurentPoly.one()] == "one"
    assert table[q_int(3)] == "three"
    assert LaurentPoly.const(7) in {7}


def test_equality_and_hash_with_fraction():
    half = LaurentPoly.const(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert hash(half) == hash(Fraction(1, 2))
    assert half in {Fraction(1, 2)}
    assert LaurentPoly.const(3) == Fraction(3)
    assert LaurentPoly.zero() == Fraction(0)
    assert half != Fraction(1, 3)
    assert LaurentPoly({1: Fraction(1, 2)}) != Fraction(1, 2)


def test_coefficients_are_ints_or_fractions_only():
    # no float enters the ring, not even one a Fraction could hold exactly
    for bad in (0.1, 0.5, 0.0, 1.0, "1/2", None, 1j):
        with pytest.raises(TypeError):
            LaurentPoly.const(bad)
        with pytest.raises(TypeError):
            LaurentPoly.monomial(1, bad)
        with pytest.raises(TypeError):
            LaurentPoly({0: 1, 2: bad})
    # a bool is stored as its int, so it serializes as a number
    for p in (LaurentPoly.const(True), LaurentPoly.monomial(0, True), LaurentPoly({0: True})):
        assert type(p.coeff(0)) is int and p.to_json() == {"0": "1"}
        assert p == 1
    assert LaurentPoly.const(False).is_zero() and LaurentPoly({3: False}).is_zero()
    # scale refuses what the constructor refuses, and an integral poly stays integral
    for bad in (0.5, 0.0, 2.0, "2", None, q_int(2)):
        with pytest.raises(TypeError):
            q_int(2).scale(bad)
    assert q_int(2).scale(True) == q_int(2) and q_int(2).scale(-2).is_integral()
    assert not q_int(2).scale(Fraction(1, 2)).is_integral()
    assert LaurentPoly.const(Fraction(4, 2)).coeff(0) == 2
    assert type(LaurentPoly.monomial(1, Fraction(4, 2)).coeff(1)) is int
