import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from exactrnn.rational import PrecisionReport, Rational, precision_of

rationals = st.builds(
    Rational,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)


def test_gcd_reduction():
    assert Rational(2, 4) == Rational(1, 2)
    assert str(Rational(2, 4)) == "1/2"


def test_addition_small():
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)


def test_multiplicative_inverse():
    assert Rational(3, 7) * Rational(7, 3) == Rational(1)
    assert str(Rational(3, 7) * Rational(7, 3)) == "1/1"


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        Rational.parse("3/0")


@pytest.mark.parametrize("text", ["3/", "-1/", "/"])
def test_parse_rejects_slash_without_denominator(text):
    with pytest.raises(ValueError, match="no denominator"):
        Rational.parse(text)


@pytest.mark.parametrize("num, den", [
    (1.5, 1), (1, 2.0), (2.0, 1), (Fraction(1, 2), 1), (1, Fraction(2)),
    ("1", 1), (1, "2"), (Rational(1, 2), 2.0),
], ids=repr)
def test_constructor_rejects_non_integers(num, den):
    with pytest.raises(TypeError):
        Rational(num, den)


def test_bool_is_stored_as_int():
    q = Rational(True)
    assert type(q.num) is int and type(q.den) is int
    assert str(q) == "1/1" and str(Rational(False, True)) == "0/1"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 2) / Rational(0)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


def test_negative_denominator_normalized():
    q = Rational(3, -6)
    assert q.num == -1 and q.den == 2


def test_comparisons_and_hash():
    assert Rational(1, 2) < Rational(2, 3)
    assert Rational(1, 2) <= Rational(2, 4) <= Rational(1, 2)
    assert hash(Rational(2, 4)) == hash(Rational(1, 2))
    assert Rational(3) == 3 and Rational(1, 2) != 1
    for n in (-7, -1, 0, 1, 3, 2**70):
        assert hash(Rational(n)) == hash(n) and hash(Rational(2 * n, 2)) == hash(n)
        assert Rational(n) in {n} and n in {Rational(n)}
        assert {n: "int"}[Rational(n)] == "int"
    assert Rational(3, 2) not in {1, 2, 3}


def test_parse_round_trip():
    for text in ("0/1", "-7/3", "22/7", "5/1"):
        assert str(Rational.parse(text)) == text


@given(rationals, rationals, rationals)
def test_semiring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Rational(0) == a
    assert a * Rational(1) == a


def test_semiring_laws_bulk():
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (
            Rational(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


@given(rationals, rationals)
def test_canonical_outputs(a, b):
    for q in (a + b, a - b, a * b, -a):
        assert q.den > 0
        assert gcd(abs(q.num), q.den) == 1
        if q.num == 0:
            assert q.den == 1


def assert_canonical_equal(q, want: Fraction):
    assert type(q.num) is int and type(q.den) is int
    assert q.den > 0 and gcd(q.num, q.den) == 1
    assert (q.num, q.den) == (want.numerator, want.denominator)


big_ints = st.integers(min_value=-(2**70), max_value=2**70)
operands = st.one_of(
    st.builds(Rational, big_ints, big_ints.filter(bool)),
    big_ints,
)


@given(operands, operands)
@example(Rational(3, 4), -2)
@example(5, Rational(-5, 7))
@example(Rational(-6), Rational(-3, 2))
@example(Rational(7, 3), 0)
def test_arithmetic_agrees_with_fraction(a, b):
    if not isinstance(a, Rational) and not isinstance(b, Rational):
        a = Rational(a)
    fa, fb = Fraction(str(a)), Fraction(str(b))
    for got, want in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb),
                      (-Rational(a), -fa)):
        assert_canonical_equal(got, want)
    if fb:
        assert_canonical_equal(a / b, fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert (a < b) == (fa < fb) and (a <= b) == (fa <= fb)
    assert (a > b) == (fa > fb) and (a >= b) == (fa >= fb)
    assert (a == b) == (fa == fb) and (a != b) == (fa != fb)


def test_precision_zero_is_one_bit():
    assert precision_of([Rational(0)]) == PrecisionReport(1, 1)


def test_precision_direct_count():
    # 1/2 -> 1 + 2 bits, 3/1 -> 2 + 1 bits
    report = precision_of([Rational(1, 2), Rational(3)])
    assert report.max_value_bits == 3
    assert report.total_bits == 6


def test_precision_invariant():
    report = precision_of([Rational(5, 3), Rational(0), Rational(-9)])
    assert report.max_value_bits <= report.total_bits


def test_immutability():
    q = Rational(1, 2)
    with pytest.raises(AttributeError):
        q.num = 3
