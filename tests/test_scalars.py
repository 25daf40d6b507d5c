import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_scalar
from oracles import PONE, PZERO, padd, pair, pdiv, pmul, psub
from unitcount.scalars import (
    Q,
    QI,
    FieldMismatchError,
    Scalar,
    ScalarParseError,
    parse_scalar,
)


def test_canonical_form_invariants():
    rng = random.Random(1)
    for _ in range(300):
        field = rng.choice([Q, QI])
        s = rand_scalar(rng, field, span=20, max_den=12, nonzero=False)
        assert s.den > 0
        from math import gcd

        assert gcd(gcd(abs(s.re), abs(s.im)), s.den) == 1
        if s.is_zero():
            assert (s.re, s.im, s.den) == (0, 0, 1)


def test_unreduced_inputs_canonicalize():
    assert Scalar(Q, 4, 0, 8) == Scalar.rational(1, 2)
    assert Scalar(Q, 3, 0, -6) == Scalar.rational(-1, 2)
    assert Scalar(QI, -2, 2, -4) == Scalar(QI, 1, -1, 2)
    assert Scalar(Q, 0, 0, 7) == Scalar.zero(Q)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar(Q, 1, 0, 0)


def test_imaginary_part_rejected_in_rational_field():
    with pytest.raises(FieldMismatchError):
        Scalar(Q, 1, 2, 1)


@pytest.mark.parametrize("field", [Q, QI])
def test_arithmetic_matches_fraction_pairs(field):
    rng = random.Random(2 if field == Q else 3)
    for _ in range(200):
        a = rand_scalar(rng, field, nonzero=False)
        b = rand_scalar(rng, field)
        assert pair(a + b) == padd(pair(a), pair(b))
        assert pair(a - b) == psub(pair(a), pair(b))
        assert pair(a * b) == pmul(pair(a), pair(b))
        assert pair(a / b) == pdiv(pair(a), pair(b))
        assert pair(-a) == psub(PZERO, pair(a))
        assert pair(a.square()) == pmul(pair(a), pair(a))


@pytest.mark.parametrize("field", [Q, QI])
def test_powers_match_repeated_multiplication(field):
    rng = random.Random(4)
    for _ in range(80):
        a = rand_scalar(rng, field)
        expected = PONE
        for k in range(6):
            assert pair(a**k) == expected
            expected = pmul(expected, pair(a))
        inv = pair(a.inverse())
        assert pmul(inv, pair(a)) == PONE
        assert pair(a**-2) == pmul(inv, inv)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(Q).inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(QI) ** -1


def test_field_mixing_rejected():
    with pytest.raises(FieldMismatchError):
        Scalar.one(Q) + Scalar.one(QI)
    with pytest.raises(FieldMismatchError):
        Scalar.one(QI) * Scalar.rational(2)


@pytest.mark.parametrize("field", [Q, QI])
def test_text_parse_round_trip(field):
    rng = random.Random(5 if field == Q else 6)
    for _ in range(300):
        s = rand_scalar(rng, field, span=30, max_den=17, nonzero=False)
        assert parse_scalar(s.text(), field) == s


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", Scalar.zero(Q)),
        ("-0", Scalar.zero(Q)),
        ("7", Scalar.rational(7)),
        ("3/4", Scalar.rational(3, 4)),
        ("-3/4", Scalar.rational(-3, 4)),
        ("2^10", Scalar.rational(1024)),
        ("-2^2", Scalar.rational(-4)),
        ("2^-3", Scalar.rational(1, 8)),
        ("1/2*1/3", Scalar.rational(1, 6)),
        ("1+2-4", Scalar.rational(-1)),
    ],
)
def test_rational_grammar_cases(text, expected):
    assert parse_scalar(text, Q) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("i", Scalar.imaginary_unit()),
        ("-i", Scalar(QI, 0, -1, 1)),
        ("i^2", Scalar.rational(-1, 1, QI)),
        ("(1+i)^2", Scalar(QI, 0, 2, 1)),
        ("(1+2*i)/5", Scalar(QI, 1, 2, 5)),
        ("1/2-1/3*i", Scalar(QI, 3, -2, 6)),
        ("2*i^3", Scalar(QI, 0, -2, 1)),
    ],
)
def test_gaussian_grammar_cases(text, expected):
    assert parse_scalar(text, QI) == expected


def test_unary_minus_binds_looser_than_power():
    assert parse_scalar("-2^5", Q) == Scalar.rational(-32)


@pytest.mark.parametrize(
    "bad", ["", "2^", "1//2", "(1+2", "4/0", "x", "1 1", "^3", "0^-1"]
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises((ScalarParseError, ZeroDivisionError)):
        parse_scalar(bad, Q)


def test_parse_rejects_imaginary_in_rational_field():
    with pytest.raises((ScalarParseError, FieldMismatchError)):
        parse_scalar("i", Q)


def test_hash_eq_consistency():
    a = Scalar(Q, 2, 0, 4)
    b = Scalar.rational(1, 2)
    assert a == b and hash(a) == hash(b)
    assert Scalar.rational(1, 2) != Scalar(QI, 1, 0, 2)


# -- properties ------------------------------------------------------------

_FIELDS = st.sampled_from([Q, QI])


def _scalars(field: str):
    imag = st.integers(-60, 60) if field == QI else st.just(0)
    nonzero_den = st.integers(-24, 24).filter(bool)
    return st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-60, 60), imag, nonzero_den,
    )


_TRIPLES = _FIELDS.flatmap(lambda f: st.tuples(_scalars(f), _scalars(f), _scalars(f)))
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_TRIPLES)
def test_field_axioms(triple):
    a, b, c = triple
    field = a.field
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a and a * b == b * a
    assert a + Scalar.zero(field) == a and a * Scalar.one(field) == a
    assert a + (-a) == Scalar.zero(field) and a - b == a + (-b)
    if not a.is_zero():
        assert a * a.inverse() == Scalar.one(field)
        assert (b / a) * a == b


@_PROPERTY
@given(_FIELDS.flatmap(_scalars), st.integers(-9, 9).filter(bool))
def test_equal_values_hash_equal(x, g):
    # The same value written over the denominator g*den, unreduced.
    twin = Scalar(x.field, x.re * g, x.im * g, x.den * g)
    assert twin == x and hash(twin) == hash(x)
    assert (twin.re, twin.im, twin.den) == (x.re, x.im, x.den)
    assert len({x, twin, x + Scalar.zero(x.field)}) == 1


@_PROPERTY
@given(_FIELDS.flatmap(_scalars))
def test_text_round_trip_property(x):
    assert parse_scalar(x.text(), x.field) == x



@pytest.mark.parametrize("digits", [4300, 4301])
def test_exact_text_past_the_int_string_limit(digits):
    # Python's str() and int() refuse more than 4,300 digits by default;
    # scalars convert exactly at any length, both ways, and leave that
    # process-wide limit alone.
    limit = sys.get_int_max_str_digits()
    sevens = "7" * digits
    value = 7 * (10**digits - 1) // 9
    assert parse_scalar(sevens) == Scalar.rational(value)
    assert Scalar.rational(value).text() == sevens
    assert Scalar.rational(10**digits, 3).text() == "1" + "0" * digits + "/3"
    z = Scalar.gaussian(-value, value, value + 1)
    assert z.text() == f"(-{sevens}+{sevens}*i)/{sevens[:-1]}8"
    assert parse_scalar(z.text(), QI) == z
    power = Scalar.rational(2**14300)
    assert parse_scalar(power.text()) == power == parse_scalar("2^14300")
    assert sys.get_int_max_str_digits() == limit
