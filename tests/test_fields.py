import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxclass.fields import (QQ, DivisionByZero, PrimalityUndecided, PrimeField,
                             _is_prime, parse_field)


def test_rational_basics():
    assert QQ.of(3, 6) == Fraction(1, 2)
    assert QQ.add(QQ.of(1, 3), QQ.of(1, 6)) == Fraction(1, 2)
    assert QQ.inv(QQ.of(-2, 5)) == Fraction(-5, 2)
    assert QQ.is_zero(QQ.sub(QQ.of(2), QQ.of(2)))
    assert QQ.format(QQ.of(7)) == "7"
    assert QQ.format(QQ.of(-1, 2)) == "-1/2"


def test_rational_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)
    with pytest.raises(DivisionByZero):
        QQ.of(1, 0)


def test_prime_field_basics():
    f5 = PrimeField(5)
    assert f5.of(7) == 2
    assert f5.of(1, 2) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.mul(f5.of(3), f5.of(4)) == 2
    assert f5.inv(3) == 2
    assert f5.format(f5.of(-1)) == "4 mod 5"


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_divisor_vanishing():
    f3 = PrimeField(3)
    with pytest.raises(DivisionByZero):
        f3.of(1, 6)
    with pytest.raises(DivisionByZero):
        f3.inv(0)


def test_parse_field():
    assert parse_field("q") is QQ
    assert parse_field("fp:7").characteristic == 7
    with pytest.raises(ValueError):
        parse_field("fp:8")
    with pytest.raises(ValueError):
        parse_field("real")


def test_field_equality_by_characteristic():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


@given(st.integers(-50, 50), st.integers(1, 50), st.integers(-50, 50),
       st.integers(1, 50))
def test_reduction_is_ring_hom(a, b, c, d):
    """Reducing Q arithmetic mod 7 agrees with F_7 arithmetic."""
    f7 = PrimeField(7)
    if b % 7 == 0 or d % 7 == 0:
        return
    x, y = Fraction(a, b), Fraction(c, d)
    assert f7.from_rational(x + y) == f7.add(f7.from_rational(x), f7.from_rational(y))
    assert f7.from_rational(x * y) == f7.mul(f7.from_rational(x), f7.from_rational(y))


def test_make_scalar():
    assert QQ.of(2, 4) == Fraction(1, 2)
    assert PrimeField(5).of(2, 4) == 3


def test_large_prime_field_parses_quickly():
    start = time.perf_counter()
    assert parse_field("fp:2305843009213693951").characteristic == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0


def test_primality_is_deterministic():
    assert not _is_prime(3215031751)   # strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(561)          # Carmichael number
    small = [n for n in range(2, 2000) if all(n % d for d in range(2, n))]
    assert [n for n in range(2000) if _is_prime(n)] == small
    with pytest.raises(PrimalityUndecided):
        _is_prime(2 ** 89 - 1)
