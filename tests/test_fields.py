import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxclass.algebra import preset
from maxclass.cochain import differential_matrix
from maxclass.cohomology import representatives
from maxclass.explicit import omega, w_cocycle
from maxclass.fields import (QQ, DivisionByZero, PrimalityUndecided, PrimeField,
                             _is_prime, parse_field)


def test_rational_basics():
    assert QQ.of(3, 6) == Fraction(1, 2)
    assert QQ.add(QQ.of(1, 3), QQ.of(1, 6)) == Fraction(1, 2)
    assert QQ.of(5, -2) == Fraction(-5, 2)
    assert QQ.is_zero(QQ.add(QQ.of(2), QQ.neg(QQ.of(2))))
    assert QQ.format(QQ.of(7)) == "7"
    assert QQ.format(QQ.of(-1, 2)) == "-1/2"


def test_rational_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        QQ.of(1, 0)


def test_prime_field_basics():
    f5 = PrimeField(5)
    assert f5.of(7) == 2
    assert f5.of(1, 2) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.mul(f5.of(3), f5.of(4)) == 2
    assert f5.of(1, 3) == 2
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
        f3.of(1, 0)


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


# --- scalar types over Q -----------------------------------------------------

def _exact(x):
    """An int or a Fraction, and neither a float nor a bool."""
    return type(x) in (int, Fraction)


def test_rational_scalars_are_int_when_integral():
    assert type(QQ.of(4, 2)) is int and QQ.of(4, 2) == 2
    assert type(QQ.from_rational(Fraction(-6, 3))) is int
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of(1, 2)) is Fraction


_rationals = st.builds(QQ.of, st.integers(-50, 50), st.integers(1, 12))


@given(_rationals, _rationals)
def test_no_rational_operation_gives_a_float_or_bool(a, b):
    results = [QQ.add(a, b), QQ.mul(a, b), QQ.neg(a),
               QQ.from_rational(a), QQ.of(a), QQ.zero, QQ.one]
    if not QQ.is_zero(b):
        results += [QQ.of(1, b), QQ.of(a, b), QQ.mul(a, QQ.of(1, b))]
    assert all(_exact(x) for x in results), results


def test_library_coefficients_over_q_are_exact():
    values = []
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for q, k in [(1, 9), (2, 12), (3, 18)]:
            values += differential_matrix(alg, q, k).entries.values()
        for q in range(1, 4):
            for k in range(2, 16):
                values += [x for rep in representatives(alg, q, k) for x in rep.terms.values()]
    for c in [omega((5, 6)), omega((3, 5, 8)), omega((5, 7), floor=3),
              w_cocycle((5,)), w_cocycle((4, 6))]:
        values += c.terms.values()
    assert any(type(x) is Fraction for x in values)
    assert all(_exact(x) for x in values)
