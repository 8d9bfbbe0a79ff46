from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from maxclass.combinatorics import (betti_gf, bordemann_dim, bounded_distinct_V,
                                    distinct_V, euler_product, m2_basis_count,
                                    partitions_P, pentagonal, pentagonal_series,
                                    small_closed_forms, Series)


def enum_P(q, k):
    """#(1 <= x_1 <= ... <= x_q, sum = k) by direct recursion."""
    def rec(parts_left, minimum, remaining):
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        return sum(rec(parts_left - 1, x, remaining - x)
                   for x in range(minimum, remaining + 1))
    if q == 0:
        return 1 if k == 0 else 0
    return rec(q, 1, k) if k >= 0 else 0


def enum_V(q, k, bound=None):
    def rec(parts_left, minimum, remaining):
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        top = remaining if bound is None else min(remaining, bound)
        return sum(rec(parts_left - 1, x + 1, remaining - x)
                   for x in range(minimum, top + 1))
    if q == 0:
        return 1 if k == 0 else 0
    return rec(q, 1, k) if k >= 0 else 0


KMAX = 40


def _sums(tuples, weight=sum):
    """How many of the tuples have each weight up to KMAX."""
    return Counter(w for w in map(weight, tuples) if w <= KMAX)


@pytest.mark.parametrize("q", range(7))
def test_counters_against_itertools_enumeration(q):
    """Every partition counter, brute-forced by itertools for k <= 40."""
    top = KMAX - max(q - 1, 0)  # largest part of a partition of <= KMAX into q parts
    multisets = _sums(combinations_with_replacement(range(1, top + 1), q))
    distinct = _sums(combinations(range(1, top + 1), q))
    bounded = {b: _sums(combinations(range(1, b + 1), q)) for b in range(13)}
    for k in range(-3, KMAX + 1):
        assert partitions_P(q, k) == multisets[k], (q, k)
        assert distinct_V(q, k) == distinct[k], (q, k)
        for b, counts in bounded.items():
            assert bounded_distinct_V(q, b, k) == counts[k], (q, b, k)
    # an m2 class for q >= 3 is 3 <= i_1 < ... < i_{q-2} of weight
    # sum(i) + 2 i_{q-2} + 3; below that, the classes at these weights
    if q >= 3:
        m2 = _sums(combinations(range(3, KMAX // 3 + 1), q - 2),
                   lambda s: sum(s) + 2 * s[-1] + 3)
    else:
        m2 = Counter({0: [0], 1: [1, 2], 2: [5, 7]}[q])
    for k in range(-3, KMAX + 1):
        assert m2_basis_count(q, k) == m2[k], (q, k)


@pytest.mark.parametrize("q", range(5))
@pytest.mark.parametrize("k", range(0, 21, 3))
def test_partitions_against_enumeration(q, k):
    assert partitions_P(q, k) == enum_P(q, k)


def test_partition_conventions():
    assert partitions_P(0, 0) == 1
    assert partitions_P(3, -2) == 0
    assert partitions_P(1, 7) == 1
    assert partitions_P(3, 9) == 7
    assert all(partitions_P(q, k) == 0 for q in range(2, 6) for k in range(1, q))


@pytest.mark.parametrize("q,k", [(2, 5), (3, 12), (4, 14), (2, 9), (5, 20)])
def test_distinct_against_enumeration(q, k):
    assert distinct_V(q, k) == enum_V(q, k)


def test_distinct_staircase_shift():
    for q in range(1, 7):
        for k in range(61):
            assert distinct_V(q, k) == partitions_P(q, k - q * (q - 1) // 2)


def test_bounded_distinct():
    assert bounded_distinct_V(2, 4, 5) == 2  # {1,4}, {2,3}
    assert bounded_distinct_V(1, 4, 2) == 1
    for q in range(1, 5):
        for k in range(20):
            assert bounded_distinct_V(q, k + 1, k) == distinct_V(q, k)
            assert bounded_distinct_V(q, 6, k) == enum_V(q, k, bound=6)


def test_pentagonal():
    assert pentagonal(0) == (0, 0)
    assert pentagonal(1) == (1, 2)
    assert pentagonal(2) == (5, 7)
    assert pentagonal(3) == (12, 15)


def test_euler_identity():
    prod = euler_product(51)
    pent = pentagonal_series(51)
    for k in range(51):
        assert prod.coeff(k) == pent.coeff(k)
    assert prod.coeff(0) == 1
    assert prod.coeff(5) == 1


def test_series_arithmetic():
    a = Series({(0, 0): 1, (1, 0): -1}, 10)
    b = Series({(0, 0): 1, (1, 0): 1}, 10)
    assert (a * b).coeff(2) == -1
    assert (a + b).coeff(1) == 0
    # truncation: no coefficients at or beyond the order
    sq = a * a
    assert all(t < 10 for t, _ in sq.coeffs)


def test_gf_m0_low_terms():
    s = betti_gf("m0", 12, 4)
    assert s.coeff(1, 1) == 1   # e^1
    assert s.coeff(2, 1) == 1   # e^2
    assert s.coeff(5, 2) == 1   # e^2^e^3
    assert s.coeff(7, 2) == 1
    assert s.coeff(6, 2) == 0
    assert s.coeff(9, 3) == 1


def test_gf_m2_low_terms():
    s = betti_gf("m2", 14, 4)
    assert s.coeff(1, 1) == 1
    assert s.coeff(2, 1) == 1
    assert s.coeff(5, 2) == 1
    assert s.coeff(7, 2) == 1
    assert s.coeff(9, 2) == 0
    assert s.coeff(12, 3) == 1
    assert s.coeff(9, 3) == 0


def test_m2_basis_count_sporadic():
    assert m2_basis_count(0, 0) == 1
    assert m2_basis_count(1, 1) == 1
    assert m2_basis_count(1, 2) == 1
    assert m2_basis_count(2, 5) == 1
    assert m2_basis_count(2, 7) == 1
    assert m2_basis_count(2, 6) == 0
    assert [k for k in range(40) if m2_basis_count(3, k)] == [12, 15, 18, 21,
                                                             24, 27, 30, 33, 36, 39]


def test_m2_basis_count_vs_enumeration():
    for q in (4, 5):
        counts = {}
        for spec in combinations(range(3, 40), q - 2):
            k = sum(spec) + 2 * spec[-1] + 3
            counts[k] = counts.get(k, 0) + 1
        for k in range(45):
            assert m2_basis_count(q, k) == counts.get(k, 0)


def test_m2_partition_difference_display_exceptions():
    """The textbook difference P_q(k)-P_q(k-1)-P_q(k-2)+P_q(k-3) agrees
    with the basis count except at a small boundary set per degree."""
    def display(q, k):
        shift = q * (q + 1) // 2
        kk = k - shift
        return (partitions_P(q, kk) - partitions_P(q, kk - 1)
                - partitions_P(q, kk - 2) + partitions_P(q, kk - 3))
    bad3 = [k for k in range(35) if display(3, k) != m2_basis_count(3, k)]
    bad4 = [k for k in range(31) if display(4, k) != m2_basis_count(4, k)]
    assert bad3 == [9]
    assert bad4 == [14, 17, 20, 23, 26, 29]


def test_bordemann_values():
    assert bordemann_dim(5, 2) == 3
    for n in range(3, 9):
        assert bordemann_dim(n, 0) == 1
        assert bordemann_dim(n, 2) == (n + 1) // 2


def test_small_closed_forms_match_bounded_counts():
    for n in range(3, 15):
        for q in (2, 3, 4):
            if q <= n:
                assert small_closed_forms(n, q) == bordemann_dim(n, q)


@given(st.integers(0, 6), st.integers(-5, 40))
def test_partition_recurrence(q, k):
    if q >= 1:
        assert partitions_P(q, k) == (partitions_P(q - 1, k - 1)
                                      + partitions_P(q, k - q))


def test_partition_counts_need_no_deep_recursion():
    assert partitions_P(1, 5000) == 1
    assert partitions_P(3, 3000) == 750000  # nearest integer to k^2 / 12


def test_bordemann_counts_at_large_n():
    assert bordemann_dim(1500, 2) == small_closed_forms(1500, 2) == 750
    assert bordemann_dim(1501, 3) == small_closed_forms(1501, 3) == 281625
