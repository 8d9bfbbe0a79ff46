"""The oracle against brute-force enumeration on small inputs.

Run with: python3 -m pytest perfbench
"""
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import oracle


def brute_partitions(q, k):
    return sum(1 for parts in combinations_with_replacement(range(1, k + 1), q)
               if sum(parts) == k)


def brute_distinct(q, n, least):
    return sum(1 for parts in combinations(range(least, n + 1), q)
               if sum(parts) == n)


def brute_specs(length, k, floor, top_mult, const):
    return sorted(spec for spec in combinations(range(floor, k + 1), length)
                  if sum(spec[:-1]) + top_mult * spec[-1] + const == k)


def brute_rank(rows):
    """Largest size of a nonzero minor, determinants by permutation sums."""
    m, n = len(rows), len(rows[0])

    def det(sub):
        total = Fraction(0)
        for perm in permutations(range(len(sub))):
            inv = sum(1 for a, b in combinations(perm, 2) if a > b)
            term = Fraction(-1 if inv % 2 else 1)
            for r, c in enumerate(perm):
                term *= sub[r][c]
            total += term
        return total

    for size in range(min(m, n), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(n), size):
                if det([[rows[r][c] for c in cs] for r in rs]):
                    return size
    return 0


def test_partitions_exact():
    for q in range(0, 6):
        for k in range(0, 14):
            want = brute_partitions(q, k) if q else int(k == 0)
            assert oracle.partitions_exact(q, k) == want, (q, k)


def test_distinct_parts():
    for least in (1, 2, 3):
        for q in range(0, 5):
            for n in range(0, 20):
                want = brute_distinct(q, n, least) if q else int(n == 0)
                assert oracle.distinct_parts(q, n, least) == want, (q, n, least)


def test_euler_product_is_pentagonal_series():
    coeffs = oracle.euler_product(40)
    want = [0] * 41
    want[0] = 1
    for q in range(1, 8):
        for e in oracle.pentagonal(q):
            if e <= 40:
                want[e] = -1 if q % 2 else 1
    assert coeffs == want


def test_finite_euler_product_by_subsets():
    for top in range(1, 8):
        want = [0] * 30
        for size in range(top + 1):
            for subset in combinations(range(1, top + 1), size):
                want[sum(subset)] += -1 if size % 2 else 1
        assert oracle.euler_product(29, top) == want


def test_cocycle_specs():
    for length in (1, 2, 3):
        for k in range(0, 24):
            assert sorted(oracle.omega_specs(length, k)) == \
                brute_specs(length, k, 2, 2, 1), (length, k)
            assert sorted(oracle.w_specs(length, k)) == \
                brute_specs(length, k, 3, 3, 3), (length, k)


def test_fraction_rank():
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        if rng.random() < 0.4 and m > 1:
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1 % m])]
        assert oracle.fraction_rank(rows) == brute_rank(rows)


def test_monomials():
    for q in range(0, 4):
        for k in range(0, 15):
            want = [c for c in combinations_with_replacement(range(1, k + 1), q)
                    if sum(c) == k and len(set(c)) == q]
            assert oracle.monomials(q, k) == sorted(want)


def test_generator_differentials():
    assert oracle.differential("m0", {(5,): 1}) == {(1, 4): 1}
    assert oracle.differential("m2", {(6,): 1}) == {(1, 5): 1, (2, 4): 1}
    assert oracle.differential("l1", {(5,): 1}) == {(1, 4): 3, (2, 3): 1}


def test_differential_squares_to_zero():
    for algebra in ("m0", "m2", "l1"):
        for q in range(1, 4):
            for k in range(q * (q + 1) // 2, 16):
                for mono in oracle.monomials(q, k):
                    dd = oracle.differential(algebra, oracle.differential(algebra, {mono: 1}))
                    assert dd == {}, (algebra, mono)


def test_combine():
    a = {(1, 2): Fraction(1, 2), (1, 3): 1}
    b = {(1, 2): 1}
    assert oracle.combine((2, a), (-1, b)) == {(1, 3): 2}
