"""Partition counting, pentagonal numbers and truncated generating functions.

This is the independent arithmetic oracle: every dimension computed by
linear algebra elsewhere is checked against a count produced here.
All coefficients are plain integers.  Each job is done once:

- one counter, bounded_distinct_V, the t^n coefficient of a Gaussian
  binomial (Andrews, The Theory of Partitions, ch. 3); partitions_P,
  distinct_V, bordemann_dim and m2_basis_count are all sums of its values;
- one truncated power series, Series, in t (weight) and x (degree); the
  Euler product and the pentagonal series are series in t alone.
"""
from __future__ import annotations

from fractions import Fraction


def bounded_distinct_V(q: int, bound: int, N: int) -> int:
    """Partitions of N into q distinct parts taken from {1, ..., bound}."""
    if q < 0 or N < 0 or bound < 0:
        return 0
    # a_1 < ... < a_q minus (1, ..., q) is a partition of n into at most q
    # parts of size <= m, counted by the t^n coefficient of the Gaussian
    # binomial [m + q, q] = prod_{i=1}^{q} (1 - t^(m+i)) / (1 - t^i)
    n, m = N - q * (q + 1) // 2, bound - q
    if n < 0 or m < 0:
        return 0
    coeffs = [1] + [0] * n
    for i in range(1, q + 1):
        for e in range(n, m + i - 1, -1):
            coeffs[e] -= coeffs[e - m - i]
        for e in range(i, n + 1):
            coeffs[e] += coeffs[e - i]
    return coeffs[n]


def partitions_P(q: int, k: int) -> int:
    """Number of partitions of k into exactly q positive parts."""
    # x_1 <= ... <= x_q plus (0, 1, ..., q - 1) are q distinct parts <= k
    return bounded_distinct_V(q, k, k + q * (q - 1) // 2)


def distinct_V(q: int, k: int) -> int:
    """Number of partitions of k into q distinct positive parts."""
    return bounded_distinct_V(q, k, k)


def pentagonal(q: int) -> tuple[int, int]:
    """The pair of generalized pentagonal numbers ((3q^2-q)/2, (3q^2+q)/2)."""
    return (3 * q * q - q) // 2, (3 * q * q + q) // 2


class Series:
    """Truncated integer power series in t (weight) and x (degree), keyed
    by exponent pairs (t, x); a series in t alone keeps x = 0."""

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None,
                 t_order: int = 0, x_order: int = 0):
        self.t_order = t_order
        self.x_order = x_order
        self.coeffs = {
            e: c for e, c in (coeffs or {}).items()
            if c and e[0] <= t_order and e[1] <= x_order
        }

    def coeff(self, t_exp: int, x_exp: int = 0) -> int:
        if t_exp > self.t_order or x_exp > self.x_order:
            raise ValueError("exponent beyond truncation")
        return self.coeffs.get((t_exp, x_exp), 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Series(out, min(self.t_order, other.t_order),
                      min(self.x_order, other.x_order))

    def __mul__(self, other):
        t_order = min(self.t_order, other.t_order)
        x_order = min(self.x_order, other.x_order)
        out: dict[tuple[int, int], int] = {}
        for (t1, x1), c1 in self.coeffs.items():
            for (t2, x2), c2 in other.coeffs.items():
                t, x = t1 + t2, x1 + x2
                if t <= t_order and x <= x_order:
                    out[(t, x)] = out.get((t, x), 0) + c1 * c2
        return Series(out, t_order, x_order)

    def to_json(self):
        return [{"t": t, "x": x, "coeff": self.coeffs[(t, x)]}
                for (t, x) in sorted(self.coeffs)]


def euler_product(terms: int) -> Series:
    """prod_{j=1}^{terms} (1 - t^j), truncated at t^terms."""
    out = Series({(0, 0): 1}, terms)
    for j in range(1, terms + 1):
        out = out * Series({(0, 0): 1, (j, 0): -1}, terms)
    return out


def pentagonal_series(terms: int) -> Series:
    """sum_k (-1)^k (t^{(3k^2-k)/2} + t^{(3k^2+k)/2}), truncated at t^terms."""
    coeffs: dict[tuple[int, int], int] = {}
    k = 0
    while True:
        km, kp = pentagonal(k)
        if km > terms and kp > terms:
            break
        sign = -1 if k % 2 else 1
        for e in ({km, kp} if k else {0}):
            if e <= terms:
                coeffs[(e, 0)] = coeffs.get((e, 0), 0) + sign
        k += 1
    return Series(coeffs, terms)


def _distinct_parts_product(min_part: int, t_terms: int, x_terms: int) -> Series:
    """prod_{j=min_part}^{t_terms} (1 + x t^j), truncated."""
    out = Series({(0, 0): 1}, t_terms, x_terms)
    for j in range(min_part, t_terms + 1):
        out = out * Series({(0, 0): 1, (j, 1): 1}, t_terms, x_terms)
    return out


def betti_gf(alg: str, t_terms: int, x_terms: int) -> Series:
    """Closed-form two-variable Betti generating function for m0 or m2."""
    if alg == "m0":
        head = Series({(1, 0): 1, (1, 1): 1}, t_terms, x_terms)
        tail = Series({(0, 0): 1, (1, 0): -1}, t_terms, x_terms) \
            * _distinct_parts_product(2, t_terms, x_terms)
        return head + tail
    if alg == "m2":
        head = Series({(0, 0): 1, (0, 1): 1}, t_terms, x_terms) \
            * Series({(1, 0): 1, (2, 0): 1, (3, 0): -1, (5, 1): 1}, t_terms, x_terms)
        tail = Series({(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): 1}, t_terms, x_terms) \
            * _distinct_parts_product(3, t_terms, x_terms)
        return head + tail
    raise ValueError(f"no generating function for {alg!r}")


def bordemann_dim(n: int, q: int) -> int:
    """dim H^q of the n-dimensional quotient of the abelian-ideal filiform
    algebra, as a bounded distinct-partition count."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (bounded_distinct_V(q, n - 1, q * n // 2)
            + bounded_distinct_V(q - 1, n - 1, (q - 1) * n // 2))


def small_closed_forms(n: int, q: int) -> int:
    """The small-degree closed forms for dim H^q, q in {2,3,4}."""
    x = Fraction(n + 1, 2)

    def binom(x: Fraction, r: int) -> Fraction:
        out = Fraction(1)
        for i in range(r):
            out *= (x - i)
        for i in range(2, r + 1):
            out /= i
        return out

    if q == 2:
        value = x
    elif q == 3:
        value = binom(x, 2) + Fraction(1, 8)
    elif q == 4:
        value = Fraction(4, 3) * binom(x, 3) + Fraction(4 * n + 13, 36)
    else:
        raise ValueError("closed forms exist only for q in {2,3,4}")
    return value.numerator // value.denominator


_M2_SPORADIC = {0: (0,), 1: (1, 2), 2: (5, 7)}


def m2_basis_count(q: int, k: int) -> int:
    """Number of basis classes of H^q_k for the two-generator preset m2,
    counted from the explicit cocycle list: low degrees are the four
    sporadic classes; for q >= 3 each class is indexed by q-2 distinct
    indices 3 <= i_1 < ... < i_{q-2} with weight sum(i) + 2 i_{q-2} + 3.

    The partition-difference display P_q(k)-P_q(k-1)-P_q(k-2)+P_q(k-3)
    agrees with this count except at finitely many boundary weights per
    degree (e.g. q=3 weight 9), where this count is the correct one.
    """
    if q < 3:
        return int(k in _M2_SPORADIC.get(q, ()))
    # fix the top index t: the other q - 3 indices, shifted down by 2, are
    # distinct parts <= t - 3 of weight k - 3 t - 3 - 2 (q - 3)
    return sum(bounded_distinct_V(q - 3, t - 3, k - 3 * t - 2 * q + 3)
               for t in range(3, (k - 3) // 3 + 1))
