"""Partition counting, pentagonal numbers and truncated generating functions.

This is the independent arithmetic oracle: every dimension computed by
linear algebra elsewhere is checked against a count produced here.
All coefficients are plain integers.
"""
from __future__ import annotations

from fractions import Fraction


def partitions_P(q: int, k: int) -> int:
    """Number of partitions of k into exactly q positive parts."""
    if q < 0 or k < 0:
        return 0
    # strip 1 off each part: partitions of k - q into parts of size <= q
    n = k - q
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for part in range(1, q + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def distinct_V(q: int, k: int) -> int:
    """Number of partitions of k into q distinct positive parts."""
    if q < 0:
        return 0
    return partitions_P(q, k - q * (q - 1) // 2)


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


def pentagonal(q: int) -> tuple[int, int]:
    """The pair of generalized pentagonal numbers ((3q^2-q)/2, (3q^2+q)/2)."""
    return (3 * q * q - q) // 2, (3 * q * q + q) // 2


class Series1:
    """Truncated integer power series in one variable t."""

    def __init__(self, coeffs: dict[int, int] | None = None, order: int = 0):
        self.order = order
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c and e <= order}

    def coeff(self, e: int) -> int:
        if e > self.order:
            raise ValueError(f"exponent {e} beyond truncation {self.order}")
        return self.coeffs.get(e, 0)

    def __eq__(self, other):
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __add__(self, other):
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Series1(out, order)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c: int):
        return Series1({e: c * v for e, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= order:
                    out[e] = out.get(e, 0) + c1 * c2
        return Series1(out, order)

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mon = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if e == 0:
                term = str(abs(c))
            else:
                term = mon if abs(c) == 1 else f"{abs(c)}*{mon}"
            parts.append(("- " if c < 0 else "+ ") + term)
        head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def to_json(self):
        return [{"t": e, "coeff": self.coeffs[e]} for e in sorted(self.coeffs)]


class Series2:
    """Truncated integer series in t (weight) and x (degree)."""

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None,
                 t_order: int = 0, x_order: int = 0):
        self.t_order = t_order
        self.x_order = x_order
        self.coeffs = {
            e: c for e, c in (coeffs or {}).items()
            if c and e[0] <= t_order and e[1] <= x_order
        }

    def coeff(self, t_exp: int, x_exp: int) -> int:
        if t_exp > self.t_order or x_exp > self.x_order:
            raise ValueError("exponent beyond truncation")
        return self.coeffs.get((t_exp, x_exp), 0)

    def __add__(self, other):
        t_order = min(self.t_order, other.t_order)
        x_order = min(self.x_order, other.x_order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Series2(out, t_order, x_order)

    def __mul__(self, other):
        t_order = min(self.t_order, other.t_order)
        x_order = min(self.x_order, other.x_order)
        out: dict[tuple[int, int], int] = {}
        for (t1, x1), c1 in self.coeffs.items():
            for (t2, x2), c2 in other.coeffs.items():
                t, x = t1 + t2, x1 + x2
                if t <= t_order and x <= x_order:
                    out[(t, x)] = out.get((t, x), 0) + c1 * c2
        return Series2(out, t_order, x_order)

    def to_json(self):
        return [{"t": t, "x": x, "coeff": self.coeffs[(t, x)]}
                for (t, x) in sorted(self.coeffs)]


def euler_product(terms: int) -> Series1:
    """prod_{j=1}^{terms} (1 - t^j), truncated at t^terms."""
    out = Series1({0: 1}, terms)
    for j in range(1, terms + 1):
        out = out * Series1({0: 1, j: -1}, terms)
    return out


def pentagonal_series(terms: int) -> Series1:
    """sum_k (-1)^k (t^{(3k^2-k)/2} + t^{(3k^2+k)/2}), truncated at t^terms."""
    coeffs: dict[int, int] = {}
    k = 0
    while True:
        km, kp = pentagonal(k)
        if km > terms and kp > terms:
            break
        sign = -1 if k % 2 else 1
        for e in ({km, kp} if k else {0}):
            if e <= terms:
                coeffs[e] = coeffs.get(e, 0) + sign
        k += 1
    return Series1(coeffs, terms)


def _distinct_parts_product(min_part: int, t_terms: int, x_terms: int) -> Series2:
    """prod_{j=min_part}^{t_terms} (1 + x t^j), truncated."""
    out = Series2({(0, 0): 1}, t_terms, x_terms)
    for j in range(min_part, t_terms + 1):
        out = out * Series2({(0, 0): 1, (j, 1): 1}, t_terms, x_terms)
    return out


def betti_gf(alg: str, t_terms: int, x_terms: int) -> Series2:
    """Closed-form two-variable Betti generating function for m0 or m2."""
    if alg == "m0":
        head = Series2({(1, 0): 1, (1, 1): 1}, t_terms, x_terms)
        tail = Series2({(0, 0): 1, (1, 0): -1}, t_terms, x_terms) \
            * _distinct_parts_product(2, t_terms, x_terms)
        return head + tail
    if alg == "m2":
        head = Series2({(0, 0): 1, (0, 1): 1}, t_terms, x_terms) \
            * Series2({(1, 0): 1, (2, 0): 1, (3, 0): -1, (5, 1): 1}, t_terms, x_terms)
        tail = Series2({(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): 1}, t_terms, x_terms) \
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


def m2_basis_count(q: int, k: int) -> int:
    """Number of basis classes of H^q_k for the two-generator preset m2,
    counted from the explicit cocycle list: low degrees are the four
    sporadic classes; for q >= 3 each class is indexed by q-2 distinct
    indices 3 <= i_1 < ... < i_{q-2} with weight sum(i) + 2 i_{q-2} + 3.

    The partition-difference display P_q(k)-P_q(k-1)-P_q(k-2)+P_q(k-3)
    agrees with this count except at finitely many boundary weights per
    degree (e.g. q=3 weight 9), where this count is the correct one.
    """
    if q < 0 or k < 0:
        return 0
    if q == 0:
        return 1 if k == 0 else 0
    if q == 1:
        return 1 if k in (1, 2) else 0
    if q == 2:
        return 1 if k in (5, 7) else 0
    r = q - 2

    def count(slots, start, remaining):
        # remaining = target minus contributions so far; the top index
        # contributes 3 times (itself plus the appended adjacent pair)
        if slots == 1:
            # top index i contributes 3i + 3
            rem = remaining - 3
            return 1 if rem >= 3 * start and rem % 3 == 0 else 0
        total = 0
        i = start
        while True:
            # cheapest completion: i+1, ..., i+slots-1 with the last tripled
            rest = sum(range(i + 1, i + slots)) + 2 * (i + slots - 1) + 3
            if i + rest > remaining:
                break
            total += count(slots - 1, i + 1, remaining - i)
            i += 1
        return total

    return count(r, 3, k)
