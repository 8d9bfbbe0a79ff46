"""Independent arithmetic and cochain oracle for the benchmark's checks.

Nothing here imports maxclass: every expected value the benchmark
compares against is computed from the definitions alone.

- partition counts P_q(k) and distinct-part counts (iterative tables);
- generalized pentagonal numbers and the coefficients of prod (1 - t^n);
- the index specs that label the omega (m0) and w (m2) cocycles;
- an exact Fraction rank;
- the Chevalley-Eilenberg differential of the m0, m2 and l1 brackets on
  cochains stored as {increasing index tuple: coefficient}.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def partitions_exact(q: int, k: int) -> int:
    """P_q(k): partitions of k into exactly q positive parts."""
    if q < 0 or k < 0:
        return 0
    # table[j][n] = partitions of n into exactly j parts, filled by
    # P_j(n) = P_{j-1}(n-1) + P_j(n-j)
    table = [[0] * (k + 1) for _ in range(q + 1)]
    table[0][0] = 1
    for j in range(1, q + 1):
        for n in range(j, k + 1):
            table[j][n] = table[j - 1][n - 1] + table[j][n - j]
    return table[q][k]


def distinct_parts(q: int, n: int, least: int = 1) -> int:
    """Partitions of n into q distinct parts, each at least `least`."""
    if q < 0 or n < 0:
        return 0
    # subtract least, least+1, ..., least+q-1 from the parts in
    # increasing order: what remains is a partition into at most q parts
    rest = n - q * least - q * (q - 1) // 2
    if rest < 0:
        return 0
    return sum(partitions_exact(j, rest) for j in range(q + 1))


def pentagonal(q: int) -> tuple[int, int]:
    """((3q^2 - q)/2, (3q^2 + q)/2)."""
    return (3 * q * q - q) // 2, (3 * q * q + q) // 2


def euler_product(kmax: int, top: int | None = None) -> list[int]:
    """Coefficients of t^0..t^kmax in prod_{n=1}^{top} (1 - t^n); top
    defaults to kmax, which is the infinite product up to t^kmax."""
    top = kmax if top is None else top
    coeffs = [1] + [0] * kmax
    for n in range(1, top + 1):
        for e in range(kmax, n - 1, -1):
            coeffs[e] -= coeffs[e - n]
    return coeffs


def _specs(length: int, k: int, floor: int, top_mult: int, const: int):
    """Increasing tuples from `floor` with sum(spec[:-1]) + top_mult *
    spec[-1] + const == k."""
    out = []
    top = floor
    while top_mult * top + const <= k:
        rem = k - top_mult * top - const
        for rest in combinations(range(floor, top), length - 1):
            if sum(rest) == rem:
                out.append(rest + (top,))
        top += 1
    return out


def omega_specs(length: int, k: int) -> list[tuple[int, ...]]:
    """Index tuples of the omega cocycles of m0 in degree length + 1 and
    weight k: increasing from 2, with sum(spec) + spec[-1] + 1 == k."""
    return _specs(length, k, 2, 2, 1)


def w_specs(length: int, k: int) -> list[tuple[int, ...]]:
    """Index tuples of the w cocycles of m2 in degree length + 2 and
    weight k: increasing from 3, with sum(spec) + 2 * spec[-1] + 3 == k."""
    return _specs(length, k, 3, 3, 3)


def fraction_rank(rows) -> int:
    """Exact rank of a list of rows over Q."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / prow[col]
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], prow)]
        rank += 1
    return rank


# --- cochains -------------------------------------------------------------

def bracket(algebra: str, i: int, j: int) -> Fraction:
    """Coefficient of e_{i+j} in [e_i, e_j] for i < j."""
    if algebra == "m0":
        return Fraction(1 if i == 1 and j >= 2 else 0)
    if algebra == "m2":
        return Fraction(1 if (i == 1 and j >= 2) or (i == 2 and j >= 3) else 0)
    if algebra == "l1":
        return Fraction(j - i)
    raise ValueError(f"no bracket for {algebra!r}")


def monomials(q: int, k: int) -> list[tuple[int, ...]]:
    """Increasing q-tuples of positive indices with sum k."""
    return [c for c in combinations(range(1, k + 1), q) if sum(c) == k]


def _sorted_sign(indices):
    """(sorted tuple, sign of the sorting permutation), or None when an
    index repeats."""
    if len(set(indices)) < len(indices):
        return None
    inversions = sum(1 for a, b in combinations(indices, 2) if a > b)
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def differential(algebra: str, cochain: dict) -> dict:
    """d of a cochain, with d e^k = sum_{i<j, i+j=k} c_ij e^i ^ e^j and the
    Leibniz rule d(e^{i_1} ^ ... ) = sum_t (-1)^t (d e^{i_t}) ^ (rest)."""
    out: dict = {}
    for mono, coeff in cochain.items():
        for t, idx in enumerate(mono):
            rest = mono[:t] + mono[t + 1:]
            for i in range(1, (idx + 1) // 2):
                c = bracket(algebra, i, idx - i)
                if not c:
                    continue
                srt = _sorted_sign((i, idx - i) + rest)
                if srt is None:
                    continue
                new, sign = srt
                out[new] = out.get(new, 0) + (-1 if t % 2 else 1) * sign * c * coeff
    return {m: v for m, v in out.items() if v}


def combine(*scaled: tuple[object, dict]) -> dict:
    """sum of coefficient * cochain."""
    out: dict = {}
    for a, c in scaled:
        for m, v in c.items():
            out[m] = out.get(m, 0) + a * v
    return {m: v for m, v in out.items() if v}
