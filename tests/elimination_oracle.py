"""Reference elimination over Q for the tests: Bareiss integer rank and a
dense Fraction RREF.

These are the two exact routes the library used before certified
modular elimination; they stay here, slow and simple, as the oracle the
modular engine is compared against.  Both pivot on the first nonzero
entry in column order, so results are deterministic.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm


def rank_int(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination;
    works in place."""
    m = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = -1
        for r in range(rank, m):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            rows[piv], rows[rank] = rows[rank], rows[piv]
        prow = rows[rank]
        pval = prow[col]
        for r in range(rank + 1, m):
            row = rows[r]
            rv = row[col]
            if rv:
                for j in range(col + 1, ncols):
                    row[j] = (pval * row[j] - rv * prow[j]) // prev
                row[col] = 0
            elif prev != pval:
                for j in range(col + 1, ncols):
                    row[j] = (pval * row[j]) // prev
        prev = pval
        rank += 1
        if rank == m:
            break
    return rank


def rref_fractions(rows: list[list], ncols: int) -> tuple[int, list[int]]:
    """In-place RREF over Q of a dense matrix; returns (rank, pivot cols)."""
    for row in rows:
        row[:] = [Fraction(x) for x in row]
    m = len(rows)
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if rows[r][col]), -1)
        if piv < 0:
            continue
        rows[piv], rows[rank] = rows[rank], rows[piv]
        prow = rows[rank]
        inv = 1 / prow[col]
        for j in range(col, ncols):
            prow[j] *= inv
        for r in range(m):
            if r != rank and rows[r][col]:
                rv = rows[r][col]
                row = rows[r]
                for j in range(col, ncols):
                    row[j] -= rv * prow[j]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return rank, pivots


def integer_rows(dense) -> list[list[int]]:
    """Each row of a rational matrix scaled by the lcm of its denominators."""
    out = []
    for row in dense:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * den) for x in row])
    return out


def kernel(dense, ncols: int) -> list[dict[int, Fraction]]:
    """RREF kernel vectors, keyed by column index: 1 at a free column,
    minus the RREF entries at the pivot columns."""
    work = [list(r) for r in dense]
    _, pivots = rref_fractions(work, ncols)
    vectors = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = {fc: Fraction(1)}
        for r, pc in enumerate(pivots):
            if work[r][fc]:
                vec[pc] = -work[r][fc]
        vectors.append(vec)
    return vectors


def in_image(dense, ncols: int, rhs: list) -> bool:
    """Whether the column rhs lies in the column space of dense."""
    aug = [list(r) + [v] for r, v in zip(dense, rhs)]
    _, pivots = rref_fractions(aug, ncols + 1)
    return ncols not in pivots
