"""Reference elimination for the tests: Bareiss integer rank and a dense
Fraction RREF over Q, and a dense RREF over F_p.

These are the dense routes the library used before its one sparse
engine; they stay here, slow and simple, as the oracle the engine is
compared against.  All pivot on the first nonzero entry in column
order, so results are deterministic.  `heap_echelon` is the engine's
earlier sparse echelon, with dict rows and a heap of columns: the
reference for the accumulator kernel, which must return the same
pivot rows.  It also returns the rows that gave a pivot, which the
engine does not keep, for tests that ask where a pass met them.
`from_entries` builds a SparseMatrix from a (row, column)-keyed dict
of entries, the form the library's constructor took before it was
built from its rows; `from_dense` and `to_dense` convert between a
SparseMatrix and a list of rows, and `product` multiplies a matrix
into a vector by its dense rows.  `regrouped_rows` is the engine's
earlier preparation of the rows of a matrix stored by entries: the
reference for `_rows`, which sorts the stored rows instead.
`triangular_first` is the engine's earlier regroup for a capped pass,
which took each row's min and max: the reference for
`_triangular_first`, which reads a row's first and last key instead.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from maxclass.linalg import SparseMatrix


def from_entries(field, rows: int, cols: int,
                 entries: dict[tuple[int, int], object]) -> SparseMatrix:
    """The matrix with these entries, in any order: they are sorted by
    (row, column), and an entry that is zero in the field is dropped."""
    by_row: dict[int, dict[int, object]] = {}
    for (r, c), v in sorted(entries.items()):
        if not field.is_zero(v):
            by_row.setdefault(r, {})[c] = v
    return SparseMatrix(field, rows, cols, by_row)


def from_dense(field, dense) -> SparseMatrix:
    """The matrix with these rows, without their zero entries."""
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    entries = {(r, c): x for r, row in enumerate(dense) for c, x in enumerate(row)}
    return from_entries(field, rows, cols, entries)


def to_dense(M: SparseMatrix) -> list[list]:
    """The rows of M, with the field's zero at every missing entry."""
    dense = [[M.field.zero] * M.cols for _ in range(M.rows)]
    for (r, c), x in M.entries.items():
        dense[r][c] = x
    return dense


def product(M: SparseMatrix, vec: dict[int, object]) -> dict[int, object]:
    """M times a coefficient map keyed by column index, from the dense
    rows of M: its nonzero entries, keyed by row index."""
    f = M.field
    assert set(vec) <= set(range(M.cols)), "a key outside the columns"
    x = [vec.get(c, f.zero) for c in range(M.cols)]
    out = {}
    for r, row in enumerate(to_dense(M)):
        s = f.zero
        for a, v in zip(row, x):
            s = f.add(s, f.mul(a, v))
        if not f.is_zero(s):
            out[r] = s
    return out


def regrouped_rows(M: SparseMatrix) -> list[dict[int, int]]:
    """The nonzero rows of M regrouped from its entries, as integer maps
    keyed by column, over Q each row scaled by the lcm of its
    denominators when any entry is a Fraction.  Bottom-up order: the
    latest leading (smallest) column first, the later row first on ties."""
    by_row: dict[int, dict[int, object]] = {}
    for (r, c), v in M.entries.items():
        by_row.setdefault(r, {})[c] = v
    order = sorted(by_row, key=lambda r: (min(by_row[r]), r), reverse=True)
    rows = [by_row[r] for r in order]
    if M.field.characteristic == 0 and not set(map(type, M.entries.values())) <= {int}:
        for row in rows:
            den = lcm(*(v.denominator for v in row.values()))
            for c, v in row.items():
                row[c] = v.numerator * (den // v.denominator)
    return rows


def _one_per(rows: list[dict[int, int]], column, met: set[int]):
    """The first row for each value of column(row) not in `met`, and the
    other rows, both in the given order; `met` gains the new values."""
    chosen, others = [], []
    for row in rows:
        c = column(row)
        if c in met:
            others.append(row)
        else:
            met.add(c)
            chosen.append(row)
    return chosen, others


def triangular_first(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The rows regrouped for a capped pass: one row for each leading
    (smallest) column, then one row for each last (largest) column not
    yet met, then the rest, each group in the given order."""
    leading, rest = _one_per(rows, min, set())
    last, rest = _one_per(rest, max, {max(row) for row in leading})
    return leading + last + rest


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


def rref_fp(rows: list[list[int]], ncols: int, p: int) -> tuple[int, list[int]]:
    """In-place RREF over F_p of a dense matrix of residues; returns
    (rank, pivot cols)."""
    m = len(rows)
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        piv = -1
        for r in range(rank, m):
            if rows[r][col] % p:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            rows[piv], rows[rank] = rows[rank], rows[piv]
        prow = rows[rank]
        inv = pow(prow[col], -1, p)
        for j in range(col, ncols):
            prow[j] = prow[j] * inv % p
        for r in range(m):
            if r == rank:
                continue
            rv = rows[r][col] % p
            if rv:
                row = rows[r]
                for j in range(col, ncols):
                    row[j] = (row[j] - rv * prow[j]) % p
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return rank, pivots


def _rref(rows, ncols: int, p: int):
    return rref_fp(rows, ncols, p) if p else rref_fractions(rows, ncols)


def integer_rows(dense) -> list[list[int]]:
    """Each row of a rational matrix scaled by the lcm of its denominators."""
    out = []
    for row in dense:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * den) for x in row])
    return out


def kernel(dense, ncols: int, p: int = 0) -> list[dict[int, object]]:
    """RREF kernel vectors, keyed by column index, over Q or (p > 0) over
    F_p: 1 at a free column, minus the RREF entries at the pivot columns."""
    work = [list(r) for r in dense]
    _, pivots = _rref(work, ncols, p)
    vectors = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = {fc: 1 if p else Fraction(1)}
        for r, pc in enumerate(pivots):
            if work[r][fc]:
                vec[pc] = -work[r][fc] % p if p else -work[r][fc]
        vectors.append(vec)
    return vectors


def in_image(dense, ncols: int, rhs: list, p: int = 0) -> bool:
    """Whether the column rhs lies in the column space of dense, over Q or
    (p > 0) over F_p."""
    aug = [list(r) + [v] for r, v in zip(dense, rhs)]
    _, pivots = _rref(aug, ncols + 1, p)
    return ncols not in pivots


def heap_echelon(rows: list[dict[int, int]], p: int, stop: int | None = None):
    """Row echelon form mod p as pivot rows keyed by pivot column (their
    smallest column, scaled to 1), and the rows that gave a pivot; with
    `stop`, the pass ends as soon as it has that many pivots."""
    pivots: dict[int, dict[int, int]] = {}
    independent = []
    for src in rows:
        if len(pivots) == stop:
            break
        row = {c: v % p for c, v in src.items() if v % p}
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            v = row[c]
            if not v:
                continue
            prow = pivots.get(c)
            if prow is None:
                inv = pow(v, -1, p)
                pivots[c] = {j: x * inv % p for j, x in row.items() if x}
                independent.append(src)
                break
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -v * x % p
                    heappush(heap, j)
                else:
                    row[j] = (y - v * x) % p
    return pivots, independent
