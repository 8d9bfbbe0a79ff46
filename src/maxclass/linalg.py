"""Exact sparse linear algebra over Q and F_p on row and column indices:
rank, kernel bases (keyed by column) and solutions of M u = v (v keyed
by row, u by column) behind every cohomology dimension; a caller maps
an index to what it stands for.

A SparseMatrix has one constructor, which keeps the rows it is given,
the form elimination reads: no zero entry, no empty row, and each row
listing its columns in ascending order.  A differential is assembled
straight into them, and elimination sorts them by their first keys
without regrouping (see _rows).  There is one elimination, in pure
Python: a sparse row echelon form modulo a prime, each row reduced in a
dense integer accumulator (see _echelon), and back substitution onto the
free columns for the kernel vectors; M u = v is solved through the
kernel of [M | v].  Over F_p it runs once.  Over Q it runs modulo
word-size primes, rebuilds every RREF kernel vector by Chinese
remaindering and rational reconstruction, and checks each exactly before
it returns (see _certified_kernel).  A full pass takes the rows
bottom-up, latest leading column first, so that pivot rows stay short.
A capped pass stops at a proven bound, where over Q its count needs no
check, takes the rows in the order of _triangular_order, which in a
full pass would only add fill-in, and names the rows that gave its
pivots.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import gcd, isqrt, lcm, prod

from .fields import Field, _is_prime

BACKEND = "python"


class DimensionMismatch(ValueError):
    pass


class SparseMatrix:
    """Exact sparse matrix stored by rows, a map row -> {column: entry}
    on indices.  It is transposed and eliminated (rank, kernel_basis,
    solve_in_image), and nothing else.

    The one constructor keeps `by_row` as it is given, so every caller
    writes rows that keep the contract elimination reads: no zero entry
    and no empty row, row and column keys inside the shape, and each
    row's columns in ascending order.  `map_matrix` and `solve_in_image`
    write the columns in turn, and `transpose` walks the rows in order."""

    def __init__(self, field: Field, rows: int, cols: int, by_row: dict[int, dict[int, object]]):
        self.field, self.rows, self.cols, self.by_row = field, rows, cols, by_row

    @property
    def entries(self) -> dict[tuple[int, int], object]:
        """(row, column) -> nonzero entry, rows in ascending order, derived
        from the rows on every read."""
        return {(r, c): v for r in sorted(self.by_row) for c, v in self.by_row[r].items()}

    def transpose(self) -> "SparseMatrix":
        by_col: dict[int, dict] = {}
        for r in sorted(self.by_row):
            for c, v in self.by_row[r].items():
                by_col.setdefault(c, {})[r] = v
        return SparseMatrix(self.field, self.cols, self.rows, by_col)

    def is_zero(self) -> bool:
        return not self.by_row

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {sum(map(len, self.by_row.values()))} entries, {self.field!r})"


class CertificationError(ArithmeticError):
    """The prime sequence ended before an exact check passed."""


_PRIMES: list[int] = []


def _primes():
    """Primes below 2**30, descending, found on first use.  Residues below
    2**30 fit one CPython digit, which keeps arithmetic on its fast path."""
    for i in count():
        if i == len(_PRIMES):
            n = (_PRIMES[-1] if _PRIMES else 2 ** 30 + 1) - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]


def _echelon(rows: list[dict[int, int]], p: int, stop: int | None = None,
             gave: list[int] | None = None):
    """Row echelon form mod p as pivot rows keyed by pivot column (their
    smallest column, scaled to 1); with `stop`, the pass ends as soon as
    it has that many pivots.  With `gave`, a list, the position in `rows`
    of each row that gives a pivot is appended to it: those rows are
    independent mod p.

    Each row is reduced in a dense accumulator, a list of integers as
    wide as the matrix, and an integer bitmask of its touched columns is
    the frontier: its lowest bit is the next column to read, so zero
    columns are never visited.  Reduction mod p is lazy: an update is
    acc[j] -= v x, and an entry is reduced only when it is read as a
    candidate pivot or stored in a new pivot row.  Reducing by the pivot
    row of column c ORs in that row's precomputed mask of columns."""
    ncols = 1 + max(set().union(*rows), default=-1)
    acc = [0] * ncols
    pivots: dict[int, dict[int, int]] = {}     # each lacks its pivot entry 1 until the end
    masks: dict[int, int] = {}
    for i, src in enumerate(rows):
        if len(pivots) == stop:
            break
        mask = 0
        for c, v in src.items():
            acc[c] = v
            mask |= 1 << c
        # every column read is set to zero, so acc is all zero for the next row
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            v = acc[c] % p
            acc[c] = 0
            if not v:
                continue
            prow = pivots.get(c)
            if prow is None:
                inv = pow(v, -1, p)
                prow = pivots[c] = {}
                tail = mask
                while mask:
                    low = mask & -mask
                    mask ^= low
                    j = low.bit_length() - 1
                    x = acc[j] % p
                    acc[j] = 0
                    if x:
                        prow[j] = x * inv % p
                    else:
                        tail ^= low
                masks[c] = tail
                if gave is not None:
                    gave.append(i)
                break
            for j, x in prow.items():
                acc[j] -= v * x
            mask |= masks[c]
    for c, prow in pivots.items():
        prow[c] = 1
    return pivots


def _reduce(pivots: dict[int, dict[int, int]], p: int, free: set[int]):
    """Back substitution: the RREF entries mod p at the columns `free`,
    keyed by (pivot column, free column)."""
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        acc: dict[int, int] = {}
        for j, x in pivots[c].items():
            if j in reduced:
                for f, y in reduced[j].items():
                    acc[f] = acc.get(f, 0) - x * y
            elif j in free:
                acc[j] = acc.get(j, 0) + x
        reduced[c] = {f: y % p for f, y in acc.items() if y % p}
    return {(c, f): y for c, row in reduced.items() for f, y in row.items()}


def _rational(u: int, m: int, bound: int) -> int | Fraction | None:
    """Minus the fraction a/b = u mod m with |a|, b <= bound, if there is
    one, built once: an int when b = 1, else a Fraction."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    if t1 == 1 or t1 == -1:
        return -r1 * t1
    return Fraction(-r1, t1)


def _certified_kernel(rows: list[dict[int, int]], ncols: int):
    """Pivot columns over Q of the integer matrix with these sparse rows
    and ncols columns, and its RREF kernel vectors keyed by column: one
    per free column, in column order.

    rank_p <= rank_Q for every prime p, so a prime with a lower rank or
    later pivots than another is dropped.  The vectors are accepted only
    once M w = 0 holds exactly for every one of them: then rank_Q <=
    rank_p, the pivots are those over Q, and the vectors are the unique
    RREF ones.  A failed check adds a prime.

    Each prime is one complete elimination of all the rows.  The RREF
    entries are ratios of minors of M, bounded by Hadamard's bound H (the
    product of the row norms), so past a modulus of 2 H^2 a correct
    elimination fails only at primes dividing a nonzero minor.  H is
    computed at the first failure; past 2 H^2 a failed check raises.
    """
    columns: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(rows):
        for c, a in row.items():
            columns.setdefault(c, []).append((r, a))

    def annihilated(vec):
        den = lcm(*(x.denominator for x in vec.values()))
        acc: dict[int, int] = {}
        for c, x in vec.items():
            w = x.numerator * (den // x.denominator)
            for r, a in columns.get(c, ()):
                acc[r] = acc.get(r, 0) + a * w
        return not any(acc.values())

    best, limit = None, None
    for p in _primes():
        echelon = _echelon(rows, p)
        key = (-len(echelon), sorted(echelon))
        if best is None or key < best:
            best, residues, modulus = key, {}, 1
        elif key > best:
            continue
        free = [c for c in range(ncols) if c not in echelon]
        step = _reduce(echelon, p, set(free))
        inv = pow(modulus, -1, p)
        for entry in residues.keys() | step.keys():
            a = residues.get(entry, 0)
            residues[entry] = a + modulus * ((step.get(entry, 0) - a) * inv % p)
        modulus *= p
        bound = isqrt(modulus // 2)
        vectors = {f: {f: 1} for f in free}
        for (c, f), u in sorted(residues.items()):
            x = _rational(u, modulus, bound)
            if x is None:
                break
            vectors[f][c] = x
        else:
            if all(annihilated(vec) for vec in vectors.values()):
                return key[1], list(vectors.values())
        if limit is None:
            limit = 2 * prod(sum(a * a for a in row.values()) for row in rows)
        if modulus > limit:
            raise CertificationError("no certificate within Hadamard's bound")
    raise CertificationError("no prime left to certify the elimination")


def _keyed_rows(M: SparseMatrix) -> tuple[list[int], list[dict[int, int]]]:
    """The keys of the rows of M and the rows as integer maps keyed by
    column, both in bottom-up order: the latest leading column (a row's
    first key) first, the later row first on ties, so that pivot rows
    have few columns right of their pivots.  They are the stored rows,
    except that over Q a row holding a Fraction is replaced by a copy
    scaled by the lcm of its denominators; the keys name them either way."""
    keys = [r for _, r in sorted([(next(iter(row)), r) for r, row in M.by_row.items()],
                                 reverse=True)]
    rows = [M.by_row[r] for r in keys]
    if M.field.characteristic == 0 and \
            not set(map(type, chain.from_iterable(map(dict.values, rows)))) <= {int}:
        rows = [row if all(type(v) is int for v in row.values()) else _scaled(row) for row in rows]
    return keys, rows


def _rows(M: SparseMatrix) -> list[dict[int, int]]:
    """The rows of M in the order of _keyed_rows, without their keys."""
    return _keyed_rows(M)[1]


def _scaled(row: dict) -> dict[int, int]:
    """A new integer row: row times the lcm of its denominators."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _one_per(items, columns, met: set[int]):
    """The first item for each of its `columns` not in `met`, and the
    other items, both in the given order; `met` gains the new columns."""
    chosen, others = [], []
    for c, item in zip(columns, items):
        if c in met:
            others.append(item)
        else:
            met.add(c)
            chosen.append(item)
    return chosen, others


def _triangular_order(rows: list[dict[int, int]]) -> list[int]:
    """The positions of the rows regrouped for a capped pass: one row for
    each leading column, then one row for each last column not yet met,
    then the rest, each group in the given order; a row's leading and
    last columns are its first and last keys.  Rows with distinct
    leading (or last) columns form a triangular block with a nonzero
    diagonal, so the pass meets most of its pivots before any row that
    reduces to zero (structural pivots: Faugère & Lachartre, PASCO 2010)."""
    leading, rest = _one_per(range(len(rows)), map(next, map(iter, rows)), set())
    last, rest = _one_per(rest, (next(reversed(rows[i])) for i in rest),
                          {next(reversed(rows[i])) for i in leading})
    return leading + last + rest


def _kernel(M: SparseMatrix):
    """Pivot columns of M and its RREF kernel vectors keyed by column
    index, one per free column, in column order; over Q certified.  A
    matrix with no entries has no pivots and is not eliminated."""
    if M.is_zero():
        return [], [{c: 1} for c in range(M.cols)]
    rows = _rows(M)
    p = M.field.characteristic
    if p == 0:
        return _certified_kernel(rows, M.cols)
    echelon = _echelon(rows, p)
    free = [c for c in range(M.cols) if c not in echelon]
    vectors = {f: {f: 1} for f in free}
    for (c, f), y in sorted(_reduce(echelon, p, set(free)).items()):
        vectors[f][c] = p - y
    return sorted(echelon), list(vectors.values())


def capped_pass(M: SparseMatrix, at_most: int) -> tuple[int, int, list[int]]:
    """One echelon pass of M, modulo p over F_p and modulo the first prime
    over Q, that stops at its b-th pivot: (its pivot count, b, the keys
    of the rows that gave its pivots).  A matrix with no entries is not
    eliminated.

    `at_most` is a promise of the caller: rank M <= at_most (over Q,
    rank_Q M <= at_most).  b is the least of at_most, the number of
    nonzero rows and the number of nonzero columns of M; the last two
    bound every rank, are read off the rows the pass takes, and count
    the entries of M, not their residues.  The pass takes the rows sorted
    and regrouped on their first and last keys (_keyed_rows,
    _triangular_order); its pivot count does not depend on the order.
    Over F_p it is the rank, whether the pass stops at b or ends below
    it.  Over Q a count equal to b is the rank, since rank_p <= rank_Q
    <= b; a count below b is only a lower bound.  A wrong promise gives a
    wrong rank.

    The rows that gave a pivot are independent mod p, so also over Q,
    whatever the count.  Where M is d^{q-1}_k of a complex with d∘d = 0
    on weight k, d^q_k without the columns at those rows has the rank of
    d^q_k over Q and over F_p, and once the count is rank d^{q-1}_k, the
    cap's number of columns (see cohomology._Weight._rank).  Only capped
    passes read matrices cleared this way."""
    if M.is_zero():
        return 0, 0, []
    keys, rows = _keyed_rows(M)
    bound = min(at_most, len(rows), len(set().union(*rows)))
    p = M.field.characteristic or next(_primes())
    order, gave = _triangular_order(rows), []
    found = len(_echelon([rows[i] for i in order], p, bound, gave))
    return found, bound, [keys[order[i]] for i in gave]


def rank(M: SparseMatrix) -> int:
    """Exact rank, the number of pivot columns of the full (over Q,
    certified) elimination.  A caller that can promise a bound on the
    rank runs capped_pass instead."""
    return len(_kernel(M)[0])


def kernel_basis(M: SparseMatrix) -> list[dict[int, object]]:
    """Basis of the null space, size cols - rank, in reduced echelon form
    over the column order: coefficient maps keyed by column index."""
    return _kernel(M)[1]


def solve_in_image(M: SparseMatrix, v: dict[int, object]):
    """Some u with M u = v, u keyed by column and v by row, or None when
    the last column of [M | v] is a pivot, v outside the image; else u is
    minus the RREF kernel vector on that column, the last one, without
    its last entry: the solution that is zero on the free columns of M.
    DimensionMismatch if v is nonzero at a key outside range(M.rows)."""
    f = M.field
    by_row = dict(M.by_row)
    for r, val in v.items():
        if f.is_zero(val):
            continue
        if r not in range(M.rows):
            raise DimensionMismatch(f"row {r!r} is outside the {M.rows} rows")
        by_row[r] = {**by_row.get(r, {}), M.cols: val}
    pivots, vectors = _kernel(SparseMatrix(f, M.rows, M.cols + 1, by_row))
    if M.cols in pivots:
        return None
    return {c: f.neg(x) for c, x in vectors[-1].items() if c != M.cols}
