"""Pure-Python elimination kernel over F_p.

Same `rref_fp` as the compiled `_gauss` extension; the slower of the
two routes selected by `maxclass.linalg` at import time.  It works in
place on dense row-major lists and pivots on the first nonzero entry in
column order, so results are deterministic.
"""
from __future__ import annotations

BACKEND = "python"


def rref_fp(rows: list[list[int]], ncols: int, p: int) -> tuple[int, list[int]]:
    """In-place reduced row echelon form over F_p; returns (rank, pivot cols)."""
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
