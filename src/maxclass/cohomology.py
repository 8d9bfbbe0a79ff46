"""Betti numbers and representative cocycles from the cochain complex.

This is the brute-force route: dimensions come from exact ranks of the
differential, representatives from kernel bases reduced modulo the
image.  Ranks are cached per (algebra, field, q, k) since the table
computations reuse them heavily.
"""
from __future__ import annotations

import csv
import io
import json
from functools import lru_cache

from . import linalg
from .algebra import GradedAlgebra
from .cochain import Cochain, basis, differential, differential_matrix
from .fields import QQ, Field


class NotCocycle(ValueError):
    """Exactness was asked of a cochain that is not closed."""


class RouteMismatch(ArithmeticError):
    """Two routes to the same dimension of a cell disagree."""


@lru_cache(maxsize=None)
def _cached_matrix(alg: GradedAlgebra, field: Field, q: int, k: int):
    return differential_matrix(alg, q, k, field)


@lru_cache(maxsize=None)
def _cached_rank(alg: GradedAlgebra, field: Field, q: int, k: int) -> int:
    return linalg.rank(_cached_matrix(alg, field, q, k))


def betti(alg: GradedAlgebra, q: int, k: int, field: Field = QQ) -> int:
    """dim H^q_k = dim ker d^q_k - rank d^{q-1}_k."""
    if q < 0 or k < 0:
        return 0
    dim = len(basis(alg, q, k))
    if dim == 0:
        return 0
    kernel = dim - _cached_rank(alg, field, q, k)
    if q == 0:
        return kernel
    return kernel - _cached_rank(alg, field, q - 1, k)


class BettiTable:
    def __init__(self, algebra: str, field: Field, entries: dict[tuple[int, int], int],
                 qmax: int, kmax: int):
        self.algebra = algebra
        self.field = field
        self.entries = entries
        self.qmax = qmax
        self.kmax = kmax

    def get(self, q: int, k: int) -> int:
        return self.entries.get((q, k), 0)

    def to_json(self) -> str:
        rows = [{"q": q, "k": k, "dim": d}
                for (q, k), d in sorted(self.entries.items())]
        return json.dumps({"algebra": self.algebra,
                           "field": "q" if self.field.characteristic == 0
                           else f"fp:{self.field.characteristic}",
                           "qmax": self.qmax, "kmax": self.kmax,
                           "betti": rows}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "k", "dim"])
        for (q, k), d in sorted(self.entries.items()):
            writer.writerow([q, k, d])
        return buf.getvalue()


def betti_table(alg: GradedAlgebra, qmax: int, kmax: int,
                field: Field = QQ) -> BettiTable:
    entries = {}
    for q in range(qmax + 1):
        for k in range(kmax + 1):
            entries[(q, k)] = betti(alg, q, k, field)
    return BettiTable(alg.name, field, entries, qmax, kmax)


def _normalize_leading(c: Cochain) -> Cochain:
    """Scale so the lexicographically last monomial has coefficient 1."""
    if c.is_zero():
        return c
    lead = max(c.terms)
    return c.scaled(c.field.inv(c.terms[lead]))


def representatives(alg: GradedAlgebra, q: int, k: int,
                    field: Field = QQ) -> list[Cochain]:
    """Cocycles whose classes form a basis of H^q_k, reduced modulo the
    image of d and normalized on their last monomial."""
    mono_basis = basis(alg, q, k)
    if not mono_basis:
        return []
    f = field
    d_here = _cached_matrix(alg, field, q, k)
    kernel = linalg.kernel_basis(d_here)
    if q == 0:
        image_cols: list[dict] = []
    else:
        d_prev = _cached_matrix(alg, field, q - 1, k)
        image_cols = []
        for cidx, mono in enumerate(d_prev.col_labels):
            col = {d_prev.row_labels[r]: v
                   for (r, c), v in d_prev.entries.items() if c == cidx}
            if col:
                image_cols.append(col)

    # row space spanned by the image; reduce kernel vectors against it
    order = {m: i for i, m in enumerate(mono_basis)}
    span: list[tuple[int, list]] = []  # (pivot position, dense row)

    def reduce(vec: dict) -> list:
        dense = [f.zero] * len(mono_basis)
        for m, v in vec.items():
            dense[order[m]] = v
        for piv, row in span:
            if not f.is_zero(dense[piv]):
                coef = dense[piv]
                for j in range(piv, len(dense)):
                    dense[j] = f.sub(dense[j], f.mul(coef, row[j]))
        return dense

    def insert(dense: list) -> bool:
        for piv in range(len(dense)):
            if not f.is_zero(dense[piv]):
                inv = f.inv(dense[piv])
                row = [f.mul(v, inv) for v in dense]
                for other_piv, other in span:
                    if not f.is_zero(other[piv]):
                        coef = other[piv]
                        for j in range(len(other)):
                            other[j] = f.sub(other[j], f.mul(coef, row[j]))
                span.append((piv, row))
                span.sort(key=lambda pr: pr[0])
                return True
        return False

    for col in image_cols:
        insert(reduce(col))

    reps = []
    for vec in kernel:
        dense = reduce(vec)
        if any(not f.is_zero(v) for v in dense):
            c = Cochain(f, {mono_basis[i]: v for i, v in enumerate(dense)
                            if not f.is_zero(v)})
            reps.append(_normalize_leading(c))
            insert(dense)
    expected = betti(alg, q, k, field)
    if len(reps) != expected:
        raise RouteMismatch(f"{len(reps)} representatives at ({q}, {k}), "
                            f"but b^{q}_{k} = {expected}")
    return reps


def is_exact(alg: GradedAlgebra, c: Cochain):
    """(True, primitive u with du = c) or (False, None); c must be closed."""
    if c.is_zero():
        return True, Cochain(c.field)
    q, k = c.bidegree()
    if not differential(alg, c).is_zero():
        raise NotCocycle("cochain is not closed")
    if q == 0:
        return False, None
    M = _cached_matrix(alg, c.field, q - 1, k)
    u = linalg.solve_in_image(M, dict(c.terms))
    if u is None:
        return False, None
    return True, Cochain(c.field, u)


def class_coordinates(alg: GradedAlgebra, c: Cochain, reps: list[Cochain],
                      q: int, k: int, field: Field = QQ):
    """Coordinates of the class of a closed cochain c in the basis given
    by reps, or None if c is not in their span modulo exact forms."""
    mono_basis = basis(alg, q, k)
    order = {m: i for i, m in enumerate(mono_basis)}
    cols: list[dict] = [dict(r.terms) for r in reps]
    if q > 0:
        d_prev = _cached_matrix(alg, field, q - 1, k)
        for cidx in range(d_prev.cols):
            col = {d_prev.row_labels[r]: v
                   for (r, cc), v in d_prev.entries.items() if cc == cidx}
            cols.append(col)
    entries = {}
    for j, col in enumerate(cols):
        for m, v in col.items():
            entries[(order[m], j)] = v
    M = linalg.SparseMatrix(field, len(mono_basis), len(cols), entries,
                            row_labels=mono_basis,
                            col_labels=list(range(len(cols))))
    sol = linalg.solve_in_image(M, dict(c.terms))
    if sol is None:
        return None
    return [sol.get(i, field.zero) for i in range(len(reps))]


def euler_characteristic(alg: GradedAlgebra, k: int, qbound: int | None = None,
                         field: Field = QQ) -> int:
    """Alternating sums over degree of cochain dims and of Betti numbers;
    both are computed and must agree."""
    if qbound is None:
        qbound = k if k > 0 else 1
    chi_cochain = 0
    chi_betti = 0
    for q in range(qbound + 1):
        sign = -1 if q % 2 else 1
        chi_cochain += sign * len(basis(alg, q, k))
        chi_betti += sign * betti(alg, q, k, field)
    if chi_cochain != chi_betti:
        raise AssertionError(
            f"Euler sums disagree at k={k}: cochain {chi_cochain}, betti {chi_betti}")
    return chi_cochain
