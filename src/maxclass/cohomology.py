"""Betti numbers and representative cocycles from the cochain complex.

This is the brute-force route: dimensions come from exact ranks of the
differential, representatives from the reduced echelon kernel basis,
selected by the pivots of the image.  Matrices and ranks are cached per
(algebra, field, q, k) since the table computations reuse them heavily.

The rank of d^q_k, q > 0, uses the complex: where d∘d = 0 on weight
k, rank d^q_k <= dim C^q_k - rank d^{q-1}_k, and linalg.rank stops its
one echelon pass at that bound.  No rule is trusted to satisfy Jacobi.
d∘d is an even derivation in every characteristic, so it vanishes on
weight k once d d e^i = 0 for every generator i of weight <= k; this is
checked once per generator over Q, and it holds over every F_p too,
since d over F_p is the reduction mod p of d over Q.  Over Q an acyclic
cell (b^q_k = 0) reaches the bound and costs one pass modulo one prime;
any other cell takes the certified modular path.  Over F_p the one pass
is the rank whether or not it reaches the bound.
"""
from __future__ import annotations

import csv
import io
import json
from functools import lru_cache

from . import linalg
from .algebra import GradedAlgebra
from .cochain import Cochain, basis, differential, differential_matrix, jacobi_defect
from .fields import QQ, Field


class NotCocycle(ValueError):
    """Exactness was asked of a cochain that is not closed."""


class RouteMismatch(ArithmeticError):
    """Two routes to the same dimension of a cell disagree."""


@lru_cache(maxsize=None)
def _cached_matrix(alg: GradedAlgebra, field: Field, q: int, k: int):
    return differential_matrix(alg, q, k, field)


# per algebra, the highest weight w with d d e^i = 0 for every generator i <= w
_D_SQUARED_ZERO: dict[GradedAlgebra, int] = {}


def _d_squared_vanishes(alg: GradedAlgebra, k: int) -> bool:
    """Whether d∘d = 0 on every cochain of weight k, over every field."""
    done = _D_SQUARED_ZERO.get(alg, 0)
    if k <= done:
        return True
    for i in alg.generators_up_to(k):
        if i > done and not jacobi_defect(alg, i).is_zero():
            _D_SQUARED_ZERO[alg] = i - 1
            return False
    _D_SQUARED_ZERO[alg] = k
    return True


@lru_cache(maxsize=None)
def _cached_rank(alg: GradedAlgebra, field: Field, q: int, k: int) -> int:
    d = _cached_matrix(alg, field, q, k)
    if q == 0 or d.is_zero() or not _d_squared_vanishes(alg, k):
        return linalg.rank(d)
    return linalg.rank(d, at_most=d.cols - _cached_rank(alg, field, q - 1, k))


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


def representatives(alg: GradedAlgebra, q: int, k: int,
                    field: Field = QQ) -> list[Cochain]:
    """Cocycles whose classes form a basis of H^q_k, chosen canonically.

    Each reduced echelon kernel vector z_f of d^q_k has coefficient 1 on
    its free column f, which is its last monomial, and 0 on every other
    free column.  The last monomial of every coboundary is such a free
    column, so the z_f whose f is the last monomial of no coboundary
    form a basis of H^q_k, ordered by f; each is 0 on the last monomial
    of every coboundary."""
    mono_basis = basis(alg, q, k)
    if not mono_basis:
        return []
    taken = set()
    if q > 0:
        # last monomials of coboundaries: the pivots of the image with the
        # monomials in reverse order
        d_prev = _cached_matrix(alg, field, q - 1, k)
        last = len(mono_basis) - 1
        flipped = linalg.SparseMatrix(field, d_prev.cols, d_prev.rows,
                                      {(c, last - r): v for (r, c), v in d_prev.entries.items()})
        taken = {mono_basis[last - c] for c in linalg.pivot_columns(flipped)}
    kernel = linalg.kernel_basis(_cached_matrix(alg, field, q, k))
    reps = [Cochain(field, vec) for vec in kernel if max(vec) not in taken]
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


def _with_coboundaries(alg: GradedAlgebra, cochains: list[Cochain], q: int, k: int,
                       field: Field) -> linalg.SparseMatrix:
    """[cochains | d^{q-1}_k] on the monomial basis of C^q_k."""
    mono_basis = basis(alg, q, k)
    order = {m: i for i, m in enumerate(mono_basis)}
    entries = {(order[m], j): v for j, r in enumerate(cochains) for m, v in r.terms.items()}
    ncols = len(cochains)
    if q > 0:
        # the rows of d^{q-1}_k are mono_basis in the same order
        d_prev = _cached_matrix(alg, field, q - 1, k)
        entries.update({(r, ncols + c): v for (r, c), v in d_prev.entries.items()})
        ncols += d_prev.cols
    return linalg.SparseMatrix(field, len(mono_basis), ncols, entries,
                               row_labels=mono_basis, col_labels=list(range(ncols)))


def class_coordinates(alg: GradedAlgebra, c: Cochain, reps: list[Cochain],
                      q: int, k: int, field: Field = QQ):
    """Coordinates of the class of a closed cochain c in the basis given
    by reps, or None if c is not in their span modulo exact forms."""
    sol = linalg.solve_in_image(_with_coboundaries(alg, reps, q, k, field), dict(c.terms))
    if sol is None:
        return None
    return [sol.get(i, field.zero) for i in range(len(reps))]


def class_rank(alg: GradedAlgebra, cochains: list[Cochain], q: int, k: int,
               field: Field = QQ) -> int | None:
    """Dimension of the span of the classes of cochains in H^q_k, that is
    rank [cochains | d^{q-1}_k] - rank d^{q-1}_k, or None when d^q_k does
    not kill them all.  The rank of an induced map on cohomology is the
    class_rank of the images of the representatives of its source."""
    cochains = [c for c in cochains if not c.is_zero()]
    if not cochains:
        return 0
    d = _cached_matrix(alg, field, q, k)
    if any(d.apply(dict(c.terms)) for c in cochains):
        return None
    coboundaries = _cached_rank(alg, field, q - 1, k) if q > 0 else 0
    return linalg.rank(_with_coboundaries(alg, cochains, q, k, field)) - coboundaries


def euler_characteristic(alg: GradedAlgebra, k: int, field: Field = QQ) -> int:
    """Alternating sums over q <= max(k, 1) of cochain dims and of Betti
    numbers; both are computed, and RouteMismatch is raised if they disagree."""
    chi_cochain = 0
    chi_betti = 0
    for q in range(max(k, 1) + 1):
        sign = -1 if q % 2 else 1
        chi_cochain += sign * len(basis(alg, q, k))
        chi_betti += sign * betti(alg, q, k, field)
    if chi_cochain != chi_betti:
        raise RouteMismatch(
            f"Euler sums disagree at k={k}: cochain {chi_cochain}, betti {chi_betti}")
    return chi_cochain
