"""Betti numbers and representative cocycles from the cochain complex.

This is the brute-force route: dimensions come from exact ranks of the
differential, representatives from the reduced echelon kernel basis,
selected by the pivots of the image.  One weight complex per (algebra,
field, k) keeps ranks, passes and class bases (see _Weight), and no
matrix: a table reads each d^q_k in one capped pass, then needs only the
count.  Every reader gets d^q_k from one cache of the last three,
_matrix, the most one cell's query reads back after its ranks: d^{q-1}_k,
d^q_k and, after a next-degree bound, d^{q+1}_k.  Assembly costs far
less than the pass it feeds; a zero shape, read off the bases, has none.

The rank of d^q_k uses the complex.  One echelon pass, modulo the
first prime over Q, stops at a proven bound on the rank: the support of
d^q_k (its nonzero rows or columns, whichever are fewer), and where
d∘d = 0 on weight k, the cap dim C^q_k - rank d^{q-1}_k.  Over F_p that
pass is the rank whether or not it reaches the bound.  Over Q a pass
that reaches it has found the rank, since rank mod p <= rank over Q.
On a miss where d∘d = 0, the pass of d^{q+1} gives a third bound,
rank d^q_k <= dim C^{q+1}_k - rank_p d^{q+1}_k; that pass is kept, and
it is the one the rank of d^{q+1} reads.  Only a cell that reaches none
of the three bounds takes the certified modular path: at a prime that
loses no rank, a cell whose rank is below its support and that has
cohomology in both degrees q and q+1.

No rule is trusted to satisfy Jacobi.  d∘d is an even derivation in
every characteristic, so it vanishes on weight k once d d e^i = 0 for
every generator i of weight <= k; this is checked once per generator
over Q, and it holds over every F_p too, since d over F_p is the
reduction mod p of d over Q.

A cell with b^q_k = 0 has the empty class basis, read off `betti`
with no elimination.  Any other cell's class basis comes from two
certified eliminations: the kernel of d^q_k and the kernel of the
flipped d^{q-1}_k (its transpose with the monomials in reverse order);
a zero matrix among them is not eliminated, and the kernel of d^q_k is
the one the rank took, if it took one.  A cocycle c is sum_g c[g] z_g
over the free columns g of d^q_k, z_g its reduced echelon kernel
vectors.  Those free columns are `taken`, the last monomials of
coboundaries (the pivots of the flipped matrix), and F, the last
monomials of the representatives z_f.  The reduced echelon row of the
flipped matrix with pivot t is a coboundary, so it is b_t = z_t +
sum_f b_t[f] z_f, and b_t[f] = -y_f[t] for the flipped kernel vector y_f
on column f.  Subtracting c[t] b_t for each t leaves the class of c with
the exact coordinates

    coord_f(c) = c[f] - sum_{t in taken} c[t] b_t[f] = sum_m c[m] y_f[m].

class_rank is the rank of these coordinates, and class_coordinates
reads them off or solves a b x n system, so once the cell's basis is
built no class query eliminates more than b + 1 columns.  is_exact
keeps its one solve against d^{q-1}_k: the cells it is asked about
mostly get no other class query, and a class basis there would cost two
eliminations instead of one.
"""
from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from functools import lru_cache

from . import linalg
from .algebra import GradedAlgebra
from .cochain import (Cochain, FieldMismatch, _basis, differential,
                     differential_matrix, jacobi_defect)
from .fields import QQ, Field


class NotCocycle(ValueError):
    """Exactness was asked of a cochain that is not closed."""


class RouteMismatch(ArithmeticError):
    """Two routes to the same dimension of a cell disagree."""


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


class _Store(dict):
    """A dict that builds a missing value from its key on first read."""
    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


@lru_cache(maxsize=3)
def _matrix(alg: GradedAlgebra, q: int, k: int, field: Field) -> linalg.SparseMatrix:
    """d^q_k for every reader, here and in laplacian (see the module docstring)."""
    return differential_matrix(alg, q, k, field)


class _Weight:
    """C^•_k of one algebra over one field, one per (algebra, field, k)
    through _weight.  It keeps what it derived, and no matrix: by degree
    q, d(q) reads d^q_k from _matrix, passes[q, stop] is
    linalg.capped_pass(d^q_k, stop), rank[q] its rank, classes[q] the
    class basis of H^q_k, and _kernels[q] a kernel the rank certified,
    until classes[q] takes it."""

    def __init__(self, alg: GradedAlgebra, field: Field, k: int):
        self.alg, self.field, self.k = alg, field, k
        self.d = lambda q: _matrix(alg, q, k, field)
        self.passes = _Store(lambda key: linalg.capped_pass(self.d(key[0]), key[1]))
        self.rank, self.classes = _Store(self._rank), _Store(self._class_basis)
        self._kernels: dict[int, list] = {}

    def _rank(self, q: int) -> int:
        """rank d^q_k: the count of one capped pass, over Q the rank once
        it reaches the support, the cap or the next-degree bound, whose
        stop is the cap d^{q+1}'s own rank uses (see the module docstring);
        else the certified kernel, kept for the class basis.  A zero shape
        is read off the bases, and the cap comes before d^q_k is read."""
        cols, rows = len(_basis(self.alg, q, self.k)), len(_basis(self.alg, q + 1, self.k))
        if not cols or not rows:
            return 0
        closed = _d_squared_vanishes(self.alg, self.k)
        cap = cols - (self.rank[q - 1] if q and closed else 0)
        d = self.d(q)
        if d.is_zero():
            return 0
        found, bound = self.passes[q, cap]
        if self.field.characteristic or found == bound:
            return found
        above = rows - found
        if closed and self.passes[q + 1, above][0] == above:
            return found
        kernel = self._kernels[q] = linalg.kernel_basis(d)
        return cols - len(kernel)

    def _class_basis(self, q: int):
        """The canonical representatives z_f of H^q_k, ordered by f, and
        their coordinate functionals y_f transposed: monomial m ->
        [(i, y_i[m])], so that coordinate i of the class of a cocycle c is
        sum_m c[m] y_i[m] (see the module docstring).

        y_f is the reduced echelon kernel vector of the flipped d^{q-1}_k
        (its transpose with the monomials in reverse order) on the free
        column f: 1 at f and -b_t[f] at each pivot t, the last monomial of
        a coboundary.  The other kernel vectors are not kept.

        A cell with b^q_k = 0 has no representative and no coordinate, so
        it is answered from `betti` with no elimination; a zero d^q_k or
        d^{q-1}_k (d^{-1}_k is the map from the empty C^{-1}_k) has unit
        kernel vectors, which linalg builds without eliminating."""
        if not betti(self.alg, q, self.k, self.field):
            self._kernels.pop(q, None)
            return (), {}
        # b^q_k > 0, so a kernel kept by the rank is not empty
        kernel = self._kernels.pop(q, None) or linalg.kernel_basis(self.d(q))
        cell, d_prev = _basis(self.alg, q, self.k), self.d(q - 1)
        last = len(cell) - 1
        flipped_rows = {c: {last - r: v for r, v in reversed(row.items())}
                        for c, row in d_prev.transpose().by_row.items()}
        flipped = linalg.SparseMatrix(self.field, d_prev.cols, d_prev.rows, flipped_rows)
        # flipped column c is cell[last - c]; a kernel vector's free column is its last
        duals = {last - max(y): y for y in linalg.kernel_basis(flipped)}
        kept = [z for z in kernel if max(z) in duals]
        reps = tuple(_cell_cochain(self.alg, q, self.k, self.field, z) for z in kept)
        functionals: dict = {}
        for i, z in enumerate(kept):
            for c, y in duals[max(z)].items():
                functionals.setdefault(cell[last - c], []).append((i, y))
        return reps, functionals


_weight = lru_cache(maxsize=None)(_Weight)


def betti(alg: GradedAlgebra, q: int, k: int, field: Field = QQ) -> int:
    """dim H^q_k = dim ker d^q_k - rank d^{q-1}_k."""
    if q < 0 or k < 0:
        return 0
    dim = len(_basis(alg, q, k))
    if dim == 0:
        return 0
    rank = _weight(alg, field, k).rank
    return dim - rank[q] - (rank[q - 1] if q else 0)


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


def _check_field(field: Field, cochains) -> None:
    """Raise FieldMismatch unless every cochain is over `field`."""
    if any(c.field != field for c in cochains):
        raise FieldMismatch(f"a cochain is not over {field!r}")


def _cell_positions(alg: GradedAlgebra, c: Cochain, q: int, k: int) -> dict[int, object]:
    """c as {position in the lexicographic basis of C^q_k: coefficient},
    or DimensionMismatch if a monomial of c lies outside the cell."""
    cell = _basis(alg, q, k)
    out = {}
    for m, v in c.terms.items():
        j = bisect_left(cell, m)
        if j == len(cell) or cell[j] != m:
            raise linalg.DimensionMismatch(f"{m!r} is not a monomial of C^{q}_{k}")
        out[j] = v
    return out


def _cell_cochain(alg: GradedAlgebra, q: int, k: int, field: Field, vec: dict) -> Cochain:
    """vec, {position in the basis of C^q_k: coefficient}, as a cochain."""
    cell = _basis(alg, q, k)
    return Cochain(field, {cell[j]: x for j, x in vec.items()})


def _closed(alg: GradedAlgebra, c: Cochain, q: int, k: int) -> bool:
    """Whether d c = 0, by the compiled derivation; DimensionMismatch if
    c has a monomial outside C^q_k."""
    _cell_positions(alg, c, q, k)
    return differential(alg, c).is_zero()


def _coordinates(functionals: dict, c: Cochain) -> dict[int, object]:
    """The nonzero class coordinates of a cocycle c, keyed by the index
    of the representative in ascending order (see _Weight._class_basis)."""
    f = c.field
    out: dict[int, object] = {}
    for m, v in c.terms.items():
        for i, y in functionals.get(m, ()):
            out[i] = f.add(out.get(i, f.zero), f.mul(v, y))
    return {i: x for i, x in sorted(out.items()) if not f.is_zero(x)}


def _class_matrix(field: Field, functionals: dict, cochains: list[Cochain],
                  b: int) -> linalg.SparseMatrix:
    """The len(cochains) x b matrix whose row j holds the class
    coordinates of cochains[j]."""
    by_row = {j: row for j, c in enumerate(cochains) if (row := _coordinates(functionals, c))}
    return linalg.SparseMatrix(field, len(cochains), b, by_row)


def representatives(alg: GradedAlgebra, q: int, k: int,
                    field: Field = QQ) -> list[Cochain]:
    """Cocycles whose classes form a basis of H^q_k, chosen canonically.

    Each reduced echelon kernel vector z_f of d^q_k has coefficient 1 on
    its free column f, which is its last monomial, and 0 on every other
    free column.  The last monomial of every coboundary is such a free
    column, so the z_f whose f is the last monomial of no coboundary
    form a basis of H^q_k, ordered by f; each is 0 on the last monomial
    of every coboundary.  They are built once per cell, with the
    coordinates of classes in them (see the module docstring), and
    their count is compared with `betti` on every call.  A cell where
    `betti` is 0 builds none, so there the count is `betti`'s alone;
    the long exact sequences of `dixmier` and the Hodge kernels of
    `laplacian` check it by other routes."""
    reps = _weight(alg, field, k).classes[q][0]
    expected = betti(alg, q, k, field)
    if len(reps) != expected:
        raise RouteMismatch(f"{len(reps)} representatives at ({q}, {k}), "
                            f"but b^{q}_{k} = {expected}")
    return list(reps)


def is_exact(alg: GradedAlgebra, c: Cochain):
    """(True, primitive u with du = c) or (False, None); c must be closed."""
    if c.is_zero():
        return True, Cochain(c.field)
    q, k = c.bidegree()
    if not differential(alg, c).is_zero():
        raise NotCocycle("cochain is not closed")
    if q == 0:
        return False, None
    M = _matrix(alg, q - 1, k, c.field)
    u = linalg.solve_in_image(M, _cell_positions(alg, c, q, k))
    if u is None:
        return False, None
    return True, _cell_cochain(alg, q - 1, k, c.field, u)


def class_coordinates(alg: GradedAlgebra, c: Cochain, reps: list[Cochain],
                      q: int, k: int, field: Field = QQ):
    """Coordinates of the class of a closed cochain c in the basis given
    by reps, or None if c or one of reps is not closed (d x = 0 by the
    compiled derivation, as in is_exact), or c is not in their span
    modulo exact forms.  FieldMismatch is raised if c or one of reps is
    not over `field`, DimensionMismatch if one leaves C^q_k.

    Every cocycle has exact coordinates in the canonical representatives
    of the cell, coord_f(c) = c[f] - sum_t c[t] b_t[f] (see the module
    docstring).  For the canonical representatives themselves these are
    the answer, and they are known to be closed; other reps give the
    b x len(reps) system of their own coordinates to solve."""
    _check_field(field, [c, *reps])
    weight = _weight(alg, field, k)
    canonical, functionals = weight.classes[q]
    own = tuple(reps) == canonical
    if not all(_closed(alg, x, q, k) for x in ([c] if own else [c, *reps])):
        return None
    target = _coordinates(functionals, c)
    if own:
        return [target.get(i, field.zero) for i in range(len(reps))]
    M = _class_matrix(field, functionals, reps, len(canonical)).transpose()
    sol = linalg.solve_in_image(M, target)
    if sol is None:
        return None
    return [sol.get(j, field.zero) for j in range(len(reps))]


def class_rank(alg: GradedAlgebra, cochains: list[Cochain], q: int, k: int,
               field: Field = QQ) -> int | None:
    """Dimension of the span of the classes of cochains in H^q_k, that is
    rank [cochains | d^{q-1}_k] - rank d^{q-1}_k, or None when d does not
    kill them all (by the compiled derivation, as in is_exact).  The rank
    of an induced map on cohomology is the class_rank of the images of
    the representatives of its source.  FieldMismatch is raised if a
    cochain is not over `field`, DimensionMismatch if one leaves C^q_k.

    It is the rank of the n x b matrix of the cochains' coordinates in
    the canonical representatives (see the module docstring): one pass
    modulo the first prime over Q that stops at the bound min(n, b,
    support), and the certified rank only if the pass misses it."""
    _check_field(field, cochains)
    cochains = [c for c in cochains if not c.is_zero()]
    if not cochains:
        return 0
    if not all(_closed(alg, c, q, k) for c in cochains):
        return None
    reps, functionals = _weight(alg, field, k).classes[q]
    M = _class_matrix(field, functionals, cochains, len(reps))
    found, bound = linalg.capped_pass(M, len(reps))
    return found if field.characteristic or found == bound else linalg.rank(M)


def euler_characteristic(alg: GradedAlgebra, k: int, field: Field = QQ) -> int:
    """Alternating sums over q <= max(k, 1) of cochain dims and of Betti
    numbers; both are computed, and RouteMismatch is raised if they disagree."""
    chi_cochain = 0
    chi_betti = 0
    for q in range(max(k, 1) + 1):
        sign = -1 if q % 2 else 1
        chi_cochain += sign * len(_basis(alg, q, k))
        chi_betti += sign * betti(alg, q, k, field)
    if chi_cochain != chi_betti:
        raise RouteMismatch(
            f"Euler sums disagree at k={k}: cochain {chi_cochain}, betti {chi_betti}")
    return chi_cochain
