"""Hodge Laplacian per bidegree with the monomial basis orthonormal.

With d* the transpose of the differential matrix, the kernel of
d d* + d* d on Lambda^q_k realizes the cohomology of that cell, giving
a third route to the Betti numbers (after elimination ranks and the
closed-form counts).  The Laplacian is A^T A, with A the matrix D_q
stacked over D_{q-1}^T, and its kernel is taken of A itself: over Q the
monomial pairing is positive definite, so A^T A c = 0 gives
<Ac, Ac> = 0 and A c = 0, and ker A^T A = ker A.  The reduced echelon
basis of a subspace is unique, so the harmonic vectors are the same
either way.  Rational field only: the orthonormal pairing has no
meaning over F_p.
"""
from __future__ import annotations

from . import linalg
from .algebra import GradedAlgebra
from .cochain import Cochain, derive
from .cohomology import RouteMismatch, _cell_cochain, _cell_positions, _matrix, betti
from .explicit import d1_apply
from .fields import QQ, Field


class FieldNotOrdered(TypeError):
    """The Laplacian needs the rational field."""


class ShapeMismatch(ValueError):
    """Form is neither e^1 ^ xi nor free of e^1."""


def _stacked(alg: GradedAlgebra, q: int, k: int, field: Field) -> linalg.SparseMatrix:
    """A, the matrix D_q stacked over D_{q-1}^T on the monomial basis of
    Lambda^q_k, so that the Laplacian of the cell is A^T A.  Its rows are
    integers: first those of D_q, then one per monomial of Lambda^{q-1}_k."""
    if field.characteristic != 0:
        raise FieldNotOrdered("Hodge pairing requires characteristic zero")
    d_q = _matrix(alg, q, k, field)
    rows, by_row = d_q.rows, dict(d_q.by_row)
    if q >= 1:
        d_prev = _matrix(alg, q - 1, k, field)
        by_row.update({rows + c: row for c, row in d_prev.transpose().by_row.items()})
        rows += d_prev.cols
    return linalg.SparseMatrix(field, rows, d_q.cols, by_row)


def laplacian_apply(alg: GradedAlgebra, c: Cochain) -> Cochain:
    """D_q^T D_q c + D_{q-1} D_{q-1}^T c, as A^T (A c) = sum_r (row_r . c)
    row_r in one pass over the stored rows of A: no transpose of A is
    built.  DimensionMismatch if c has a monomial outside its cell."""
    if c.is_zero():
        return Cochain(c.field)
    q, k = c.bidegree()
    f = c.field
    A, x = _stacked(alg, q, k, f), _cell_positions(alg, c, q, k)
    out: dict[int, object] = {}
    for row in A.by_row.values():
        s = f.zero
        for j, a in row.items():
            if j in x:
                s = f.add(s, f.mul(a, x[j]))
        if not f.is_zero(s):
            for j, a in row.items():
                out[j] = f.add(out.get(j, f.zero), f.mul(s, a))
    return _cell_cochain(alg, q, k, f, dict(sorted(out.items())))


def harmonic_basis(alg: GradedAlgebra, q: int, k: int,
                   field: Field = QQ) -> list[Cochain]:
    """Kernel basis of the Laplacian cell, in reduced echelon form; one
    vector per Betti unit, or RouteMismatch."""
    out = [_cell_cochain(alg, q, k, field, v)
           for v in linalg.kernel_basis(_stacked(alg, q, k, field))]
    expected = betti(alg, q, k, field)
    if len(out) != expected:
        raise RouteMismatch(f"{len(out)} harmonic forms at ({q}, {k}), "
                            f"but b^{q}_{k} = {expected}")
    return out


def _d1_star(c: Cochain) -> Cochain:
    """Transpose of the index-lowering derivation: e^i -> e^{i+1} for
    i >= 2, extended as an even derivation (no e^1 in the domain)."""
    return derive(c, lambda i: [(1, (i + 1,))])


def m0_structure_check(alg: GradedAlgebra, form: Cochain) -> bool:
    """The Laplacian of the index-one algebra acts blockwise: on forms
    e^1 ^ xi it is e^1 ^ D1 D1*(xi); on forms without e^1 it is
    D1* D1.  Verified exactly for a homogeneous form of either shape."""
    if form.is_zero():
        return True
    f = form.field
    has_one = [m for m in form.terms if m and m[0] == 1]
    free = [m for m in form.terms if not m or m[0] != 1]
    if has_one and free:
        raise ShapeMismatch("form mixes e^1-divisible and e^1-free monomials")
    lhs = laplacian_apply(alg, form)
    if has_one:
        xi = Cochain(f, {m[1:]: v for m, v in form.terms.items()})
        inner = d1_apply(_d1_star(xi))
        rhs = Cochain(f, {(1,) + m: v for m, v in inner.terms.items()})
    else:
        rhs = _d1_star(d1_apply(form))
    return lhs == rhs
