"""Reference derivation for the tests: the library's earlier `derive` and
`map_matrix`; `derive` is kept verbatim.

Each term is written out as head + new + tail, sorted by insertion sort
with its permutation sign (`sort_with_sign`), given the Koszul sign
(-1)^(t * (len(new) - 1)) and added through `Cochain.add_term`; the
matrix is assembled from one Cochain per source column, its entries
gathered into rows by `elimination_oracle.from_entries`.  Slow and
simple, it is the oracle the bitmask loop `_derived_rows`, which signs
each term with one popcount, is compared against.
"""
from __future__ import annotations

from maxclass.cochain import Cochain, sort_with_sign
from maxclass.fields import Field
from maxclass.linalg import SparseMatrix

from elimination_oracle import from_entries


def derive(c: Cochain, images) -> Cochain:
    """Extend a map on generators to a derivation of the exterior algebra.

    images(i) lists (coefficient, index tuple) pairs, the image of e^i;
    coefficients are field elements (the integer 1 is one in every
    field).  Each position t of each monomial is replaced in turn by
    each image tuple, the result is sorted with its permutation sign,
    and the term takes the Koszul sign (-1)^(t * (len(tuple) - 1)):
    none for an even derivation (1-tuples), (-1)^t for the differential
    (pairs) and for the interior product (the empty tuple)."""
    f = c.field
    out = Cochain(f)
    for mono, coeff in c.terms.items():
        for t, i in enumerate(mono):
            head, tail = mono[:t], mono[t + 1:]
            for v, new in images(i):
                srt = sort_with_sign(head + new + tail)
                if srt is None:
                    continue
                m, sign = srt
                if t * (len(new) - 1) % 2:
                    sign = -sign
                term = f.mul(coeff, v)
                out.add_term(m, term if sign > 0 else f.neg(term))
    return out


def map_matrix(field: Field, source, target, fn) -> SparseMatrix:
    """Matrix of a linear map between spans of monomials: column j holds
    the coordinates of fn(source[j]) in the monomial basis target, where
    fn takes and returns cochains."""
    row_index = {m: r for r, m in enumerate(target)}
    entries: dict[tuple[int, int], object] = {}
    for j, mono in enumerate(source):
        for m, v in fn(Cochain(field, {mono: field.one})).terms.items():
            entries[(row_index[m], j)] = v
    return from_entries(field, len(target), len(source), entries)


def assemble(field: Field, source, target, images) -> SparseMatrix:
    """The earlier assembly of the derivation with these images."""
    return map_matrix(field, source, target, lambda c: derive(c, images))
