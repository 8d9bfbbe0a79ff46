"""The exterior cochain complex of a graded algebra.

Monomials are strictly increasing index tuples e^{i1} ^ ... ^ e^{iq}
(degree = length, weight = index sum).  Cochains are finite scalar
combinations; the differential is dual to the bracket and extended by
the graded Leibniz rule, so it preserves weight and raises degree by 1.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cache, lru_cache
from math import inf

from .algebra import GradedAlgebra
from .fields import QQ, Field
from .linalg import SparseMatrix

Monomial = tuple[int, ...]


class FieldMismatch(ValueError):
    pass


class UnsortedImage(ValueError):
    """An image tuple of a derivation is not strictly increasing."""


def sort_with_sign(indices) -> tuple[Monomial, int] | None:
    """Sort an index sequence, returning (tuple, permutation sign), or
    None if an index repeats (the wedge term vanishes)."""
    idx = list(indices)
    sign = 1
    # insertion sort; inputs are short and nearly sorted
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None
    return tuple(idx), sign


class Cochain:
    """Finite combination of monomials with nonzero field coefficients."""

    def __init__(self, field: Field, terms: dict[Monomial, object] | None = None):
        self.field = field
        self.terms = {m: c for m, c in (terms or {}).items() if not field.is_zero(c)}

    @classmethod
    def monomial(cls, field: Field, indices, coeff=None):
        srt = sort_with_sign(indices)
        if srt is None:
            return cls(field)
        mono, sign = srt
        c = field.one if coeff is None else coeff
        if sign < 0:
            c = field.neg(c)
        return cls(field, {mono: c})

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, mono: Monomial, coeff) -> None:
        f = self.field
        c = f.add(self.terms.get(mono, f.zero), coeff)
        if f.is_zero(c):
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = c

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.field != other.field:
            raise FieldMismatch("cochains over different fields")
        out = Cochain(self.field, dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scaled(self.field.neg(self.field.one))

    def __neg__(self) -> "Cochain":
        return self.scaled(self.field.neg(self.field.one))

    def scaled(self, c) -> "Cochain":
        f = self.field
        if f.is_zero(c):
            return Cochain(f)
        return Cochain(f, {m: f.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Cochain) and self.field == other.field \
            and self.terms == other.terms

    def bidegree(self) -> tuple[int, int]:
        """(q, k) of a homogeneous cochain."""
        qks = {(len(m), sum(m)) for m in self.terms}
        if len(qks) != 1:
            raise ValueError("cochain is not homogeneous")
        return qks.pop()

    def __repr__(self):
        return f"Cochain({cochain_text(self)})"


def wedge(a: Cochain, b: Cochain) -> Cochain:
    """Exterior product with the Koszul sign from sorting."""
    if a.field != b.field:
        raise FieldMismatch("cochains over different fields")
    f = a.field
    out = Cochain(f)
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            srt = sort_with_sign(ma + mb)
            if srt is None:
                continue
            mono, sign = srt
            c = f.mul(ca, cb)
            out.add_term(mono, f.neg(c) if sign < 0 else c)
    return out


def increasing_tuples(indices, q: int, k: int) -> list[Monomial]:
    """All strictly increasing q-tuples drawn from the ascending integer
    sequence `indices` with sum k, in lexicographic order."""
    if q < 0:
        return []
    pool = list(indices)
    out: list[Monomial] = []

    def extend(prefix, start, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        if slots == 1:
            # the last index is `remaining` itself, if the pool has it
            pos = bisect_left(pool, remaining, start)
            if pos < len(pool) and pool[pos] == remaining:
                out.append(prefix + (remaining,))
            return
        for pos in range(start, len(pool)):
            i = pool[pos]
            # smallest completion: i followed by i+1, ..., i+slots-1
            if slots * i + slots * (slots - 1) // 2 > remaining:
                break
            extend(prefix + (i,), pos + 1, remaining - i, slots - 1)

    extend((), 0, k, q)
    return out


@lru_cache(maxsize=None)
def _basis(alg: GradedAlgebra, q: int, k: int) -> tuple[Monomial, ...]:
    return tuple(increasing_tuples(alg.generators_up_to(k), q, k))


def basis(alg: GradedAlgebra, q: int, k: int) -> list[Monomial]:
    """All strictly increasing q-tuples of generators with index sum k,
    in lexicographic order.  Each cell is enumerated once per algebra;
    every call returns a new list."""
    return list(_basis(alg, q, k))


def _derived_terms(mono: Monomial, images):
    """The terms of a derivation on one monomial, as (monomial,
    coefficient, odd): the coefficient is passed through from images(i)
    as given, and the term's sign is (-1)^odd.

    Position t of mono is replaced by each image tuple `new` of mono[t].
    With rest = mono[:t] + mono[t+1:], each x_j of new is placed at
    pos_j = bisect_left(rest, x_j); the term vanishes if some x_j is in
    rest, and is otherwise sorted(rest + new) with the sign
    (-1)^(t + sum_j pos_j): moving e^(mono[t]) to the front costs
    (-1)^t, and merging new into rest costs (-1)^(sum_j pos_j).  That is
    the permutation sign of head + new + tail times the Koszul sign
    (-1)^(t * (len(new) - 1)): none for an even derivation (1-tuples),
    (-1)^t for the differential (pairs) and for the interior product
    (the empty tuple).  The rule needs every image tuple strictly
    increasing: UnsortedImage is raised for one that is not, unless its
    term vanishes on an index met before the first one out of order
    (such a term is zero in any order)."""
    for t, i in enumerate(mono):
        rest = mono[:t] + mono[t + 1:]
        n = len(rest)
        for v, new in images(i):
            odd, last = t, -inf
            for x in new:
                if x <= last:
                    raise UnsortedImage(f"image {new!r} of e^{i} is not strictly increasing")
                last = x
                pos = bisect_left(rest, x)
                if pos < n and rest[pos] == x:
                    break
                odd += pos
            else:
                yield tuple(sorted(rest + new)), v, odd & 1


def derive(c: Cochain, images) -> Cochain:
    """Extend a map on generators to a derivation of the exterior algebra.

    images(i) lists (coefficient, index tuple) pairs, the image of e^i,
    each tuple strictly increasing; coefficients are field elements (the
    integer 1 is one in every field).  Each position t of each monomial
    is replaced in turn by each image tuple with the sign
    (-1)^(t + sum_j pos_j) of `_derived_terms`."""
    f = c.field
    out: dict[Monomial, object] = {}
    for mono, coeff in c.terms.items():
        for m, v, odd in _derived_terms(mono, images):
            term = f.mul(coeff, v)
            if odd:
                term = f.neg(term)
            prev = out.get(m)
            if prev is not None:
                term = f.add(prev, term)
                if f.is_zero(term):
                    del out[m]
                    continue
            out[m] = term
    return Cochain(f, out)


def map_matrix(field: Field, source, target, images) -> SparseMatrix:
    """Matrix of the derivation with these images between spans of
    monomials: column j holds the coordinates of the image of source[j]
    in the monomial basis target.  images(i) lists (coefficient, strictly
    increasing index tuple) pairs, the image of e^i, as in `derive`.
    Each column is written straight into the entries, adding only where
    a row repeats."""
    f = field
    row_index = {m: r for r, m in enumerate(target)}

    @cache
    def signed(i):
        # each nonzero image coefficient with its negative, indexed by odd
        return [((v, f.neg(v)), new) for v, new in images(i) if not f.is_zero(v)]

    entries: dict[tuple[int, int], object] = {}
    for j, mono in enumerate(source):
        for m, vs, odd in _derived_terms(mono, signed):
            key = (row_index[m], j)
            v = vs[odd]
            prev = entries.get(key)
            if prev is not None:
                v = f.add(prev, v)
                if f.is_zero(v):
                    del entries[key]
                    continue
            entries[key] = v
    return SparseMatrix._of_nonzero(field, len(target), len(source), entries,
                                    row_labels=target, col_labels=source)


@lru_cache(maxsize=None)
def _generator_images(alg: GradedAlgebra, field: Field):
    """i -> d e^i as (coefficient, (a, i - a)) with a < i - a, each
    computed once per (algebra, field)."""
    @cache
    def images(i):
        out = []
        for a in alg.generators_up_to((i - 1) // 2):
            if alg.contains(i - a):
                v = field.from_rational(alg.bracket(a, i - a))
                if not field.is_zero(v):
                    out.append((v, (a, i - a)))
        return out
    return images


def differential(alg: GradedAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential, extended by the Leibniz rule."""
    return derive(c, _generator_images(alg, c.field))


def jacobi_defect(alg: GradedAlgebra, i: int) -> Cochain:
    """d d e^i over Q.  Its coefficient on e^a ^ e^b ^ e^c, a < b < c,
    is the coefficient on e_i of the Jacobiator [[e_a, e_b], e_c] +
    [[e_b, e_c], e_a] + [[e_c, e_a], e_b], up to sign; so its monomials
    are exactly the triples with a + b + c = i where Jacobi fails."""
    return differential(alg, differential(alg, Cochain.monomial(QQ, (i,))))


def differential_matrix(alg: GradedAlgebra, q: int, k: int,
                        field: Field = QQ) -> SparseMatrix:
    """Matrix of d restricted to degree q, weight k, in lexicographic bases."""
    return map_matrix(field, basis(alg, q, k), basis(alg, q + 1, k),
                      _generator_images(alg, field))


def _term_order(mono: Monomial):
    """Ascending final index first (the natural reading order of the
    omega expansions), lexicographic within equal final index."""
    return (mono[-1] if mono else -1, mono)


def cochain_text(c: Cochain) -> str:
    """Canonical text form; see _term_order for the term ordering."""
    if c.is_zero():
        return "0"
    f = c.field
    parts = []
    for mono in sorted(c.terms, key=_term_order):
        coeff = c.terms[mono]
        body = "^".join(f"e{i}" for i in mono) if mono else "1"
        if f.characteristic == 0:
            neg = coeff < 0
            mag = -coeff if neg else coeff
            shown = body if mag == 1 else f"{f.format(mag)} {body}"
            parts.append(("- " if neg else "+ ") + shown)
        else:
            shown = body if coeff == 1 else f"{coeff} {body}"
            parts.append("+ " + shown)
    head = parts[0]
    head = head[2:] if head.startswith("+ ") else "-" + head[2:]
    return " ".join([head] + parts[1:])


def cochain_to_json(c: Cochain) -> list[dict]:
    return [{"coeff": c.field.format(c.terms[m]), "monomial": list(m)}
            for m in sorted(c.terms, key=_term_order)]

