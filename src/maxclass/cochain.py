"""The exterior cochain complex of a graded algebra.

Monomials are strictly increasing index tuples e^{i1} ^ ... ^ e^{iq}
(degree = length, weight = index sum).  Cochains are finite scalar
combinations; the differential is dual to the bracket and extended by
the graded Leibniz rule, so it preserves weight and raises degree by 1.

Every derivation (the differential, interior products, the maps of the
Dixmier sequence, the D1 rules, the sl(2) operator X) runs one loop,
`_derived_rows`, on bitmask monomials: (m_1, ..., m_q) is the integer
sum_j 1 << m_j.  A term vanishes on one AND, lands on one OR, and takes
its Koszul sign from one popcount, (-1)^popcount(base & S).  The loop
returns rows, target mask -> {source index: coefficient}: `map_matrix`
orders them by its target basis, and `derive` sums each against the
coefficients of a cochain.  Each image tuple is compiled to its mask
and S once per process for a fixed map: per (algebra, field) for the
differential, per (floor, field) for D1, per field for D2, per
(lambda, rescaled, field) for X; any other map is compiled per call.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from operator import lt

from .algebra import GradedAlgebra
from .fields import QQ, Field
from .linalg import DimensionMismatch, SparseMatrix

Monomial = tuple[int, ...]


class FieldMismatch(ValueError):
    pass


class UnsortedImage(ValueError):
    """An image tuple of a derivation is not strictly increasing."""


class UnsortedMonomial(ValueError):
    """A cochain's monomial key is not a strictly increasing tuple."""


class NotHomogeneous(ValueError):
    """A cochain's monomials do not share one degree and one weight."""


class NegativeIndex(ValueError):
    """A monomial or an image tuple of a derivation holds a negative
    index, which has no bit in a monomial's mask."""


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
    """Finite combination of monomials, strictly increasing index tuples
    (else UnsortedMonomial), with nonzero field coefficients."""

    def __init__(self, field: Field, terms: dict[Monomial, object] | None = None):
        if terms and not all(type(m) is tuple and all(map(lt, m, m[1:])) for m in terms):
            raise UnsortedMonomial(f"a key of {terms!r} is not a strictly increasing tuple")
        self.field = field
        self.terms = {m: c for m, c in (terms or {}).items() if not field.is_zero(c)}

    @classmethod
    def _of_nonzero(cls, field: Field, terms: dict[Monomial, object]) -> "Cochain":
        """A cochain that keeps `terms` as it is: the caller has written
        no zero coefficient, so none is filtered out."""
        c = cls(field)
        c.terms = terms
        return c

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
        out = Cochain._of_nonzero(self.field, dict(self.terms))
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
        return Cochain._of_nonzero(f, {m: f.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Cochain) and self.field == other.field \
            and self.terms == other.terms

    def bidegree(self) -> tuple[int, int]:
        """(q, k) of a homogeneous cochain, else NotHomogeneous."""
        qks = {(len(m), sum(m)) for m in self.terms}
        if len(qks) != 1:
            raise NotHomogeneous("cochain is not homogeneous")
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


def _cell(q: int, k: int, heads, cell) -> tuple[Monomial, ...]:
    """The strictly increasing q-tuples with sum k over an ascending pool
    of integers, in lexicographic order: the cochain cells (`_basis`) and
    the sl(2) wedge cells, whose pool starts at 0.  heads(b) lists the
    pool up to b; cell(q - 1, k') is a cell one degree down, cached per
    process by the caller.
    Each head a with q*a + q(q-1)/2 <= k (the least sum of q increasing
    integers from a) goes before every tail of cell(q - 1, k - a) above
    a, found by one `bisect` on (a + 1,): one concatenation a tuple."""
    if q < 2:
        if q == 1:
            return ((k,),) if k in heads(k)[-1:] else ()
        return ((),) if q == k == 0 else ()
    out: list[Monomial] = []
    for a in heads((k - q * (q - 1) // 2) // q):
        head, tails = (a,), cell(q - 1, k - a)
        out += [head + t for t in tails[bisect_left(tails, (a + 1,)):]]
    return tuple(out)


@lru_cache(maxsize=None)
def _basis(alg: GradedAlgebra, q: int, k: int) -> tuple[Monomial, ...]:
    """C^q_k of `alg`, built by `_cell` from the cached cells below it,
    which a cell asked cold builds and keeps."""
    return _cell(q, k, alg.generators_up_to, partial(_basis, alg))


def basis(alg: GradedAlgebra, q: int, k: int) -> list[Monomial]:
    """All strictly increasing q-tuples of generators with index sum k,
    in lexicographic order.  Each cell is enumerated once per algebra;
    every call returns a new list."""
    return list(_basis(alg, q, k))


def _mask(mono) -> int:
    """The bitmask sum_j 1 << m_j of a monomial; NegativeIndex if an
    index is below 0."""
    mm = 0
    try:
        for i in mono:
            mm |= 1 << i
    except ValueError:
        raise NegativeIndex(f"monomial {mono!r} has a negative index") from None
    return mm


def _indices(mask: int) -> Monomial:
    """The monomial of a bitmask: its set bits, lowest first."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return tuple(out)


class _Compiled(dict):
    """An image map over one field with its images compiled for
    `_derived_rows`: calling it gives images(i), and self[i] is the
    image of e^i compiled on first use and kept as long as self.

    A nonzero coefficient v with a strictly increasing tuple
    x_1 < ... < x_r compiles to (mask, S, (v, -v)): mask = sum_j 1 << x_j
    and S = below(i) ^ below(x_1) ^ ... ^ below(x_r), with
    below(x) = (1 << x) - 1.  A zero coefficient compiles to nothing.  A
    tuple out of order raises UnsortedImage here, whether or not any term
    would read it."""

    __slots__ = ("images", "field")

    def __init__(self, images, field: Field):
        self.images, self.field = images, field

    def __call__(self, i):
        return self.images(i)

    def __missing__(self, i):
        field = self.field
        below_i = (1 << i) - 1
        out = []
        for v, new in self.images(i):
            if field.is_zero(v):
                continue
            mask, S, last = 0, below_i, -1
            for x in new:
                if x < 0:
                    raise NegativeIndex(f"image {new!r} of e^{i} has a negative index")
                if x <= last:
                    raise UnsortedImage(f"image {new!r} of e^{i} is not strictly increasing")
                bit = 1 << x
                mask |= bit
                S ^= bit - 1
                last = x
            out.append((mask, S, (v, field.neg(v))))
        self[i] = out
        return out


def _compiled(images, field: Field) -> _Compiled:
    """An image map compiled for `_derived_rows`: itself if it already is
    one over this field (a fixed map kept per process, such as the
    differential's, see `_generator_images`), else compiled for this
    call."""
    if isinstance(images, _Compiled) and images.field == field:
        return images
    return _Compiled(images, field)


def _derived_rows(field: Field, source, terms) -> dict[int, dict[int, object]]:
    """The derivation with compiled images `terms` (a `_Compiled` map) on
    the monomials source[j], as rows: target bitmask -> {j: coefficient},
    j ascending.  An entry that cancels leaves its row, and a row that
    empties goes.

    Position t of a monomial, holding index i, is replaced by each image
    tuple x_1 < ... < x_r of e^i.  With base = mask(mono) ^ (1 << i), the
    bitmask of the other indices, the term vanishes iff base & mask (some
    x_j is among them); otherwise its target is base | mask and its sign
    is (-1)^(t + sum_j pos_j), where pos_j = popcount(base & below(x_j))
    is the place of x_j among the other indices and t = popcount(base &
    below(i)): moving e^i to the front costs (-1)^t, and merging the
    tuple in costs (-1)^(sum_j pos_j).  Since popcount(b & A) +
    popcount(b & B) = popcount(b & (A ^ B)) mod 2, that sign is
    (-1)^popcount(base & S) for the one compiled S.  It is the
    permutation sign of head + tuple + tail times the Koszul sign
    (-1)^(t * (r - 1)): none for an even derivation (1-tuples), (-1)^t
    for the differential (pairs) and for the interior product (the empty
    tuple).  A tuple not strictly increasing raises UnsortedImage when
    its e^i is compiled (see `_Compiled`)."""
    rows: dict[int, dict[int, object]] = {}
    for j, mono in enumerate(source):
        mm = _mask(mono)
        for i in mono:
            base = mm ^ (1 << i)
            for mask, S, vs in terms[i]:
                if base & mask:
                    continue
                target = base | mask
                v = vs[(base & S).bit_count() & 1]
                row = rows.get(target)
                if row is None:
                    rows[target] = {j: v}
                    continue
                prev = row.get(j)
                if prev is not None:
                    v = field.add(prev, v)
                    if field.is_zero(v):
                        del row[j]
                        if not row:
                            del rows[target]
                        continue
                row[j] = v
    return rows


def derive(c: Cochain, images) -> Cochain:
    """Extend a map on generators to a derivation of the exterior algebra.

    images(i) lists (coefficient, index tuple) pairs, the image of e^i,
    each tuple strictly increasing; coefficients are field elements (the
    integer 1 is one in every field).  Each position of each monomial is
    replaced in turn by each image tuple with the sign of
    `_derived_rows`, and each row is summed against the coefficients of
    c.  A `_Compiled` map over the same field is used as it is, so a
    caller that passes one to many calls compiles each image once (as
    `_generator_images` does for d, `explicit` for D1 and D2, and `sl2`
    for X, each kept per process); a plain callable is compiled for
    this call only."""
    f = c.field
    coeffs = list(c.terms.values())
    out: dict[Monomial, object] = {}
    for m, row in _derived_rows(f, c.terms, _compiled(images, f)).items():
        entries = iter(row.items())
        j, v = next(entries)
        total = f.mul(coeffs[j], v)
        for j, v in entries:
            total = f.add(total, f.mul(coeffs[j], v))
        if not f.is_zero(total):
            out[_indices(m)] = total
    return Cochain._of_nonzero(f, out)


def map_matrix(field: Field, source, target, images) -> SparseMatrix:
    """Matrix of the derivation with these images between spans of
    monomials: column j holds the coordinates of the image of source[j]
    in the monomial basis target.  images(i) lists (coefficient, strictly
    increasing index tuple) pairs, the image of e^i, as in `derive`.
    The rows of `_derived_rows` are taken in the order of target, each
    listing its columns in ascending order; an image term outside
    target that does not cancel raises DimensionMismatch."""
    rows = _derived_rows(field, source, _compiled(images, field))
    by_row = {r: rows.pop(m) for r, m in enumerate(map(_mask, target)) if m in rows}
    if rows:
        raise DimensionMismatch(f"image {_indices(next(iter(rows)))} is outside the target")
    return SparseMatrix(field, len(target), len(source), by_row)


@lru_cache(maxsize=None)
def _generator_images(alg: GradedAlgebra, field: Field) -> _Compiled:
    """i -> d e^i as (coefficient, (a, i - a)) with a < i - a, compiled
    once per (algebra, field)."""
    def images(i):
        out = []
        for a in alg.generators_up_to((i - 1) // 2):
            if alg.contains(i - a):
                v = field.from_rational(alg.bracket(a, i - a))
                if not field.is_zero(v):
                    out.append((v, (a, i - a)))
        return out
    return _Compiled(images, field)


def differential(alg: GradedAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential, extended by the Leibniz rule."""
    return derive(c, _generator_images(alg, c.field))


def jacobi_defect(alg: GradedAlgebra, i: int) -> Cochain:
    """d d e^i over Q.  Its coefficient on e^a ^ e^b ^ e^c, a < b < c,
    is the coefficient on e_i of the Jacobiator [[e_a, e_b], e_c] +
    [[e_b, e_c], e_a] + [[e_c, e_a], e_b], up to sign; so its monomials
    are exactly the triples with a + b + c = i where Jacobi fails.
    Each compiled term (mask, S, (v, -v)) of d e^i is v e^a ^ e^b; d of
    it is summed by target mask, with the sign rule of `_derived_rows`."""
    terms = _generator_images(alg, QQ)
    out: dict[int, object] = {}
    for mm, _, (v, _) in terms[i]:
        for x in _indices(mm):
            base = mm ^ (1 << x)
            for mask, S, vs in terms[x]:
                if not base & mask:
                    w = QQ.mul(v, vs[(base & S).bit_count() & 1])
                    out[base | mask] = QQ.add(out.get(base | mask, 0), w)
    return Cochain._of_nonzero(QQ, {_indices(m): c for m, c in out.items() if not QQ.is_zero(c)})


def differential_matrix(alg: GradedAlgebra, q: int, k: int,
                        field: Field = QQ, dropped: int = 0) -> SparseMatrix:
    """Matrix of d restricted to degree q, weight k, in lexicographic bases.
    With `dropped`, a bitmask of positions in the basis of C^q_k, the
    columns of those monomials are left out and the others keep their
    order; the rows keep their positions in C^{q+1}_k."""
    source = _basis(alg, q, k)
    if dropped:
        source = [m for i, m in enumerate(source) if not dropped >> i & 1]
    return map_matrix(field, source, _basis(alg, q + 1, k), _generator_images(alg, field))


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

