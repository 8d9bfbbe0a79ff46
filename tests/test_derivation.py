"""The bitmask derivation loop `cochain._derived_rows` (one popcount
sign per term), through `derive` and `map_matrix`, against the earlier
sort-per-term derivation kept in `derivation_oracle`."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import derivation_oracle as oracle
from maxclass import cochain
from maxclass.algebra import preset
from maxclass.cochain import (Cochain, UnsortedImage, _generator_images, basis, derive,
                              differential, differential_matrix, map_matrix)
from maxclass.fields import QQ, PrimeField
from maxclass.linalg import DimensionMismatch, capped_pass
from maxclass.sl2 import Sl2Module, _x_coeff, wedge_basis, x_derivation_matrix

FIELDS = [QQ, PrimeField(5)]
TOP = 7  # indices 1..TOP


def _same_matrix(A, B):
    assert (A.rows, A.cols) == (B.rows, B.cols)
    assert A.entries == B.entries
    assert list(A.entries) == list(B.entries)
    assert [type(v) for v in A.entries.values()] == [type(v) for v in B.entries.values()]


def _same_cochain(a, b):
    assert a == b
    assert [type(a.terms[m]) for m in b.terms] == [type(v) for v in b.terms.values()]


def _scalar(field):
    return st.builds(field.of, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def derivation_cases(draw, field):
    """A cochain of one degree and an image map of one tuple length on
    e^1..e^TOP.  Image tuples are drawn from a small pool, so they often
    contain i itself, repeat within one image and collide across
    positions, and their terms cancel.  The cochain lists its terms in
    a drawn order."""
    length = draw(st.sampled_from([0, 1, 2]))
    tuples = list(combinations(range(1, TOP + 1), length))
    pool = draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=3))
    table = {i: draw(st.lists(st.tuples(_scalar(field), st.sampled_from(pool)), max_size=3))
             for i in range(1, TOP + 1)}
    degree = draw(st.integers(1, 3))
    monos = draw(st.lists(st.sampled_from(list(combinations(range(1, TOP + 1), degree))),
                          min_size=1, max_size=4))
    c = Cochain(field)
    for m in monos:
        c.add_term(m, draw(_scalar(field)))
    order = draw(st.permutations(list(c.terms)))
    return Cochain(field, {m: c.terms[m] for m in order}), table, degree + length - 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_derive_equals_the_oracle(field, data):
    c, table, target_degree = data.draw(derivation_cases(field))
    images = table.__getitem__
    _same_cochain(derive(c, images), oracle.derive(c, images))
    source = sorted(c.terms)
    target = list(combinations(range(1, TOP + 1), target_degree))
    _same_matrix(map_matrix(field, source, target, images),
                 oracle.assemble(field, source, target, images))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("spec", [("m0", None), ("m2", None), ("l1", None), ("l1quot", 8)],
                         ids=lambda v: f"{v[0]}{v[1] or ''}")
def test_differential_matrix_equals_the_oracle_assembly(spec, field):
    name, param = spec
    alg = preset(name) if param is None else preset(name, param)
    images = _generator_images(alg, field)
    for q in range(5):
        for k in range(25):
            _same_matrix(differential_matrix(alg, q, k, field),
                         oracle.assemble(field, basis(alg, q, k), basis(alg, q + 1, k), images))


@pytest.mark.parametrize("mod", [
    Sl2Module(Fraction(-5, 3)), Sl2Module(5, dim=6, rescaled=False),
    Sl2Module(7, dim=8, rescaled=False, field=PrimeField(5))],
    ids=["rescaled", "finite", "finite-F5"])
def test_x_derivation_matrix_equals_the_oracle_assembly(mod):
    f = mod.field

    def images(i):
        return [(f.from_rational(_x_coeff(mod, i)), (i - 1,))] if i > 0 else []
    for q in range(1, 4):
        for k in range(1, 16):
            _same_matrix(x_derivation_matrix(mod, q, k),
                         oracle.assemble(f, wedge_basis(mod, q, k),
                                         wedge_basis(mod, q, k - 1), images))


def test_cancelled_terms_restart_from_zero():
    """A sum that cancels leaves its monomial, and a later term enters
    it afresh, after the other entries and with its own type; a zero
    coefficient leaves no entry.  A row whose terms all cancel leaves no
    row behind, so the matrix with no other row is zero and a capped
    pass over it takes no row."""
    half = QQ.of(1, 2)
    image = [(half, (2,)), (-half, (2,)), (0, (3,)), (3, (2,)), (1, (3,))]
    c = Cochain.monomial(QQ, (1,))
    _same_cochain(derive(c, lambda i: image), oracle.derive(c, lambda i: image))
    M = map_matrix(QQ, [(1,)], [(2,), (3,)], lambda i: image)
    _same_matrix(M, oracle.assemble(QQ, [(1,)], [(2,), (3,)], lambda i: image))
    assert M.entries == {(0, 0): 3, (1, 0): 1} and type(M.entries[(0, 0)]) is int
    for field in FIELDS:
        cancelling = [(field.of(1, 2), (2,)), (field.of(-1, 2), (2,))]
        M = map_matrix(field, [(1,)], [(2,), (3,)], lambda i: cancelling)
        _same_matrix(M, oracle.assemble(field, [(1,)], [(2,), (3,)], lambda i: cancelling))
        assert M.is_zero() and M.entries == {} and M.by_row == {}
        assert capped_pass(M, 1) == (0, 0)


def test_derive_does_not_depend_on_the_term_order():
    """e^2 -> e^1 / 2 and e^3 -> -e^1 / 2 + e^1 on e^2 ^ e^5 + e^3 ^ e^5:
    either order of the two terms gives e^1 ^ e^5 with the int 1."""
    half = QQ.of(1, 2)
    table = {2: [(half, (1,))], 3: [(-half, (1,)), (1, (1,))]}
    results = [derive(Cochain(QQ, dict(terms)), lambda i: table.get(i, []))
               for terms in ([((2, 5), 1), ((3, 5), 1)], [((3, 5), 1), ((2, 5), 1)])]
    for result in results:
        assert result.terms == {(1, 5): 1} and type(result.terms[(1, 5)]) is int


def test_an_image_outside_the_target_is_refused_by_name():
    """e^2 -> e^1 takes e^2 ^ e^5 to e^1 ^ e^5, which is not in the
    target basis."""
    with pytest.raises(DimensionMismatch):
        map_matrix(QQ, [(2, 5)], [(1, 4)], lambda i: [(1, (1,))] if i == 2 else [])


def test_unsorted_image_tuple_is_refused():
    c = Cochain.monomial(QQ, (1,))
    with pytest.raises(UnsortedImage):
        derive(c, lambda i: [(1, (5, 3))])
    with pytest.raises(UnsortedImage):
        map_matrix(QQ, [(1,)], [(3, 5)], lambda i: [(1, (5, 3))])
    with pytest.raises(UnsortedImage):
        derive(c, lambda i: [(1, (4, 4))])


def test_unsorted_image_tuple_is_refused_where_its_term_vanishes():
    """e^1 -> e^3 ^ e^2 on e^1 ^ e^3: the term meets e^3 at once and
    would vanish in any order, but the tuple is refused when the image
    of e^1 is compiled."""
    c = Cochain.monomial(QQ, (1, 3))

    def images(i):
        return [(1, (3, 2))] if i == 1 else []
    with pytest.raises(UnsortedImage):
        derive(c, images)
    with pytest.raises(UnsortedImage):
        map_matrix(QQ, [(1, 3)], [], images)


def test_assembly_sorts_nothing_and_builds_no_cochain(monkeypatch):
    calls = {"sort_with_sign": 0, "Cochain": 0}
    sort_with_sign, init = cochain.sort_with_sign, Cochain.__init__

    def counted_sort(indices):
        calls["sort_with_sign"] += 1
        return sort_with_sign(indices)

    def counted_init(self, *args, **kwargs):
        calls["Cochain"] += 1
        init(self, *args, **kwargs)
    l1 = preset("l1")
    c = Cochain(QQ, {m: 1 for m in basis(l1, 2, 20)})
    monkeypatch.setattr(cochain, "sort_with_sign", counted_sort)
    monkeypatch.setattr(Cochain, "__init__", counted_init)
    M = differential_matrix(l1, 3, 30)
    assert M.entries and calls == {"sort_with_sign": 0, "Cochain": 0}
    assert not differential(l1, c).is_zero()
    assert calls == {"sort_with_sign": 0, "Cochain": 1}
