import random
import weakref
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import derivation_oracle as oracle
from maxclass import cochain
from maxclass.algebra import GradedAlgebra, preset, subalgebra
from maxclass.cochain import (Cochain, FieldMismatch, NegativeIndex, UnsortedMonomial,
                              basis, cochain_text, cochain_to_json, derive, differential,
                              differential_matrix, map_matrix,
                              sort_with_sign, wedge)
from maxclass.combinatorics import distinct_V, partitions_P
from maxclass.fields import QQ, PrimeField


def mono(indices, coeff=1):
    return Cochain.monomial(QQ, indices, QQ.of(coeff))


def test_sort_with_sign():
    assert sort_with_sign((2, 3)) == ((2, 3), 1)
    assert sort_with_sign((3, 2)) == ((2, 3), -1)
    assert sort_with_sign((5, 2, 3)) == ((2, 3, 5), 1)
    assert sort_with_sign((2, 2)) is None
    assert sort_with_sign(()) == ((), 1)


def test_wedge_antisymmetry():
    a, b = mono((2,)), mono((3,))
    assert wedge(a, b) == mono((2, 3))
    assert wedge(b, a) == -mono((2, 3))
    assert wedge(a, a).is_zero()


def test_wedge_associativity():
    a, b, c = mono((2,)), mono((3, 5)), mono((7,))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_field_mismatch():
    a = Cochain.monomial(QQ, (2,))
    b = Cochain.monomial(PrimeField(5), (3,))
    with pytest.raises(FieldMismatch):
        wedge(a, b)


def test_basis_dimensions_match_partition_counts():
    m0 = preset("m0")
    assert basis(m0, 2, 5) == [(1, 4), (2, 3)]
    # on the ideal generators {2,3,...} the count is a distinct-partition number
    from maxclass.algebra import subalgebra
    ideal = subalgebra(m0, lambda i: i >= 2)
    for q in range(1, 6):
        for k in range(41):
            dim = len(basis(ideal, q, k))
            assert dim == distinct_V(q, k - q)
            assert dim == partitions_P(q, k - q * (q + 1) // 2)


def test_basis_enumerates_each_cell_once():
    cochain._basis.cache_clear()
    m0 = preset("m0")
    first = basis(m0, 3, 12)
    built = cochain._basis.cache_info()
    # the cell and each cell below it that it was built from: one miss each
    assert built.misses == built.currsize > 1
    expected = list(first)
    # a caller's list is its own
    first.append((0, 0, 0))
    first[0] = ()
    assert basis(m0, 3, 12) == expected
    assert type(basis(m0, 3, 12)) is list
    assert basis(m0, 2, 11) == [(1, 10), (2, 9), (3, 8), (4, 7), (5, 6)]
    assert cochain._basis.cache_info().misses == built.misses


# a finite index set with holes: m0 has no bracket between indices >= 2
_HOLES = subalgebra(preset("m0n", 24), {2, 3, 5, 8, 9, 13, 14, 20, 21, 24})


@pytest.mark.parametrize("order", ["top weight down", "shuffled"])
@pytest.mark.parametrize("alg", [
    preset("m0"), preset("m2"), preset("l1"), preset("lk", 3), preset("m0n", 7),
    preset("l1quot", 9), subalgebra(preset("m0"), lambda i: i >= 3), _HOLES],
    ids=["m0", "m2", "l1", "lk:3", "m0n:7", "l1quot:9", "m0|i>=3", "holes"])
def test_basis_matches_brute_force_from_a_cold_cache(alg, order):
    """Each cell is built from the cells below it, which the cache holds
    or builds first; the order the cells are asked in must not matter."""
    Q, K = 6, 30
    expected = {}
    for q in range(Q + 1):
        # the other q - 1 indices sum to at least 1 + ... + (q - 1)
        for t in combinations(alg.generators_up_to(K - q * (q - 1) // 2), q):
            if sum(t) <= K:
                expected.setdefault((q, sum(t)), []).append(t)
    cells = [(q, k) for k in range(K, -1, -1) for q in range(Q, -2, -1)]
    if order == "shuffled":
        random.Random(K).shuffle(cells)
    cochain._basis.cache_clear()
    try:
        for q, k in cells:
            assert basis(alg, q, k) == expected.get((q, k), []), (q, k)
    finally:
        cochain._basis.cache_clear()


def test_basis_empty_and_scalar_cells():
    m0 = preset("m0")
    assert basis(m0, 0, 0) == [()]
    assert basis(m0, 0, 3) == []
    assert basis(m0, 3, 2) == []


def test_differential_on_generators():
    m0 = preset("m0")
    d3 = differential(m0, mono((3,)))
    assert d3 == mono((1, 2))
    m2 = preset("m2")
    d5 = differential(m2, mono((5,)))
    assert d5 == mono((1, 4)) + mono((2, 3))
    l1 = preset("l1")
    assert differential(l1, mono((5,))) == mono((1, 4), 3) + mono((2, 3), 1)


def test_differential_l1_coefficients():
    l1 = preset("l1")
    # [e1,e5]=4e6, [e2,e4]=2e6
    assert differential(l1, mono((6,))) == mono((1, 5), 4) + mono((2, 4), 2)


def test_d_squared_zero():
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for q in range(1, 4):
            for k in range(2, 16):
                for m in basis(alg, q, k):
                    dd = differential(alg, differential(alg, Cochain.monomial(QQ, m)))
                    assert dd.is_zero()


def test_leibniz_rule():
    m2 = preset("m2")
    a, b = mono((3,)), mono((4, 5))
    lhs = differential(m2, wedge(a, b))
    rhs = wedge(differential(m2, a), b) + wedge(a, differential(m2, b)).scaled(QQ.of(-1))
    assert lhs == rhs


def test_differential_matrix_shape_and_action():
    m0 = preset("m0")
    M = differential_matrix(m0, 1, 3)
    assert M.rows == len(basis(m0, 2, 3))
    assert M.cols == len(basis(m0, 1, 3))
    # d e^3 = e^1^e^2
    col = {basis(m0, 2, 3)[r]: v for (r, c), v in M.entries.items() if c == 0}
    assert col == {(1, 2): QQ.one}


def test_generator_images_are_built_once_per_algebra_and_field(monkeypatch):
    calls, compiled = [], []
    bracket, compile_ = GradedAlgebra.bracket, cochain._Compiled.__missing__
    monkeypatch.setattr(GradedAlgebra, "bracket",
                        lambda alg, i, j: calls.append((i, j)) or bracket(alg, i, j))
    monkeypatch.setattr(cochain._Compiled, "__missing__",
                        lambda self, i: compiled.append((self.field, i)) or compile_(self, i))
    l1 = preset("l1")
    cochain._generator_images.cache_clear()
    first = differential_matrix(l1, 3, 21, QQ)
    # C^3_21 holds e^1 .. e^18, and each d e^i is compiled once
    assert sorted(compiled) == [(QQ, i) for i in range(1, 19)]
    calls.clear()
    assert differential_matrix(l1, 3, 21, QQ).entries == first.entries
    differential_matrix(l1, 2, 19, QQ)
    differential(l1, Cochain.monomial(QQ, (4, 17)))
    assert calls == [] and len(compiled) == 18
    differential_matrix(l1, 3, 21, PrimeField(7))
    assert calls and sorted(compiled[18:]) == [(PrimeField(7), i) for i in range(1, 19)]


def test_generator_images_are_not_shared_between_subalgebras():
    """[e1, e4] = [e2, e3] = e5 in m2, so d e^5 has the two terms
    e1^e4 and e2^e3; without e2 only e1^e4 is left, and without e1 and
    e2 nothing.  Each key gets its own table."""
    m2 = preset("m2")
    without_2 = subalgebra(m2, lambda i: i != 2)
    from_3 = subalgebra(m2, lambda i: i >= 3)
    for alg in (m2, without_2, from_3):
        cochain._generator_images(alg, QQ)(5)
    assert cochain._generator_images(m2, QQ)(5) == [(1, (1, 4)), (1, (2, 3))]
    assert cochain._generator_images(without_2, QQ)(5) == [(1, (1, 4))]
    assert cochain._generator_images(from_3, QQ)(5) == []
    # so are the compiled terms (mask, S, (v, -v)), S = below(5) ^ below(a) ^ below(b)
    e14 = (0b10010, 0b11111 ^ 0b1 ^ 0b1111, (1, -1))
    e23 = (0b01100, 0b11111 ^ 0b11 ^ 0b111, (1, -1))
    assert cochain._generator_images(m2, QQ)[5] == [e14, e23]
    assert cochain._generator_images(without_2, QQ)[5] == [e14]
    assert cochain._generator_images(from_3, QQ)[5] == []
    assert differential(without_2, mono((5,))) == mono((1, 4))


def test_an_image_map_is_not_kept_after_the_call():
    """derive and map_matrix compile a caller's image map for the call
    only: nothing holds the map, or its compiled terms, afterwards."""
    def images(i):
        return [(1, (i - 1,))] if i > 1 else []
    kept = weakref.ref(images)
    assert derive(mono((3, 5)), images) == mono((2, 5)) + mono((3, 4))
    assert map_matrix(QQ, [(3, 5)], [(2, 5), (3, 4)], images).entries == {(0, 0): 1, (1, 0): 1}
    del images
    assert kept() is None


def test_negative_indices_are_refused_by_name():
    """An index below 0 has no bit in a monomial's mask: derive and
    map_matrix raise NegativeIndex, a ValueError, for one in a monomial
    or in an image tuple."""
    assert issubclass(NegativeIndex, ValueError)

    def shift(i):
        return [(1, (i - 1,))]
    with pytest.raises(NegativeIndex):
        derive(Cochain(QQ, {(-1, 2): 1}), shift)
    with pytest.raises(NegativeIndex):
        derive(mono((0, 2)), shift)
    with pytest.raises(NegativeIndex):
        map_matrix(QQ, [(-1, 2)], [(-1, 1)], shift)
    with pytest.raises(NegativeIndex):
        map_matrix(QQ, [(1, 2)], [(-1, 2)], shift)
    with pytest.raises(NegativeIndex):
        map_matrix(QQ, [(0, 2)], [(0, 1)], shift)


@pytest.mark.parametrize("terms", [{(4, 2): 1}, {(2, 2, 4): 1}, {(4, 3): 1},
                                   {(2, 4): 1, (5, 1): 0}, {3: 1}],
                         ids=["descending", "repeated", "unsorted", "zero-coefficient", "int"])
def test_a_key_that_is_not_a_strictly_increasing_tuple_is_refused(terms):
    """d reads every key as a strictly increasing monomial, so d of
    {(4, 2): 1} in m0 would come out +e^1 e^2 e^3, the d of e^2 e^4, and
    the zero form {(2, 2, 4): 1} would have a nonzero d: the constructor
    refuses such a key by name, also under a zero coefficient.
    Cochain.monomial sorts with the sign instead."""
    assert issubclass(UnsortedMonomial, ValueError)
    with pytest.raises(UnsortedMonomial):
        Cochain(QQ, terms)
    m0 = preset("m0")
    assert differential(m0, mono((2, 4))) == mono((1, 2, 3))
    assert differential(m0, mono((4, 2))) == -mono((1, 2, 3))
    assert mono((2, 2, 4)).is_zero()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_differential_matrix_past_one_machine_word(field):
    """Weights 64 and up put monomial masks past 64 bits; the entries,
    their order and their scalar types still equal the oracle's."""
    l1 = preset("l1")
    images = cochain._generator_images(l1, field)
    for k in (64, 65, 70):
        for q in range(3):
            source, target = basis(l1, q, k), basis(l1, q + 1, k)
            A = differential_matrix(l1, q, k, field)
            B = oracle.assemble(field, source, target, images)
            assert (A.rows, A.cols) == (B.rows, B.cols) == (len(target), len(source))
            assert list(A.entries.items()) == list(B.entries.items())
            assert [type(v) for v in A.entries.values()] == \
                [type(v) for v in B.entries.values()]


def test_bidegree():
    c = mono((2, 5))
    assert c.bidegree() == (2, 7)
    with pytest.raises(cochain.NotHomogeneous):
        (mono((2, 5)) + mono((3, 5))).bidegree()


def test_text_and_json_roundtrip():
    c = mono((2, 5), -3) + mono((3, 4), 1).scaled(QQ.of(1, 2))
    text = cochain_text(c)
    assert text == "1/2 e3^e4 - 3 e2^e5"
    assert cochain_to_json(c) == [{"coeff": "1/2", "monomial": [3, 4]},
                                  {"coeff": "-3", "monomial": [2, 5]}]


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(-4, 4)),
                min_size=1, max_size=5))
def test_differential_linearity(pairs):
    m0 = preset("m0")
    total = Cochain(QQ)
    image = Cochain(QQ)
    for idx, coeff in pairs:
        c = Cochain.monomial(QQ, (idx,), QQ.of(coeff))
        total = total + c
        image = image + differential(m0, c)
    assert differential(m0, total) == image


def cell_over(pool, q, k):
    """`cochain._cell` on an ascending pool of integers, with the cells
    below it kept in a memo for this call."""
    pool = list(pool)

    @lru_cache(maxsize=None)
    def cell(q, k):
        return cochain._cell(q, k, lambda b: pool[:bisect_right(pool, b)], cell)
    return list(cell(q, k))


# pools hold 0, as the sl(2) wedge cells do; short pools with large k are
# where the least sum of q increasing heads prunes
@settings(max_examples=400, deadline=None)
@given(st.sets(st.integers(0, 30), max_size=14) | st.sets(st.integers(0, 30), max_size=5),
       st.integers(-1, 8), st.integers(-1, 130))
def test_cell_matches_brute_force(pool, q, k):
    pool = sorted(pool)
    expected = [t for t in combinations(pool, q) if sum(t) == k] if q >= 0 else []
    assert cell_over(pool, q, k) == expected


def test_cell_at_the_largest_sum():
    # the only 6-tuple of 1..40 with the largest sum, and one just above it
    assert cell_over(range(1, 41), 6, 225) == [tuple(range(35, 41))]
    assert cell_over(range(1, 41), 6, 226) == []
    assert cell_over(range(1, 41), 41, 820) == []


@pytest.mark.parametrize("key,n", [("m0n", 17), ("m2n", 13), ("l1quot", 15)])
def test_quotient_bases_hold_every_monomial_once(key, n):
    """Over all weights, the q-cochains of an n-dimensional quotient are
    the C(n, q) subsets of its generators 1..n."""
    alg = preset(key, n)
    try:
        for q in range(n + 2):
            monos = [m for k in range(n * (n + 1) // 2 + 1) for m in basis(alg, q, k)]
            assert len(monos) == comb(n, q), q
            assert all(1 <= i <= n for m in monos for i in m)
    finally:
        cochain._basis.cache_clear()


def test_cell_on_non_contiguous_pools():
    pools = [[i for i in range(1, 30) if i != 2], [i for i in range(1, 30) if i >= 3],
             [i for i in range(30) if i % 3], []]
    for pool in pools:
        for q in range(6):
            by_sum = {}
            for t in combinations(pool, q):
                by_sum.setdefault(sum(t), []).append(t)
            for k in range(80):
                assert cell_over(pool, q, k) == by_sum.get(k, []), (q, k)
    assert cell_over(range(5), -1, 0) == []
