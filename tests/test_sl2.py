"""Tests for highest-weight sl(2) modules and primitive vectors in
their exterior powers."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from maxclass import sl2
from maxclass.algebra import preset, subalgebra
from maxclass.cochain import basis
from maxclass.combinatorics import bounded_distinct_V, distinct_V
from maxclass.explicit import d1_apply
from maxclass.fields import QQ
from maxclass.linalg import rank
from maxclass.sl2 import (
    InvalidLambda,
    Sl2Module,
    act,
    combination_text,
    finite_kernel_count,
    primitive_basis,
    wedge_basis,
    x_derivation_matrix,
)

import derivation_oracle
import elimination_oracle

LAM = Fraction(-3, 7)


def test_rescaled_action_rules():
    mod = Sl2Module(LAM)
    assert act(mod, "X", {0: QQ.one}) == {}
    assert act(mod, "X", {3: QQ.one}) == {2: QQ.one}
    assert act(mod, "H", {2: QQ.one}) == {2: LAM - 4}
    assert act(mod, "Y", {1: QQ.one}) == {2: 2 * (LAM - 1)}


@pytest.mark.parametrize("c", [{}, {2: QQ.one}])
def test_an_unknown_generator_is_refused_even_on_zero(c):
    """The generator is checked before the terms are read, so the zero
    combination does not hide a misspelt name."""
    with pytest.raises(ValueError, match="unknown generator"):
        act(Sl2Module(LAM), "Z", c)


def test_commutator_xy_is_h():
    mod = Sl2Module(LAM)
    for i in range(5):
        v = {i: QQ.one}
        xy = act(mod, "X", act(mod, "Y", v))
        yx = act(mod, "Y", act(mod, "X", v))
        h = act(mod, "H", v)
        diff = dict(xy)
        for j, c in yx.items():
            diff[j] = diff.get(j, QQ.zero) - c
        diff = {j: c for j, c in diff.items() if c != 0}
        assert diff == h, i


def test_invalid_lambda():
    with pytest.raises(InvalidLambda):
        Sl2Module(2)
    with pytest.raises(InvalidLambda):
        Sl2Module(0)
    # the classical basis is fine at integral lambda
    Sl2Module(2, dim=3, rescaled=False)
    # negative integers are fine even rescaled
    Sl2Module(-1)


def test_wedge_basis_dimensions():
    mod = Sl2Module(LAM)
    for q in range(1, 5):
        for k in range(15):
            assert len(wedge_basis(mod, q, k)) == distinct_V(q, k + q)


@pytest.mark.parametrize("dim", [None, 1, 2, 6, 12])
def test_wedge_basis_lists_every_tuple_with_index_0(dim):
    """The index pool of a wedge basis starts at 0, which no cochain
    basis holds; each cell is built from the cached cells below it."""
    mod = Sl2Module(LAM, dim=dim)
    for q, k in [(q, k) for q in range(-1, 7) for k in range(-1, 22)]:
        pool = range(k + 1 if dim is None else dim)
        expected = [t for t in combinations(pool, q) if sum(t) == k] if q >= 0 else []
        assert wedge_basis(mod, q, k) == expected, (q, k)


def test_wedge_cells_of_five_modules_from_a_cold_cache():
    """The cells of modules of five sizes share one cache, keyed by the
    top of the index pool.  Asked interleaved in shuffled order from a
    cold cache, each equals the brute force, and appending to a returned
    list changes no later answer."""
    asks = [(dim, q, k) for dim in (None, 1, 2, 6, 12) for q in range(-1, 7)
            for k in range(-1, 22)] * 2
    random.Random(6).shuffle(asks)
    sl2._wedge_cell.cache_clear()
    for dim, q, k in asks:
        pool = range(k + 1 if dim is None else dim)
        expected = [t for t in combinations(pool, q) if sum(t) == k] if q >= 0 else []
        got = wedge_basis(Sl2Module(LAM, dim=dim), q, k)
        assert got == expected, (dim, q, k)
        got.append((k,))


def test_a_changed_module_reads_the_cells_and_x_of_its_new_values():
    """Wedge cells and X are cached by value, not by module."""
    mod = Sl2Module(4, dim=5, rescaled=False)
    before = x_derivation_matrix(mod, 2, 7)
    assert (before.rows, before.cols) == (1, 1)
    mod.lam, mod.dim = Fraction(6), 7
    fresh = Sl2Module(6, dim=7, rescaled=False)
    assert wedge_basis(mod, 2, 7) == wedge_basis(fresh, 2, 7)
    got, want = x_derivation_matrix(mod, 2, 7), x_derivation_matrix(fresh, 2, 7)
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


def test_primitive_dimension_by_partition_difference():
    """X is onto each weight space, so the primitive dimension is the
    successive difference of weight-space dimensions."""
    for lam in (LAM, Fraction(-11, 5)):
        mod = Sl2Module(lam)
        for q in range(1, 5):
            for k in range(15):
                want = distinct_V(q, k + q) - distinct_V(q, k - 1 + q)
                assert len(primitive_basis(mod, q, k)) == want, (lam, q, k)


def test_primitive_vectors_are_killed_by_x():
    mod = Sl2Module(LAM)
    for q, k in ((2, 5), (3, 8), (3, 10)):
        M = x_derivation_matrix(mod, q, k)
        pos = {m: i for i, m in enumerate(wedge_basis(mod, q, k))}
        for vec in primitive_basis(mod, q, k):
            col = [QQ.zero] * M.cols
            for m, v in vec.items():
                col[pos[m]] = v
            dense = elimination_oracle.to_dense(M)
            image = [sum((dense[r][c] * col[c] for c in range(M.cols)),
                         QQ.zero) for r in range(M.rows)]
            assert all(v == 0 for v in image)


def test_first_primitives():
    mod = Sl2Module(LAM)
    prims = list(primitive_basis(mod, 2, 1))
    assert len(prims) == 1
    assert list(prims[0].keys()) == [(0, 1)]
    assert len(primitive_basis(mod, 2, 2)) == 0
    assert len(primitive_basis(mod, 2, 3)) == 1


def test_finite_kernel_count_small():
    # Lambda^2 V(3) = V(4) + V(0): two irreducible summands
    assert finite_kernel_count(5, 2) == 2
    assert finite_kernel_count(4, 2) == 1
    assert finite_kernel_count(6, 3) == 2


def test_finite_kernel_count_closed_form():
    """The number of summands of Lambda^q V(n-2) counts bounded
    partitions into distinct parts below the middle weight."""
    for n in range(4, 9):
        for q in range(1, 4):
            want = bounded_distinct_V(q, n - 1, (q * n) // 2)
            assert finite_kernel_count(n, q) == want, (n, q)


def test_relabeling_matches_d1_kernel():
    """Under ft_i = e^{i+2} the raising operator is the index-lowering
    derivation D1, so primitive dimensions match D1-kernel dimensions
    on the degree-shifted cells spanned by e^2, e^3, ..."""
    mod = Sl2Module(LAM)
    m0 = preset("m0")
    ideal = subalgebra(m0, lambda i: i >= 2)
    for q in range(1, 4):
        for k in range(13):
            source = basis(ideal, q, k + 2 * q)
            target = basis(ideal, q, k - 1 + 2 * q)
            M = derivation_oracle.map_matrix(QQ, source, target, d1_apply)
            nullity = len(source) - rank(M)
            assert nullity == len(primitive_basis(mod, q, k)), (q, k)


def test_combination_text():
    assert combination_text({(0, 1): Fraction(1)}) == "1 ft0^ft1"
    assert combination_text({}) == "0"
    assert combination_text({(): 1}) == "1"
