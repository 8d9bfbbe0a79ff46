"""Tests for highest-weight sl(2) modules and primitive vectors in
their exterior powers."""
from fractions import Fraction

import pytest

from maxclass.algebra import preset, subalgebra
from maxclass.cochain import Cochain, basis
from maxclass.combinatorics import bounded_distinct_V, distinct_V
from maxclass.explicit import d1_apply
from maxclass.fields import QQ
from maxclass.linalg import SparseMatrix, rank
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

LAM = Fraction(-3, 7)


def test_rescaled_action_rules():
    mod = Sl2Module(LAM)
    assert act(mod, "X", {0: QQ.one}) == {}
    assert act(mod, "X", {3: QQ.one}) == {2: QQ.one}
    assert act(mod, "H", {2: QQ.one}) == {2: LAM - 4}
    assert act(mod, "Y", {1: QQ.one}) == {2: 2 * (LAM - 1)}


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
        pos = {m: i for i, m in enumerate(M.col_labels)}
        for vec in primitive_basis(mod, q, k):
            col = [QQ.zero] * M.cols
            for m, v in vec.items():
                col[pos[m]] = v
            dense = M.to_dense()
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
            pos = {m: i for i, m in enumerate(target)}
            entries = {}
            for j, m in enumerate(source):
                img = d1_apply(Cochain.monomial(QQ, m))
                for mm, v in img.terms.items():
                    entries[(pos[mm], j)] = v
            M = SparseMatrix(QQ, len(target), len(source), entries,
                             row_labels=target, col_labels=source)
            nullity = len(source) - rank(M)
            assert nullity == len(primitive_basis(mod, q, k)), (q, k)


def test_combination_text():
    assert combination_text({(0, 1): Fraction(1)}) == "1 ft0^ft1"
    assert combination_text({}) == "0"
