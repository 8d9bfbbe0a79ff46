"""Tests for the Hodge Laplacian route to the Betti numbers."""
import random
from fractions import Fraction

import pytest

from maxclass import laplacian
from maxclass.algebra import preset
from maxclass.cochain import Cochain, basis, differential, differential_matrix
from maxclass.cohomology import RouteMismatch, betti, is_exact, representatives
from maxclass.fields import QQ, PrimeField
from maxclass.laplacian import (
    FieldNotOrdered,
    ShapeMismatch,
    harmonic_basis,
    laplacian_apply,
    m0_structure_check,
)
from maxclass.verify import verify_laplacian

import elimination_oracle as oracle


def mono(*idx):
    return Cochain.monomial(QQ, tuple(idx))


def pairing(x: Cochain, y: Cochain):
    """The pairing in which the monomials are orthonormal."""
    return sum((v * y.terms.get(m, 0) for m, v in x.terms.items()), QQ.zero)


def test_degree_one_generator_is_harmonic():
    m0 = preset("m0")
    assert laplacian_apply(m0, mono(1)).is_zero()
    assert harmonic_basis(m0, 1, 1) == [mono(1)]


def test_laplacian_is_self_adjoint_and_nonnegative():
    """<Delta x, y> = <x, Delta y> and <Delta x, x> >= 0 on every pair of
    monomials of a cell, and <Delta x, x> >= 0 on a combination of all
    of them."""
    rng = random.Random(5)
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for q, k in ((1, 5), (2, 7), (2, 9), (3, 12)):
            monos = [Cochain.monomial(QQ, m) for m in basis(alg, q, k)]
            images = [laplacian_apply(alg, x) for x in monos]
            for x, dx in zip(monos, images):
                assert pairing(dx, x) >= 0, (name, q, k, x)
                for y, dy in zip(monos, images):
                    assert pairing(dx, y) == pairing(x, dy), (name, q, k, x, y)
            combination = Cochain(QQ, {m: QQ.of(rng.randint(-3, 3)) for m in basis(alg, q, k)})
            assert pairing(laplacian_apply(alg, combination), combination) >= 0


@pytest.mark.parametrize("name, q, k", [("m0", 2, 9), ("m0", 3, 14), ("m2", 2, 11),
                                         ("m2", 3, 15), ("l1", 2, 10), ("l1", 3, 16)])
def test_laplacian_is_the_dense_product(name, q, k):
    """laplacian_apply(c) is A^T (A c), A the dense D_q stacked over
    D_{q-1}^T, on integer and fractional combinations of the cell; an
    integral coefficient comes out an int, never a Fraction."""
    alg = preset(name)
    rng = random.Random(f"{name}{q}{k}")
    monos = basis(alg, q, k)
    d_q, d_prev = differential_matrix(alg, q, k), differential_matrix(alg, q - 1, k)
    A = oracle.to_dense(d_q) + [list(col) for col in zip(*oracle.to_dense(d_prev))]
    for den in (1, 1, 2, 6):
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, den)) if rng.random() < 0.6 else 0
             for _ in monos]
        ax = [sum(a * v for a, v in zip(row, x)) for row in A]
        expected = {m: sum(row[j] * y for row, y in zip(A, ax)) for j, m in enumerate(monos)}
        c = Cochain(QQ, {m: QQ.from_rational(v) for m, v in zip(monos, x)})
        out = laplacian_apply(alg, c)
        assert out.terms == {m: v for m, v in expected.items() if v}, (name, q, k, den)
        assert not any(type(v) is Fraction and v.denominator == 1 for v in out.terms.values())


def test_kernel_dimension_matches_betti():
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for q in range(4):
            for k in range(18):
                assert len(harmonic_basis(alg, q, k)) == betti(alg, q, k), \
                    (name, q, k)


def test_harmonic_vectors_are_closed_and_nonexact():
    """Each harmonic h is closed, not exact, and co-closed:
    D_{q-1}^T h = 0."""
    m0 = preset("m0")
    for q, k in ((1, 1), (2, 5), (3, 12)):
        d_prev, cell = differential_matrix(m0, q - 1, k), basis(m0, q, k)
        for h in harmonic_basis(m0, q, k):
            assert differential(m0, h).is_zero()
            at = {cell.index(m): v for m, v in h.terms.items()}
            assert oracle.product(d_prev.transpose(), at) == {}
            exact, _ = is_exact(m0, h)
            assert not exact


def test_harmonic_representative_q2_k5():
    m0 = preset("m0")
    hs = harmonic_basis(m0, 2, 5)
    assert len(hs) == 1
    # the cell has basis e1^e4, e2^e3; the harmonic vector must involve
    # e2^e3 (the class generator) with a nonzero coefficient
    assert hs[0].terms.get((2, 3)) not in (None, QQ.zero)


def test_rejects_finite_fields():
    m0 = preset("m0")
    with pytest.raises(FieldNotOrdered):
        harmonic_basis(m0, 2, 5, PrimeField(5))
    with pytest.raises(FieldNotOrdered):
        laplacian_apply(m0, Cochain.monomial(PrimeField(5), (2, 3)))


def test_structure_rejects_mixed_forms():
    m0 = preset("m0")
    with pytest.raises(ShapeMismatch):
        m0_structure_check(m0, mono(1, 4) + mono(2, 3))


def test_m0_blockwise_structure():
    """Delta(e^1 ^ xi) = e^1 ^ D1 D1*(xi) and Delta(eta) = D1* D1(eta)
    for e^1-free eta, checked on every basis monomial of a window."""
    m0 = preset("m0")
    for q in (1, 2, 3):
        for k in range(q * (q + 1) // 2, 16):
            for m in basis(m0, q, k):
                assert m0_structure_check(m0, Cochain.monomial(QQ, m)), (q, k, m)


def test_structure_on_combinations():
    m0 = preset("m0")
    assert m0_structure_check(m0, mono(2, 5) + mono(3, 4))
    assert m0_structure_check(m0, mono(1, 2, 5) + mono(1, 3, 4))
    assert m0_structure_check(m0, Cochain(QQ))


def test_harmonic_basis_raises_on_route_mismatch(monkeypatch):
    monkeypatch.setattr(laplacian, "betti", lambda alg, q, k, field=QQ: 0)
    with pytest.raises(RouteMismatch):
        harmonic_basis(preset("m0"), 2, 5)


def test_verify_laplacian_records_a_route_mismatch(monkeypatch):
    """A wrong Betti number at one cell fails that cell's check of
    verify_laplacian, with the count in the message; it raises nothing."""
    true_betti = laplacian.betti

    def overstated(alg, q, k, field=QQ):
        return true_betti(alg, q, k, field) + ((alg.name, q, k) == ("m0", 2, 5))

    monkeypatch.setattr(laplacian, "betti", overstated)
    report = verify_laplacian(qmax=2, kmax=6)
    assert not report.passed
    assert report.failures == ["m0: 1 harmonic forms at (2, 5), but b^2_5 = 2"]
    # 3 algebras x 3 degrees x 7 weights, and 24 block identities
    assert report.checks == 3 * 3 * 7 + 24


def test_laplacian_reads_the_cached_differentials(monkeypatch):
    """After betti and the class basis of the cell (b^2_9 = 1) have read
    d^2_9 and d^1_9 of m0, the Laplacian of the cell assembles no
    differential of its own.  The caches are cleared first: a class
    basis found earlier would leave its matrices unread, and the matrix
    cache keeps only the last few.  The rank passes read cleared
    matrices of their own, so it is the class basis that leaves the
    full ones in the cache."""
    from maxclass import cochain, cohomology
    m0 = preset("m0")
    cohomology._weight.cache_clear()
    cohomology._matrix.cache_clear()
    assert betti(m0, 2, 9) == len(representatives(m0, 2, 9)) == 1

    def assembly(*args):
        raise AssertionError("a matrix assembled past the cell cache")

    monkeypatch.setattr(cochain, "map_matrix", assembly)
    assert len(harmonic_basis(m0, 2, 9)) == betti(m0, 2, 9)
