"""The Koszul sign rule of `cochain.derive`, pinned through the maps built
on it: the differential (pairs) and the interior product (the empty
tuple) are graded derivations, d squares to zero, and the assembled
matrix agrees column by column with the differential."""
import pytest
from hypothesis import given, settings, strategies as st

from maxclass.algebra import preset
from maxclass.cochain import Cochain, basis, differential, differential_matrix, wedge
from maxclass.dixmier import IdealSplit, contract
from maxclass.fields import QQ, PrimeField

ALGEBRAS = [("m0", None), ("m2", None), ("l1", None), ("l1quot", 8)]
FIELDS = [QQ, PrimeField(5)]
CASES = pytest.mark.parametrize(
    "spec,field", [(a, f) for a in ALGEBRAS for f in FIELDS],
    ids=lambda v: f"{v[0]}{v[1] or ''}" if isinstance(v, tuple) else repr(v))


def _algebra(spec):
    name, param = spec
    return preset(name) if param is None else preset(name, param)


def cochains(alg, field, degree, top=9):
    """Multi-term cochains of one degree on generators up to top, with
    mixed weights and small nonzero integer coefficients."""
    gens = alg.generators_up_to(top)
    monomial = st.lists(st.sampled_from(gens), min_size=degree, max_size=degree,
                        unique=True).map(lambda idx: tuple(sorted(idx)))

    def build(pairs):
        c = Cochain(field)
        for m, v in pairs:
            c.add_term(m, field.of(v))
        return c
    return st.lists(st.tuples(monomial, st.integers(-3, 3).filter(bool)),
                    min_size=1, max_size=4).map(build)


def _leibniz(op, a, b, p):
    """op(a ^ b) == op(a) ^ b + (-1)^p a ^ op(b) for a of degree p."""
    f = a.field
    sign = f.of(-1 if p % 2 else 1)
    return op(wedge(a, b)) == wedge(op(a), b) + wedge(a, op(b)).scaled(sign)


@CASES
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_differential_is_a_graded_derivation(spec, field, data):
    alg = _algebra(spec)
    p = data.draw(st.integers(0, 3))
    a = data.draw(cochains(alg, field, p))
    b = data.draw(cochains(alg, field, data.draw(st.integers(0, 3))))
    assert _leibniz(lambda c: differential(alg, c), a, b, p)


@CASES
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_contraction_is_a_graded_derivation(spec, field, data):
    alg = _algebra(spec)
    # e^2 sits at position 0 or 1, so both signs of the rule occur (low
    # generators make position 1 common); the other generators span an
    # ideal in all four algebras
    split = IdealSplit(alg, 2)
    p = data.draw(st.integers(1, 3))
    a = data.draw(cochains(alg, field, p, top=5))
    b = data.draw(cochains(alg, field, data.draw(st.integers(1, 3)), top=5))
    assert _leibniz(lambda c: contract(split, c), a, b, p)


@CASES
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_differential_squares_to_zero(spec, field, data):
    alg = _algebra(spec)
    c = data.draw(cochains(alg, field, data.draw(st.integers(1, 4))))
    c = c + data.draw(cochains(alg, field, data.draw(st.integers(1, 4))))
    assert differential(alg, differential(alg, c)).is_zero()


@CASES
@settings(max_examples=25, deadline=None)
@given(q=st.integers(0, 3), k=st.integers(0, 16))
def test_matrix_columns_are_differentials_of_basis_monomials(spec, field, q, k):
    alg = _algebra(spec)
    M = differential_matrix(alg, q, k, field)
    rows = basis(alg, q + 1, k)
    for j, mono in enumerate(basis(alg, q, k)):
        column = {rows[r]: v for (r, c), v in M.entries.items() if c == j}
        assert Cochain(field, column) == differential(alg, Cochain.monomial(field, mono))
