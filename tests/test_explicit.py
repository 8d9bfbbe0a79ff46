import os
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import cup_oracle
from maxclass.algebra import preset, subalgebra
from maxclass.cochain import Cochain, basis, cochain_text, differential, wedge
from maxclass.cohomology import betti, is_exact
from maxclass.explicit import (CharacteristicTwo, InvalidIndices, NoLeadingTerm,
                               cup_formula, d1_apply, d2_apply, d2_plus_d1sq,
                               d_minus1, d_minus2_class, leading_term, omega,
                               omega_map, w_cocycle)
from maxclass.fields import QQ, PrimeField
from maxclass.linalg import SparseMatrix, kernel_basis, rank

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def mono(indices, coeff=1):
    return Cochain.monomial(QQ, indices, QQ.of(coeff))


# --- derivations -----------------------------------------------------------

def test_d1_basics():
    assert d1_apply(mono((2,))).is_zero()
    assert d1_apply(mono((5,))) == mono((4,))
    assert d1_apply(mono((3, 4))) == mono((2, 4))  # e3^e3 term vanishes
    # floor 3 (the m2 ideal) kills e1 and e3
    assert d1_apply(mono((3,)), 3).is_zero()
    assert d1_apply(mono((1,)), 3).is_zero()
    assert d1_apply(mono((5,)), 3) == mono((4,))


def test_d1_derivation_property():
    a, b = mono((3, 6)), mono((8,))
    lhs = d1_apply(wedge(a, b))
    rhs = wedge(d1_apply(a), b) + wedge(a, d1_apply(b))
    assert lhs == rhs


def test_d1_surjective_on_windows():
    m0 = preset("m0")
    ideal = subalgebra(m0, lambda i: i >= 2)
    for q in range(1, 4):
        for k in range(q * (q + 1) // 2 + 2, 26):
            source = basis(ideal, q, k)
            target = basis(ideal, q, k - 1)
            if not target:
                continue
            pos = {m: i for i, m in enumerate(target)}
            entries = {}
            for j, m in enumerate(source):
                img = d1_apply(mono(m))
                for mm, v in img.terms.items():
                    entries[(pos[mm], j)] = v
            M = SparseMatrix(QQ, len(target), len(source), entries,
                             row_labels=target, col_labels=source)
            assert rank(M) == len(target)


def test_d_minus1_is_right_inverse():
    rng = random.Random(3)
    for _ in range(25):
        q = rng.randint(1, 3)
        idx = sorted(rng.sample(range(2, 12), q))
        c = mono(tuple(idx), rng.randint(1, 5))
        assert d1_apply(d_minus1(c)) == c
    assert d_minus1(mono((5,))) == mono((6,))
    assert d_minus1(mono((3, 7))) == mono((3, 8)) - mono((2, 9))


def test_d2_rules():
    assert d2_apply(mono((3,))) == mono((1,))
    assert d2_apply(mono((1,))).is_zero()
    assert d2_apply(mono((4,))).is_zero()
    assert d2_apply(mono((7,))) == mono((5,))
    assert d2_plus_d1sq(mono((5,))) == mono((3,), 2)
    assert d2_plus_d1sq(mono((4,))).is_zero()


# --- omega -----------------------------------------------------------------

def test_omega_small():
    assert omega((2,)) == mono((2, 3))
    assert omega((3,)) == mono((3, 4)) - mono((2, 5))
    with pytest.raises(InvalidIndices):
        omega((1, 3))
    with pytest.raises(InvalidIndices):
        omega((4, 4))


@pytest.mark.parametrize("floor", [0, 1, 4, 5])
def test_omega_refuses_a_floor_other_than_2_or_3(floor):
    with pytest.raises(InvalidIndices):
        omega((5, 6), floor=floor)
    with pytest.raises(InvalidIndices):
        omega_map(mono((5, 6, 7)), floor=floor)


def test_omega_5_6_golden():
    with open(os.path.join(GOLDEN, "omega_5_6.txt")) as fh:
        golden = fh.read().strip()
    assert cochain_text(omega((5, 6))) == golden


def test_omega_closed_in_m0():
    m0 = preset("m0")
    for q in (1, 2, 3):
        for spec in combinations(range(2, 13), q):
            c = omega(spec)
            _, k = c.bidegree()
            if k <= 40:
                assert differential(m0, c).is_zero()


def test_omega_weight_and_final_monomial():
    spec = (4, 7, 9)
    c = omega(spec)
    q, k = c.bidegree()
    assert q == len(spec) + 1
    assert k == sum(spec[:-1]) + 2 * spec[-1] + 1
    # the deepest summand ends at the staircase 2,3,...,q+2
    lmax = sum(spec) - (len(spec) * (len(spec) + 3)) // 2
    staircase = tuple(range(2, len(spec) + 2)) + (spec[-1] + 1 + lmax,)
    assert staircase in c.terms


def test_omega_classes_form_basis():
    """Counting specs per bidegree reproduces the Betti table, and the
    classes are independent."""
    m0 = preset("m0")
    by_cell = {}
    for q in (1, 2, 3):
        for spec in combinations(range(2, 26), q):
            # the weight of omega(spec), pinned by test_omega_weight_and_final_monomial
            if sum(spec[:-1]) + 2 * spec[-1] + 1 > 26:
                continue
            c = omega(spec)
            by_cell.setdefault(c.bidegree(), []).append(c)
    for q in (2, 3, 4):
        for k in range(26):
            cells = by_cell.get((q, k), [])
            assert len(cells) == betti(m0, q, k), (q, k)
            if len(cells) > 1:
                # pairwise independent in cohomology: distinct leading terms
                leads = {leading_term(c) for c in cells}
                assert len(leads) == len(cells)


def test_kernel_of_d1_spanned_by_omegas():
    """ker D1 on the ideal cells is spanned by omega cochains."""
    m0 = preset("m0")
    ideal = subalgebra(m0, lambda i: i >= 2)
    for q in (2, 3):
        for k in range(q * (q + 1) // 2, 28):
            source = basis(ideal, q, k)
            target = basis(ideal, q, k - 1)
            pos = {m: i for i, m in enumerate(target)}
            entries = {}
            for j, m in enumerate(source):
                for mm, v in d1_apply(mono(m)).terms.items():
                    entries[(pos[mm], j)] = v
            M = SparseMatrix(QQ, len(target), len(source), entries,
                             row_labels=target, col_labels=source)
            nullity = len(source) - rank(M)
            specs = [m[:-1] for m in source if m[-1] == m[-2] + 1]
            assert len(specs) == nullity
            for s in specs:
                assert d1_apply(omega(s)).is_zero()


def test_omega_map():
    assert omega_map(mono((5, 6, 7))) == omega((5, 6))
    assert omega_map(mono((1, 6, 7))).is_zero()


# --- leading terms ---------------------------------------------------------

def test_leading_term():
    assert leading_term(omega((5, 6))) == (5, 6, 7)
    with pytest.raises(NoLeadingTerm):
        leading_term(mono((2, 5)))
    with pytest.raises(NoLeadingTerm):
        leading_term(mono((2, 3)) + mono((4, 5)))


# --- cup products ----------------------------------------------------------

def test_cup_small_cases():
    m0 = preset("m0")
    # omega(2) ^ omega(j) is the class of omega(2,3,j)... i.e. spec (2,3,j)
    for j in (4, 5, 6):
        prod = cup_formula((2,), (j,))
        assert prod == omega((2, 3, j))
        diff = prod - wedge(omega((2,)), omega((j,)))
        exact, _ = is_exact(m0, diff)
        assert exact


def test_cup_formula_cohomologous_to_wedge():
    m0 = preset("m0")
    pairs = [((i,), (j,)) for i in (3, 4, 5) for j in (5, 6, 7) if i <= j]
    pairs += [((2,), (4,)), ((3,), (3,)), ((4,), (8,)), ((3,), (9,)), ((5,), (5,))]
    assert len(pairs) >= 12
    for a, b in pairs:
        formula = cup_formula(a, b)
        literal = wedge(omega(a), omega(b))
        assert differential(m0, formula).is_zero()
        exact, _ = is_exact(m0, formula - literal)
        assert exact, (a, b)


_cup_indices = st.lists(st.integers(2, 10), min_size=1, max_size=3,
                        unique=True).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=30, deadline=None)
@given(_cup_indices, _cup_indices,
       st.sampled_from([QQ, PrimeField(3), PrimeField(5)]))
def test_cup_formula_equals_the_literal_expansion(a, b, field):
    """omega_map of the wedge equals the hand-expanded adjacent-top-pair
    summands, value and coefficient type alike."""
    if a[-1] > b[-1]:
        a, b = b, a
    got = cup_formula(a, b, field).terms
    want = cup_oracle.cup_formula(a, b, field).terms
    assert got == want
    assert {m: type(v) for m, v in got.items()} == {m: type(v) for m, v in want.items()}


def test_e1_wedge_omega_is_exact():
    m0 = preset("m0")
    for spec in [(3,), (4,), (3, 5)]:
        c = wedge(Cochain.monomial(QQ, (1,)), omega(spec))
        assert differential(m0, c).is_zero()
        exact, _ = is_exact(m0, c)
        assert exact


def test_cup_invalid():
    with pytest.raises(InvalidIndices):
        cup_formula((5,), (3,))


# --- m2 constructions ------------------------------------------------------

def test_w_golden():
    with open(os.path.join(GOLDEN, "w_5.txt")) as fh:
        golden = fh.read().strip()
    assert cochain_text(w_cocycle((5,))) == golden
    assert w_cocycle((5,)) == omega((5, 6)) + omega((3, 7))


def test_w4_truncates():
    assert w_cocycle((4,)) == omega((4, 5))


def test_w_closed_in_m2():
    m2 = preset("m2")
    for q in (1, 2):
        for spec in combinations(range(3, 12), q):
            c = w_cocycle(spec)
            _, k = c.bidegree()
            if k <= 40:
                assert differential(m2, c).is_zero()


def test_w_classes_match_betti():
    m2 = preset("m2")
    by_cell = {}
    for q in (1, 2):
        for spec in combinations(range(3, 12), q):
            c = w_cocycle(spec)
            qq, k = c.bidegree()
            by_cell.setdefault((qq, k), []).append(c)
    for q, k in [(3, 12), (3, 15), (3, 18), (4, 18), (4, 21), (4, 22)]:
        cells = by_cell.get((q, k), [])
        assert len(cells) == betti(m2, q, k)
        for c in cells:
            exact, _ = is_exact(m2, c)
            assert not exact


def test_w_rejects_char2():
    with pytest.raises(CharacteristicTwo):
        w_cocycle((5,), PrimeField(2))
    with pytest.raises(CharacteristicTwo):
        d_minus2_class((4, 5), PrimeField(2))
    with pytest.raises(InvalidIndices):
        w_cocycle((2, 5))


def test_omega_works_over_odd_characteristic():
    f5 = PrimeField(5)
    c = omega((5, 6), f5)
    ref = omega((5, 6))
    # coefficients reduce mod 5; the +/-5 terms of the rational cochain vanish
    expected = {m: f5.of(int(v)) for m, v in ref.terms.items()
                if int(v) % 5 != 0}
    assert c.terms == expected
    w = w_cocycle((5,), f5)
    assert set(w.terms) == set(w_cocycle((5,)).terms)
