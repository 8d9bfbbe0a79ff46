import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxclass import cohomology, linalg
from maxclass.algebra import GradedAlgebra, _m0_rule, preset, subalgebra, validate
from maxclass.cochain import Cochain, basis, differential
from maxclass.cohomology import (NotCocycle, RouteMismatch, betti, betti_table,
                                 class_coordinates, class_rank, euler_characteristic,
                                 is_exact, representatives)
from maxclass.combinatorics import distinct_V, partitions_P
from maxclass.fields import QQ, PrimeField


def test_h1():
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        assert betti(alg, 1, 1) == 1
        assert betti(alg, 1, 2) == 1
        assert all(betti(alg, 1, k) == 0 for k in range(3, 12))


def test_h2_m0():
    m0 = preset("m0")
    # one class per odd weight from 5 on
    for k in range(3, 20):
        expected = 1 if (k >= 5 and k % 2 == 1) else 0
        assert betti(m0, 2, k) == expected


def test_h3_m0_corollary_values():
    """dim H^3_k = l-1 for k=6l+r with r in {0,1,2,4}, l for r in {3,5}."""
    m0 = preset("m0")
    for k in range(9, 32):
        l, r = divmod(k, 6)
        expected = l if r in (3, 5) else l - 1
        assert betti(m0, 3, k) == expected


def test_m0_partition_difference():
    m0 = preset("m0")
    for q in range(1, 5):
        shift = q * (q + 1) // 2
        for k in range(1, 18 - shift):
            assert betti(m0, q, k + shift) == partitions_P(q, k) - partitions_P(q, k - 1)


def test_betti_trivial_cells():
    m0 = preset("m0")
    assert betti(m0, 0, 0) == 1
    assert betti(m0, 0, 1) == 0
    assert betti(m0, 2, 100) >= 0
    assert betti(m0, -1, 5) == 0


def test_betti_table_serialization():
    m0 = preset("m0")
    table = betti_table(m0, 2, 7)
    assert table.get(2, 5) == 1
    payload = json.loads(table.to_json())
    assert {"q": 2, "k": 5, "dim": 1} in payload["betti"]
    csv_text = table.to_csv()
    assert "2,5,1" in csv_text.replace("\r", "")


def test_representatives_are_closed_and_independent():
    m2 = preset("m2")
    for (q, k) in [(2, 5), (2, 7), (3, 12), (3, 15), (1, 1)]:
        reps = representatives(m2, q, k)
        assert len(reps) == betti(m2, q, k)
        for c in reps:
            assert differential(m2, c).is_zero()
            exact, _ = is_exact(m2, c)
            assert not exact


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("name, q, k", [("m0", 3, 15), ("m0", 3, 21), ("m2", 3, 15),
                                        ("l1", 3, 15)])
def test_representatives_are_a_basis_modulo_the_image(name, q, k, field):
    """Jointly independent modulo exact forms: the class coordinates of
    the i-th representative are the i-th unit vector.  Each has
    coefficient 1 on its last monomial, and 0 on the last monomial of
    every d e^m."""
    alg = preset(name)
    reps = representatives(alg, q, k, field)
    assert len(reps) == betti(alg, q, k, field) >= 1
    coboundary_lasts = {max(d.terms) for m in basis(alg, q - 1, k)
                        if not (d := differential(alg, Cochain.monomial(field, m))).is_zero()}
    for i, c in enumerate(reps):
        assert differential(alg, c).is_zero()
        assert c.terms[max(c.terms)] == field.one
        assert not coboundary_lasts & c.terms.keys()
        unit = [field.one if j == i else field.zero for j in range(len(reps))]
        assert class_coordinates(alg, c, reps, q, k, field) == unit


def test_is_exact_witness():
    m0 = preset("m0")
    c = Cochain.monomial(QQ, (1, 2))  # = d e^3
    exact, witness = is_exact(m0, c)
    assert exact
    assert differential(m0, witness) == c
    with pytest.raises(NotCocycle):
        # d(e2^e5) = e1^e2^e4 is nonzero
        is_exact(m0, Cochain.monomial(QQ, (2, 5)))


def test_class_coordinates():
    m0 = preset("m0")
    reps = representatives(m0, 2, 5)
    assert len(reps) == 1
    # e2^e3 and e2^e3 + d(e1^e4... any exact shift) share coordinates
    c = reps[0]
    shift = differential(m0, Cochain.monomial(QQ, (5,)))
    coords1 = class_coordinates(m0, c, reps, 2, 5)
    coords2 = class_coordinates(m0, c + shift, reps, 2, 5)
    assert coords1 == coords2 == [QQ.one]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("name, q, k", [("m0", 3, 15), ("m2", 2, 7), ("l1", 3, 15)])
def test_class_rank_counts_classes_modulo_coboundaries(name, q, k, field):
    alg = preset(name)
    reps = representatives(alg, q, k, field)
    coboundaries = [d for m in basis(alg, q - 1, k)
                    if not (d := differential(alg, Cochain.monomial(field, m))).is_zero()]
    assert coboundaries
    assert class_rank(alg, reps, q, k, field) == len(reps) == betti(alg, q, k, field)
    assert class_rank(alg, [], q, k, field) == 0
    assert class_rank(alg, coboundaries, q, k, field) == 0
    shifted = [r + d for r, d in zip(reps, coboundaries)]
    assert class_rank(alg, shifted + coboundaries, q, k, field) == len(reps)
    # the first representative twice, once shifted, spans one class
    assert class_rank(alg, [reps[0], reps[0] + coboundaries[-1]], q, k, field) == 1


def test_class_rank_is_none_on_a_cochain_that_is_not_closed():
    m0 = preset("m0")
    reps = representatives(m0, 2, 7)
    # d(e2^e5) = e1^e2^e4 is nonzero
    assert class_rank(m0, reps + [Cochain.monomial(QQ, (2, 5))], 2, 7) is None


def test_euler_characteristic_consistency():
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for k in range(12):
            euler_characteristic(alg, k)  # raises on mismatch


def test_field_dependence_char2_m2():
    """The m2 Betti numbers drop/shift in characteristic 2 at some cells
    only through exactness of the same integer matrices; ranks can only
    drop mod p, so dims can only grow."""
    m2 = preset("m2")
    f2 = PrimeField(2)
    for q in range(1, 4):
        for k in range(1, 16):
            assert betti(m2, q, k, f2) >= betti(m2, q, k)


def test_ideal_complex_is_abelian_for_m0():
    m0 = preset("m0")
    ideal = subalgebra(m0, lambda i: i >= 2)
    # abelian: every cochain is closed, so betti = dim of the cell
    for q in range(4):
        for k in range(20):
            assert betti(ideal, q, k) == len(basis(ideal, q, k))


def test_betti_independent_of_earlier_subalgebras():
    """Cells cached for one subalgebra must not answer for another: the
    abelian ideal e3, e4, ... of m2 has b^q_k = the number of partitions
    of k into q distinct parts >= 3, after the m2 split's ideal."""
    m2 = preset("m2")
    split_ideal = subalgebra(m2, lambda i: i != 2)
    for q in range(4):
        for k in range(16):
            betti(split_ideal, q, k)
    ideal = subalgebra(m2, lambda i: i >= 3)
    for q in range(4):
        for k in range(16):
            assert betti(ideal, q, k) == distinct_V(q, k - 2 * q), (q, k)


def test_representatives_raise_on_route_mismatch(monkeypatch):
    monkeypatch.setattr(cohomology, "betti", lambda alg, q, k, field=QQ: 2)
    with pytest.raises(RouteMismatch):
        representatives(preset("m0"), 2, 5)


def test_euler_characteristic_raises_on_route_mismatch(monkeypatch):
    monkeypatch.setattr(cohomology, "betti", lambda alg, q, k, field=QQ: 0)
    with pytest.raises(RouteMismatch):
        euler_characteristic(preset("m0"), 5)


def test_integral_representative_coefficients_are_int():
    integral = []
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for q in range(4):
            for k in range(20):
                integral += [x for rep in representatives(alg, q, k)
                             for x in rep.terms.values() if x.denominator == 1]
    assert integral
    assert all(type(x) is int for x in integral)


# --- the rank certificate from d∘d = 0 ------------------------------------------

def _uncapped_betti(alg, q, k, field=QQ):
    """dim C^q_k - rank d^q_k - rank d^{q-1}_k, each rank on the certified
    path without a bound."""
    d = cohomology._cached_matrix(alg, field, q, k)
    below = linalg.rank(cohomology._cached_matrix(alg, field, q - 1, k)) if q else 0
    return d.cols - linalg.rank(d) - below


def _no_jacobi():
    """A truncation at 9 with random brackets in {-2..2}: a GradedAlgebra
    built directly, since load_custom would reject it."""
    rnd = random.Random(0)
    table = {(i, j): Fraction(rnd.randint(-2, 2))
             for i in range(1, 9) for j in range(i + 1, 10 - i)}
    return GradedAlgebra("no-jacobi", lambda i, j: table.get((i, j), 0),
                         lambda i: True, truncation=9, key="test:no-jacobi")


def test_cap_is_refused_when_d_squared_is_not_zero():
    """Where d^q d^{q-1} != 0 the bound dim C^q_k - rank d^{q-1}_k can
    be below rank d^q_k (it is at (3, 10) and (3, 16)); a bound taken on
    trust there would stop the echelon early and give a wrong rank."""
    alg = _no_jacobi()
    assert not validate(alg, 12).passed
    short = []
    for q in range(5):
        for k in range(18):
            assert betti(alg, q, k) == _uncapped_betti(alg, q, k), (q, k)
            d = cohomology._cached_matrix(alg, QQ, q, k)
            if q and linalg.rank(d) > d.cols - cohomology._cached_rank(alg, QQ, q - 1, k):
                short.append((q, k))
    assert (3, 10) in short and (3, 16) in short


@pytest.mark.parametrize("alg", [preset("m0"), preset("m2"), preset("l1"),
                                 preset("l1quot", 8)], ids=repr)
def test_cached_rank_equals_the_uncapped_rank(alg):
    for q in range(5):
        for k in range(21):
            assert cohomology._cached_rank(alg, QQ, q, k) \
                == linalg.rank(cohomology._cached_matrix(alg, QQ, q, k)), (q, k)


@settings(max_examples=5, deadline=None)
@given(st.integers(2, 7))
def test_cached_rank_equals_the_uncapped_rank_on_lk(n):
    test_cached_rank_equals_the_uncapped_rank(preset("lk", n))


def test_acyclic_cells_take_one_echelon_pass(monkeypatch):
    """Over Q, a cell with q >= 1 and b^q_k = 0 reaches the bound at the
    first prime: its rank costs one echelon pass.  Every other nonzero
    d^q_k, q >= 1, takes the certified path, which needs more."""
    passes = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda *args: passes.append(1) or echelon(*args))
    l1 = preset("l1")
    cohomology._cached_rank.cache_clear()
    one_pass = 0
    for k in range(31):
        for q in range(4):
            before = len(passes)
            b = betti(l1, q, k)
            if q == 0 or cohomology._cached_matrix(l1, QQ, q, k).is_zero():
                continue
            assert (len(passes) - before == 1) == (b == 0), (q, k)
            one_pass += b == 0
    assert one_pass > 50


def _m0_with_e2_e3():
    """m0 with one extra bracket [e2, e3] = e5, built directly: Jacobi
    first fails on e1, e2, e3 ([e1, [e2, e3]] = e6, the other two terms
    are 0), so d d e^i != 0 first at i = 6."""
    def rule(i, j):
        return Fraction(1) if (i, j) == (2, 3) else _m0_rule(i, j)
    return GradedAlgebra("m0+[e2,e3]", rule, lambda i: True, key="test:m0+[e2,e3]")


def test_d_squared_check_fails_from_the_first_failing_generator():
    alg = _m0_with_e2_e3()
    for weights in (range(16), range(15, -1, -1), range(16)):
        assert [k for k in weights if not cohomology._d_squared_vanishes(alg, k)] \
            == [k for k in weights if k >= 6]
    assert all(cohomology._d_squared_vanishes(preset(name), 40) for name in ("m0", "m2", "l1"))


@pytest.mark.parametrize("make", [_m0_with_e2_e3, _no_jacobi])
def test_d_squared_check_and_validate_see_the_same_first_failure(make):
    """The d∘d guard first fails at the weight of the lowest Jacobi
    violation that validate reports: both read cochain.jacobi_defect."""
    alg = make()
    first = min(i for _, _, (i,) in validate(alg, 16).violations)
    assert [k for k in range(17) if not cohomology._d_squared_vanishes(alg, k)][0] == first


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_betti_equals_the_uncapped_route_past_the_first_failing_generator(field):
    alg = _m0_with_e2_e3()
    for q in range(5):
        for k in range(16):
            assert betti(alg, q, k, field) == _uncapped_betti(alg, q, k, field), (q, k)


def test_fp_cells_take_one_echelon_pass(monkeypatch):
    """Over F_p the one capped pass is the rank, reached or not: every
    nonzero d^q_k costs exactly one echelon pass, also where d∘d != 0."""
    passes = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda *args: passes.append(1) or echelon(*args))
    cohomology._cached_rank.cache_clear()
    for alg, p, kmax in ((preset("l1"), 2 ** 31 - 1, 31), (preset("m0"), 3, 21),
                         (_m0_with_e2_e3(), 5, 16)):
        field = PrimeField(p)
        for k in range(kmax):
            for q in range(5):
                before = len(passes)
                betti(alg, q, k, field)
                nonzero = bool(basis(alg, q, k)) \
                    and not cohomology._cached_matrix(alg, field, q, k).is_zero()
                assert len(passes) - before == nonzero, (alg, q, k)
