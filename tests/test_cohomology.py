import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from maxclass import cochain, cohomology, linalg
from maxclass.algebra import (GradedAlgebra, _m0_rule, load_custom, preset, subalgebra,
                              validate)
from maxclass.cochain import Cochain, FieldMismatch, basis, differential, differential_matrix
from maxclass.cohomology import (NotCocycle, RouteMismatch, betti, betti_table,
                                 class_coordinates, class_rank, euler_characteristic,
                                 is_exact, representatives)
from maxclass.combinatorics import distinct_V, partitions_P
from maxclass.dixmier import m0_split
from maxclass.explicit import omega
from maxclass.fields import QQ, PrimeField

import elimination_oracle


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


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("name, q, k", [("m0", 4, 36), ("m2", 4, 36), ("l1", 4, 40)])
def test_is_exact_on_wide_cells(name, q, k, field):
    """The widest cells of the exactness queries: d u of a seeded u has a
    primitive u' with d u' = d u, and a representative plus d u is not
    exact.  H^4_40(l1) is 0 over Q, so there is no representative there."""
    alg = preset(name)
    rng = random.Random(f"{name}:{field!r}:{q}:{k}")
    u = Cochain(field, {m: field.of(rng.randint(1, 4))
                        for m in rng.sample(basis(alg, q - 1, k), 6)})
    du = differential(alg, u)
    assert not du.is_zero()
    exact, primitive = is_exact(alg, du)
    assert exact and differential(alg, primitive) == du
    if (name, field) != ("l1", QQ):
        reps = representatives(alg, q, k, field)
        assert is_exact(alg, reps[0] + du) == (False, None)


def test_class_queries_refuse_cochains_over_another_field():
    """A cochain over another field than the query's raised nothing: a
    closed one over F5 read as not closed over Q, and Q cochains were
    read as F5 residues."""
    m0, f5 = preset("m0"), PrimeField(5)
    reps = representatives(m0, 3, 12, f5)
    c = reps[0].scaled(f5.of(3))
    with pytest.raises(FieldMismatch):
        class_coordinates(m0, c, reps, 3, 12)
    with pytest.raises(FieldMismatch):
        class_rank(m0, [c], 3, 12)
    with pytest.raises(FieldMismatch):
        class_rank(m0, [Cochain(f5)], 3, 12)
    rationals = representatives(m0, 3, 12)
    with pytest.raises(FieldMismatch):
        class_coordinates(m0, rationals[0].scaled(QQ.of(3)), rationals, 3, 12, field=f5)
    with pytest.raises(FieldMismatch):
        class_coordinates(m0, rationals[0], reps, 3, 12)
    assert class_coordinates(m0, c, reps, 3, 12, field=f5) == [f5.of(3)]
    assert class_rank(m0, [c], 3, 12, field=f5) == 1


@pytest.mark.parametrize("terms", [{(1, 4): 1}], ids=["not-a-generator"])
def test_is_exact_refuses_a_closed_cochain_outside_its_cell(terms):
    """e^1 is no generator of l3, so the cochain lies in no cell C^2_k,
    though d kills it: is_exact raises DimensionMismatch rather than
    answer.  A key that is no increasing monomial, such as (4, 3), is
    refused by the constructor (test_cochain)."""
    alg, c = preset("lk", 3), Cochain(QQ, terms)
    assert differential(alg, c).is_zero()
    with pytest.raises(linalg.DimensionMismatch):
        is_exact(alg, c)


@pytest.mark.parametrize("name, q, k", [("m0", 3, 12), ("m0", 2, 9), ("m2", 3, 12)])
def test_class_queries_refuse_a_cochain_outside_the_cell(name, q, k):
    """A monomial of another weight or degree is no coordinate of C^q_k:
    class_coordinates raises DimensionMismatch for it with the canonical
    representatives and with others, in the cochain or in a
    representative, and class_rank raises it too, closed or not."""
    alg = preset(name)
    reps = representatives(alg, q, k)
    others = [r.scaled(QQ.of(2)) for r in reps]
    outside = [Cochain.monomial(QQ, m) for m in (basis(alg, q, k - 1)[0], basis(alg, q, k + 1)[-1],
                                                 basis(alg, q - 1, k)[0], basis(alg, q + 1, k)[-1])]
    outside.append(reps[0] + outside[0])
    for bad in outside:
        for c, basis_reps in ((bad, reps), (bad, others), (reps[0], others + [bad])):
            with pytest.raises(linalg.DimensionMismatch):
                class_coordinates(alg, c, basis_reps, q, k)
        for cochains in ([bad], reps + [bad]):
            with pytest.raises(linalg.DimensionMismatch):
                class_rank(alg, cochains, q, k)
    # a closed 3-form of weight 9, asked about at weight 10 and at degree 4
    m0 = preset("m0")
    with pytest.raises(linalg.DimensionMismatch):
        class_coordinates(m0, omega((2, 3)), representatives(m0, 3, 10), 3, 10)
    with pytest.raises(linalg.DimensionMismatch):
        class_rank(m0, [omega((2, 3))], 4, 9)


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
    d = differential_matrix(alg, q, k, field)
    below = linalg.rank(differential_matrix(alg, q - 1, k, field)) if q else 0
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
            d = differential_matrix(alg, q, k)
            if q and linalg.rank(d) > d.cols - cohomology._weight(alg, QQ, k).rank[q - 1]:
                short.append((q, k))
    assert (3, 10) in short and (3, 16) in short


@pytest.mark.parametrize("alg", [preset("m0"), preset("m2"), preset("l1"),
                                 preset("l1quot", 8)], ids=repr)
def test_cached_rank_equals_the_uncapped_rank(alg):
    for q in range(5):
        for k in range(21):
            assert cohomology._weight(alg, QQ, k).rank[q] \
                == linalg.rank(differential_matrix(alg, q, k)), (q, k)


@settings(max_examples=5, deadline=None)
@given(st.integers(2, 7))
def test_cached_rank_equals_the_uncapped_rank_on_lk(n):
    test_cached_rank_equals_the_uncapped_rank(preset("lk", n))


def test_qq_cells_take_one_echelon_pass(monkeypatch):
    """Over Q every nonzero d^q_k of l1, q <= 3, is eliminated exactly
    once, in a pass at the first prime that reaches a bound, and the
    certified path never runs: also on the cells with cohomology, where
    the cap is not reached.  Matrices are told apart by their cell, which
    assembly writes on each: a freed matrix's id may come back."""
    eliminated = []
    capped_pass, echelon, matrix = linalg.capped_pass, linalg._echelon, differential_matrix
    current = []

    def assembled(alg, q, k, field):
        M = matrix(alg, q, k, field)
        M.cell = q, k
        return M
    monkeypatch.setattr(cohomology, "differential_matrix", assembled)
    monkeypatch.setattr(linalg, "capped_pass",
                        lambda M, at_most: current.append(M.cell) or capped_pass(M, at_most))
    monkeypatch.setattr(linalg, "_echelon",
                        lambda *args: eliminated.append(current[-1]) or echelon(*args))
    monkeypatch.setattr(linalg, "_certified_kernel",
                        lambda *args: pytest.fail("the certified path ran"))
    l1 = preset("l1")
    cohomology._weight.cache_clear()
    cohomology._matrix.cache_clear()
    table = {(q, k): betti(l1, q, k) for k in range(31) for q in range(4)}
    nonzero = {cell for cell in table if not differential_matrix(l1, *cell).is_zero()}
    assert Counter(eliminated).most_common(1)[0][1] == 1
    assert nonzero <= set(eliminated)
    assert [cell for cell, b in table.items() if b and cell[0]] \
        == [(1, 1), (1, 2), (2, 5), (2, 7), (3, 12), (3, 15)]


def _rescaled(name, n, j):
    """The truncation at n of a preset in the basis e_j -> 3 e_j, loaded
    through load_custom: [e_a, e_b] = c e_{a+b} becomes
    c λ_a λ_b / λ_{a+b} with λ_j = 3, so some constants are divisible by
    3 and others have denominator 3.  Its Betti numbers are the preset's
    at every weight <= n."""
    alg = preset(name)
    lam = {j: 3}
    brackets = []
    for a in range(1, n):
        for b in range(a + 1, n + 1 - a):
            c = alg.bracket(a, b) * lam.get(a, 1) * lam.get(b, 1) / lam.get(a + b, 1)
            if c:
                brackets.append({"i": a, "j": b, "terms": [
                    {"num": c.numerator, "den": c.denominator, "k": a + b}]})
    return load_custom({"name": f"{name}-rescaled", "truncation": n, "brackets": brackets})


def _oracle_ranks(d):
    """(rank over Q, rank mod 3, support) of d, by dense elimination in
    the test oracle, which shares no code with linalg."""
    if d.is_zero():
        return 0, 0, 0
    rows = elimination_oracle.integer_rows(elimination_oracle.to_dense(d))
    mod3 = [[x % 3 for x in row] for row in rows]
    support = min(sum(map(any, rows)), sum(map(any, zip(*rows))))
    return (elimination_oracle.rank_int(rows, d.cols),
            elimination_oracle.rref_fp(mod3, d.cols, 3)[0], support)


def test_a_rank_deficient_first_prime_changes_no_betti_number(monkeypatch):
    """With 3 as the first prime, rank_3 d^q_k < rank_Q d^q_k on some
    cells; there the pass reaches no bound and must not be accepted.
    Over the two rescaled truncations, at prime 3 each of the cap, the
    support and the next-degree bound certifies some cell, and some
    deficient cells have rank_Q equal to each of the three bounds, so
    that each path meets a count that would be wrong.  betti gives the
    Q value on every cell."""
    primes = linalg._primes
    monkeypatch.setattr(linalg, "_primes", lambda: chain([3], primes()))
    cohomology._weight.cache_clear()
    paths, tight_when_deficient = Counter(), Counter()
    for name, j in (("m0", 5), ("m2", 9)):
        alg = _rescaled(name, 22, j)
        mats = {(q, k): differential_matrix(alg, q, k) for q in range(-1, 6) for k in range(23)}
        ranks = {cell: _oracle_ranks(d) for cell, d in mats.items()}
        for k in range(23):
            for q in range(5):
                (r, r3, support), d = ranks[q, k], mats[q, k]
                assert betti(alg, q, k) == d.cols - r - ranks[q - 1, k][0] \
                    == betti(preset(name), q, k), (name, q, k)
                if d.is_zero():
                    continue
                cap = d.cols - ranks[q - 1, k][0]
                bounds = {"cap": cap, "support": support,
                          "next": d.rows - ranks[q + 1, k][1]}
                reached = [b for b, v in bounds.items() if r3 == v]
                paths[reached[0] if reached else "none"] += 1
                if r3 < r:
                    assert not reached, (name, q, k)
                    bounds["next"] = d.rows - ranks[q + 1, k][0]
                    tight_when_deficient.update(b for b, v in bounds.items() if r == v)
    assert all(paths[b] for b in ("cap", "support", "next", "none"))
    assert all(tight_when_deficient[b] for b in ("cap", "support", "next"))


def _clear_caches(monkeypatch):
    """Every cache a Betti number or a class query reads: bases,
    compiled d e^i, the matrices, the weight complexes (ranks with their
    passes, class bases) and the d∘d watermark."""
    for cached in (cochain._basis, cochain._generator_images, cohomology._matrix,
                   cohomology._weight):
        cached.cache_clear()
    monkeypatch.setattr(cohomology, "_D_SQUARED_ZERO", {})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@pytest.mark.parametrize("alg", [preset("m0"), preset("m2"), preset("l1"),
                                 preset("l1quot", 8)], ids=repr)
def test_cell_order_and_cache_state_change_no_betti_number(alg, field, monkeypatch):
    """A cell's rank may be read from the pass that a neighbour's rank
    ran, and its cap from the degree below: with every cache cleared,
    the q <= 5 window filled in shuffled order, and in descending q and
    k, gives the in-order table."""
    cells = [(q, k) for q in range(6) for k in range(31)]
    _clear_caches(monkeypatch)
    in_order = {cell: betti(alg, *cell, field) for cell in cells}
    shuffled = cells[:]
    random.Random(repr(alg)).shuffle(shuffled)
    for order in (shuffled, cells[::-1]):
        _clear_caches(monkeypatch)
        assert {cell: betti(alg, *cell, field) for cell in order} == in_order


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["m0n", "m2n", "l1quot"]), st.integers(3, 10),
       st.sampled_from([QQ, PrimeField(5)]), st.randoms(use_true_random=False))
def test_finite_quotients_satisfy_poincare_duality_in_any_cell_order(name, n, field, rnd):
    """A quotient of dimension n is nilpotent, hence unimodular, so
    b^q_k = b^{n-q}_{K-k} with K = 1 + ... + n, the weight of its top
    form.  With the weight complexes cleared, every cell with q <= n and
    k <= K, taken in shuffled order, gives that symmetric table, and it
    is the in-order one."""
    alg, top = preset(name, n), n * (n + 1) // 2
    cells = [(q, k) for q in range(n + 1) for k in range(top + 1)]
    cohomology._weight.cache_clear()
    in_order = {cell: betti(alg, *cell, field) for cell in cells}
    rnd.shuffle(cells)
    cohomology._weight.cache_clear()
    table = {cell: betti(alg, *cell, field) for cell in cells}
    assert table == in_order
    assert all(b == table[n - q, top - k] for (q, k), b in table.items())
    assert table[0, 0] == table[n, top] == 1


def test_m0_cells_take_no_certified_path(monkeypatch):
    """m0 at q <= 6, k <= 40 over Q: every rank is certified by a bound
    at the first prime (the support, where the cap is not reached)."""
    calls = []
    certified = linalg._certified_kernel
    monkeypatch.setattr(linalg, "_certified_kernel",
                        lambda *args: calls.append(1) or certified(*args))
    cohomology._weight.cache_clear()
    betti_table(preset("m0"), 6, 40)
    assert not calls


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
    cohomology._weight.cache_clear()
    for alg, p, kmax in ((preset("l1"), 2 ** 31 - 1, 31), (preset("m0"), 3, 21),
                         (_m0_with_e2_e3(), 5, 16)):
        field = PrimeField(p)
        for k in range(kmax):
            for q in range(5):
                before = len(passes)
                betti(alg, q, k, field)
                nonzero = bool(basis(alg, q, k)) \
                    and not differential_matrix(alg, q, k, field).is_zero()
                assert len(passes) - before == nonzero, (alg, q, k)


# --- the class basis of a cell ----------------------------------------------------

def test_a_zero_coboundary_map_costs_no_elimination(monkeypatch):
    """On the m0 split's ideal, which is abelian, d = 0: representatives
    eliminates neither the zero d^q_k nor the zero d^{q-1}_k, on any
    cell."""
    ideal = m0_split().ideal
    _clear_caches(monkeypatch)
    calls = []
    certified = linalg._certified_kernel
    monkeypatch.setattr(linalg, "_certified_kernel",
                        lambda *args: calls.append(1) or certified(*args))
    for q in range(4):
        for k in range(21):
            assert len(representatives(ideal, q, k)) == len(basis(ideal, q, k))
            assert not calls, (q, k)


def test_a_cell_without_classes_builds_no_class_basis(monkeypatch):
    """Once betti has found H^4_40(l1) = 0, representatives answers with
    no certified elimination."""
    l1 = preset("l1")
    _clear_caches(monkeypatch)
    assert betti(l1, 4, 40) == 0
    calls = []
    certified = linalg._certified_kernel
    monkeypatch.setattr(linalg, "_certified_kernel",
                        lambda *args: calls.append(1) or certified(*args))
    assert representatives(l1, 4, 40) == []
    assert not calls


def test_no_matrix_is_certified_twice(monkeypatch):
    """Over Q, betti and then representatives on m2 at 1 <= q <= 5,
    k <= 40: a d^q_k whose rank takes the certified kernel hands that
    kernel to the class basis of its cell, so no matrix is certified
    twice, and some are certified by the rank."""
    m2 = preset("m2")
    cells = [(q, k) for q in range(1, 6) for k in range(41)]
    _clear_caches(monkeypatch)
    calls, certified = Counter(), linalg._certified_kernel
    monkeypatch.setattr(linalg, "_certified_kernel", lambda rows, ncols: calls.update(
        [(ncols, tuple(tuple(sorted(row.items())) for row in rows))]) or certified(rows, ncols))
    for cell in cells:
        betti(m2, *cell)
    by_rank = sum(calls.values())
    for cell in cells:
        representatives(m2, *cell)
    assert by_rank and max(calls.values()) == 1


def test_an_understated_betti_number_is_caught_by_other_routes(monkeypatch):
    """representatives builds no class basis where betti reads 0, so it
    takes an understated b^2_5(m0) = 0 (it is 1) on trust; the long
    exact sequence of the m0 split and the Hodge kernel refuse it."""
    from maxclass import laplacian
    from maxclass.dixmier import verify_exactness

    m0 = preset("m0")
    true_betti = cohomology.betti

    def understated(alg, q, k, field=QQ):
        return 0 if (alg, q, k) == (m0, 2, 5) else true_betti(alg, q, k, field)

    assert true_betti(m0, 2, 5) == 1
    _clear_caches(monkeypatch)
    monkeypatch.setattr(cohomology, "betti", understated)
    monkeypatch.setattr(laplacian, "betti", understated)
    try:
        assert representatives(m0, 2, 5) == []
        report = verify_exactness(m0_split(), 3, 8)
        assert not report.passed and report.first_failure["node"] == "H^2_5(b)"
        with pytest.raises(RouteMismatch):
            laplacian.harmonic_basis(m0, 2, 5)
    finally:
        # the empty class basis of (2, 5) is cached under the true betti too
        cohomology._weight.cache_clear()


CLASS_ALGEBRAS = [preset("m0"), preset("m2"), preset("l1"), preset("l1quot", 8),
                  _rescaled("m2", 12, 5)]
CLASS_CELLS = [(q, k) for q in range(1, 4) for k in range(18)]


def _scalars(field, rng, n):
    return [field.of(rng.randint(-2, 2)) for _ in range(n)]


def _combination(field, coeffs, cochains):
    out = Cochain(field)
    for a, c in zip(coeffs, cochains):
        out = out + c.scaled(a)
    return out


def _class_queries(alg, q, k, field):
    """Seeded class queries at one cell, each with the oracle's answer:
    (cochains, rank [cochains | d^{q-1}_k] - rank d^{q-1}_k) for
    class_rank, and (cochain, reps, coordinates) for class_coordinates,
    with the canonical representatives and with an invertible
    triangular change of them shifted by coboundaries."""
    rng = random.Random(f"{alg.key}:{field!r}:{q}:{k}")
    reps = representatives(alg, q, k, field)
    cobs = [d for m in basis(alg, q - 1, k)
            if not (d := differential(alg, Cochain.monomial(field, m))).is_zero()]
    monos = basis(alg, q, k)
    ranks = []
    for n in range(1, len(reps) + 3):
        cochains = [_combination(field, _scalars(field, rng, len(reps) + len(cobs)), reps + cobs)
                    for _ in range(n)]
        dense = [[c.terms.get(m, 0) for c in cochains] + [d.terms.get(m, 0) for d in cobs]
                 for m in monos]
        ranks.append((cochains, _oracle_rank(dense, field) - _oracle_rank(
            [row[n:] for row in dense], field)))
    changed = [_combination(field, [field.one] * (i + 1) + _scalars(field, rng, len(cobs)),
                            reps[:i + 1] + cobs)
               for i in range(len(reps))]
    coords = []
    for basis_reps in (reps, changed):
        a = _scalars(field, rng, len(reps))
        c = _combination(field, a + _scalars(field, rng, len(cobs)), basis_reps + cobs)
        coords.append((c, basis_reps, a))
    return ranks, coords


def _oracle_rank(dense, field):
    """Rank by dense elimination in the test oracle, which shares no code
    with linalg."""
    ncols = len(dense[0]) if dense else 0
    if field.characteristic:
        return elimination_oracle.rref_fp([list(r) for r in dense], ncols,
                                          field.characteristic)[0]
    return elimination_oracle.rref_fractions([list(r) for r in dense], ncols)[0]


def _not_closed(alg, q, k, field):
    """A monomial of the cell with d of it nonzero, or None."""
    return next((c for m in basis(alg, q, k)
                 if not differential(alg, c := Cochain.monomial(field, m)).is_zero()), None)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@pytest.mark.parametrize("alg", CLASS_ALGEBRAS, ids=[a.name for a in CLASS_ALGEBRAS])
def test_class_queries_agree_with_the_oracle(alg, field, monkeypatch):
    """class_rank is rank [cochains | d^{q-1}_k] - rank d^{q-1}_k by the
    oracle, class_coordinates of sum a_i r_i + du is a, and a cochain
    that is not closed has no coordinates.  Once a cell's class basis is
    built, no query eliminates a matrix wider than b + 1 columns."""
    widths = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda rows, *args: widths.append(
        1 + max(map(max, filter(None, rows)), default=-1)) or echelon(rows, *args))
    for q, k in CLASS_CELLS:
        ranks, coords = _class_queries(alg, q, k, field)
        b = betti(alg, q, k, field)
        del widths[:]
        for cochains, expected in ranks:
            assert class_rank(alg, cochains, q, k, field) == expected, (q, k)
        for c, reps, a in coords:
            assert class_coordinates(alg, c, reps, q, k, field) == a, (q, k)
        bad = _not_closed(alg, q, k, field)
        if bad is not None:
            assert class_coordinates(alg, bad, representatives(alg, q, k, field),
                                     q, k, field) is None
        assert max(widths, default=0) <= b + 1, (q, k)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@pytest.mark.parametrize("alg", CLASS_ALGEBRAS, ids=[a.name for a in CLASS_ALGEBRAS])
def test_cells_without_classes_eliminate_nothing(alg, field, monkeypatch):
    """Once betti has found b^q_k = 0, representatives and every class
    query at that cell answer as the oracle does, with no certified
    kernel and no echelon pass of a nonempty matrix."""
    _clear_caches(monkeypatch)
    eliminations = []
    certified, echelon = linalg._certified_kernel, linalg._echelon
    monkeypatch.setattr(linalg, "_certified_kernel",
                        lambda *args: eliminations.append(args) or certified(*args))
    monkeypatch.setattr(linalg, "_echelon", lambda rows, *args: (
        rows and eliminations.append(rows)) or echelon(rows, *args))
    empty = [(q, k) for q, k in CLASS_CELLS if basis(alg, q, k) and not betti(alg, q, k, field)]
    assert empty
    del eliminations[:]
    for q, k in empty:
        ranks, coords = _class_queries(alg, q, k, field)
        for cochains, expected in ranks:
            assert class_rank(alg, cochains, q, k, field) == expected, (q, k)
        for c, reps, a in coords:
            assert class_coordinates(alg, c, reps, q, k, field) == a, (q, k)
        bad = _not_closed(alg, q, k, field)
        if bad is not None:
            assert class_coordinates(alg, bad, [], q, k, field) is None
            assert class_rank(alg, [bad], q, k, field) is None
        assert not eliminations, (q, k)


def test_the_rescaled_truncation_has_fractional_coboundary_coefficients():
    """The rescaled truncation of CLASS_ALGEBRAS has cells whose b_t[f],
    read off the flipped kernel, are not integers."""
    alg = CLASS_ALGEBRAS[-1]
    fractional = [(q, k) for q, k in CLASS_CELLS
                  if any(type(y) is Fraction and y.denominator > 1
                         for terms in cohomology._weight(alg, QQ, k).classes[q][1].values()
                         for _, y in terms)]
    assert fractional


def test_readers_leave_the_cached_rows_as_they_are(monkeypatch):
    """A cached d^q_k hands its stored rows to elimination: solve_in_image
    adds the column v and _rows scales a row holding a Fraction, each on
    a copy.  On the rescaled truncation, whose matrices hold Fractions,
    Betti numbers, class bases, is_exact with and without a primitive,
    class_coordinates, the Hodge kernels, and capped_pass, rank and
    kernel_basis of each matrix leave every matrix the cache handed out
    as it was assembled."""
    from maxclass import laplacian
    alg = CLASS_ALGEBRAS[-1]
    _clear_caches(monkeypatch)

    def typed(M):
        return [(key, v, type(v)) for key, v in M.entries.items()]
    handed_out, matrix = [], differential_matrix

    def assembled(*args):
        M = matrix(*args)
        handed_out.append((args[1:3], M, typed(M)))
        return M
    monkeypatch.setattr(cohomology, "differential_matrix", assembled)
    mats = {(q, k): cohomology._matrix(alg, q, k, QQ) for q in range(-1, 5) for k in range(13)}
    assert any(type(v) is Fraction for M in mats.values() for v in M.entries.values())
    primitives = 0
    for q, k in [(q, k) for q in range(1, 4) for k in range(13)]:
        reps = representatives(alg, q, k)
        for r in reps:
            assert class_coordinates(alg, r, [x.scaled(2) for x in reps], q, k) is not None
            assert is_exact(alg, r) == (False, None)
        for m in basis(alg, q - 1, k):
            if not (b := differential(alg, Cochain.monomial(QQ, m))).is_zero():
                primitives += is_exact(alg, b)[0]
        laplacian.harmonic_basis(alg, q, k)
    for M in mats.values():
        if not M.is_zero():
            linalg.capped_pass(M, M.cols), linalg.rank(M), linalg.kernel_basis(M)
    assert primitives
    (q, k), last, _ = handed_out[-1]
    assert cohomology._matrix(alg, q, k, QQ) is last
    assert {cell for cell, _, _ in handed_out} >= set(mats)
    assert all(typed(M) == before for _, M, before in handed_out)


def test_every_constructor_lists_each_row_in_ascending_columns(monkeypatch):
    """The one constructor keeps the rows it is given, so every matrix
    in the package must arrive with the contract elimination reads: no
    empty row, no zero entry, row and column keys inside the shape, and
    each row's columns in ascending order, so that a capped pass reads a
    row's leading and last column as its first and last key.  Recorded
    from every construction site over Q and F_5: map_matrix (d and the
    sl(2) operator X), transpose, the flipped d^{q-1}_k of a class
    basis, the [M | v] of solve_in_image, the class coordinates of
    _class_matrix (class_rank, class_coordinates), some with an exact
    cochain among them and at (3, 15), where b = 2, with two
    coordinates in a row, and over Q the Hodge matrix."""
    from maxclass import laplacian, sl2
    built = []
    init = linalg.SparseMatrix.__init__

    def recorded(M, *args):
        init(M, *args)
        built.append((sys._getframe(1).f_code.co_name, M))

    monkeypatch.setattr(linalg.SparseMatrix, "__init__", recorded)
    _clear_caches(monkeypatch)
    alg = CLASS_ALGEBRAS[-1]
    for field in (QQ, PrimeField(5)):
        for q, k in [(q, k) for q in range(1, 4) for k in range(13)] + [(3, 15)]:
            reps = representatives(alg, q, k, field)
            others = [x.scaled(2) + reps[0] for x in reps]
            assert class_rank(alg, others, q, k, field) == len(reps)
            assert all(class_coordinates(alg, r, others, q, k, field) is not None for r in reps)
            for m in basis(alg, q - 1, k)[:2]:
                b = differential(alg, Cochain.monomial(field, m))
                assert b.is_zero() or is_exact(alg, b)[0]
                assert class_rank(alg, [b, *others], q, k, field) == len(reps)
            if field is QQ:
                laplacian.harmonic_basis(alg, q, k)
                laplacian.laplacian_apply(alg, Cochain(QQ, {m: 1 for m in basis(alg, q, k)}))
    sl2.primitive_basis(sl2.Sl2Module(Fraction(1, 2)), 3, 12)
    assert {name for name, _ in built} == {"map_matrix", "transpose", "_class_basis", "_stacked",
                                           "solve_in_image", "_class_matrix"}
    assert {M.field.characteristic for name, M in built if name == "_class_matrix"} == {0, 5}
    for name, M in built:
        assert all(M.by_row.values()) and set(M.by_row) <= set(range(M.rows)), name
        for row in M.by_row.values():
            assert list(row) == sorted(row) and set(row) <= set(range(M.cols)), name
            assert not any(M.field.is_zero(v) for v in row.values()), name


def test_a_betti_table_never_reads_the_entries_view(monkeypatch):
    """Betti numbers read each matrix by its stored rows: over full
    tables, with every cache cleared, through capped passes over Q and
    F_p and certified kernels, the derived `entries` of no matrix is
    read."""
    reads, certified = [], []
    view, kernel = linalg.SparseMatrix.entries, linalg._certified_kernel
    monkeypatch.setattr(linalg.SparseMatrix, "entries",
                        property(lambda M: reads.append(M) or view.fget(M)))
    monkeypatch.setattr(linalg, "_certified_kernel",
                        lambda *args: certified.append(args) or kernel(*args))
    _clear_caches(monkeypatch)
    for name, field, qmax, kmax in (("l1", QQ, 4, 34), ("m2", QQ, 5, 30),
                                    ("l1", PrimeField(2 ** 31 - 1), 3, 46),
                                    ("m0", PrimeField(3), 4, 22)):
        betti_table(preset(name), qmax, kmax, field)
    assert certified and not reads
    assert elimination_oracle.from_entries(QQ, 1, 1, {(0, 0): 2}).entries == {(0, 0): 2}
    assert len(reads) == 1


def test_a_betti_table_keeps_no_matrix(monkeypatch):
    """A weight complex keeps ranks, passes and class bases, and no
    matrix: after the l1 table at q <= 4, k <= 40, with every cache
    cleared first, no more matrices stay alive than the matrix cache
    holds.  The matrices alive before are held, so no id is reused."""
    import gc

    def alive():
        gc.collect()
        return [M for M in gc.get_objects() if isinstance(M, linalg.SparseMatrix)]
    _clear_caches(monkeypatch)
    before = alive()
    known = {id(M) for M in before}
    betti_table(preset("l1"), 4, 40)
    kept = [M for M in alive() if id(M) not in known]
    assert len(kept) <= cohomology._matrix.cache_info().maxsize == 3


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
@pytest.mark.parametrize("alg", CLASS_ALGEBRAS, ids=[a.name for a in CLASS_ALGEBRAS])
def test_cell_order_and_cache_state_change_no_class_answer(alg, field, monkeypatch):
    """With every cache cleared and the cells taken in shuffled order,
    representatives, class ranks and class coordinates are the same; a
    caller that changes its list of representatives changes no later
    answer."""
    def answers(cells):
        out = {}
        for q, k in cells:
            reps = representatives(alg, q, k, field)
            ranks, coords = _class_queries(alg, q, k, field)
            out[q, k] = ([r.terms for r in reps],
                         [class_rank(alg, cochains, q, k, field) for cochains, _ in ranks],
                         [class_coordinates(alg, c, basis_reps, q, k, field)
                          for c, basis_reps, _ in coords])
            reps.clear()
        return out

    _clear_caches(monkeypatch)
    in_order = answers(CLASS_CELLS)
    shuffled = CLASS_CELLS[:]
    random.Random(repr(alg)).shuffle(shuffled)
    _clear_caches(monkeypatch)
    assert answers(shuffled) == in_order
