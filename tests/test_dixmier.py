"""Tests for the codimension-one ideal splitting and the long exact
sequence verification."""
import itertools

import pytest

from maxclass import cochain, cohomology, dixmier
from maxclass.algebra import preset
from maxclass.cochain import Cochain, basis, differential, wedge
from maxclass.dixmier import (
    IdealSplit,
    adx_star,
    contract,
    contraction_identity_check,
    m0_split,
    m2_split,
    restrict,
    verify_exactness,
    x_wedge,
)
from maxclass.fields import QQ, PrimeField


def mono(*idx):
    return Cochain.monomial(QQ, tuple(idx))


def test_split_construction():
    s0 = m0_split()
    assert s0.x_index == 1
    assert s0.ideal.contains(2) and not s0.ideal.contains(1)
    s2 = m2_split()
    assert s2.x_index == 2
    assert s2.ideal.contains(1) and s2.ideal.contains(3)
    assert not s2.ideal.contains(2)


def test_contract_and_split_form():
    s = m0_split()
    f = mono(1, 4)
    fp, fpp = (contract(s, f), restrict(s, f))
    assert fp == mono(4)
    assert fpp.terms == {}
    g = mono(2, 3)
    gp, gpp = (contract(s, g), restrict(s, g))
    assert gp.terms == {}
    assert gpp == g
    # contraction at an even position keeps the sign
    c = contract(s, mono(1, 3, 5))
    assert c == mono(3, 5)


def test_split_form_reassembles():
    s = m2_split()
    for monos in itertools.combinations((1, 2, 3, 4, 5, 6), 3):
        f = Cochain.monomial(QQ, monos)
        fp, fpp = (contract(s, f), restrict(s, f))
        assert x_wedge(s, fp) + fpp == f


def test_adx_star_m0_examples():
    s = m0_split()
    assert adx_star(s, mono(5)) == mono(4)
    assert adx_star(s, mono(2)).terms == {}
    # derivation property on a wedge
    got = adx_star(s, mono(3, 5))
    want = wedge(mono(2), mono(5)) + wedge(mono(3), mono(4))
    assert got == want


def test_adx_star_m2_examples():
    s = m2_split()
    # the dual of ad e_2 in m_2 sends e^3 to -e^1 because the
    # coefficient of e_3 in [e_2, e_1] is -1
    got = adx_star(s, mono(3))
    assert got.terms == {(1,): QQ.of(-1)}
    assert adx_star(s, mono(4)).terms == {}
    assert adx_star(s, mono(5)) == mono(3)
    assert adx_star(s, mono(7)) == mono(5)


def test_adx_star_commutes_with_ideal_differential():
    """adX* is a derivation of degree -w commuting with the ideal's d."""
    for s in (m0_split(), m2_split()):
        for q, k in ((1, 6), (2, 9), (2, 12), (3, 13)):
            for m in basis(s.ideal, q, k):
                c = Cochain.monomial(QQ, m)
                lhs = differential(s.ideal, adx_star(s, c))
                rhs = adx_star(s, differential(s.ideal, c))
                assert lhs == rhs, (s, m)


def test_contraction_identity():
    s0, s2 = m0_split(), m2_split()
    samples = [mono(3), mono(5), mono(1, 4), mono(2, 5), mono(2, 3),
               mono(3, 4, 6), mono(1, 2, 5), mono(2, 5) + mono(3, 4)]
    for f in samples:
        assert contraction_identity_check(s0, f)
        assert contraction_identity_check(s2, f)


def test_restrict_drops_x_terms():
    s = m2_split()
    f = mono(2, 3) + mono(1, 4) + mono(3, 4)
    r = restrict(s, f)
    assert r == mono(1, 4) + mono(3, 4)


def test_exactness_small_window_m0():
    rep = verify_exactness(m0_split(), qmax=2, kmax=12)
    assert rep.passed
    assert rep.first_failure is None
    assert rep.nodes


def test_exactness_small_window_m2():
    rep = verify_exactness(m2_split(), qmax=2, kmax=12)
    assert rep.passed


def test_exactness_report_json():
    rep = verify_exactness(m0_split(), qmax=1, kmax=6)
    import json
    data = json.loads(rep.to_json())
    assert data["passed"] is True
    assert isinstance(data["nodes"], list) and len(data["nodes"]) > 0


def test_exactness_mod_p():
    f3 = PrimeField(3)
    rep = verify_exactness(m0_split(), qmax=2, kmax=10, field=f3)
    assert rep.passed


@pytest.mark.parametrize("split", [m0_split, m2_split])
def test_a_second_split_reuses_the_cached_cells(split, monkeypatch):
    """Each preset split is built once, so its ideal keeps one key and a
    second check of the same window assembles no differential matrix."""
    assert split() is split()
    verify_exactness(split(), 2, 10)
    assembled = []
    matrix = cohomology.differential_matrix
    monkeypatch.setattr(cohomology, "differential_matrix",
                        lambda *args: assembled.append(args) or matrix(*args))
    assert verify_exactness(split(), 2, 10).passed
    assert assembled == []


@pytest.mark.parametrize("split", [m0_split, m2_split])
def test_exactness_catches_a_zero_connecting_map(split, monkeypatch):
    """With adX* replaced by the zero map, H^1_3(b) receives nothing by
    restriction and sends nothing on, though its dimension is 1."""
    monkeypatch.setattr(dixmier, "adx_star", lambda s, c: Cochain(c.field))
    rep = verify_exactness(split(), qmax=3, kmax=14)
    assert rep.passed is False
    assert rep.first_failure == {"node": "H^1_3(b)", "q": 1, "k": 3, "dim": 1,
                                 "rank_in": 0, "rank_out": 0, "composite_zero": True}


def test_exactness_reports_images_that_are_not_closed(monkeypatch):
    """A map into the right cell whose images are not cocycles gives
    ranks of -1: the wedge with e^x, followed by a cyclic shift of the
    monomial basis of its cell."""
    wedge_x = dixmier.x_wedge

    def shifted_wedge(split, c):
        img = wedge_x(split, c)
        if img.is_zero():
            return img
        monos = basis(split.parent, *img.bidegree())
        after = {m: monos[(i + 1) % len(monos)] for i, m in enumerate(monos)}
        return Cochain(img.field, {after[m]: v for m, v in img.terms.items()})

    monkeypatch.setattr(dixmier, "x_wedge", shifted_wedge)
    rep = verify_exactness(m2_split(), qmax=3, kmax=14)
    assert rep.passed is False
    assert rep.first_failure == {"node": "H^2_9(b)*", "q": 2, "k": 9, "dim": 1,
                                 "rank_in": -1, "rank_out": -1, "composite_zero": False}


@pytest.mark.parametrize("split", [m0_split, m2_split])
def test_adx_star_compiles_each_generator_once_per_split_and_field(split, monkeypatch):
    """verify_exactness applies adX* to hundreds of representatives; the
    image of each generator is compiled once per split and field, and
    the report does not change."""
    expected = verify_exactness(split(), 3, 20).to_json()
    monkeypatch.setattr(split(), "adx_images", {})
    compiled = []
    missing = cochain._Compiled.__missing__
    monkeypatch.setattr(cochain._Compiled, "__missing__",
                        lambda self, i: compiled.append((self, i)) or missing(self, i))
    assert verify_exactness(split(), 3, 20).to_json() == expected
    verify_exactness(split(), 2, 10, PrimeField(3))
    assert set(split().adx_images) == {QQ, PrimeField(3)}
    for field, images in split().adx_images.items():
        generators = [i for table, i in compiled if table is images]
        assert generators and len(generators) == len(set(generators)), field
