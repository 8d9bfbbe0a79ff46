"""Long exact sequence in cohomology from a codimension-one ideal.

A split is a graded algebra g together with a weight-w generator index
x whose span complements the ideal b spanned by the remaining
generators.  Any cochain decomposes as f = e^x ^ f' + f''; the three
induced maps on cohomology (wedging with e^x, restriction to b, and
the dual of ad e_x) form a long exact sequence, which we verify per
bidegree: composites vanish and incoming rank equals dim minus
outgoing rank at every node.
"""
from __future__ import annotations

import json
from functools import cache

from . import linalg
from .algebra import GradedAlgebra, preset, subalgebra
from .cochain import Cochain, derive, differential, wedge
from .cohomology import betti, class_coordinates, representatives
from .fields import QQ, Field


class IdealSplit:
    """Parent algebra, distinguished generator index, and the ideal
    spanned by all other generators."""

    def __init__(self, parent: GradedAlgebra, x_index: int):
        self.parent = parent
        self.x_index = x_index
        self.weight = x_index
        self.ideal = subalgebra(parent, lambda i: i != x_index)

    def __repr__(self):
        return f"IdealSplit({self.parent.name}, x=e{self.x_index})"


def m0_split() -> IdealSplit:
    return IdealSplit(preset("m0"), 1)


def m2_split() -> IdealSplit:
    return IdealSplit(preset("m2"), 2)


def contract(split: IdealSplit, f: Cochain) -> Cochain:
    """Interior product of f with the distinguished generator e_x."""
    x = split.x_index
    return derive(f, lambda i: [(1, ())] if i == x else [])


def split_form(split: IdealSplit, f: Cochain):
    """f = e^x ^ f' + f'' with f'' free of the e^x factor."""
    return contract(split, f), restrict(split, f)


def x_wedge(split: IdealSplit, c: Cochain) -> Cochain:
    """Wedge with the 1-form dual to the distinguished generator."""
    return wedge(Cochain.monomial(c.field, (split.x_index,)), c)


def restrict(split: IdealSplit, f: Cochain) -> Cochain:
    """Pull a cochain of the parent back to the ideal: drop e^x terms."""
    x = split.x_index
    return Cochain(f.field, {m: v for m, v in f.terms.items() if x not in m})


def adx_star(split: IdealSplit, c: Cochain) -> Cochain:
    """Derivation of the ideal's complex dual to ad e_x: the e^k
    component goes to sum_j (coefficient of e_k in [e_x, e_j]) e^j."""
    f = c.field
    x = split.x_index

    @cache
    def images(k):
        j = k - x
        if j < 1 or not split.ideal.contains(j):
            return []
        return [(f.from_rational(coeff), (j,))
                for coeff, target in split.parent.bracket(x, j) if target == k]
    return derive(c, images)


def contraction_identity_check(split: IdealSplit, f: Cochain) -> bool:
    """(df)_X = adX*(f) + d(f_X) for f in the ideal subcomplex.

    Any e^x-bearing terms of f are dropped first: the identity is the
    mechanism behind the connecting map, which only ever sees ideal
    cochains, and it acquires an extra Lie-derivative term otherwise.
    """
    f = restrict(split, f)
    df = differential(split.parent, f)
    lhs = contract(split, df)
    fx = contract(split, f)
    rhs = adx_star(split, f) + differential(split.parent, fx)
    return restrict(split, lhs) == restrict(split, rhs)


class ExactnessReport:
    def __init__(self, split: IdealSplit, qmax: int, kmax: int,
                 nodes: list[dict], first_failure):
        self.split = split
        self.qmax = qmax
        self.kmax = kmax
        self.nodes = nodes
        self.first_failure = first_failure
        self.passed = first_failure is None

    def to_json(self) -> str:
        return json.dumps({
            "parent": self.split.parent.name,
            "x_index": self.split.x_index,
            "qmax": self.qmax, "kmax": self.kmax,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "nodes": self.nodes,
        }, indent=2)

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL at {self.first_failure}"
        return f"ExactnessReport({self.split!r}, q<={self.qmax}, k<={self.kmax}: {state})"


def _coordinate_matrix(field: Field, source_reps, target_reps, target_alg, q, k, images):
    """Coordinates of each image in the target representative basis;
    returns (matrix, ok)."""
    entries = {}
    for j, img in enumerate(images):
        coords = class_coordinates(target_alg, img, target_reps, q, k, field)
        if coords is None:
            return None, False
        for i, v in enumerate(coords):
            if not field.is_zero(v):
                entries[(i, j)] = v
    M = linalg.SparseMatrix(field, len(target_reps), len(source_reps), entries,
                            row_labels=list(range(len(target_reps))),
                            col_labels=list(range(len(source_reps))))
    return M, True


def verify_exactness(split: IdealSplit, qmax: int, kmax: int,
                     field: Field = QQ) -> ExactnessReport:
    """Check the long exact sequence at every bidegree in the window."""
    parent, ideal, w = split.parent, split.ideal, split.weight
    nodes = []
    first_failure = None

    rep_cache: dict = {}

    def reps(alg, q, k):
        key = (alg.key, q, k)
        if key not in rep_cache:
            rep_cache[key] = representatives(alg, q, k, field) if q >= 0 and k >= 0 else []
        return rep_cache[key]

    def matrix_of(kind, q, k):
        """kind 'wedge': B^{q}_{k-w} -> G^{q+1}_k; 'restrict': G^q_k ->
        B^q_k; 'adx': B^q_k -> B^q_{k-w}."""
        if kind == "wedge":
            src = reps(ideal, q, k - w)
            tgt = reps(parent, q + 1, k)
            images = [x_wedge(split, c) for c in src]
            return _coordinate_matrix(field, src, tgt, parent, q + 1, k, images)
        if kind == "restrict":
            src = reps(parent, q, k)
            tgt = reps(ideal, q, k)
            images = [restrict(split, c) for c in src]
            return _coordinate_matrix(field, src, tgt, ideal, q, k, images)
        src = reps(ideal, q, k)
        tgt = reps(ideal, q, k - w)
        images = [adx_star(split, c) for c in src]
        return _coordinate_matrix(field, src, tgt, ideal, q, k - w, images)

    def record(label, q, k, dim, rank_in, rank_out, composite_ok):
        nonlocal first_failure
        ok = composite_ok and (rank_in == dim - rank_out)
        nodes.append({"node": label, "q": q, "k": k, "dim": dim,
                      "rank_in": rank_in, "rank_out": rank_out, "ok": ok})
        if not ok and first_failure is None:
            first_failure = {"node": label, "q": q, "k": k, "dim": dim,
                             "rank_in": rank_in, "rank_out": rank_out,
                             "composite_zero": composite_ok}

    def rank_or_zero(res):
        M, ok = res
        if not ok or M is None:
            return None
        return linalg.rank(M)

    for k in range(0, kmax + 1):
        mats = {}

        def mat(kind, q, kk):
            key = (kind, q, kk)
            if key not in mats:
                mats[key] = matrix_of(kind, q, kk)
            return mats[key]

        for q in range(0, qmax + 1):
            # node H^q_k(parent): in via wedge from B^{q-1}_{k-w}, out via restriction
            dim_g = betti(parent, q, k, field)
            m_in = mat("wedge", q - 1, k) if q >= 1 and k - w >= 0 else (None, True)
            m_out = mat("restrict", q, k)
            r_in = rank_or_zero(m_in) if m_in[0] is not None else (0 if m_in[1] else None)
            r_out = rank_or_zero(m_out)
            comp_ok = True
            if m_in[0] is not None and m_out[0] is not None and r_in and dim_g:
                comp_ok = m_out[0].matmul(m_in[0]).is_zero()
            if r_in is None or r_out is None:
                record(f"H^{q}_{k}(g)", q, k, dim_g, -1, -1, False)
                continue
            record(f"H^{q}_{k}(g)", q, k, dim_g, r_in, r_out, comp_ok)

            # node H^q_k(ideal): in via restriction, out via adX*
            dim_b = betti(ideal, q, k, field)
            m_in2 = m_out
            m_out2 = mat("adx", q, k) if k - w >= 0 else (None, True)
            r_in2 = rank_or_zero(m_in2)
            r_out2 = rank_or_zero(m_out2) if m_out2[0] is not None else (0 if m_out2[1] else None)
            comp_ok2 = True
            if m_in2[0] is not None and m_out2[0] is not None:
                comp_ok2 = m_out2[0].matmul(m_in2[0]).is_zero()
            if r_in2 is None or r_out2 is None:
                record(f"H^{q}_{k}(b)", q, k, dim_b, -1, -1, False)
                continue
            record(f"H^{q}_{k}(b)", q, k, dim_b, r_in2, r_out2, comp_ok2)

            # node H^q_{k-w}(ideal): in via adX*, out via wedge into H^{q+1}_k
            if k - w >= 0:
                dim_b2 = betti(ideal, q, k - w, field)
                m_in3 = m_out2
                m_out3 = mat("wedge", q, k)
                r_in3 = rank_or_zero(m_in3)
                r_out3 = rank_or_zero(m_out3)
                comp_ok3 = True
                if m_in3[0] is not None and m_out3[0] is not None:
                    comp_ok3 = m_out3[0].matmul(m_in3[0]).is_zero()
                if r_in3 is None or r_out3 is None:
                    record(f"H^{q}_{k - w}(b)*", q, k - w, dim_b2, -1, -1, False)
                    continue
                record(f"H^{q}_{k - w}(b)*", q, k - w, dim_b2, r_in3, r_out3, comp_ok3)

    return ExactnessReport(split, qmax, kmax, nodes, first_failure)
