"""Long exact sequence in cohomology from a codimension-one ideal.

A split is a graded algebra g together with a weight-w generator index
x whose span complements the ideal b spanned by the remaining
generators.  Any cochain decomposes as f = e^x ^ f' + f''; the three
induced maps on cohomology (wedging with e^x, restriction to b, and
the dual of ad e_x) form a long exact sequence, which we verify per
bidegree: composites vanish and incoming rank equals dim minus
outgoing rank at every node.  The ranks are those of the induced maps
on cohomology: the rank of the images of a basis of representatives
of the source, computed modulo coboundaries in the target.
"""
from __future__ import annotations

import json
from functools import cache, partial

from .algebra import GradedAlgebra, preset, subalgebra
from .cochain import Cochain, derive, differential, wedge
from .cohomology import class_rank, representatives
from .fields import QQ, Field


class IdealSplit:
    """Parent algebra, distinguished generator index, and the ideal
    spanned by all other generators."""

    def __init__(self, parent: GradedAlgebra, x_index: int):
        self.parent = parent
        self.x_index = x_index
        self.ideal = subalgebra(parent, lambda i: i != x_index)

    def __repr__(self):
        return f"IdealSplit({self.parent.name}, x=e{self.x_index})"


# one split per preset, so its ideal keeps one key and one set of cached cells
@cache
def m0_split() -> IdealSplit:
    return IdealSplit(preset("m0"), 1)


@cache
def m2_split() -> IdealSplit:
    return IdealSplit(preset("m2"), 2)


def contract(split: IdealSplit, f: Cochain) -> Cochain:
    """Interior product of f with the distinguished generator e_x."""
    x = split.x_index
    return derive(f, lambda i: [(1, ())] if i == x else [])


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
        coeff = split.parent.bracket(x, j) if j >= 1 and split.ideal.contains(j) else 0
        return [(f.from_rational(coeff), (j,))] if coeff else []
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


def verify_exactness(split: IdealSplit, qmax: int, kmax: int,
                     field: Field = QQ) -> ExactnessReport:
    """Check the long exact sequence at every bidegree in the window.

    Position n = 3q + j of the weight-k sequence is H^q_k(g), H^q_k(b)
    or H^q_{k-w}(b) for j = 0, 1, 2, and map n (restriction, adX*,
    wedge with e^x) leaves it.  The rank of an induced map is the rank
    of the images of its source representatives modulo coboundaries
    (class_rank).  Node n checks that map n kills the images of map
    n - 1 and that the two ranks add up to its dimension; images that
    are not closed give ranks of -1."""
    parent, ideal, w = split.parent, split.ideal, split.x_index
    maps = [partial(f, split) for f in (restrict, adx_star, x_wedge)]

    def position(n, k):
        q, j = divmod(n, 3)
        return ((parent, q, k), (ideal, q, k), (ideal, q, k - w))[j]

    # an empty list at negative degree or weight stands in for an absent map
    @cache
    def reps(alg, q, k):
        return representatives(alg, q, k, field) if q >= 0 and k >= 0 else []

    @cache
    def images(n, k):
        return [maps[n % 3](c) for c in reps(*position(n, k))]

    def rank(n, k, cochains):
        alg, q, kk = position(n + 1, k)
        return class_rank(alg, cochains, q, kk, field)

    # map n's rank is node n's rank_out and node n + 1's rank_in
    @cache
    def image_rank(n, k):
        return rank(n, k, images(n, k))

    nodes, first_failure = [], None
    for k in range(kmax + 1):
        for n in range(3 * qmax + 3):
            q, j = divmod(n, 3)
            if j == 2 and k < w:
                continue
            alg, _, kk = position(n, k)
            rank_in, rank_out = image_rank(n - 1, k), image_rank(n, k)
            if rank_in is None or rank_out is None:
                rank_in, rank_out, composite_zero = -1, -1, False
            else:
                composite_zero = rank(n, k, [maps[j](c) for c in images(n - 1, k)]) == 0
            dim = len(reps(alg, q, kk))
            node = {"node": f"H^{q}_{kk}" + ("(g)", "(b)", "(b)*")[j], "q": q, "k": kk,
                    "dim": dim, "rank_in": rank_in, "rank_out": rank_out}
            ok = composite_zero and rank_in == dim - rank_out
            nodes.append(node | {"ok": ok})
            if not ok and first_failure is None:
                first_failure = node | {"composite_zero": composite_zero}

    return ExactnessReport(split, qmax, kmax, nodes, first_failure)
