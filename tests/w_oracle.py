"""Reference m2 cocycles for the tests: the library's earlier `_w_sum`
stage sum, kept as it was.

Stage l wedges (D2 + D1^2)^l(e^{i_1} ^ ... ^ e^{i_q}) with the pair
e^{i_q+1+l} ^ e^{i_q+2+l}, scaled by 1/2^(l + halves), and applies
`omega_map` to that wedge; the stages are added in order of l.  Slow
and literal, it is the oracle the grouped expansion of `explicit._w_sum`,
which appends each stage's top index without a wedge, is compared
against.
"""
from __future__ import annotations

from fractions import Fraction

from maxclass.cochain import Cochain, wedge
from maxclass.explicit import _check_indices, d2_plus_d1sq, omega_map
from maxclass.fields import QQ, Field


def w_sum(indices, field: Field, floor: int, halves: int) -> Cochain:
    """sum_l omega_map((D2 + D1^2)^l(e^{i_1}^...^e^{i_q}) ^ e^{i_q+1+l} ^
    e^{i_q+2+l}, floor) / 2^(l + halves)."""
    indices = _check_indices(indices, 3)
    top = indices[-1]
    out, x, l = Cochain(field), Cochain.monomial(field, indices), 0
    while not x.is_zero():
        pair = Cochain.monomial(field, (top + 1 + l, top + 2 + l),
                                field.from_rational(Fraction(1, 2 ** (l + halves))))
        for m, v in omega_map(wedge(x, pair), floor).terms.items():
            out.add_term(m, v)
        x, l = d2_plus_d1sq(x), l + 1
    return out


def w_cocycle(indices, field: Field = QQ) -> Cochain:
    return w_sum(indices, field, 2, 0)


def d_minus2_class(indices, field: Field = QQ) -> Cochain:
    return w_sum(indices, field, 3, 1)
