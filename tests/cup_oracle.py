"""Reference cup product for the tests: the library's earlier
`cup_formula`, kept verbatim.

It expands the double sum omega(a) ^ omega(b) by hand into the three
families of summands whose two highest indices are adjacent (the second
factor untouched; both factors differentiated, pairing at j+k / j+k+1
from either side) and applies `omega_map` to their sum.  Slow and
simple, it is the oracle the library's `cup_formula`, which is
`wedge(omega(a), omega(b))` itself, is compared against.
"""
from __future__ import annotations

from maxclass.cochain import Cochain, wedge
from maxclass.explicit import (InvalidIndices, _check_indices, d1_apply,
                               omega_map)
from maxclass.fields import QQ, Field


def cup_formula(a, b, field: Field = QQ) -> Cochain:
    """Product of the classes of omega(a) and omega(b) written again in
    terms of omega cochains (a's last index must not exceed b's).  The
    result is cohomologous to wedge(omega(a), omega(b))."""
    a, b = _check_indices(a, 2), _check_indices(b, 2)
    i, j = a[-1], b[-1]
    if i > j:
        raise InvalidIndices("first tuple must end no higher than the second")
    f = field
    acc = Cochain(f)

    def monomial_cochain(indices, coeff=None):
        return Cochain.monomial(f, indices, coeff)

    xi_i = monomial_cochain(a)          # xi ^ e^i
    eta_j = monomial_cochain(b)         # eta ^ e^j

    def pow_d1(c, n):
        for _ in range(n):
            if c.is_zero():
                break
            c = d1_apply(c)
        return c

    # adjacent-last-pair summands of the literal double expansion:
    # (1) the second factor untouched
    for l in range(0, j - i + 2):
        left = pow_d1(xi_i, l)
        if left.is_zero():
            continue
        tail = wedge(monomial_cochain((i + 1 + l,)),
                     wedge(eta_j, monomial_cochain((j + 1,))))
        term = wedge(left, tail)
        acc = acc + (term if l % 2 == 0 else -term)
    # (2) and (3): both factors differentiated, pairing at j+k / j+k+1
    sign2 = f.of(-1 if (j - i - 1) % 2 else 1)
    for k in range(1, 2 * (sum(a) + sum(b))):
        right = pow_d1(eta_j, k)
        if right.is_zero():
            break
        left2 = pow_d1(xi_i, j - i - 1 + k)
        left3 = pow_d1(xi_i, j - i + 1 + k)
        if left2.is_zero() and left3.is_zero():
            continue
        if not left2.is_zero():
            term = wedge(left2, wedge(monomial_cochain((j + k,)),
                                      wedge(right, monomial_cochain((j + 1 + k,)))))
            acc = acc + term.scaled(sign2)
        if not left3.is_zero():
            term = wedge(left3, wedge(monomial_cochain((j + 2 + k,)),
                                      wedge(right, monomial_cochain((j + 1 + k,)))))
            acc = acc + term.scaled(sign2)
    out = omega_map(acc)
    return out
