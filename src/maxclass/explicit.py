"""Closed-form cocycle constructions for the maximal-class presets.

Everything here is built from two degree-zero derivations of the
exterior algebra on the abelian (or almost-abelian) ideal:

  D1: e^i -> e^{i-1}   (weight -1; the bottom generator maps to 0)
  D2: e^i -> e^{i-2}   (weight -2; with the low-index special cases)

plus partial right inverses and the ``omega`` expansion, which converts
a strictly increasing index tuple into an explicitly closed cochain;
each public construction is one such expansion, `_omega_sum`.  The cup
product of two omega classes is their wedge, which already lies in the
span of the omega cochains.  The m2 variants carry 1/2^l coefficients
and therefore refuse fields of characteristic two.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import preset
from .cochain import Cochain, Monomial, _compiled, derive, differential, wedge
from .fields import QQ, Field


class InvalidIndices(ValueError):
    pass


class CharacteristicTwo(ValueError):
    pass


class ClosednessFailed(ArithmeticError):
    """A dropped-term construction did not come out closed."""


class NoLeadingTerm(ValueError):
    pass


# ---------------------------------------------------------------------------
# derivations

def _d1_images(floor: int):
    """The images of D1 on generators: e^i -> e^{i-1}, and 0 on e^1 and
    e^floor."""
    return lambda i: [] if i in (1, floor) else [(1, (i - 1,))]


def d1_apply(c: Cochain, floor: int = 2) -> Cochain:
    """ad e1^* as a derivation: e^i -> e^{i-1}, killing e^1 and the
    bottom generator e^floor of the ideal (2 for m0; 3 for the ideal
    spanned by e^1, e^3, e^4, ... inside m2)."""
    return derive(c, _d1_images(floor))


def _d2_images(i):
    """The images of D2 on generators: e^3 -> e^1, 0 on e^1 and e^4, and
    e^i -> e^{i-2} otherwise."""
    if i in (1, 4):
        return []
    if i == 3:
        return [(1, (1,))]
    return [(1, (i - 2,))]


def d2_apply(c: Cochain) -> Cochain:
    """ad e2^* on the m2 ideal: e^3 -> e^1, e^4 -> 0, e^i -> e^{i-2}."""
    return derive(c, _d2_images)


def _d2_plus_d1sq(field: Field):
    """c -> D2(c) + D1^2(c), D1 with generator floor 3, over `field`; D2
    and D1 are compiled once for every call of the returned map."""
    d2, d1 = _compiled(_d2_images, field), _compiled(_d1_images(3), field)
    return lambda c: derive(c, d2) + derive(derive(c, d1), d1)


def d2_plus_d1sq(c: Cochain) -> Cochain:
    return _d2_plus_d1sq(c.field)(c)


def _check_indices(indices, floor: int) -> tuple:
    indices = tuple(indices)
    if not indices or any(b <= a for a, b in zip(indices, indices[1:])):
        raise InvalidIndices(f"{indices} is not strictly increasing")
    if indices[0] < floor:
        raise InvalidIndices(f"index {indices[0]} below generator floor {floor}")
    return indices


def _omega_sum(groups, field: Field, floor: int = 2) -> Cochain:
    """sum over t of sum_l (-1)^l D1^l(xi_t) ^ e^{t+1+l} for groups
    {t: terms of xi_t}, no index of xi_t above t.  D1 lowers indices, so
    a term is its monomial with t+1+l appended, sign +1, and the
    monomials sharing a top expand together; the sum over different tops
    cancels as it goes.  D1 is compiled once per call."""
    d1 = _compiled(_d1_images(floor), field)
    out = Cochain(field)
    for t, terms in groups.items():
        xi, top, negate = Cochain(field, terms), t + 1, False
        while xi.terms:
            for m, v in xi.terms.items():
                out.add_term(m + (top,), field.neg(v) if negate else v)
            xi, top, negate = derive(xi, d1), top + 1, not negate
    return out


def d_minus1(c: Cochain) -> Cochain:
    """Right inverse of D1 on the m0 ideal: per monomial xi ^ e^i it is
    sum_l (-1)^l D1^l(xi) ^ e^{i+1+l}.  A monomial must end in a
    generator e^i, i >= 2, of the ideal (InvalidIndices otherwise)."""
    groups: dict = {}
    for mono, coeff in c.terms.items():
        if not mono or mono[-1] < 2:
            raise InvalidIndices(f"{mono} does not end in a generator of the m0 ideal")
        groups.setdefault(mono[-1], {})[mono[:-1]] = coeff
    return _omega_sum(groups, c.field)


# ---------------------------------------------------------------------------
# the omega expansion

def _check_floor(floor: int) -> None:
    """The ideal's bottom generator e^floor must be e^2 or e^3."""
    if floor not in (2, 3):
        raise InvalidIndices(f"generator floor {floor} is neither 2 (m0) nor 3 (m2)")


def omega(indices, field: Field = QQ, floor: int = 2) -> Cochain:
    """omega(i_1, ..., i_q) = sum_l (-1)^l D1^l(e^{i_1}^...^e^{i_q}) ^
    e^{i_q+1+l}: an explicitly closed (q+1)-cochain.  floor selects the
    bottom generator e^floor, which D1 kills (2 for the m0 ideal, 3 for
    the shifted copy inside m2)."""
    _check_floor(floor)
    indices = _check_indices(indices, floor)
    return _omega_sum({indices[-1]: {indices: field.one}}, field, floor)


def omega_map(c: Cochain, floor: int = 2) -> Cochain:
    """Linear extension of omega to cochains: each monomial must end in
    an adjacent pair (r, r+1); it is replaced by omega of the monomial
    with the final index removed.  Monomials that do not, or that reach
    below the generator floor, are dropped.  The kept monomials expand
    together, grouped by the top index of what omega receives."""
    _check_floor(floor)
    groups: dict = {}
    for mono, coeff in c.terms.items():
        if len(mono) >= 2 and mono[0] >= floor and mono[-1] == mono[-2] + 1:
            groups.setdefault(mono[-2], {})[mono[:-1]] = coeff
    return _omega_sum(groups, c.field, floor)


def leading_term(c: Cochain) -> Monomial:
    """The unique monomial of c whose last two indices are adjacent."""
    found = None
    for mono in c.terms:
        if len(mono) >= 2 and mono[-1] == mono[-2] + 1:
            if found is not None:
                raise NoLeadingTerm("several adjacent-last-pair monomials")
            found = mono
    if found is None:
        raise NoLeadingTerm("no adjacent-last-pair monomial")
    return found


# ---------------------------------------------------------------------------
# cup products in the m0 cohomology

def cup_formula(a, b, field: Field = QQ) -> Cochain:
    """Product of the classes of omega(a) and omega(b) (a's last index
    must not exceed b's) in omega cochains: the wedge itself.  The wedge
    lies in the span of the omega cochains, and each omega(s) has exactly
    one monomial whose two highest indices are adjacent, with
    coefficient 1, so omega_map of the wedge is the wedge term for term."""
    a, b = _check_indices(a, 2), _check_indices(b, 2)
    if a[-1] > b[-1]:
        raise InvalidIndices("first tuple must end no higher than the second")
    return wedge(omega(a, field), omega(b, field))


# ---------------------------------------------------------------------------
# m2 constructions

def _require_odd_characteristic(field: Field):
    if field.characteristic == 2:
        raise CharacteristicTwo("construction divides by 2")


def _w_sum(indices, field: Field, floor: int, halves: int) -> Cochain:
    """sum_l omega_map((D2 + D1^2)^l(e^{i_1}^...^e^{i_q}) ^ e^{i_q+1+l} ^
    e^{i_q+2+l}, floor) / 2^(l + halves).  D2 + D1^2 lowers indices, so
    stage l is omega_map of its monomials m with t = i_q+1+l, t+1
    appended: the group t of `_omega_sum`, terms m + (t,) for
    m[0] >= floor.  D2 + D1^2 and the expansion compile once per call."""
    indices = _check_indices(indices, 3)
    _require_odd_characteristic(field)
    step, x, groups, l = _d2_plus_d1sq(field), Cochain.monomial(field, indices), {}, 0
    while x.terms:
        t, scale = indices[-1] + 1 + l, field.from_rational(Fraction(1, 2 ** (l + halves)))
        groups[t] = {m + (t,): field.mul(v, scale) for m, v in x.terms.items() if m[0] >= floor}
        x, l = step(x), l + 1
    return _omega_sum(groups, field, floor)


def w_cocycle(indices, field: Field = QQ) -> Cochain:
    """w(i_1, ..., i_q) = sum_l (1/2^l) omega_map((D2 + D1^2)^l
    (e^{i_1}^...^e^{i_q}) ^ e^{i_q+1+l} ^ e^{i_q+2+l}) in the m2
    complex; terms that fall out of the generator range are dropped and
    the result is checked to be closed."""
    out = _w_sum(indices, field, 2, 0)
    if not differential(preset("m2"), out).is_zero():
        raise ClosednessFailed(f"w construction not closed at {tuple(indices)}")
    return out


def d_minus2_class(indices, field: Field = QQ) -> Cochain:
    """Partial right inverse of ad e2^* at the class level, built over
    the shifted ideal (generator floor 3): applying ad e2^* to the
    result gives minus the class of omega(indices, floor=3)."""
    return _w_sum(indices, field, 3, 1)
