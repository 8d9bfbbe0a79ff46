"""Exact field arithmetic over Q and prime fields F_p.

Scalars are plain Python values.  Over Q a scalar is an ``int`` when it
is integral and a ``fractions.Fraction`` otherwise, so its type follows
from its value alone: ``of``, ``from_rational``, ``add`` and ``mul``
return an ``int`` for an integral value (``add`` and ``mul`` turn an
integral ``Fraction`` result into its numerator), ``neg`` keeps the
form, and the one division ``of(n, d)`` goes through ``Fraction``, so
no ``/`` between two ints ever makes a float.
Over F_p a scalar is an integer residue in [0, p).  A ``Field`` object
carries the operations, so all other modules stay field-agnostic.
"""
from __future__ import annotations

from fractions import Fraction


class DivisionByZero(ZeroDivisionError):
    """Division by zero (or by a residue that is zero mod p)."""


class PrimalityUndecided(ValueError):
    """The number is too large for the deterministic primality test."""


# Miller-Rabin with the first 13 primes as bases decides every n below
# this bound exactly (Sorenson & Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises PrimalityUndecided at n >= 3.3e24."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_BOUND:
        raise PrimalityUndecided(f"{n} is beyond the deterministic primality test")
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Base class; concrete fields are Rationals and PrimeField."""

    characteristic: int

    def of(self, n, d=1):
        raise NotImplementedError

    def from_rational(self, fr: Fraction):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("field", self.characteristic))


class Rationals(Field):
    characteristic = 0

    zero = 0
    one = 1

    def of(self, n, d=1):
        if d == 0:
            raise DivisionByZero("denominator is zero")
        return self.from_rational(Fraction(n, d))

    def from_rational(self, fr):
        fr = Fraction(fr)
        return fr.numerator if fr.denominator == 1 else fr

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def format(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def of(self, n, d=1):
        p = self.p
        if d % p == 0:
            raise DivisionByZero(f"denominator {d} is zero mod {p}")
        return n * pow(d % p, -1, p) % p

    def from_rational(self, fr):
        fr = Fraction(fr)
        return self.of(fr.numerator, fr.denominator)

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def format(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def parse_field(spec: str) -> Field:
    """Parse a field selection string: "q" or "fp:<prime>"."""
    spec = spec.strip().lower()
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"bad field spec {spec!r} (expected 'q' or 'fp:<prime>')")
