"""Highest-weight sl(2) modules and primitive vectors in their
exterior powers.

V(lambda) has basis f_0, f_1, ... with the classical action
  H f_i = (lambda - 2i) f_i,  Y f_i = (i+1) f_{i+1},
  X f_i = (lambda - i + 1) f_{i-1}.
For non-integral lambda we rescale to a basis with X ft_i = ft_{i-1},
which makes the raising operator on exterior powers literally the
index-lowering derivation.  Elements are dicts index -> scalar;
wedge monomials are strictly increasing index tuples.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cochain import increasing_tuples, map_matrix
from .fields import QQ, Field


class InvalidLambda(ValueError):
    """The rescaled basis needs lambda outside {0, 1, 2, ...}."""


class Sl2Module:
    """V(lambda); dim is n-1 for the finite module V(n-2), None for the
    infinite one.  rescaled selects the ft basis (X ft_i = ft_{i-1})."""

    def __init__(self, lam, dim: int | None = None, rescaled: bool = True,
                 field: Field = QQ):
        self.lam = Fraction(lam)
        self.dim = dim
        self.rescaled = rescaled
        self.field = field
        if rescaled and self.lam.denominator == 1 and self.lam >= 0:
            raise InvalidLambda(
                f"lambda = {lam} is a nonnegative integer; rescaling divides by lambda - l + 1")

    def in_range(self, i: int) -> bool:
        return i >= 0 and (self.dim is None or i < self.dim)

    def __repr__(self):
        size = "inf" if self.dim is None else str(self.dim)
        basis = "ft" if self.rescaled else "f"
        return f"Sl2Module(lambda={self.lam}, dim={size}, basis={basis})"


def _x_coeff(mod: Sl2Module, i: int) -> Fraction:
    """Coefficient of f_{i-1} in X f_i."""
    if mod.rescaled:
        return Fraction(1)
    return mod.lam - i + 1


def _y_coeff(mod: Sl2Module, i: int) -> Fraction:
    """Coefficient of f_{i+1} in Y f_i."""
    if mod.rescaled:
        return (i + 1) * (mod.lam - i)
    return Fraction(i + 1)


def act(mod: Sl2Module, g: str, c: dict) -> dict:
    """Apply X, Y, or H to a combination {index: scalar}."""
    f = mod.field
    out: dict = {}

    def put(i, v):
        if not mod.in_range(i):
            return
        w = f.add(out.get(i, f.zero), v)
        if f.is_zero(w):
            out.pop(i, None)
        else:
            out[i] = w

    for i, v in c.items():
        if g == "H":
            put(i, f.mul(v, f.from_rational(mod.lam - 2 * i)))
        elif g == "X":
            if i > 0:
                put(i - 1, f.mul(v, f.from_rational(_x_coeff(mod, i))))
        elif g == "Y":
            put(i + 1, f.mul(v, f.from_rational(_y_coeff(mod, i))))
        else:
            raise ValueError(f"unknown generator {g!r}")
    return out


def wedge_basis(mod: Sl2Module, q: int, k: int) -> list[tuple]:
    """Strictly increasing q-tuples of indices summing to k."""
    bound = (mod.dim - 1) if mod.dim is not None else k
    return increasing_tuples(range(bound + 1), q, k)


def x_derivation_matrix(mod: Sl2Module, q: int, k: int):
    """Matrix of X acting as an even derivation Lambda^q_k -> Lambda^q_{k-1}."""
    f = mod.field

    def images(i):
        return [(f.from_rational(_x_coeff(mod, i)), (i - 1,))] if i > 0 else []
    return map_matrix(f, wedge_basis(mod, q, k), wedge_basis(mod, q, k - 1), images)


def primitive_basis(mod: Sl2Module, q: int, k: int) -> list[dict]:
    """Kernel basis of X on the weight-k subspace of Lambda^q."""
    M = x_derivation_matrix(mod, q, k)
    return linalg.kernel_basis(M)


def finite_kernel_count(n: int, q: int) -> int:
    """Total dimension of ker X on Lambda^q V(n-2): the number of
    irreducible summands of the exterior power."""
    if q == 0:
        return 1
    mod = Sl2Module(n - 2, dim=n - 1, rescaled=False)
    total = 0
    kmax = sum(range(n - 1 - q, n - 1))  # top q module indices
    for k in range(0, kmax + 1):
        M = x_derivation_matrix(mod, q, k)
        total += M.cols - linalg.rank(M)
    return total


def combination_text(c: dict, basis_name: str = "ft") -> str:
    """Render {monomial or index: coeff} with f-basis labels."""
    parts = []
    for key in sorted(c):
        coeff = c[key]
        if isinstance(key, tuple):
            label = "^".join(f"{basis_name}{i}" for i in key)
        else:
            label = f"{basis_name}{key}"
        parts.append(f"{coeff} {label}")
    return " + ".join(parts) if parts else "0"
