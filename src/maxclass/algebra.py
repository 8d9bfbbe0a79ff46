"""N-graded Lie algebras with one-dimensional homogeneous components.

Each homogeneous component g_i is spanned by one basis vector e_i and
[g_i, g_j] lies in g_{i+j}, so a bracket is one scalar: bracket(i, j)
is the rational c with [e_i, e_j] = c e_{i+j}.  Presets cover the
three maximal-class algebras (abelian-ideal "m0" type, its double-step
variant "m2", the positive Witt part "l1") and their finite quotients;
custom algebras load from a JSON document.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Callable, Iterable


class InvalidParameter(ValueError):
    pass


class NotClosed(ValueError):
    """A candidate subalgebra's bracket escapes its index set."""


class ParseError(ValueError):
    pass


class ValidationFailed(ValueError):
    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = violations


class GradedAlgebra:
    """Bracket rule on positive integer indices, weight(i) = i.

    bracket(i, j) is the Fraction c with [e_i, e_j] = c e_{i+j}; it is 0
    when i = j or when e_{i+j} is not a generator.  ``rule(i, j)`` gives
    that scalar and is only consulted for i < j with e_{i+j} a
    generator; antisymmetry and the truncation/membership drop are
    applied here, so no rule can break either.  Instances are immutable
    and hashable (used as cache keys downstream).
    """

    def __init__(self, name: str, rule: Callable[[int, int], Fraction],
                 contains: Callable[[int], bool], truncation: int | None = None,
                 key: str | None = None):
        self.name = name
        self._rule = rule
        self._contains = contains
        self.truncation = truncation
        self.key = key if key is not None else name

    def contains(self, i: int) -> bool:
        if i < 1:
            return False
        if self.truncation is not None and i > self.truncation:
            return False
        return self._contains(i)

    def generators_up_to(self, k: int) -> list[int]:
        top = k if self.truncation is None else min(k, self.truncation)
        return [i for i in range(1, top + 1) if self.contains(i)]

    def bracket(self, i: int, j: int) -> Fraction:
        if not (self.contains(i) and self.contains(j)):
            raise InvalidParameter(f"{i} or {j} not a generator of {self.name}")
        if i == j or not self.contains(i + j):
            return ZERO
        return self._rule(i, j) if i < j else -self._rule(j, i)

    def __repr__(self):
        return f"GradedAlgebra({self.key})"

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, GradedAlgebra) and self.key == other.key


ZERO, ONE = Fraction(0), Fraction(1)


def _m0_rule(i: int, j: int) -> Fraction:
    return ONE if i == 1 and j >= 2 else ZERO


def _m2_rule(i: int, j: int) -> Fraction:
    return ONE if (i == 1 and j >= 2) or (i == 2 and j >= 3) else ZERO


def _lk_rule(i: int, j: int) -> Fraction:
    return Fraction(j - i)


def m0() -> GradedAlgebra:
    return GradedAlgebra("m0", _m0_rule, lambda i: True)


def m2() -> GradedAlgebra:
    return GradedAlgebra("m2", _m2_rule, lambda i: True)


def l1() -> GradedAlgebra:
    return GradedAlgebra("l1", _lk_rule, lambda i: True)


def lk(k: int) -> GradedAlgebra:
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    return GradedAlgebra(f"l{k}", _lk_rule, lambda i: i >= k, key=f"lk:{k}")


def m0n(n: int) -> GradedAlgebra:
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    return GradedAlgebra(f"m0({n})", _m0_rule, lambda i: True, truncation=n, key=f"m0n:{n}")


def m2n(n: int) -> GradedAlgebra:
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    return GradedAlgebra(f"m2({n})", _m2_rule, lambda i: True, truncation=n, key=f"m2n:{n}")


def l1quot(n: int) -> GradedAlgebra:
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    return GradedAlgebra(f"l1/L{n + 1}", _lk_rule, lambda i: True, truncation=n,
                         key=f"l1quot:{n}")


_PRESETS = {"m0": m0, "m2": m2, "l1": l1}
_PARAM_PRESETS = {"lk": lk, "m0n": m0n, "m2n": m2n, "l1quot": l1quot}


def preset(name: str, param: int | None = None) -> GradedAlgebra:
    """Build a preset algebra; parametrized names are "lk", "m0n", "m2n", "l1quot"."""
    if name in _PRESETS:
        if param is not None:
            raise InvalidParameter(f"preset {name!r} takes no parameter")
        return _PRESETS[name]()
    if name in _PARAM_PRESETS:
        if param is None:
            raise InvalidParameter(f"preset {name!r} needs a parameter")
        return _PARAM_PRESETS[name](param)
    raise InvalidParameter(f"unknown preset {name!r}")


def validate(alg: GradedAlgebra, bound: int):
    """Check the Jacobi identity for all index triples with sum <= bound.
    The monomials e^a ^ e^b ^ e^c of d d e^i (cochain.jacobi_defect) are
    exactly the triples with a + b + c = i where it fails; each is
    reported as ("jacobi", (a, b, c), (i,)), in lexicographic order.
    Violations are returned, not raised."""
    if bound < 3:
        raise InvalidParameter("bound must be >= 3")
    # cochain imports this module
    from .cochain import jacobi_defect

    violations = sorted(("jacobi", m, (i,)) for i in alg.generators_up_to(bound)
                        for m in jacobi_defect(alg, i).terms)
    return ValidationReport(alg.name, bound, violations)


class ValidationReport:
    def __init__(self, name, bound, violations):
        self.algebra = name
        self.bound = bound
        self.violations = violations
        self.passed = not violations

    def __repr__(self):
        status = "pass" if self.passed else f"{len(self.violations)} violations"
        return f"ValidationReport({self.algebra}, bound={self.bound}: {status})"


_PREDICATE_IDS = itertools.count()
_CLOSURE_BOUND = 60


def subalgebra(alg: GradedAlgebra,
               indices: Iterable[int] | Callable[[int], bool]) -> GradedAlgebra:
    """Restrict alg to an index subset, checking bracket closure up to
    _CLOSURE_BOUND (finitely, since the subset may be infinite)."""
    if callable(indices):
        # two predicates cannot be compared, so each gets its own key
        member = indices
        tag = f"pred{next(_PREDICATE_IDS)}"
    else:
        idx = frozenset(indices)
        member = idx.__contains__
        tag = ",".join(map(str, sorted(idx)))

    def contains(i):
        return alg.contains(i) and member(i)

    top = _CLOSURE_BOUND if alg.truncation is None else min(_CLOSURE_BOUND, alg.truncation)
    gens = [i for i in range(1, top + 1) if contains(i)]
    for ia, a in enumerate(gens):
        for b in gens[ia + 1:]:
            if alg.bracket(a, b) and not member(a + b):
                raise NotClosed(f"[e{a}, e{b}] hits e{a + b} outside the subset")

    return GradedAlgebra(f"{alg.name}|sub", alg._rule, contains,
                         truncation=alg.truncation, key=f"{alg.key}|sub[{tag}]")


def load_custom(document) -> GradedAlgebra:
    """Build and validate an algebra from its JSON definition.

    Schema: {"name": str, "truncation": int,
             "brackets": [{"i": int, "j": int,
                           "terms": [{"num": int, "den": int, "k": int}]}]}
    with 1 <= i < j <= truncation, each (i, j) at most once, and every k
    equal to i + j; the terms of one entry are summed into the scalar
    of [e_i, e_j].  Antisymmetric partners are implied.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc)) from exc
    try:
        name = document["name"]
        n = int(document["truncation"])
        entries = document["brackets"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if n < 2:
        raise InvalidParameter("truncation must be >= 2")

    table: dict[tuple[int, int], Fraction] = {}
    for entry in entries:
        try:
            i, j = int(entry["i"]), int(entry["j"])
            terms = [(Fraction(int(t["num"]), int(t.get("den", 1))), int(t["k"]))
                     for t in entry["terms"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad bracket entry {entry!r}: {exc}") from exc
        if i >= j:
            raise ParseError(f"bracket entries must have i < j, got ({i}, {j})")
        if i < 1 or j > n or any(not 1 <= k <= n for _, k in terms):
            raise ParseError(f"bracket entry {entry!r} names an index outside 1..{n}")
        if (i, j) in table:
            raise ParseError(f"bracket ({i}, {j}) is given twice")
        for _, k in terms:
            if k != i + j:
                raise ValidationFailed(
                    f"grading violated: [e{i}, e{j}] produces e{k}",
                    [("grading", (i, j), k)])
        table[(i, j)] = sum((c for c, _ in terms), ZERO)

    # hashlib loads OpenSSL, some MB of resident memory that only custom
    # algebras need
    from hashlib import sha256

    canonical = json.dumps(document, sort_keys=True)
    alg = GradedAlgebra(name, lambda i, j: table.get((i, j), ZERO),
                        lambda i: True, truncation=n,
                        key=f"custom:{name}:{n}:{sha256(canonical.encode()).hexdigest()}")
    report = validate(alg, max(3, 2 * n + n))
    if not report.passed:
        raise ValidationFailed(f"algebra {name!r} fails validation: "
                               f"{report.violations[0]}", report.violations)
    return alg


def load_custom_file(path) -> GradedAlgebra:
    with open(path) as fh:
        return load_custom(fh.read())
