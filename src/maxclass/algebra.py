"""N-graded Lie algebras with one-dimensional homogeneous components.

An algebra is a bracket rule on basis indices: bracket(i, j) returns a
list of (rational coefficient, index) pairs, always with index i + j.
Presets cover the three maximal-class algebras (abelian-ideal "m0" type,
its double-step variant "m2", the positive Witt part "l1") and their
finite quotients; custom algebras load from a JSON document.
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


Term = tuple[Fraction, int]


class GradedAlgebra:
    """Bracket rule on positive integer indices, weight(i) = i.

    ``rule(i, j)`` is only consulted for i < j; antisymmetry and the
    truncation/membership drop are applied here.  Instances are
    immutable and hashable (used as cache keys downstream).
    """

    def __init__(self, name: str, rule: Callable[[int, int], list[Term]],
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

    def bracket(self, i: int, j: int) -> list[Term]:
        if not (self.contains(i) and self.contains(j)):
            raise InvalidParameter(f"{i} or {j} not a generator of {self.name}")
        if i == j:
            return []
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out = []
        for coeff, k in self._rule(i, j):
            if coeff and self.contains(k):
                out.append((sign * coeff, k))
        return out

    def dim(self) -> int | None:
        if self.truncation is None:
            return None
        return len(self.generators_up_to(self.truncation))

    def __repr__(self):
        return f"GradedAlgebra({self.key})"

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, GradedAlgebra) and self.key == other.key


ONE = Fraction(1)


def _m0_rule(i: int, j: int) -> list[Term]:
    if i == 1 and j >= 2:
        return [(ONE, j + 1)]
    return []


def _m2_rule(i: int, j: int) -> list[Term]:
    if i == 1 and j >= 2:
        return [(ONE, j + 1)]
    if i == 2 and j >= 3:
        return [(ONE, j + 2)]
    return []


def _lk_rule(i: int, j: int) -> list[Term]:
    return [(Fraction(j - i), i + j)]


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


def _bracket_map(alg: GradedAlgebra, i: int, j: int) -> dict[int, Fraction]:
    return {k: c for c, k in alg.bracket(i, j)}


def validate(alg: GradedAlgebra, bound: int):
    """Check antisymmetry, grading and the Jacobi identity for all index
    triples with sum <= bound.  Violations are returned, not raised."""
    if bound < 3:
        raise InvalidParameter("bound must be >= 3")
    violations = []
    gens = alg.generators_up_to(bound)
    for a in gens:
        for b in gens:
            if a + b > bound or a >= b:
                continue
            fwd = _bracket_map(alg, a, b)
            bwd = _bracket_map(alg, b, a)
            for k, c in fwd.items():
                if k != a + b:
                    violations.append(("grading", (a, b), k))
                if bwd.get(k, Fraction(0)) != -c:
                    violations.append(("antisymmetry", (a, b), k))
    for ia, a in enumerate(gens):
        for b in gens[ia + 1:]:
            for c in gens:
                if c <= b or a + b + c > bound:
                    continue
                acc: dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for coeff, m in alg.bracket(x, y):
                        if alg.contains(m):
                            for coeff2, k in alg.bracket(m, z):
                                acc[k] = acc.get(k, Fraction(0)) + coeff * coeff2
                bad = {k: v for k, v in acc.items() if v}
                if bad:
                    violations.append(("jacobi", (a, b, c), tuple(sorted(bad))))
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
            for coeff, k in alg.bracket(a, b):
                if coeff and alg.contains(k) and not member(k):
                    raise NotClosed(f"[e{a}, e{b}] hits e{k} outside the subset")

    return GradedAlgebra(f"{alg.name}|sub", alg._rule, contains,
                         truncation=alg.truncation, key=f"{alg.key}|sub[{tag}]")


def load_custom(document) -> GradedAlgebra:
    """Build and validate an algebra from its JSON definition.

    Schema: {"name": str, "truncation": int,
             "brackets": [{"i": int, "j": int,
                           "terms": [{"num": int, "den": int, "k": int}]}]}
    Antisymmetric partners are implied; grading k = i + j is enforced.
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

    table: dict[tuple[int, int], list[Term]] = {}
    for entry in entries:
        try:
            i, j = int(entry["i"]), int(entry["j"])
            terms = [(Fraction(int(t["num"]), int(t.get("den", 1))), int(t["k"]))
                     for t in entry["terms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad bracket entry {entry!r}: {exc}") from exc
        if i >= j:
            raise ParseError(f"bracket entries must have i < j, got ({i}, {j})")
        for _, k in terms:
            if k != i + j:
                raise ValidationFailed(
                    f"grading violated: [e{i}, e{j}] produces e{k}",
                    [("grading", (i, j), k)])
        table[(i, j)] = terms

    # hashlib loads OpenSSL, some MB of resident memory that only custom
    # algebras need
    from hashlib import sha256

    canonical = json.dumps(document, sort_keys=True)
    alg = GradedAlgebra(name, lambda i, j: table.get((i, j), []),
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
