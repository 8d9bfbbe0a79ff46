"""Cross-check suites: every closed-form dimension formula against the
elimination-rank route.

Each suite returns a Report listing the checks performed and the first
disagreement (with both values) if any.  The CLI exposes them all, so
the claims can be re-verified without a test harness.
"""
from __future__ import annotations

import json
import random

from .algebra import preset
from .cochain import Cochain, basis
from .cohomology import RouteMismatch, betti, euler_characteristic
from .combinatorics import (betti_gf, bordemann_dim, euler_product,
                            m2_basis_count, partitions_P, pentagonal,
                            pentagonal_series, small_closed_forms)
from .dixmier import m0_split, m2_split, verify_exactness
from .explicit import CharacteristicTwo, d_minus2_class, w_cocycle
from .fields import QQ, PrimeField
from .laplacian import harmonic_basis, m0_structure_check


class Report:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def record(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def equal(self, got, expected, where: str):
        self.record(got == expected, f"{where}: got {got}, expected {expected}")

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None

    def to_json(self) -> str:
        return json.dumps({"suite": self.name, "checks": self.checks,
                           "passed": self.passed,
                           "failures": self.failures}, indent=2)

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({self.first_failure})"
        return f"{self.name}: {self.checks} checks, {state}"

    def __repr__(self):
        return f"Report({self.summary()})"


def verify_euler(kmax: int = 30) -> Report:
    """Pentagonal-number identity and the per-weight Euler property of
    the three infinite presets."""
    rep = Report("euler")
    prod = euler_product(max(kmax, 50) + 1)
    pent = pentagonal_series(max(kmax, 50) + 1)
    for k in range(51):
        rep.equal(prod.coeff(k), pent.coeff(k), f"product vs pentagonal at t^{k}")
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for k in range(kmax + 1):
            chi = euler_characteristic(alg, k)
            rep.equal(chi, prod.coeff(k), f"{name} Euler sum at k={k}")
    return rep


def verify_goncharova(qmax: int = 3, kmax: int = 40) -> Report:
    """One-dimensional cohomology exactly at the pentagonal weights."""
    rep = Report("goncharova")
    alg = preset("l1")
    for q in range(1, qmax + 1):
        special = set(pentagonal(q))
        for k in range(kmax + 1):
            expected = 1 if k in special else 0
            rep.equal(betti(alg, q, k), expected, f"l1 b^{q}_{k}")
    return rep


def verify_gf(qmax: int = 4, kmax: int = 30) -> Report:
    """Two-variable generating functions against the Betti tables."""
    rep = Report("gf")
    for name in ("m0", "m2"):
        alg = preset(name)
        series = betti_gf(name, kmax + 1, qmax + 1)
        for q in range(qmax + 1):
            for k in range(kmax + 1):
                rep.equal(betti(alg, q, k), series.coeff(k, q),
                          f"{name} b^{q}_{k} vs t^{k}x^{q} coefficient")
    return rep


def verify_dixmier(qmax: int = 3, kmax: int = 25) -> Report:
    rep = Report("dixmier")
    for split in (m0_split(), m2_split()):
        res = verify_exactness(split, qmax, kmax)
        rep.record(res.passed,
                   f"{split!r}: first failing node {res.first_failure}")
    return rep


def _structure_samples(qmax: int, kmax: int):
    """Deterministic homogeneous forms of both shapes (with and without
    the e^1 factor) for the blockwise-Laplacian identity."""
    alg = preset("m0")
    rng = random.Random(17)
    samples = []
    for q in range(1, qmax + 1):
        for k in range(1, kmax + 1):
            monos = basis(alg, q, k)
            with_one = [m for m in monos if m and m[0] == 1]
            without = [m for m in monos if not m or m[0] != 1]
            for group in (with_one, without):
                if not group:
                    continue
                samples.append(Cochain.monomial(QQ, group[0]))
                if len(group) > 1:
                    c = Cochain(QQ)
                    for m in group:
                        c.add_term(m, QQ.of(rng.randint(-3, 3)))
                    if not c.is_zero():
                        samples.append(c)
    return alg, samples


def verify_laplacian(qmax: int = 3, kmax: int = 25) -> Report:
    """Harmonic kernels match Betti numbers (harmonic_basis raises
    RouteMismatch where they do not); blockwise structure of the
    index-one Laplacian holds on sampled forms."""
    rep = Report("laplacian")
    for name in ("m0", "m2", "l1"):
        alg = preset(name)
        for q in range(qmax + 1):
            for k in range(kmax + 1):
                try:
                    harmonic_basis(alg, q, k)
                except RouteMismatch as err:
                    rep.record(False, f"{name}: {err}")
                else:
                    rep.record(True, "")
    alg, samples = _structure_samples(3, 8)
    for form in samples[:24]:
        rep.record(m0_structure_check(alg, form),
                   f"m0 Laplacian block identity on {form!r}")
    return rep


def verify_bordemann(nmax: int = 8) -> Report:
    """Finite quotients of the index-one preset: total cohomology per
    degree against the two closed-form counts."""
    rep = Report("bordemann")
    for n in range(3, nmax + 1):
        alg = preset("m0n", n)
        kmax = sum(range(1, n + 1))
        for q in range(n + 1):
            total = sum(betti(alg, q, k) for k in range(kmax + 1))
            rep.equal(total, bordemann_dim(n, q), f"dim H^{q}(m0({n}))")
            if q in (2, 3, 4) and q <= n:
                rep.equal(total, small_closed_forms(n, q),
                          f"dim H^{q}(m0({n})) closed form")
    return rep


def verify_fibonacci(n_lo: int = 12, n_hi: int = 16) -> Report:
    """Stable Fibonacci dimensions for quotients of the Witt-type preset."""
    rep = Report("fibonacci")
    expected = {2: 3, 3: 5, 4: 8}
    for n in range(n_lo, n_hi + 1):
        alg = preset("l1quot", n)
        for q, want in expected.items():
            kmax = sum(range(n - q + 1, n + 1))
            total = sum(betti(alg, q, k) for k in range(kmax + 1))
            rep.equal(total, want, f"dim H^{q}(l1/l_{n + 1})")
    return rep


def verify_charp(kmax_m0: int = 25, kmax_m2: int = 30) -> Report:
    """Dimension formulas over small prime fields, and the expected
    rejection of characteristic two by the halving constructions."""
    rep = Report("charp")
    m0 = preset("m0")
    for p in (2, 3, 5):
        field = PrimeField(p)
        for q in range(1, 4):
            shift = q * (q + 1) // 2
            # k = 0 at q = 1 is the weight-one class of e^1, which sits
            # outside the partition-difference count (it shows up as the
            # affine term of the generating function instead)
            k_lo = 1 if q == 1 else 0
            for k in range(k_lo, kmax_m0 - shift + 1):
                rep.equal(betti(m0, q, k + shift, field),
                          partitions_P(q, k) - partitions_P(q, k - 1),
                          f"m0 b^{q}_{k + shift} over F{p}")
    m2 = preset("m2")
    for p in (3, 5):
        field = PrimeField(p)
        for k in range(41):
            rep.equal(betti(m2, 2, k, field), 1 if k in (5, 7) else 0,
                      f"m2 b^2_{k} over F{p}")
        for k in range(41):
            expected = 1 if (k >= 12 and k % 3 == 0) else 0
            rep.equal(betti(m2, 3, k, field), expected, f"m2 b^3_{k} over F{p}")
        for q in (3, 4):
            shift = q * (q + 1) // 2
            for k in range(kmax_m2 - shift + 1):
                rep.equal(betti(m2, q, k + shift, field),
                          m2_basis_count(q, k + shift),
                          f"m2 b^{q}_{k + shift} over F{p}")
    f2 = PrimeField(2)
    try:
        w_cocycle((5,), f2)
        rep.record(False, "w constructor accepted characteristic 2")
    except CharacteristicTwo:
        rep.record(True, "")
    try:
        d_minus2_class((4, 5), f2)
        rep.record(False, "halving right inverse accepted characteristic 2")
    except CharacteristicTwo:
        rep.record(True, "")
    return rep


SUITES = {
    "euler": verify_euler,
    "goncharova": verify_goncharova,
    "gf": verify_gf,
    "dixmier": verify_dixmier,
    "laplacian": verify_laplacian,
    "bordemann": verify_bordemann,
    "fibonacci": verify_fibonacci,
    "charp": verify_charp,
}
