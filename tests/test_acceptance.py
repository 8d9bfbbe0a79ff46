"""Acceptance gate: fourteen exact cross-checks, one per test, each
printing a single pass/fail line.  All arithmetic is exact, so every
comparison is equality with zero tolerance."""
from itertools import combinations

import pytest

from maxclass.algebra import preset
from maxclass.cochain import Cochain, basis, cochain_text, differential, wedge
from maxclass.cohomology import betti, is_exact
from maxclass.combinatorics import (
    distinct_V,
    euler_product,
    m2_basis_count,
    partitions_P,
    pentagonal_series,
)
from maxclass.explicit import CharacteristicTwo, cup_formula, omega, w_cocycle
from maxclass.fields import QQ, PrimeField
from maxclass.linalg import SparseMatrix, rank
from maxclass.sl2 import Sl2Module, primitive_basis
from maxclass.verify import (
    verify_bordemann,
    verify_charp,
    verify_dixmier,
    verify_euler,
    verify_fibonacci,
    verify_gf,
    verify_goncharova,
    verify_laplacian,
)


def report(number, name, ok, detail=""):
    line = f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def omega_specs(length, k):
    """Strictly increasing index tuples from 2 whose cocycle weight
    sum(spec[:-1]) + 2*spec[-1] + 1 equals k."""
    if length == 1:
        return [(top,) for top in range(2, k) if 2 * top + 1 == k]
    out = []
    for top in range(2, k):
        rem = k - 2 * top - 1
        for rest in combinations(range(2, top), length - 1):
            if sum(rest) == rem:
                out.append(rest + (top,))
    return out


def w_specs(length, k):
    """Strictly increasing index tuples from 3 whose cocycle weight
    sum(spec[:-1]) + 3*spec[-1] + 3 equals k."""
    out = []
    for top in range(3, k):
        rem = k - 3 * top - 3
        if length == 1:
            if rem == 0:
                out.append((top,))
            continue
        for rest in combinations(range(3, top), length - 1):
            if sum(rest) == rem:
                out.append(rest + (top,))
    return out


def test_criterion_01_infinite_algebra_pairs():
    """b^q_k(l1) is 1 exactly at two weights per degree, else 0."""
    l1 = preset("l1")
    expected = {1: {1, 2}, 2: {5, 7}, 3: {12, 15}}
    ok, detail = True, ""
    for q, hits in expected.items():
        for k in range(41):
            want = 1 if k in hits else 0
            got = betti(l1, q, k)
            if got != want:
                ok, detail = False, f"q={q} k={k} got {got} want {want}"
                break
    report(1, "two classes per degree for l1", ok, detail)


def test_criterion_02_m0_partition_differences():
    """b^q_{k+q(q+1)/2}(m0) = P_q(k) - P_q(k-1); the lone exception is
    the weight-one degree-one generator class, outside the k-range when
    q = 1 starts at k = 1."""
    m0 = preset("m0")
    ok, detail = True, ""
    for q in range(1, 5):
        start = 1 if q == 1 else 0
        for k in range(start, 21):
            got = betti(m0, q, k + q * (q + 1) // 2)
            want = partitions_P(q, k) - partitions_P(q, k - 1)
            if got != want:
                ok, detail = False, f"q={q} k={k} got {got} want {want}"
                break
    report(2, "m0 partition differences", ok, detail)


def test_criterion_03_m2_dimensions():
    """b^2(m2) lives at weights 5 and 7 only; b^3 is 1 on the
    progression 12, 15, 18, ...; for q in {3, 4} the dimensions match
    the distinct-part count, and the four-term partition difference
    agrees except on its documented boundary weights."""
    m2 = preset("m2")
    ok, detail = True, ""
    for k in range(41):
        want = 1 if k in (5, 7) else 0
        if betti(m2, 2, k) != want:
            ok, detail = False, f"b^2_{k}"
            break
    if ok:
        for k in range(41):
            want = 1 if k >= 12 and k % 3 == 0 else 0
            if betti(m2, 3, k) != want:
                ok, detail = False, f"b^3_{k}"
                break
    exceptions = {3: {9}, 4: {14, 17, 20, 23, 26, 29}}
    if ok:
        for q in (3, 4):
            for k in range(31):
                got = betti(m2, q, k)
                if got != m2_basis_count(q, k):
                    ok, detail = False, f"count q={q} k={k}"
                    break
                kk = k - q * (q + 1) // 2
                disp = (partitions_P(q, kk) - partitions_P(q, kk - 1)
                        - partitions_P(q, kk - 2) + partitions_P(q, kk - 3))
                if k in exceptions[q]:
                    if disp != got + 1:
                        ok, detail = False, f"boundary q={q} k={k}"
                        break
                elif disp != got:
                    ok, detail = False, f"difference q={q} k={k}"
                    break
            if not ok:
                break
    report(3, "m2 dimensions and difference formula", ok, detail)


def test_criterion_04_golden_cocycles():
    with open("tests/golden/omega_5_6.txt") as fh:
        golden_omega = fh.read().strip()
    with open("tests/golden/w_5.txt") as fh:
        golden_w = fh.read().strip()
    ok = (cochain_text(omega((5, 6))) == golden_omega
          and cochain_text(w_cocycle((5,))) == golden_w)
    report(4, "golden cocycle expansions", ok)


def test_criterion_05_closedness_and_counts():
    m0, m2 = preset("m0"), preset("m2")
    ok, detail = True, ""
    for q in (2, 3, 4):
        for k in range(41):
            specs = omega_specs(q - 1, k)
            for s in specs:
                if not differential(m0, omega(s)).is_zero():
                    ok, detail = False, f"omega{s} not closed"
                    break
            if ok and len(specs) != betti(m0, q, k):
                ok, detail = False, f"omega count q={q} k={k}"
            if not ok:
                break
        if not ok:
            break
    if ok:
        for q in (3, 4):
            for k in range(41):
                specs = w_specs(q - 2, k)
                for s in specs:
                    if not differential(m2, w_cocycle(s)).is_zero():
                        ok, detail = False, f"w{s} not closed"
                        break
                if ok and len(specs) != betti(m2, q, k):
                    ok, detail = False, f"w count q={q} k={k}"
                if not ok:
                    break
            if not ok:
                break
    report(5, "cocycle closedness and class counts to weight 40", ok, detail)


def test_criterion_06_cup_product_coherence():
    m0 = preset("m0")
    pairs = [((i,), (j,)) for i in (2, 3, 4, 5) for j in (5, 6, 7, 8)]
    pairs += [((3,), (3,)), ((4,), (4,)), ((5,), (5,)), ((2,), (4,)),
              ((6,), (7,)), ((3,), (9,))]
    assert len(pairs) >= 20
    ok, detail = True, ""
    for a, b in pairs:
        diff = cup_formula(a, b) - wedge(omega(a), omega(b))
        exact, _ = is_exact(m0, diff)
        if not exact:
            ok, detail = False, f"{a} cup {b}"
            break
    report(6, "cup formula cohomologous to literal wedge", ok, detail)


def test_criterion_07_long_exact_sequences():
    rep = verify_dixmier(qmax=3, kmax=25)
    report(7, "codimension-one exact sequences", rep.passed,
           str(rep.first_failure))


def test_criterion_08_euler_property():
    ok, detail = True, ""
    if euler_product(51).coeffs != pentagonal_series(51).coeffs:
        ok, detail = False, "product vs pentagonal series"
    if ok:
        rep = verify_euler(kmax=30)
        ok, detail = rep.passed, str(rep.first_failure)
    report(8, "Euler product and alternating sums", ok, detail)


def test_criterion_09_generating_functions():
    rep = verify_gf(qmax=4, kmax=30)
    report(9, "two-variable generating functions", rep.passed,
           str(rep.first_failure))


def test_criterion_10_finite_quotient_formulas():
    rep = verify_bordemann(nmax=8)
    report(10, "finite quotient closed forms", rep.passed,
           str(rep.first_failure))


def test_criterion_11_fibonacci_stabilization():
    rep = verify_fibonacci(12, 16)
    report(11, "Fibonacci stabilization of quotient cohomology",
           rep.passed, str(rep.first_failure))


def test_criterion_12_characteristic_p():
    rep = verify_charp()
    ok, detail = rep.passed, str(rep.first_failure)
    if ok:
        try:
            w_cocycle((5,), PrimeField(2))
            ok, detail = False, "no error over F2"
        except CharacteristicTwo:
            pass
    report(12, "prime characteristic dimensions and F2 rejection",
           ok, detail)


def test_criterion_13_hodge_route():
    from maxclass.laplacian import laplacian_apply, m0_structure_check
    rep = verify_laplacian(qmax=3, kmax=25)
    ok, detail = rep.passed, str(rep.first_failure)
    if ok:
        m0 = preset("m0")
        if not laplacian_apply(m0, Cochain.monomial(QQ, (1,))).is_zero():
            ok, detail = False, "degree-one generator not harmonic"
    if ok:
        forms = []
        for q in (1, 2, 3):
            for k in range(q * (q + 1) // 2, 12):
                forms.extend(Cochain.monomial(QQ, m)
                             for m in basis(preset("m0"), q, k))
        assert len(forms) >= 20
        for form in forms:
            if not m0_structure_check(preset("m0"), form):
                ok, detail = False, f"structure {sorted(form.terms)}"
                break
    report(13, "harmonic kernels and blockwise structure", ok, detail)


def test_criterion_14_sl2_route():
    ok, detail = True, ""
    for lam in ("-3/7", "-11/5"):
        mod = Sl2Module(lam)
        for q in range(1, 5):
            for k in range(21):
                want = distinct_V(q, k + q) - distinct_V(q, k - 1 + q)
                if len(primitive_basis(mod, q, k)) != want:
                    ok, detail = False, f"lam={lam} q={q} k={k}"
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        # relabel ft_i -> e^{i+2}: primitives must span the kernel of
        # the index-lowering derivation on the shifted cells
        from maxclass.algebra import subalgebra
        from maxclass.explicit import d1_apply
        mod = Sl2Module("-3/7")
        ideal = subalgebra(preset("m0"), lambda i: i >= 2)
        for q in range(1, 4):
            for k in range(16):
                source = basis(ideal, q, k + 2 * q)
                target = basis(ideal, q, k - 1 + 2 * q)
                pos = {m: i for i, m in enumerate(target)}
                entries = {}
                for j, m in enumerate(source):
                    for mm, v in d1_apply(Cochain.monomial(QQ, m)).terms.items():
                        entries[(pos[mm], j)] = v
                M = SparseMatrix(QQ, len(target), len(source), entries,
                                 row_labels=target, col_labels=source)
                prims = list(primitive_basis(mod, q, k))
                if len(source) - rank(M) != len(prims):
                    ok, detail = False, f"relabel dim q={q} k={k}"
                    break
                for vec in prims:
                    img = Cochain(QQ)
                    for m, v in vec.items():
                        shifted = tuple(i + 2 for i in m)
                        img = img + d1_apply(Cochain(QQ, {shifted: v}))
                    if not img.is_zero():
                        ok, detail = False, f"relabel vec q={q} k={k}"
                        break
                if not ok:
                    break
            if not ok:
                break
    report(14, "sl(2) primitive vectors and relabeling", ok, detail)
