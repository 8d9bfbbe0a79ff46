"""The three workloads: inputs from the seed, timed public calls, and
checks against the oracle.

A workload runs in two steps so that peak memory and time belong to the
program alone: `run` makes the calls, timing each with `Calls`, and
returns what they gave; `check` compares that with the oracle and
returns (failed operations, problems).  A failed operation is one that
fails on every seed through a known fault; a problem is any other wrong
output and makes the run incorrect.

Every maxclass function is looked up on its module at call time, so a
traced round sees the wrappers that `tracing.install` put there.
"""
from __future__ import annotations

import time
from fractions import Fraction

import maxclass.algebra as algebra
import maxclass.cochain as cochain
import maxclass.cohomology as cohomology
import maxclass.dixmier as dixmier
import maxclass.explicit as explicit
import maxclass.laplacian as laplacian
import maxclass.sl2 as sl2
from maxclass.fields import QQ, PrimeField

import oracle

MERSENNE31 = 2 ** 31 - 1


class Calls:
    """Times each public call; one call is one operation."""

    def __init__(self):
        self.seconds: list[float] = []

    def __call__(self, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.seconds.append(time.perf_counter() - start)
        return out


def floats_in(values) -> int:
    """How many values are not exact scalars (int or Fraction)."""
    return sum(1 for v in values
               if not isinstance(v, (int, Fraction)) or isinstance(v, bool))


# --- Betti tables ---------------------------------------------------------
#
# A table is (algebra, quotient size or None, field, degrees, kmax).  The
# seed shuffles the order of the tables and of the weights inside each;
# at one weight the degrees are asked in increasing order, so every
# elimination is first needed by the same call whatever the seed.

BETTI_QQ = [
    ("l1", None, 0, range(0, 4), 42),
    ("m0", None, 0, range(0, 5), 18),
    ("m2", None, 0, range(0, 5), 18),
    ("l1quot", 12, 0, range(0, 5), 12 + 11 + 10 + 9),
    ("l1quot", 13, 0, range(0, 5), 13 + 12 + 11 + 10),
]

BETTI_FP = [
    (name, None, p, range(0, 5), 22)
    for p in (3, 5, MERSENNE31) for name in ("m0", "m2")
] + [("l1", None, MERSENNE31, range(0, 4), 46)]


def _field(p):
    return QQ if p == 0 else PrimeField(p)


def presets() -> dict:
    """Every algebra the workloads use, built once per round."""
    out = {name: algebra.preset(name) for name in ("m0", "m2", "l1")}
    for n in (12, 13):
        out[f"l1quot:{n}"] = algebra.preset("l1quot", n)
    return out


def run_betti(tables, algebras, rng, call):
    order = list(range(len(tables)))
    rng.shuffle(order)
    values = {}
    for t in order:
        name, n, p, degrees, kmax = tables[t]
        alg = algebras[name if n is None else f"{name}:{n}"]
        field = _field(p)
        weights = list(range(kmax + 1))
        rng.shuffle(weights)
        for k in weights:
            for q in degrees:
                values[(t, q, k)] = call(cohomology.betti, alg, q, k, field)
    return values


def _expected_betti(name, n, p, q, k):
    """Known value of b^q_k, or None where the method gives no formula."""
    if q == 0:
        return int(k == 0)
    if name == "l1" and n is None and p in (0, MERSENNE31):
        return int(k in oracle.pentagonal(q))        # Goncharova
    if name == "m0":
        if q == 1:
            return int(k in (1, 2))
        shift = q * (q + 1) // 2
        return oracle.partitions_exact(q, k - shift) - oracle.partitions_exact(q, k - shift - 1)
    if name == "m2":
        if q == 1:
            return int(k in (1, 2))
        if q == 2:
            return int(k in (5, 7))
        return len(oracle.w_specs(q - 2, k))
    return None


def check_betti(tables, values):
    problems = []
    for t, (name, n, p, degrees, kmax) in enumerate(tables):
        where = f"{name}{'' if n is None else f'({n})'} over {'Q' if p == 0 else f'F{p}'}"
        got = {(q, k): values[(t, q, k)] for q in degrees for k in range(kmax + 1)}
        for (q, k), b in got.items():
            if type(b) is not int:
                problems.append(f"{where} b^{q}_{k} = {b!r} is not an int")
                continue
            want = _expected_betti(name, n, p, q, k)
            if want is not None and b != want:
                problems.append(f"{where} b^{q}_{k} = {b}, expected {want}")
        euler = oracle.euler_product(kmax, n)
        for k in range(kmax + 1):
            top = max(q for q in range(k + 1) if q * (q + 1) // 2 <= k)
            if n is not None:
                top = min(top, n)
            if top > max(degrees) or min(degrees) > 0:
                continue
            chi = sum((-1) ** q * got[(q, k)] for q in range(top + 1))
            if chi != euler[k]:
                problems.append(f"{where} Euler sum at weight {k} is {chi}, expected {euler[k]}")
        if name == "l1quot":
            # Fibonacci stabilization: totals 3, 5, 8 in degrees 2, 3, 4
            for q, want in ((2, 3), (3, 5), (4, 8)):
                total = sum(got[(q, k)] for k in range(kmax + 1))
                if total != want:
                    problems.append(f"{where} dim H^{q} = {total}, expected {want}")
    return 0, problems


# --- classes over Q ---------------------------------------------------------

OMEGA_KMAX = 25          # omega cocycles of m0 in degrees 2..4
W_KMAX = 30              # w cocycles of m2 in degrees 3..4
CUP_PAIRS = [((i,), (j,)) for i in (2, 3, 4, 5, 6) for j in range(5, 11) if i <= j]
SPLIT_WINDOW = (3, 20)   # (qmax, kmax) of both long exact sequences
ABELIAN_WINDOW = (3, 20)
HARMONIC_WINDOW = (3, 16)
PRIMITIVE_WINDOW = (4, 20)
SL2_LAMBDA = Fraction(-3, 7)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _coboundary(rng, algebra_name, q, k):
    """d of a seeded cochain in degree q - 1, weight k (oracle side)."""
    monos = oracle.monomials(q - 1, k)
    u = {m: Fraction(rng.randint(-3, 3)) for m in rng.sample(monos, min(3, len(monos)))}
    return oracle.differential(algebra_name, {m: v for m, v in u.items() if v})


def run_classes(algebras, rng, call):
    m0, m2, l1 = algebras["m0"], algebras["m2"], algebras["l1"]
    out: dict = {}

    # phase 1: explicit cocycles
    omega_specs = [s for length in (1, 2, 3) for k in range(OMEGA_KMAX + 1)
                   for s in oracle.omega_specs(length, k)]
    w_specs = [s for length in (1, 2) for k in range(W_KMAX + 1)
               for s in oracle.w_specs(length, k)]
    out["omega"] = {s: call(explicit.omega, s) for s in _shuffled(rng, omega_specs)}
    out["w"] = {s: call(explicit.w_cocycle, s) for s in _shuffled(rng, w_specs)}

    # phase 2: representatives and class coordinates in m0
    cells: dict = {}
    for s in omega_specs:
        cells.setdefault((len(s) + 1, sum(s) + s[-1] + 1), []).append(s)
    out["cells"] = cells
    out["reps"] = {c: call(cohomology.representatives, m0, *c)
                   for c in _shuffled(rng, cells)}
    queries = [("omega", s, (len(s) + 1, sum(s) + s[-1] + 1)) for s in omega_specs]
    combos = {}
    for cell, specs in cells.items():
        coeffs = [rng.randint(-3, 3) for _ in specs]
        combo = oracle.combine(*((a, out["omega"][s].terms) for a, s in zip(coeffs, specs)),
                               (1, _coboundary(rng, "m0", *cell)))
        combos[cell] = (coeffs, cochain.Cochain(QQ, combo))
        queries.append(("combo", cell, cell))
    out["combos"] = combos
    coords = {}
    for kind, key, (q, k) in _shuffled(rng, queries):
        c = out["omega"][key] if kind == "omega" else combos[key][1]
        coords[(kind, key)] = call(cohomology.class_coordinates, m0, c,
                                   out["reps"][(q, k)], q, k)
    out["coords"] = coords

    # phase 3: exactness of w cocycles and of cup-minus-wedge differences
    out["w_exact"] = {s: call(cohomology.is_exact, m2, out["w"][s])
                      for s in _shuffled(rng, w_specs)}

    def cup_difference(a, b):
        diff = explicit.cup_formula(a, b) - cochain.wedge(explicit.omega(a), explicit.omega(b))
        return diff, cohomology.is_exact(m0, diff)

    out["cup"] = {pair: call(cup_difference, *pair) for pair in _shuffled(rng, CUP_PAIRS)}

    # phase 4: long exact sequences of the codimension-one splits
    qmax, kmax = SPLIT_WINDOW
    out["splits"] = {name: call(dixmier.verify_exactness, split(), qmax, kmax)
                     for name, split in _shuffled(rng, [("m0", dixmier.m0_split),
                                                        ("m2", dixmier.m2_split)])}

    # phase 5: the abelian ideal e3, e4, ... of m2, after the m2 split
    ideal = call(algebra.subalgebra, m2, lambda i: i >= 3)
    qmax, kmax = ABELIAN_WINDOW
    out["abelian"] = {(q, k): call(cohomology.betti, ideal, q, k)
                      for q, k in _shuffled(rng, [(q, k) for q in range(qmax + 1)
                                                  for k in range(kmax + 1)])}

    # phase 6: Hodge kernels and sl(2) primitives
    qmax, kmax = HARMONIC_WINDOW
    out["harmonic"] = {
        (name, q, k): call(laplacian.harmonic_basis, alg, q, k)
        for name, alg, q, k in _shuffled(rng, [(name, alg, q, k)
                                               for name, alg in (("m0", m0), ("m2", m2), ("l1", l1))
                                               for q in range(1, qmax + 1)
                                               for k in range(kmax + 1)])}
    module = sl2.Sl2Module(SL2_LAMBDA)
    qmax, kmax = PRIMITIVE_WINDOW
    out["primitive"] = {(q, k): call(sl2.primitive_basis, module, q, k)
                        for q, k in _shuffled(rng, [(q, k) for q in range(1, qmax + 1)
                                                    for k in range(kmax + 1)])}
    return out


def _expected_qq(name, q, k):
    if name == "l1":
        return int(k == 0) if q == 0 else int(k in oracle.pentagonal(q))
    return _expected_betti(name, None, 0, q, k)


def _lowered(vec: dict) -> dict:
    """The rescaled X, ft_i -> ft_{i-1}, as an even derivation."""
    out: dict = {}
    for mono, v in vec.items():
        for t, i in enumerate(mono):
            if i == 0 or (t and mono[t - 1] == i - 1):
                continue
            new = mono[:t] + (i - 1,) + mono[t + 1:]
            out[new] = out.get(new, 0) + v
    return {m: v for m, v in out.items() if v}


def check_classes(out):
    problems = []

    def note(ok, message):
        if not ok:
            problems.append(message)

    for s, c in out["omega"].items():
        note(not oracle.differential("m0", c.terms), f"omega{s} is not closed")
        note(not floats_in(c.terms.values()), f"omega{s} has a float coefficient")
    for s, c in out["w"].items():
        note(not oracle.differential("m2", c.terms), f"w{s} is not closed")
        note(not floats_in(c.terms.values()), f"w{s} has a float coefficient")

    for (q, k), specs in out["cells"].items():
        reps = out["reps"][(q, k)]
        count = len(oracle.omega_specs(q - 1, k))
        nonzero = sum(1 for s in specs if out["omega"][s].terms)
        note(nonzero == count == len(reps),
             f"m0 cell ({q}, {k}): {nonzero} nonzero omegas, {count} by the oracle, "
             f"{len(reps)} representatives")
        for r in reps:
            note(not floats_in(r.terms.values()), f"representative at ({q}, {k}) has a float")
        rows = [out["coords"][("omega", s)] for s in specs]
        if any(r is None for r in rows):
            problems.append(f"an omega at ({q}, {k}) has no class coordinates")
            continue
        note(not floats_in(v for r in rows for v in r), f"coordinates at ({q}, {k}) have a float")
        note(oracle.fraction_rank(rows) == len(specs),
             f"omega coordinate matrix at ({q}, {k}) is singular")
        coeffs, _ = out["combos"][(q, k)]
        want = [sum(a * r[i] for a, r in zip(coeffs, rows)) for i in range(len(reps))]
        note(out["coords"][("combo", (q, k))] == want,
             f"class coordinates at ({q}, {k}) change with a coboundary")

    for s, (exact, primitive) in out["w_exact"].items():
        note(exact is False and primitive is None, f"w{s} reported exact")
    for pair, (diff, (exact, primitive)) in out["cup"].items():
        if not exact:
            problems.append(f"cup minus wedge for {pair} is not exact")
            continue
        note(not floats_in(primitive.terms.values()), f"primitive for {pair} has a float")
        note(oracle.differential("m0", primitive.terms) == diff.terms,
             f"d(primitive) differs from cup minus wedge for {pair}")

    for name, report in out["splits"].items():
        note(report.passed, f"{name} long exact sequence fails at {report.first_failure}")

    # fault: subalgebra keys every predicate alike, so these cells read
    # ranks cached for the m2 split's ideal; each wrong cell is a failed
    # operation, not a problem
    failed = sum(1 for (q, k), b in out["abelian"].items()
                 if b != oracle.distinct_parts(q, k, 3))

    for (name, q, k), vectors in out["harmonic"].items():
        want = _expected_qq(name, q, k)
        note(len(vectors) == want,
             f"{name} harmonic dimension at ({q}, {k}) is {len(vectors)}, expected {want}")
        for v in vectors:
            note(not oracle.differential(name, v.terms), f"{name} harmonic form at ({q}, {k}) not closed")
            note(not floats_in(v.terms.values()), f"{name} harmonic form at ({q}, {k}) has a float")
    for (q, k), vectors in out["primitive"].items():
        want = oracle.distinct_parts(q, k + q) - oracle.distinct_parts(q, k - 1 + q)
        note(len(vectors) == want,
             f"primitive dimension at ({q}, {k}) is {len(vectors)}, expected {want}")
        for v in vectors:
            note(not _lowered(v), f"primitive vector at ({q}, {k}) not killed by X")
            note(not floats_in(v.values()), f"primitive vector at ({q}, {k}) has a float")
    return failed, problems


WORKLOADS = {
    "betti-qq": (lambda algs, rng, call: run_betti(BETTI_QQ, algs, rng, call),
                 lambda values: check_betti(BETTI_QQ, values)),
    "betti-fp": (lambda algs, rng, call: run_betti(BETTI_FP, algs, rng, call),
                 lambda values: check_betti(BETTI_FP, values)),
    "classes-qq": (run_classes, check_classes),
}
