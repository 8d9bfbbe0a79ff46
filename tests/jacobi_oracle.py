"""Reference Jacobi check for the tests: the triple loop over index
triples a < b < c with a + b + c <= bound, reading the Jacobiator

    J(a, b, c) = [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b]

from the scalar `bracket`.  Each bracket lands in the one-dimensional
component of weight a + b + c, so J is one scalar.  Slow and simple, it
is the oracle `validate`, which reads d d e^i, is compared against.

`defect` is d applied twice to the monomial e^i through the public
`differential`: the oracle that `cochain.jacobi_defect`, one pass of d
over the compiled image of d e^i, is compared against.
"""
from __future__ import annotations

from maxclass.algebra import GradedAlgebra
from maxclass.cochain import Cochain, differential
from maxclass.fields import QQ


def defect(alg: GradedAlgebra, i: int) -> Cochain:
    """d d e^i over Q, by two passes of `differential`."""
    return differential(alg, differential(alg, Cochain.monomial(QQ, (i,))))


def _nested(alg: GradedAlgebra, x: int, y: int, z: int):
    """The scalar of [[e_x, e_y], e_z] on e_{x+y+z}."""
    c = alg.bracket(x, y)
    return c * alg.bracket(x + y, z) if c else 0


def violations(alg: GradedAlgebra, bound: int) -> list:
    """("jacobi", (a, b, c), (a + b + c,)) for every triple where J is
    nonzero, in lexicographic order."""
    gens = alg.generators_up_to(bound)
    out = []
    for ia, a in enumerate(gens):
        for ib, b in enumerate(gens[ia + 1:], ia + 1):
            for c in gens[ib + 1:]:
                if a + b + c > bound:
                    break
                if _nested(alg, a, b, c) + _nested(alg, b, c, a) + _nested(alg, c, a, b):
                    out.append(("jacobi", (a, b, c), (a + b + c,)))
    return out
