import inspect
import signal
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from maxclass import linalg
from maxclass.algebra import preset
from maxclass.cochain import differential_matrix
from maxclass.fields import QQ, PrimeField, _is_prime
from maxclass.linalg import (CertificationError, SparseMatrix, capped_pass, kernel_basis, rank,
                             solve_in_image)

import elimination_oracle as oracle


def test_rank_simple():
    M = oracle.from_dense(QQ, [[QQ.of(1), QQ.of(2)], [QQ.of(2), QQ.of(4)]])
    assert rank(M) == 1
    M = oracle.from_dense(QQ, [[QQ.of(1), QQ.of(0)], [QQ.of(0), QQ.of(1)]])
    assert rank(M) == 2
    assert rank(oracle.from_entries(QQ, 0, 3, {})) == 0
    assert rank(oracle.from_entries(QQ, 3, 0, {})) == 0


def test_rank_with_fractions():
    # second row is 3 times the first
    M = oracle.from_dense(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), Fraction(1, 1)]])
    assert rank(M) == 1
    M = oracle.from_dense(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), Fraction(2)]])
    assert rank(M) == 2


def test_rank_fp():
    f5 = PrimeField(5)
    M = oracle.from_dense(f5, [[1, 2], [3, 1]])  # det = 1 - 6 = 0 mod 5
    assert rank(M) == 1
    f3 = PrimeField(3)
    M = oracle.from_dense(f3, [[1, 2], [2, 1]])  # det = -3 = 0 mod 3
    assert rank(M) == 1


def test_kernel_basis_annihilates():
    M = oracle.from_dense(QQ, [[QQ.of(1), QQ.of(1), QQ.of(0)],
                               [QQ.of(0), QQ.of(1), QQ.of(1)]])
    vecs = kernel_basis(M)
    assert len(vecs) == 1
    for v in vecs:
        image = oracle.product(M, v)
        assert all(QQ.is_zero(x) for x in image.values())


def test_solve_in_image():
    M = oracle.from_dense(QQ, [[QQ.of(1), QQ.of(0)], [QQ.of(1), QQ.of(0)]])
    sol = solve_in_image(M, {0: QQ.of(2), 1: QQ.of(2)})
    assert sol is not None
    assert oracle.product(M, sol) == {0: QQ.of(2), 1: QQ.of(2)}
    # (1, 2) is not in the column span
    assert solve_in_image(M, {0: QQ.of(1), 1: QQ.of(2)}) is None


def test_the_constructor_takes_the_shape_and_the_rows():
    """SparseMatrix(field, rows, cols, by_row), every argument required:
    a matrix is its shape and its rows, and nothing names them."""
    params = inspect.signature(SparseMatrix).parameters
    assert list(params) == ["field", "rows", "cols", "by_row"]
    assert all(p.default is p.empty for p in params.values())


def test_transpose_swaps_entries():
    M = oracle.from_dense(QQ, [[QQ.of(1), QQ.of(2), QQ.of(0)], [QQ.of(3), QQ.of(4), QQ.of(5)]])
    T = M.transpose()
    assert (T.rows, T.cols) == (3, 2)
    assert oracle.to_dense(T) == [[1, 3], [2, 4], [0, 5]]
    assert T.transpose().entries == M.entries


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_row_keys_outside_the_shape_are_refused(field):
    """solve_in_image raises DimensionMismatch for a nonzero value on a
    key outside range(M.rows), whether -1, M.rows or a monomial passed by
    mistake, and skips a zero one, which is no entry of v."""
    M = oracle.from_dense(field, [[1, 0], [0, 0]])
    for v in ({-1: 1}, {2: 1}, {(0,): 1}, {0: 1, (0, 1): 2}):
        with pytest.raises(linalg.DimensionMismatch):
            solve_in_image(M, v)
    assert solve_in_image(M, {0: 3, 2: field.of(0), (0, 1): field.of(0)}) == {0: 3}


@settings(max_examples=40)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_matches_fraction_rref(m, n, data):
    """linalg.rank, the certified modular elimination, equals the rank of
    a naive Fraction RREF."""
    rows = [[Fraction(data.draw(st.integers(-6, 6)),
                      data.draw(st.integers(1, 4))) for _ in range(n)]
            for _ in range(m)]
    M = oracle.from_dense(QQ, rows)
    work = [r[:] for r in rows]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(m):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    assert rank(M) == r


def test_backend_name_exported():
    assert linalg.BACKEND == "python"


def test_no_float_reaches_a_result():
    """Integer entries over Q must not be divided as Python ints: an
    entry is an int when integral and a Fraction otherwise."""
    M = oracle.from_dense(QQ, [[3, 1, 0], [6, 2, 1]])
    vecs = list(kernel_basis(M))
    assert vecs == [{1: Fraction(1), 0: Fraction(-1, 3)}]
    assert type(vecs[0][1]) is int and type(vecs[0][0]) is Fraction
    sol = solve_in_image(M, {0: 3, 1: 6})
    assert sol == {0: Fraction(1)}
    assert type(sol[0]) is int


# --- certified modular elimination against the oracle -----------------------

@st.composite
def rational_matrices(draw, max_rows=6, max_cols=6):
    """Random small matrices over Q: plain ones, and products of two
    integer factors of small inner size, so that kernels are common; each
    row is then divided by its own denominator."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))

    def ints(rows, cols, bound):
        return draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        entries = ints(m, n, 6)
    else:
        inner = draw(st.integers(1, 3))
        a, b = ints(m, inner, 4), ints(inner, n, 4)
        entries = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    dens = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    return [[Fraction(x, d) for x in row] for row, d in zip(entries, dens)]


def _apply(dense, u: dict) -> list:
    return [sum((row[c] * x for c, x in u.items()), Fraction(0)) for row in dense]


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_rank_and_kernel_match_oracle(dense):
    n = len(dense[0])
    M = oracle.from_dense(QQ, dense)
    assert rank(M) == oracle.rank_int(oracle.integer_rows(dense), n)
    assert list(kernel_basis(M)) == oracle.kernel(dense, n)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_in_image_matches_oracle(dense, data):
    m, n = len(dense), len(dense[0])
    M = oracle.from_dense(QQ, dense)
    if data.draw(st.booleans()):
        # a vector in the image, possibly zero
        u0 = {c: Fraction(data.draw(st.integers(-3, 3))) for c in range(n)}
        rhs = _apply(dense, u0)
    else:
        rhs = [Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
               for _ in range(m)]
    sol = solve_in_image(M, {r: x for r, x in enumerate(rhs) if x})
    assert (sol is not None) == oracle.in_image(dense, n, rhs)
    if sol is not None:
        assert _apply(dense, sol) == rhs


def _first_primes(count):
    primes = linalg._primes()
    return [next(primes) for _ in range(count)]


def test_engine_primes_are_prime():
    primes = _first_primes(25)
    assert all(_is_prime(p) for p in primes)
    assert primes == sorted(primes, reverse=True) and primes[0] < 2 ** 30


@pytest.mark.parametrize("bad", [1, 2])
def test_entries_divisible_by_the_first_primes(bad):
    """Modulo the first `bad` primes the matrix is zero: they must be
    dropped, not mixed into the reconstruction."""
    scale = 1
    for p in _first_primes(bad):
        scale *= p
    base = [[1, 2, 3, 4], [2, 4, 6, 9], [0, 1, 1, 1], [1, 3, 4, 5]]
    dense = [[Fraction(scale * x) for x in row] for row in base]
    M = oracle.from_dense(QQ, dense)
    assert rank(M) == 3
    assert list(kernel_basis(M)) == oracle.kernel(dense, 4)
    assert solve_in_image(M, {0: scale, 1: 2 * scale, 3: scale}) == {0: Fraction(1)}
    assert solve_in_image(M, {0: 1}) is None


def test_prime_with_lower_rank_or_later_pivots():
    """Modulo the first prime p, [[1, 1], [1, 1 + p]] has rank 1, and
    [[1, 1, 0], [1, 1 + p, 1]] has pivots (0, 2) instead of (0, 1)."""
    p = _first_primes(1)[0]
    low = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + p)]]
    assert rank(oracle.from_dense(QQ, low)) == 2
    assert list(kernel_basis(oracle.from_dense(QQ, low))) == []
    late = [[Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(1 + p), Fraction(1)]]
    M = oracle.from_dense(QQ, late)
    assert list(kernel_basis(M)) == oracle.kernel(late, 3)
    # modulo p the solution would be e0, which misses the second entry
    assert solve_in_image(M, {0: 1, 1: 1 + p}) == {1: Fraction(1)}


def test_kernel_entries_beyond_one_prime(monkeypatch):
    """Kernel entries of more than 40 bits need CRT over several primes."""
    a, b = 2 ** 41 + 15, 3 ** 27 + 2
    dense = [[Fraction(a), Fraction(-b), Fraction(0)],
             [Fraction(0), Fraction(b), Fraction(-7 * a)]]
    M = oracle.from_dense(QQ, dense)
    primes = linalg._primes
    used = []
    monkeypatch.setattr(linalg, "_primes", lambda: (used.append(p) or p for p in primes()))
    vecs = list(kernel_basis(M))
    assert len(used) >= 3
    assert vecs == oracle.kernel(dense, 3)
    assert vecs == [{2: Fraction(1), 0: Fraction(7), 1: Fraction(7 * a, b)}]
    assert rank(M) == 2
    assert solve_in_image(M, {0: a, 1: b}) == {0: Fraction(a + b, a), 1: Fraction(1)}


def test_every_prime_eliminates_every_row(monkeypatch):
    """The rows of test_kernel_entries_beyond_one_prime and their sum: the
    kernel needs several primes, and each of them eliminates all three
    rows, also the dependent one, in bottom-up order."""
    a, b = 2 ** 41 + 15, 3 ** 27 + 2
    dense = [[a, -b, 0], [0, b, -7 * a], [a, 0, -7 * a]]
    M = oracle.from_dense(QQ, dense)
    calls = []
    echelon = linalg._echelon

    def recorded(rows, p, stop=None):
        calls.append(rows)
        return echelon(rows, p, stop)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    assert list(kernel_basis(M)) == oracle.kernel(dense, 3)
    assert len(calls) >= 2
    assert all(rows == linalg._rows(M) for rows in calls)


def test_dropped_prime_is_not_mixed(monkeypatch):
    """The kernel entry b/a needs two primes; modulo the middle one of
    three the row vanishes.  Dropping it certifies from the other two,
    mixing it into the reconstruction would spoil every entry."""
    p0, p1, p2 = _first_primes(3)
    monkeypatch.setattr(linalg, "_primes", lambda: iter([p0, p1, p2]))
    a, b = 2 ** 25 + 1, 3 ** 16 + 4
    M = oracle.from_dense(QQ, [[Fraction(p1 * a), Fraction(-p1 * b)]])
    assert list(kernel_basis(M)) == [{1: Fraction(1), 0: Fraction(b, a)}]


def test_rational_returns_the_negated_entry():
    """Modulo the prime m = 2003, with bound 31 (2 * 31^2 < m), each
    residue is a/b for at most one reduced a/b with |a|, b <= 31;
    `_rational` returns -a/b for it, an int when b = 1 and otherwise a
    Fraction, and None for a residue that has none."""
    m = 2003
    bound = isqrt(m // 2)
    fractions = {a * pow(b, -1, m) % m: Fraction(a, b)
                 for a in range(-bound, bound + 1) for b in range(1, bound + 1) if gcd(a, b) == 1}
    assert len(fractions) < m
    for u in range(m):
        x = linalg._rational(u, m, bound)
        if u not in fractions:
            assert x is None, u
            continue
        assert x == -fractions[u], u
        if fractions[u].denominator == 1:
            assert type(x) is int, u
        else:
            assert type(x) is Fraction and gcd(x.numerator, x.denominator) == 1, u


def test_certification_error_when_primes_run_out(monkeypatch):
    """Modulo 3 the pivots of [[3, 1, 0], [6, 2, 1]] are wrong and the
    exact check fails; with no prime left the engine must say so."""
    monkeypatch.setattr(linalg, "_primes", lambda: iter([3]))
    M = oracle.from_dense(QQ, [[3, 1, 0], [6, 2, 1]])
    with pytest.raises(CertificationError):
        rank(M)


def _echelon_replacing_pivot_rows(rows, p):
    """A defective echelon: a row whose leading column is already a pivot
    replaces that pivot row instead of being reduced by it."""
    pivots = {}
    for src in rows:
        row = {c: v % p for c, v in src.items() if v % p}
        if row:
            inv = pow(row[min(row)], -1, p)
            pivots[min(row)] = {j: x * inv % p for j, x in row.items()}
    return pivots


def _alarm(signum, frame):
    raise TimeoutError("the certified elimination did not end")


def solve_in_the_image(M):
    return solve_in_image(M, {0: 1, 1: 2, 2: 3})


def solve_outside_the_image(M):
    return solve_in_image(M, {0: 1})


@pytest.mark.parametrize("call", [rank, kernel_basis, solve_in_the_image,
                                  solve_outside_the_image])
def test_defective_echelon_raises_within_hadamards_bound(call, monkeypatch):
    """Every prime gives the same wrong pivot row, so the exact check
    fails prime after prime.  The RREF entries of a correct elimination
    are bounded by the Hadamard bound, here H = 1 * sqrt(2) * sqrt(5)
    (for a solve, that of [M | v]), so a failure once the modulus
    exceeds 2 H^2 must raise instead of walking every prime below 2^30.
    A solve eliminates [M | v] and checks each of its kernel vectors,
    whether v = M (1, 1) is in the image or e_0 is not."""
    monkeypatch.setattr(linalg, "_echelon", _echelon_replacing_pivot_rows)
    M = oracle.from_dense(QQ, [[1, 0], [1, 1], [2, 1]])
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with pytest.raises(CertificationError):
            call(M)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_real_cell_against_bareiss():
    D = differential_matrix(preset("l1"), 4, 30, QQ)
    dense = oracle.to_dense(D)
    assert rank(D) == oracle.rank_int(oracle.integer_rows(dense), D.cols)
    assert kernel_basis(D) == oracle.kernel(dense, D.cols)


# --- elimination over F_p against the dense oracle ---------------------------

PRIMES = [2, 3, 5, 97, 2 ** 31 - 1]


@st.composite
def fp_matrices(draw, max_rows=6, max_cols=6, primes=PRIMES):
    """A prime from `primes` and a random small matrix of residues: plain,
    or a product of two factors of small inner size, so that kernels are
    common also for large p."""
    p = draw(st.sampled_from(primes))
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))

    def residues(rows, cols):
        return draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        return p, residues(m, n)
    inner = draw(st.integers(1, 3))
    a, b = residues(m, inner), residues(inner, n)
    return p, [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@settings(max_examples=100, deadline=None)
@given(fp_matrices())
def test_fp_rank_and_kernel_match_oracle(case):
    p, dense = case
    n = len(dense[0])
    M = oracle.from_dense(PrimeField(p), dense)
    assert rank(M) == oracle.rref_fp([r[:] for r in dense], n, p)[0]
    assert list(kernel_basis(M)) == oracle.kernel(dense, n, p)


@settings(max_examples=100, deadline=None)
@given(fp_matrices(), st.data())
def test_fp_solve_in_image_matches_oracle(case, data):
    p, dense = case
    m, n = len(dense), len(dense[0])
    residue = st.integers(0, p - 1)
    if data.draw(st.booleans()):
        # a vector in the image, possibly zero
        u0 = [data.draw(residue) for _ in range(n)]
        rhs = [sum(x * y for x, y in zip(row, u0)) % p for row in dense]
    else:
        rhs = [data.draw(residue) for _ in range(m)]
    sol = solve_in_image(oracle.from_dense(PrimeField(p), dense),
                         {r: x for r, x in enumerate(rhs) if x})
    assert (sol is not None) == oracle.in_image(dense, n, rhs, p)
    if sol is not None:
        assert [sum(row[c] * x for c, x in sol.items()) % p for row in dense] == rhs


def test_largest_fp_cell_against_dense_rref():
    """l1 (3, 46) over F_(2^31 - 1), the largest cell of the F_p tables."""
    p = 2 ** 31 - 1
    D = differential_matrix(preset("l1"), 3, 46, PrimeField(p))
    expected = oracle.kernel(oracle.to_dense(D), D.cols, p)
    assert rank(D) == D.cols - len(expected)
    assert kernel_basis(D) == expected


# --- row order ---------------------------------------------------------------

@st.composite
def permuted_matrices(draw):
    """A field (Q, F_3 or F_(2^31 - 1)), a random small matrix over it and
    a permutation of its rows."""
    field = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(2 ** 31 - 1)]))
    if field.characteristic == 0:
        dense = draw(rational_matrices())
    else:
        dense = draw(fp_matrices(primes=[field.characteristic]))[1]
    return field, dense, draw(st.permutations(range(len(dense))))


@settings(max_examples=120, deadline=None)
@given(permuted_matrices(), st.data())
def test_results_do_not_depend_on_row_order(case, data):
    field, dense, perm = case
    n = len(dense[0])
    M = oracle.from_dense(field, dense)
    # the same rows in another order: row i of P is row perm[i] of M
    P = oracle.from_dense(field, [dense[r] for r in perm])
    at = {r: i for i, r in enumerate(perm)}
    assert rank(P) == rank(M)
    assert linalg._kernel(P)[0] == linalg._kernel(M)[0]
    assert list(kernel_basis(P)) == list(kernel_basis(M))
    if data.draw(st.booleans()):
        # a vector in the image, possibly zero
        v = oracle.product(M, {c: field.of(data.draw(st.integers(-3, 3))) for c in range(n)})
    else:
        v = {r: field.of(data.draw(st.integers(-3, 3))) for r in range(len(dense))}
        v = {r: x for r, x in v.items() if not field.is_zero(x)}
    sols = [solve_in_image(M, v), solve_in_image(P, {at[r]: x for r, x in v.items()})]
    assert (sols[0] is None) == (sols[1] is None)
    for sol in sols:
        if sol is not None:
            assert oracle.product(M, sol) == v


# --- the capped pass --------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(permuted_matrices(), st.integers(0, 3))
def test_capped_rank_equals_the_rank(case, extra):
    """The capped pass with the tight promise b = rank M reaches b, on
    every row order; with a looser one its count is at most rank M, and
    equal to it over F_p."""
    field, dense, perm = case
    M = oracle.from_dense(field, dense)
    P = oracle.from_dense(field, [dense[r] for r in perm])
    r = rank(M)
    assert rank(P) == r
    for X in (M, P):
        assert capped_pass(X, r) == (r, r)
        found, bound = capped_pass(X, r + 1 + extra)
        assert found <= r <= bound
        if field.characteristic:
            assert found == r


@pytest.mark.parametrize("dense,scaled,r", [
    ([[2, -3, 0, 5], [0, 4, 1, 0], [2, 1, 1, 5], [0, 0, 7, -1]], None, 3),
    # one fractional row among int rows: only it is scaled, by its lcm 6
    ([[2, -3, 0, 5], [Fraction(1, 2), Fraction(2, 3), 0, 1], [0, 4, 1, 0], [0, 0, 7, -1]],
     [[2, -3, 0, 5], [3, 4, 0, 6], [0, 4, 1, 0], [0, 0, 7, -1]], 4),
])
def test_rows_over_q_scale_only_fractional_rows(dense, scaled, r):
    M = oracle.from_dense(QQ, dense)
    rows = linalg._rows(M)
    expected = sorted(sorted((c, x) for c, x in enumerate(row) if x) for row in scaled or dense)
    assert sorted(sorted(row.items()) for row in rows) == expected
    assert all(type(x) is int for row in rows for x in row.values())
    assert capped_pass(M, 4)[0] == rank(M) == oracle.rank_int(oracle.integer_rows(dense), 4) == r


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, PrimeField(5)]), st.data())
def test_stored_rows_equal_the_regrouped_entries(field, data):
    """The matrix is stored by rows, each listing its columns in
    ascending order whatever the order of the entries `from_entries`
    gathered into them: `entries` reads those entries back, transposing
    keeps the order and gives them again, and `_rows`, a sort of the
    stored rows, equals the regroup of `entries` by row that the engine
    used before, row order included."""
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    scalar = st.builds(field.of, st.integers(-3, 3), st.integers(1, 3))
    entries = data.draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                                        scalar))
    entries = dict(data.draw(st.permutations(list(entries.items()))))
    nonzero = {key: v for key, v in entries.items() if not field.is_zero(v)}
    M = oracle.from_entries(field, m, n, entries)
    assert M.entries == nonzero and M.is_zero() == (not nonzero)
    assert all(M.by_row.values())
    T = M.transpose()
    assert T.entries == {(c, r): v for (r, c), v in nonzero.items()}
    assert T.transpose().entries == nonzero
    rows = linalg._rows(M)
    for A in (M, T, T.transpose()):
        assert all(list(row) == sorted(row) for row in A.by_row.values())
    assert all(list(row) == sorted(row) for row in rows)
    assert rows == oracle.regrouped_rows(M)
    assert all(type(v) is int for row in rows for v in row.values())
    assert M.entries == nonzero


def _same_regroup(rows):
    """`_triangular_first`, which reads each row's first and last key,
    returns the same rows in the same order as the regroup on each row's
    min and max, and every row once."""
    regrouped = linalg._triangular_first(rows)
    assert list(map(id, regrouped)) == list(map(id, oracle.triangular_first(rows)))
    assert sorted(map(id, regrouped)) == sorted(map(id, rows))


@settings(max_examples=60, deadline=None)
@given(permuted_matrices())
def test_triangular_first_returns_every_row_once(case):
    field, dense, perm = case
    _same_regroup(linalg._rows(oracle.from_dense(field, [dense[r] for r in perm])))


def _zero_rows_before_the_last_pivot(M, at_most, monkeypatch):
    """capped_pass(M, at_most) with `_echelon` recorded: the rows its
    pass got that reduced to zero before the last row that gave a pivot.
    The rows that gave a pivot are those of the heap echelon on the same
    rows, which has the same pivots."""
    passes = []
    echelon = linalg._echelon

    def recorded(rows, p, stop=None):
        passes.append((rows, p, stop))
        return echelon(rows, p, stop)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    assert capped_pass(M, at_most) == (at_most, at_most)
    (rows, p, stop), = passes
    kept = {id(row) for row in oracle.heap_echelon(rows, p, stop)[1]}
    last = max(i for i, row in enumerate(rows) if id(row) in kept)
    return sum(id(row) not in kept for row in rows[:last])


@pytest.mark.parametrize("field, q, k", [(PrimeField(2 ** 31 - 1), 3, 46), (QQ, 4, 40)],
                         ids=["l1-3-46-fp", "l1-4-40-qq"])
def test_capped_pass_meets_few_zero_rows_before_its_last_pivot(field, q, k, monkeypatch):
    """The capped pass takes the triangular blocks first, regrouped as on
    each row's min and max; in bottom-up order alone it met 327 and 164
    zero rows here."""
    l1 = preset("l1")
    d = differential_matrix(l1, q, k, field)
    _same_regroup(linalg._rows(d))
    at_most = d.cols - rank(differential_matrix(l1, q - 1, k, field))
    assert _zero_rows_before_the_last_pivot(d, at_most, monkeypatch) <= 10


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=repr)
def test_full_passes_keep_the_bottom_up_order(field, monkeypatch):
    """Only the capped pass regroups its rows: a full pass meets every
    row, and there the regrouping would only add fill-in."""
    M = differential_matrix(preset("l1"), 3, 30, field)
    v = {0: field.one}
    augmented = oracle.from_entries(field, M.rows, M.cols + 1,
                                    {**M.entries, (0, M.cols): field.one})
    calls = []
    echelon = linalg._echelon

    def recorded(rows, p, stop=None):
        calls.append(rows)
        return echelon(rows, p, stop)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    for call, bottom_up in ((kernel_basis, linalg._rows(M)), (rank, linalg._rows(M)),
                            (lambda M: solve_in_image(M, v), linalg._rows(augmented))):
        calls.clear()
        call(M)
        # every pass, over Q at every prime, takes all the rows in this order
        assert calls and all(rows == bottom_up for rows in calls)


# --- the accumulator kernel against the heap echelon --------------------------

def _same_echelon(rows, p, stop=None):
    assert linalg._echelon(rows, p, stop) == oracle.heap_echelon(rows, p, stop)[0]


@st.composite
def sparse_integer_rows(draw, p):
    """Sparse integer rows and a stop: entries up to 2^80 in size, some
    of them 0 mod p, and some rows integer combinations of earlier ones,
    which reduce to zero."""
    ncols = draw(st.integers(1, 16))
    entry = st.one_of(st.integers(-2 ** 80, 2 ** 80), st.integers(-3, 3),
                      st.integers(-2, 2).map(lambda x: x * p))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in row.items() if v})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, ncols - 1), entry,
                                             min_size=1, max_size=5)))
    return rows, draw(st.one_of(st.none(), st.integers(0, ncols)))


def test_echelon_stops_before_the_first_row_at_stop_zero():
    """The stop is tested before each row is taken, so stop=0 takes none."""
    rows = [{0: 1, 1: 2}, {1: 1}, {2: 5}]
    assert linalg._echelon(rows, 7, 0) == {}
    assert len(linalg._echelon(rows, 7, 1)) == 1
    assert len(linalg._echelon(rows, 7)) == 3


@pytest.mark.parametrize("p", [3, 5, 2 ** 31 - 1, next(linalg._primes())])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_echelon_equals_the_heap_echelon(p, data):
    rows, stop = data.draw(sparse_integer_rows(p))
    _same_echelon(rows, p, stop)


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=repr)
def test_echelon_equals_the_heap_echelon_on_l1(field):
    rows = linalg._rows(differential_matrix(preset("l1"), 3, 30, field))
    _same_echelon(rows, field.characteristic or next(linalg._primes()))
