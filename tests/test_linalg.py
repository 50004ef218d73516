import itertools
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import GridBox, direct_sum, try_split
from persistgrid.fields import Field
from persistgrid.linalg import (Matrix, Poly, _first_yun_part, _rational_roots, coprime_split, minimal_polynomial,
                               nullspace_sparse, rank_sparse)
from persistgrid.sampling import rand_module
from persistgrid.verify import DECOMPOSABLE

from oracles import (factors_by_trial_division, minimal_polynomial_by_powers, powmod_right_to_left,
                     rank_by_first_nonzero, rref_by_first_nonzero, solve_by_first_nonzero)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F1009 = Field.prime(1009)

small_int = st.integers(min_value=-4, max_value=4)


def rand_matrix(field, rng, nr, nc, lo=-3, hi=3):
    m = Matrix.zero(field, nr, nc)
    for r in range(nr):
        for c in range(nc):
            m.rows[r][c] = field.of(rng.randint(lo, hi))
    return m


def test_basic_arithmetic():
    a = Matrix.from_ints(Q, [[1, 2], [3, 4]])
    b = Matrix.from_ints(Q, [[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_ints(Q, [[2, 1], [4, 3]])
    assert (a + b - b) == a
    assert a.transpose().transpose() == a


def test_submatrix_keeps_its_shape():
    a = Matrix.from_ints(Q, [[1, 2], [3, 4]])
    assert a.submatrix([1], range(2)) == Matrix.from_ints(Q, [[3, 4]])
    assert a.submatrix([], range(2)) == Matrix.zero(Q, 0, 2)  # no rows, still two columns
    assert a.submatrix(range(2), []) == Matrix.zero(Q, 2, 0)
    # a 0 x 1 block still takes a column of a block-diagonal matrix
    blocks = [a.submatrix([], [0]), a.submatrix(range(2), [1])]
    assert Matrix.block_diag(Q, blocks) == Matrix.from_ints(Q, [[0, 2], [0, 4]])


def test_rank_and_inverse():
    a = Matrix.from_ints(Q, [[1, 2], [2, 4]])
    assert a.rank() == 1
    b = Matrix.from_ints(Q, [[1, 1], [0, 1]])
    assert b.is_invertible()
    assert b @ b.inverse() == Matrix.identity(Q, 2)
    assert not a.is_invertible()


def test_solve():
    a = Matrix.from_ints(Q, [[2, 0], [0, 3]])
    rhs = Matrix.from_ints(Q, [[1], [1]])
    x = a.solve(rhs)
    assert a @ x == rhs
    # inconsistent system
    sing = Matrix.from_ints(Q, [[1, 1], [1, 1]])
    assert sing.solve(Matrix.from_ints(Q, [[0], [1]])) is None


@given(st.integers(0, 2**31), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_nullspace_sparse_is_the_rref_basis(seed, nrows, ncols):
    """nullspace_sparse pivots on the sparsest row, yet gives exactly the
    basis read off the rref of a first-nonzero pivoting elimination
    (oracles.rref_by_first_nonzero): x_j = 1 at each free column j, in
    increasing order, and -R[r][j] at the pivot column of row r.  Rows may
    list their zero entries or leave them out."""
    rng = random.Random(seed)
    for f in (Q, F2, F5):
        A = rand_matrix(f, rng, nrows, ncols, lo=-2, hi=2)
        for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):  # zero rows
            A.rows[i] = [f.zero] * ncols
        for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):  # zero columns
            for row in A.rows:
                row[j] = f.zero
        R, pivots = rref_by_first_nonzero(A)
        expected = [{j: f.one} | {pc: f.neg(R.rows[r][j]) for r, pc in enumerate(pivots) if R.rows[r][j] != 0}
                    for j in range(ncols) if j not in pivots]
        assert nullspace_sparse([dict(enumerate(row)) for row in A.rows], ncols, f) == expected
        assert nullspace_sparse([{c: v for c, v in enumerate(row) if v != 0} for row in A.rows], ncols, f) == expected


@given(st.integers(0, 2**31), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_nullspace_sparse_matches_dense(seed, nrows, ncols):
    rng = random.Random(seed)
    for f in (Q, F2):
        dense = rand_matrix(f, rng, nrows, ncols, lo=-1, hi=1)
        rows = []
        for r in range(nrows):
            row = {c: dense.rows[r][c] for c in range(ncols) if dense.rows[r][c] != 0}
            rows.append(row)
        sols = nullspace_sparse(rows, ncols, f)
        assert len(sols) == ncols - rank_by_first_nonzero(dense)
        for sol in sols:
            vec = [sol.get(c, f.zero) for c in range(ncols)]
            assert all(x == f.zero for x in dense.mul_vec(vec))
        # solutions are linearly independent
        mat = Matrix.zero(f, ncols, len(sols))
        for j, sol in enumerate(sols):
            for c, v in sol.items():
                mat.rows[c][j] = v
        assert rank_by_first_nonzero(mat) == len(sols)


@given(st.integers(0, 2**31), st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_rank_sparse_is_the_dense_rank(seed, nrows, ncols):
    """rank_sparse, the pivot count of nullspace_sparse's elimination
    without reducing used pivot rows, equals the rank of a first-nonzero
    pivoting elimination (oracles.rank_by_first_nonzero) on sparse matrices
    with zero rows, zero columns and duplicate rows, whether the rows list
    their zero entries or leave them out."""
    rng = random.Random(seed)
    for f in (Q, F2, F5, F1009):
        A = rand_matrix(f, rng, nrows, ncols, lo=-2, hi=2)
        for row in A.rows:  # mostly zeros
            for j in range(ncols):
                if rng.random() < 0.6:
                    row[j] = f.zero
        for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):  # zero rows
            A.rows[i] = [f.zero] * ncols
        for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):  # zero columns
            for row in A.rows:
                row[j] = f.zero
        A = Matrix(f, A.rows + [A.rows[rng.randrange(nrows)] for _ in range(rng.randint(0, 2))])  # duplicates
        rank = rank_by_first_nonzero(A)
        assert rank_sparse([dict(enumerate(row)) for row in A.rows], f) == rank
        assert rank_sparse([{c: v for c, v in enumerate(row) if v != 0} for row in A.rows], f) == rank


@given(st.sampled_from([Q, F2, F5, F1009]), st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_matrix_elimination_matches_the_reference(f, seed, nrows, ncols):
    """Matrix.rref, rank, solve, inverse and column_space_pivot_rows, and
    rank_sparse and nullspace_sparse on rows with and without their zero
    entries, all run the one sparsest-row elimination; each equals what the
    first-nonzero pivoting reference (oracles.rref_by_first_nonzero) gives,
    on square and non-square matrices with zero rows, zero columns and
    duplicate rows, singular ones included."""
    rng = random.Random(seed)
    A = rand_matrix(f, rng, nrows, ncols, lo=-2, hi=2)
    for row in A.rows:  # mostly zeros, sometimes
        for j in range(ncols):
            if rng.random() < 0.4:
                row[j] = f.zero
    for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):  # zero rows
        A.rows[i] = [f.zero] * ncols
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):  # zero columns
        for row in A.rows:
            row[j] = f.zero
    A = Matrix(f, A.rows + [A.rows[rng.randrange(nrows)] for _ in range(rng.randint(0, 2))])  # duplicates
    R, pivots = rref_by_first_nonzero(A)
    assert A.rref() == (R, pivots)
    assert A.rank() == len(pivots)
    assert A.column_space_pivot_rows() == rref_by_first_nonzero(A.transpose())[1]
    for rows in ([dict(enumerate(r)) for r in A.rows], [{c: v for c, v in enumerate(r) if v != 0} for r in A.rows]):
        assert rank_sparse(rows, f) == len(pivots)
        assert nullspace_sparse(rows, ncols, f) == [
            {j: f.one} | {pc: f.neg(R.rows[r][j]) for r, pc in enumerate(pivots) if R.rows[r][j] != 0}
            for j in range(ncols) if j not in pivots]
    x = rand_matrix(f, rng, ncols, 2, lo=-2, hi=2)
    for b in (A @ x, rand_matrix(f, rng, A.nrows, 2, lo=-2, hi=2)):  # consistent, then mostly not
        assert A.solve(b) == solve_by_first_nonzero(A, b)
    k = min(A.nrows, ncols)
    square = A.submatrix(range(k), range(k))
    invertible = rank_by_first_nonzero(square) == k
    assert square.is_invertible() == invertible
    if invertible:
        assert square.inverse() == solve_by_first_nonzero(square, Matrix.identity(f, k))
    else:
        with pytest.raises(ValueError):
            square.inverse()


def _reduced(x) -> bool:
    """An int, or a Fraction that is not an integer."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@given(st.lists(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3), min_size=1, max_size=3),
       st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_q_values_are_ints_or_fractions(rows, seed):
    """Over Q no operation yields a float, and every operation gives ints
    for integers: no value, in eliminations, in the minimal polynomial of an
    integer matrix or in the iso of a V + V split, is a Fraction with
    denominator 1."""
    rng = random.Random(seed)
    flat = [x for row in rows for x in row]
    assert all(_reduced(Q.parse(Q.fmt(x))) and Q.parse(Q.fmt(x)) == x for x in flat)
    assert all(_reduced(Q.parse(x.numerator)) for x in flat)
    assert all(_reduced(Q.inv(x)) and Q.mul(x, Q.inv(x)) == 1 for x in flat if x != 0)
    assert all(type(y) is int for y in (Q.zero, Q.one, Q.of(seed), Q.rand(rng)))
    assert all(type(Q.div(x, y)) in (int, Fraction) for x in flat for y in flat if y != 0)
    A = Matrix(Q, [[Q.parse(Q.fmt(x)) for x in row] for row in rows])
    outs = [A.rref()[0], A.solve(Matrix(Q, [[Q.rand(rng)] for _ in rows]))]
    if A.is_invertible():
        outs.append(A.inverse())
    values = [y for X in outs if X is not None for row in X.rows for y in row]
    values += [y for x in nullspace_sparse([dict(enumerate(row)) for row in A.rows], A.ncols, Q) for y in x.values()]
    B = rand_matrix(Q, rng, 4, 4)
    values += minimal_polynomial(B).coeffs + minimal_polynomial(B @ B).coeffs
    V = rand_module(rng, Q, GridBox((0,), (3,)), max_dim=2)
    verdict = try_split(direct_sum(V, V), seed=seed)
    assert verdict.status == DECOMPOSABLE
    iso = verdict.iso
    values += [y for m in (*iso.comps.values(), *iso.source.steps.values()) for row in m.rows for y in row]
    assert all(_reduced(y) for y in values)


def test_poly_divmod_gcd():
    x = Poly.x(Q)
    f = (x - Poly.from_ints(Q, [1])) * (x - Poly.from_ints(Q, [2]))
    q, r = f.divmod(x - Poly.from_ints(Q, [1]))
    assert r.is_zero()
    assert q == (x - Poly.from_ints(Q, [2]))
    g = f.gcd((x - Poly.from_ints(Q, [2])) * (x - Poly.from_ints(Q, [3])))
    assert g.monic() == (x - Poly.from_ints(Q, [2]))


@st.composite
def powmod_cases(draw):
    """(base, exponent, modulus): base and modulus of degree up to 10, the
    modulus nonzero; over F_p the exponent is also p or (p^d - 1)/2, the
    powers of Frobenius and of Cantor-Zassenhaus."""
    f = draw(st.sampled_from([F2, F3, F1009, Q]))
    coeffs = st.lists(st.integers(-20, 20).map(f.of), max_size=11)
    base, mod = Poly(f, draw(coeffs)), Poly(f, draw(coeffs.filter(lambda cs: any(cs))))
    exps = st.integers(0, 2000)
    if f.p is not None:
        exps = st.one_of(exps, st.just(f.p), st.integers(1, 10).map(lambda d: (f.p**d - 1) // 2))
    return base, draw(exps), mod


@given(powmod_cases())
@settings(max_examples=150, deadline=None)
def test_powmod_matches_right_to_left_powering(case):
    base, e, mod = case
    assert base.powmod(e, mod) == powmod_right_to_left(base, e, mod)


def test_minimal_polynomial():
    a = Matrix.from_ints(Q, [[0, 1], [0, 0]])
    mp = minimal_polynomial(a)
    assert mp == Poly.from_ints(Q, [0, 0, 1])  # x^2
    ident = Matrix.identity(Q, 3)
    assert minimal_polynomial(ident) == Poly.from_ints(Q, [-1, 1])  # x - 1
    diag = Matrix.from_ints(Q, [[1, 0], [0, 2]])
    assert minimal_polynomial(diag).degree == 2


def test_minimal_polynomial_annihilates():
    rng = random.Random(5)
    for f in (Q, F5):
        for _ in range(10):
            a = rand_matrix(f, rng, 3, 3)
            mp = minimal_polynomial(a)
            assert mp.eval_matrix(a).is_zero()


def _jordan_chains(field, lengths, c=0):
    """Jordan chains with eigenvalue c, one of each length, down the diagonal."""
    J = Matrix.zero(field, sum(lengths), sum(lengths))
    start = 0
    for n in lengths:
        for i in range(start, start + n):
            J.rows[i][i] = field.of(c)
            if i + 1 < start + n:
                J.rows[i][i + 1] = field.one
        start += n
    return J


def _non_cyclic(field, rng, n):
    """Matrices of size n, most of them with a minimal polynomial of degree
    below n: zero, scalar, nilpotent and shifted Jordan chains, and one
    random block repeated down the diagonal, each also conjugated by a
    random invertible matrix so that no e_i is special."""
    lengths = []
    while sum(lengths) < n:
        lengths.append(rng.randint(1, n - sum(lengths)))
    b = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    mats = [Matrix.zero(field, n, n), Matrix.identity(field, n), _jordan_chains(field, lengths),
            _jordan_chains(field, sorted(lengths), rng.randint(1, 4)),
            Matrix.block_diag(field, [rand_matrix(field, rng, b, b)] * (n // b))]
    while not (S := rand_matrix(field, rng, n, n, lo=-1, hi=1)).is_invertible():
        pass
    return mats + [S.inverse() @ A @ S for A in mats]


@pytest.mark.parametrize("field", [Q, F2, F3, Field.prime(1009)], ids=repr)
def test_minimal_polynomial_of_non_cyclic_matrices(field):
    # the Krylov columns of each e_i stop at n - deg m, and e_i whose
    # image under m(A) is zero are skipped: both matter only when the
    # minimal polynomial has degree below n
    rng = random.Random(field.p or 0)
    for n in range(1, 13):
        for A in _non_cyclic(field, rng, n):
            assert minimal_polynomial(A) == minimal_polynomial_by_powers(A), (n, A)


def test_first_yun_part_takes_the_least_multiplicity():
    x = Poly.x(Q)

    def lin(c):
        return x - Poly.from_ints(Q, [c])

    x2p1, x2m2 = Poly.from_ints(Q, [1, 0, 1]), Poly.from_ints(Q, [-2, 0, 1])
    cases = [
        (lin(1) * power(x2p1, 2) * power(lin(3), 3), lin(1)),
        (power(x2m2, 2) * power(lin(-5), 2), x2m2 * lin(-5)),
        (power(x2p1, 2) * power(lin(1), 3), x2p1),
        (power(lin(2), 3) * power(lin(-1), 5), lin(2)),
        (power(x, 4), x),
        (power(lin(1), 2) * lin(-2) * Poly.from_ints(Q, [3]), lin(-2)),
    ]
    for f, part in cases:
        assert _first_yun_part(f) == part, f


def power(q, e):
    return reduce(Poly.__mul__, [q] * e, Poly.from_ints(q.field, [1]))


def test_coprime_split_fp_primary_parts():
    # (x - 1)^2 (x - 2) over F_5: x - 1 and x - 2 make the first
    # distinct-degree class, which holds every factor, so one
    # Cantor-Zassenhaus split of it picks x - 2; the square of x - 1 stays
    # whole and is primary
    x = Poly.x(F5)
    one, two = Poly.from_ints(F5, [1]), Poly.from_ints(F5, [2])
    f = (x - one) * (x - one) * (x - two)
    assert coprime_split(f, random.Random(0)) == (x - two, power(x - one, 2), x - two)
    assert coprime_split(power(x - one, 2), random.Random(0)) == (power(x - one, 2), one, x - one)


def test_coprime_split_fp():
    x = Poly.x(F2)
    one = Poly.from_ints(F2, [1])
    f = x * (x - one)
    g, h, q = coprime_split(f, random.Random(0))
    assert h.degree > 0 and g * h == f
    assert g.gcd(h).degree == 0
    # powers of one irreducible cannot split, and the irreducible is known
    assert coprime_split(x * x, random.Random(0)) == (x * x, one, x)


@pytest.mark.parametrize("field, top", [(F2, 6), (F3, 4)])
def test_coprime_split_fp_takes_a_primary_part_of_least_degree(field, top):
    # every monic f of degree 1..top against trial division: h = 1 exactly
    # when f is a prime power, with q its irreducible; otherwise g holds
    # whole primary parts of f, all of f's least factor degree
    rng = random.Random(0)
    for n in range(1, top + 1):
        for low in itertools.product(field.elements(), repeat=n):
            f = Poly(field, [*low, field.one])
            g, h, q = coprime_split(f, rng)
            factors = factors_by_trial_division(f)
            assert g * h == f and g.gcd(h).degree == 0, f
            assert (h.degree == 0) == (len(factors) == 1), f
            if h.degree == 0:
                assert q == factors[0][0], f
            in_g = [(r, e) for r, e in factors if (g % r).is_zero()]
            assert g == reduce(Poly.__mul__, (power(r, e) for r, e in in_g)), f
            assert {r.degree for r, _ in in_g} == {factors[0][0].degree}, f
            assert q is None or g == power(q, in_g[0][1]), f


@pytest.mark.parametrize("field, mults", [(F2, (2, 1)), (F2, (2, 4)), (F3, (3, 1))])
def test_coprime_split_fp_when_p_divides_a_multiplicity(field, mults):
    # x^a (x + 1)^b splits into x^a and (x + 1)^b, in the order the one
    # Cantor-Zassenhaus split of x (x + 1) gives, although f / gcd(f, f')
    # loses every factor whose multiplicity p divides
    x = Poly.x(field)
    a, b = mults
    f = power(x, a) * power(x + Poly.from_ints(field, [1]), b)
    parts = {(2, (2, 1)): ([1, 1], [0, 0, 1]), (2, (2, 4)): ([1, 0, 0, 0, 1], [0, 0, 1]),
             (3, (3, 1)): ([0, 0, 0, 1], [1, 1])}[field.p, mults]
    g, h, q = coprime_split(f, random.Random(0))
    assert (g, h) == tuple(Poly.from_ints(field, c) for c in parts)


def test_coprime_split_q():
    x = Poly.x(Q)
    one = Poly.from_ints(Q, [1])
    f = (x - one) * (x - Poly.from_ints(Q, [2]))
    g, h, q = coprime_split(f, random.Random(0))
    assert h.degree > 0 and g * h == f and q == g
    # x^2 + 1 has no rational root and is squarefree irreducible: inconclusive
    f = Poly.from_ints(Q, [1, 0, 1])
    assert coprime_split(f, random.Random(0)) == (f, one, None)
    # a power of a linear factor does not split, and its root is known
    assert coprime_split(power(x - one, 3), random.Random(0)) == (power(x - one, 3), one, x - one)
    # a linear factor is known past ROOT_SEARCH_BOUND too
    far = x - Poly.from_ints(Q, [10**13])
    assert coprime_split(far * far, random.Random(0)) == (far * far, one, far)


def test_coprime_split_q_root_search_is_bounded():
    # (x^2 - c)(x - 1): the root 1 splits off while the search over the
    # divisors of c stays small; a 30-digit c would take days to search, so
    # the part is kept whole and the split comes back inconclusive at once
    x = Poly.x(Q)
    one = Poly.from_ints(Q, [1])
    for c, splits in ((10**10 + 1, True), (10**30 + 1, False)):
        f = (x * x - Poly.from_ints(Q, [c])) * (x - one)
        t0 = time.perf_counter()
        g, h, q = coprime_split(f, random.Random(0))
        assert time.perf_counter() - t0 < 1.0
        assert (h.degree > 0) == splits and g * h == f
        if splits:
            assert sorted([g.degree, h.degree]) == [1, 2]


def test_rational_roots_keep_zero_past_the_bound():
    # x^3 - (10^13 + 1) x: a0 * an passes ROOT_SEARCH_BOUND once x is
    # factored out, but the root 0 is still found and x splits off
    f = Poly.from_ints(Q, [0, -(10**13 + 1), 0, 1])
    assert _rational_roots(f) == [0]
    g, h, q = coprime_split(f, random.Random(0))
    assert sorted([g.degree, h.degree]) == [1, 2] and g * h == f


def test_rational_roots_integral_as_ints():
    # x (2x + 1)(x - 1) has the roots -1/2, 0 and 1
    x = Poly.x(Q)
    f = x * Poly.from_ints(Q, [1, 2]) * Poly.from_ints(Q, [-1, 1])
    roots = _rational_roots(f)
    assert roots == [Fraction(-1, 2), 0, 1]
    assert [type(r) for r in roots] == [Fraction, int, int]
