"""Dense exact matrices and univariate polynomials over a `Field`.

Everything here is deterministic and exact: no pivot choice depends on
magnitudes.  There is one row reduction, `_eliminate`, with one pivot
rule: the sparsest unused row, the lowest index on ties.  `Matrix.rref`,
`rank`, `solve`, `inverse` and the column-space pivot rows, every kernel
(`nullspace_sparse`, the split kernels of `verify` included) and every
sparse rank (`rank_sparse`) run it.  The rref is unique, so the pivot rows
read off it do not depend on which rows were chosen, nor does the kernel
basis: x_j = 1 at one free column j and 0 at the others, free columns in
increasing order.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .fields import Field


class Matrix:
    """A dense rows x cols matrix with entries in a common field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        m = Matrix.__new__(Matrix)
        m.field, m.nrows, m.ncols = field, nrows, ncols
        m.rows = [[z] * ncols for _ in range(nrows)]
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zero(field, n, n)
        one = field.one
        for i in range(n):
            m.rows[i][i] = one
        return m

    @staticmethod
    def from_ints(field: Field, rows) -> "Matrix":
        return Matrix(field, [[field.of(x) for x in r] for r in rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows})"

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))  # zero is the only falsy scalar

    def is_identity(self) -> bool:
        """Square, with row i one at i and zero, the only falsy scalar, elsewhere."""
        one = self.field.one
        return self.nrows == self.ncols and all(
            r[i] == one and not any(r[:i]) and not any(r[i + 1:]) for i, r in enumerate(self.rows))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        f = self.field
        out = Matrix.zero(f, self.nrows, other.ncols)
        orows = other.rows
        for i, arow in enumerate(self.rows):
            acc = out.rows[i]
            for k, a in enumerate(arow):
                if a == 0:
                    continue
                brow = orows[k]
                for j, b in enumerate(brow):
                    if b != 0:
                        acc[j] = f.add(acc[j], f.mul(a, b))
        return out

    def mul_vec(self, v: list) -> list:
        f = self.field
        out = []
        for row in self.rows:
            s = f.zero
            for a, b in zip(row, v):
                if a != 0 and b != 0:
                    s = f.add(s, f.mul(a, b))
            out.append(s)
        return out

    def transpose(self) -> "Matrix":
        out = Matrix.zero(self.field, self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                out.rows[j][i] = v
        return out

    @staticmethod
    def block_diag(field: Field, mats: list["Matrix"]) -> "Matrix":
        nr = sum(m.nrows for m in mats)
        nc = sum(m.ncols for m in mats)
        out = Matrix.zero(field, nr, nc)
        r0 = c0 = 0
        for m in mats:
            for i in range(m.nrows):
                out.rows[r0 + i][c0 : c0 + m.ncols] = list(m.rows[i])
            r0 += m.nrows
            c0 += m.ncols
        return out

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        col_idx = list(col_idx)
        rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return Matrix(self.field, rows) if rows else Matrix.zero(self.field, 0, len(col_idx))

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        f = self.field
        work, pivot_of_col = _eliminate(map(enumerate, self.rows), f, True)
        R = Matrix.zero(f, self.nrows, self.ncols)
        for row, pi in zip(R.rows, pivot_of_col.values()):
            for c, v in work[pi].items():
                row[c] = v
        return R, list(pivot_of_col)

    def rank(self) -> int:
        return len(_eliminate(map(enumerate, self.rows), self.field, False)[1])

    def column_space_pivot_rows(self) -> list[int]:
        """Rows holding pivots in the column echelon form (= pivot cols of Aᵀ)."""
        return list(_eliminate(map(enumerate, zip(*self.rows)), self.field, False)[1])

    def solve(self, b: "Matrix"):
        """One exact solution X of self @ X = b, or None if inconsistent."""
        f = self.field
        n = self.ncols
        work, pivot_of_col = _eliminate((enumerate(r + s) for r, s in zip(self.rows, b.rows, strict=True)), f, True)
        if pivot_of_col and max(pivot_of_col) >= n:
            return None
        X = Matrix.zero(f, n, b.ncols)
        for pc, pi in pivot_of_col.items():
            row = X.rows[pc]
            for c, v in work[pi].items():
                if c >= n:
                    row[c - n] = v
        return X

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        # a square system A X = I is consistent only when A is invertible
        X = self.solve(Matrix.identity(self.field, self.nrows))
        if X is None:
            raise ValueError("matrix is singular")
        return X

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


def _eliminate(rows, f: Field, full: bool):
    """Row reduction of rows given as iterables of (col, value) pairs,
    column by column: among the unused rows holding the column, the
    sparsest wins, the lowest index on ties, which keeps banded systems
    banded.  Returns (work, pivot_of_col), work[i] the reduced row i as a
    dict and pivot_of_col in increasing column order.  With full, the rows
    already used as pivots are reduced too, so the pivot rows are the
    rref's; without, they are left as they were.  The unused rows evolve
    the same either way, so the pivots do not depend on full.
    """
    sub, mul, neg, one = f.sub, f.mul, f.neg, f.one
    work = [{c: v for c, v in r if v} for r in rows]  # zero is the only falsy scalar
    col_rows: dict[int, set[int]] = {}
    unused = set()
    for i, r in enumerate(work):
        if r:
            unused.add(i)
        for c in r:
            if c in col_rows:
                col_rows[c].add(i)
            else:
                col_rows[c] = {i}
    pivot_of_col: dict[int, int] = {}
    # a row operation only writes columns the pivot row holds, so no column
    # outside col_rows ever gets an entry
    for col in sorted(col_rows):
        holders = col_rows[col]
        pi, size = None, 0
        for i in holders:
            if i in unused and ((n := len(work[i])) < size or pi is None or n == size and i < pi):
                pi, size = i, n
        if pi is None:
            continue
        unused.remove(pi)
        prow = work[pi]
        # the pivot entry is set aside while the rows holding col are
        # cleared there, so col_rows[col] is not touched while it is read
        if (p := prow.pop(col)) != one:
            s = f.inv(p)
            for c in prow:
                prow[c] = mul(s, prow[c])
        for i in holders:
            if i == pi or not full and i not in unused:
                continue
            r = work[i]
            c0 = r.pop(col)
            for c, v in prow.items():
                if (old := r.get(c)) is None:
                    r[c] = neg(mul(c0, v))
                    col_rows[c].add(i)
                elif (nv := sub(old, mul(c0, v))) != 0:
                    r[c] = nv
                else:
                    del r[c]
                    col_rows[c].discard(i)
        prow[col] = one
        pivot_of_col[col] = pi
    return work, pivot_of_col


def rank_sparse(rows: list[dict], field: Field) -> int:
    """Rank of a sparse matrix given as dict-rows {col: value}: the pivot
    count of the elimination nullspace_sparse runs, here without reducing
    the rows already used as pivots."""
    return len(_eliminate((r.items() for r in rows), field, False)[1])


def nullspace_sparse(rows: list[dict], ncols: int, field: Field) -> list[dict]:
    """Kernel basis of a sparse matrix given as dict-rows {col: value}:
    sparse vectors {col: value}, free columns in increasing order."""
    f = field
    work, pivot_of_col = _eliminate((r.items() for r in rows), f, True)
    basis = []
    for col in range(ncols):
        if col in pivot_of_col:
            continue
        x = {col: f.one}
        for pc, pi in pivot_of_col.items():
            v = work[pi].get(col)
            if v is not None and v != 0:
                x[pc] = f.neg(v)
        basis.append(x)
    return basis


# ---------------------------------------------------------------------------
# univariate polynomials


class Poly:
    """Univariate polynomial, coefficients low degree first, trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def from_ints(field: Field, coeffs) -> "Poly":
        return Poly(field, [field.of(c) for c in coeffs])

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, [field.zero, field.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self):
        return f"Poly({self.field}, {self.coeffs})"

    def _zip(self, other: "Poly"):
        return zip_longest(self.coeffs, other.coeffs, fillvalue=self.field.zero)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.field, [self.field.add(x, y) for x, y in self._zip(other)])

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.field, [self.field.sub(x, y) for x, y in self._zip(other)])

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly(f, [])
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def scale(self, c) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(f, []), Poly(f, rem)
        q = [f.zero] * (dq + 1)
        lead_inv = f.inv(other.coeffs[-1])
        for k in range(dq, -1, -1):
            c = f.mul(rem[k + other.degree], lead_inv)
            if c != 0:
                q[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = f.sub(rem[k + j], f.mul(c, b))
        return Poly(f, q), Poly(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        g = self.gcd(other)
        return ((self * other) // g).monic()

    def derivative(self) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(f.of(i), c) for i, c in enumerate(self.coeffs)][1:])

    def eval_scalar(self, x):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def eval_matrix(self, A: Matrix) -> Matrix:
        f = self.field
        n = A.nrows
        acc = Matrix.zero(f, n, n)
        for c in reversed(self.coeffs):
            acc = acc @ A
            if c != 0:
                for i in range(n):
                    acc.rows[i][i] = f.add(acc.rows[i][i], c)
        return acc

    def powmod(self, e: int, mod: "Poly") -> "Poly":
        """self^e mod mod, e >= 0, by left-to-right powering: square, then multiply by the
        reduced base where e's bit is set, for x^e a product by x.  x^0 is 1, unreduced."""
        base = result = self % mod
        if e == 0:
            return Poly(self.field, [self.field.one])
        for bit in bin(e)[3:]:  # the bits after the leading one
            result = (result * result) % mod
            if bit == "1":
                result = (result * base) % mod
        return result


def minimal_polynomial(A: Matrix) -> Poly:
    """Monic minimal polynomial, by lcm of Krylov annihilators of e_1, e_2, ...

    With m the lcm so far, w = m(A) e_i is annihilated by q = minpoly(e_i) /
    gcd(minpoly(e_i), m), of degree at most n - deg m, so the Krylov columns
    w, Aw, ..., A^(n - deg m) w hold a dependent one.  The first free column
    k of their rref reads A^k w off the earlier columns, which gives q.
    Verified by evaluation before returning.
    """
    if A.nrows != A.ncols:
        raise ValueError("minimal polynomial of a non-square matrix")
    f = A.field
    n = A.nrows
    m = Poly(f, [f.one])
    for i in range(n):
        if m.degree >= n:
            break
        w = [f.zero] * n
        for c in reversed(m.coeffs):  # Horner: w = m(A) e_i
            w = A.mul_vec(w)
            if c != 0:
                w[i] = f.add(w[i], c)
        if not any(w):  # zero is the only falsy scalar
            continue
        krylov = [w]
        for _ in range(n - m.degree):
            krylov.append(A.mul_vec(krylov[-1]))
        R, pivots = Matrix(f, zip(*krylov)).rref()
        k = len(pivots)  # the pivots are the columns 0 .. k-1
        q = Poly(f, [f.neg(R.rows[r][k]) for r in range(k)] + [f.one])
        m = (m * q).monic()
    if not m.eval_matrix(A).is_zero():
        raise AssertionError("minimal polynomial failed verification")
    return m


# ---------------------------------------------------------------------------
# factorization support for coprime splitting


def _equal_degree_split(g: Poly, d: int, rng) -> Poly:
    """Cantor-Zassenhaus: a proper monic factor of g, a product of at least
    two distinct irreducibles of degree d."""
    field = g.field
    p = field.p
    while True:
        r = Poly(field, [field.of(rng.randrange(p)) for _ in range(g.degree)])
        if r.degree < 1:
            continue
        if p == 2:
            t = Poly(field, [])
            acc = r % g
            for _ in range(d):
                t = (t + acc) % g
                acc = (acc * acc) % g
        else:
            t = r.powmod((p**d - 1) // 2, g) - Poly(field, [field.one])
        s = t.gcd(g)
        if 0 < s.degree < g.degree:
            return s


def _primary_part(f: Poly, c: Poly) -> Poly:
    """The part of the monic f that the irreducible factors of c divide."""
    rest = f
    while (t := rest.gcd(c)).degree > 0:
        rest = rest // t
    return f // rest


def _first_yun_part(f: Poly) -> Poly:
    """The first nontrivial part of Yun's squarefree factorization over Q,
    f = lc * prod a_i^i with a_i squarefree and coprime: the monic product
    of f's irreducible factors of least multiplicity."""
    f = f.monic()
    d = f.derivative()
    a = f.gcd(d)
    b, c = f // a, d // a
    while True:  # a_i = 1 leaves b as it is
        c = c - b.derivative()
        if (g := b.gcd(c)).degree > 0:
            return g


# the rational-root search tries p/q for every p | a0 and q | an, found by
# trial division; its cost grows as sqrt(a0 * an), so past this bound on
# a0 * an it is skipped
ROOT_SEARCH_BOUND = 10**12


def _rational_roots(f: Poly) -> list:
    """All rational roots of f (over Q), each listed once, sorted, integral
    ones as ints.  Past ROOT_SEARCH_BOUND only the root 0 is looked for, so
    the caller keeps the rest of f whole."""
    from fractions import Fraction

    if f.degree < 1:
        return []
    denom = math.lcm(*(c.denominator for c in f.coeffs))  # clears denominators
    ints = [int(c * denom) for c in f.coeffs]
    roots = {0} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints = ints[1:]  # factor x out
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 * an <= ROOT_SEARCH_BOUND:
        for p in _divisors(a0):
            for q in _divisors(an):
                for num in (p, -p):
                    cand = Fraction(num, q) if num % q else num // q
                    if f.eval_scalar(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def coprime_split(f: Poly, rng):
    """(g, h, q) with f = g*h (f made monic), g and h monic and coprime, and
    h = 1 when no split is found.  q is the monic irreducible that g is a
    power of, or None when that is not known or g is no prime power.

    Over F_p, c = gcd(x^(p^d) - x, f) is the product of f's distinct
    irreducible factors of degree dividing d, whatever their multiplicity.
    At the first nontrivial c, d = 1 .. deg f / 2, g is the part of f that
    c's factors divide; when that is all of f and c is not irreducible, it
    is the part that one Cantor-Zassenhaus split of c, drawing from rng,
    gives.  No c means f is irreducible.  So h = 1, with q = c, exactly when
    f is a prime power, for every multiplicity.  Over Q only the first Yun
    part and its rational roots are used: q is known only when it is
    linear, and h = 1 means "no split found", not "f is primary".
    """
    if f.degree < 1:  # the zero polynomial has degree -1
        raise ValueError("coprime split needs degree >= 1")
    field = f.field
    f = f.monic()
    if field.is_rational:
        part = _first_yun_part(f)
        roots = _rational_roots(part)
        base, d = Poly(field, [field.neg(roots[0]), field.one]) if roots else part, 1
    else:
        x = Poly.x(field)
        xp, base, d = x, f, f.degree  # f is irreducible when no class is found
        for e in range(1, f.degree // 2 + 1):
            xp = xp.powmod(field.p, f)
            if (c := (xp - x).gcd(f)).degree > 0:
                base, d = c, e
                break
        if base.degree > d and _primary_part(f, base) == f:  # base holds every factor of f
            base = _equal_degree_split(base, d, rng)
    g = _primary_part(f, base)
    h = f // g
    if g.gcd(h).degree > 0:
        raise AssertionError("coprime split produced non-coprime parts")
    return g, h, base if base.degree == d else None
