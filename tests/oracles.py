"""Test oracles: slow, independent decisions that the library's verdicts
are checked against.

`local_dim` is the trace-form radical over Q; the others enumerate every
endomorphism of a module over a finite field."""

from __future__ import annotations

import itertools

from persistgrid import PersModule, end_algebra, hom_basis
from persistgrid.homspace import Context
from persistgrid.linalg import Matrix


def local_dim(M: PersModule, ctx: Context | None = None) -> int:
    """dim End(M)/rad over the rationals, via the trace-form radical.

    In characteristic zero rad(A) = {x : tr(L_x L_y) = 0 for all y}, so the
    semisimple quotient dimension is the rank of the trace Gram matrix.
    A value of 1 certifies that End(M) is local, hence M indecomposable.
    """
    if not M.field.is_rational:
        raise ValueError("local_dim needs characteristic zero; the trace-form radical is not sound over a prime field")
    alg = end_algebra(M, ctx)
    f = M.field
    d = alg.dim
    lefts = []
    for i in range(d):
        L = Matrix.zero(f, d, d)
        for j in range(d):
            for k in range(d):
                L.rows[k][j] = alg.mult_table[i][j][k]
        lefts.append(L)
    gram = Matrix.zero(f, d, d)
    for i in range(d):
        for j in range(d):
            P = lefts[i] @ lefts[j]
            gram.rows[i][j] = sum((P.rows[t][t] for t in range(d)), f.zero)
    return gram.rank()



def endomorphisms(M: PersModule):
    """Every endomorphism of M over a finite field, as {vertex: matrix}:
    all linear combinations of a hom basis, the zero one first."""
    f = M.field
    basis = hom_basis(M, M, Context())
    for coeffs in itertools.product(f.elements(), repeat=len(basis)):
        comps = {v: Matrix.zero(f, d, d) for v, d in M.dims.items()}
        for c, g in zip(coeffs, basis):
            if c:
                for v in M.dims:
                    comps[v] = comps[v] + Matrix(f, [[f.mul(c, x) for x in row] for row in g.comp(v).rows])
        yield comps


def decomposable_by_idempotents(M: PersModule) -> bool:
    """A nontrivial idempotent endomorphism exists iff M is decomposable."""
    ident = {v: Matrix.identity(M.field, d) for v, d in M.dims.items()}
    for e in endomorphisms(M):
        if e == ident or all(m.is_zero() for m in e.values()):
            continue
        if all(m @ m == m for m in e.values()):
            return True
    return False


def nilpotent_count(M: PersModule) -> int:
    """The number of nilpotent endomorphisms of M; for a local End(M) that
    is the size of its radical."""
    count = 0
    for e in endomorphisms(M):
        powers = dict(e)
        for _ in range(max(M.dims.values())):
            powers = {v: m @ e[v] for v, m in powers.items()}
        count += all(m.is_zero() for m in powers.values())
    return count
