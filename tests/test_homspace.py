"""The recursive hom engine against a dense naturality-system oracle."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (Context, Field, GridBox, HomSpace, PersModule, Rectangle,
                         RectDecomp, candy_wrap, end_dim, hom_basis, hom_dim,
                         rect_to_module, stack)
from persistgrid import homspace, rectangles
from persistgrid.grid import ModMorphism, vsucc
from persistgrid.io import pmod_to_json
from persistgrid.linalg import Matrix
from persistgrid.rectangles import hom_leq
from persistgrid.sampling import rand_module

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F1009 = Field.prime(1009)


def dense_hom_dim(M, N):
    """Solve every naturality square as one dense linear system."""
    f = M.field
    n = M.n
    offs = {}
    total = 0
    for v in sorted(M.dims):
        if N.dim(v):
            offs[v] = total
            total += N.dim(v) * M.dim(v)
    if total == 0:
        return 0
    rows = []
    for v in M.dims:
        for k in range(n):
            w = vsucc(v, k)
            if not M.box.contains(w) or N.dim(w) == 0:
                continue
            sN = N.step(v, k) if N.dim(v) else None
            sM = M.step(v, k) if M.dim(w) else None
            for r in range(N.dim(w)):
                for c in range(M.dim(v)):
                    row = [f.zero] * total
                    if sN is not None and v in offs:
                        for j in range(N.dim(v)):
                            row[offs[v] + j * M.dim(v) + c] = sN.rows[r][j]
                    if sM is not None and w in offs:
                        for j in range(M.dim(w)):
                            base = offs[w] + r * M.dim(w)
                            row[base + j] = f.sub(row[base + j], sM.rows[j][c])
                    rows.append(row)
    if not rows:
        return total
    A = Matrix(f, rows)
    return total - A.rank()


def dense_express(ctx, M, N, g):
    """1D coordinates by the dense formula: invN . g . isoM composed at every
    vertex, then read at each source summand's birth."""
    if M.is_zero() or N.is_zero():
        return {}
    DM, isoM = ctx.decomp1(M)
    DN, isoN = ctx.decomp1(N)
    h = isoN.inverse().compose(g).compose(isoM)
    out = {}
    for i, A in enumerate(DM.summands):
        col = DM.indices_at(A.b).index(i)
        rows = DN.indices_at(A.b)
        mat = h.comp(A.b)
        for j, B in enumerate(DN.summands):
            if hom_leq(A, B):
                c = mat.rows[rows.index(j)][col]
                if c != 0:
                    out[(i, j)] = c
    return out


def check_pair(M, N, rng):
    ctx = Context()
    hs = ctx.hom(M, N)
    assert hs.dim == dense_hom_dim(M, N)
    for b in hs.basis:
        g = hs.materialize(b)
        assert g.validate()
        back = hs.express(g)
        assert back == b
    # random element round-trips through coordinates
    x = hs.random_element(rng)
    coords = hs.coords_in_basis(x)
    assert coords is not None


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_engine_matches_oracle_1d(seed):
    rng = random.Random(seed)
    f = [Q, F2, F3][seed % 3]
    box = GridBox((0,), (4,))
    M = rand_module(rng, f, box, max_dim=2)
    N = rand_module(rng, f, box, max_dim=2)
    check_pair(M, N, rng)


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_engine_matches_oracle_2d(seed):
    rng = random.Random(seed)
    f = [Q, F2][seed % 2]
    box = GridBox((0, 0), (2, 2))
    M = rand_module(rng, f, box, max_dim=2)
    N = rand_module(rng, f, box, max_dim=2)
    check_pair(M, N, rng)
    assert end_dim(M) == dense_hom_dim(M, M)


@given(st.integers(0, 2**31))
@settings(max_examples=8, deadline=None)
def test_engine_matches_oracle_3d(seed):
    rng = random.Random(seed)
    box = GridBox((0, 0, 0), (1, 1, 1))
    M = rand_module(rng, F2, box, max_dim=2)
    N = rand_module(rng, F2, box, max_dim=2)
    check_pair(M, N, rng)
    assert end_dim(M) == dense_hom_dim(M, M)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_express_matches_dense_formula(seed):
    rng = random.Random(seed)
    f = [Q, F1009][seed % 2]
    box = GridBox((0,), (5,))
    M = rand_module(rng, f, box, max_dim=3)
    N = rand_module(rng, f, box, max_dim=3, nonzero=seed % 7 != 0)
    ctx = Context()
    for A, B in ((M, N), (M, M), (N, M)):
        hs = ctx.hom(A, B)
        gs = [ModMorphism.zero(A, B)] + hom_basis(A, B, ctx)
        gs += [hs.materialize(hs.random_element(rng)) for _ in range(3)]
        for g in gs:
            assert ctx.express(A, B, g) == dense_express(ctx, A, B, g)


def test_spec_interval_hom_dims():
    box = GridBox((0,), (2,))
    I01 = rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (1,))]))
    I12 = rect_to_module(RectDecomp(Q, box, [Rectangle((1,), (2,))]))
    assert hom_dim(I01, I01) == 1
    assert hom_dim(I01, I12) == 0
    assert hom_dim(I12, I01) == 1
    both = rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (1,)), Rectangle((1,), (2,))]))
    assert end_dim(both) == 3  # two identities plus one cross map


def test_composition_consistency(rng):
    ctx = Context()
    # fixed 1D input: the composite of the nonzero canonical homs
    # [2,5] -> [1,3] -> [0,1] vanishes, because the source birth 2 follows
    # the target death 1, so the product rule drops that term
    box = GridBox((0,), (5,))
    L, M, N = (rect_to_module(RectDecomp(F3, box, [Rectangle((b,), (d,))]))
               for b, d in ((2, 5), (1, 3), (0, 1)))
    x, y = ctx.hom(L, M).basis[0], ctx.hom(M, N).basis[0]
    assert ctx.compose(L, M, N, y, x) == {}
    cases = [(L, M, N, x, y)]
    box = GridBox((0, 0), (2, 1))
    for _ in range(10):
        L = rand_module(rng, F3, box, max_dim=2)
        M = rand_module(rng, F3, box, max_dim=2)
        N = rand_module(rng, F3, box, max_dim=2)
        cases.append((L, M, N, ctx.hom(L, M).random_element(rng), ctx.hom(M, N).random_element(rng)))
    for L, M, N, x, y in cases:
        z = ctx.compose(L, M, N, y, x)
        lhs = ctx.materialize(L, N, z)
        rhs = ctx.materialize(M, N, y).compose(ctx.materialize(L, M, x))
        for v in L.dims:
            if N.dim(v):
                assert lhs.comp(v) == rhs.comp(v)


def copy_of(M):
    """An equal module that is a distinct object."""
    return PersModule(M.field, M.box, dict(M.dims), dict(M.steps))


def test_equal_modules_share_one_decomposition_and_one_hom(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(homspace, "interval_decompose_1d", counted("decompose", homspace.interval_decompose_1d))
    monkeypatch.setattr(HomSpace, "_build", counted("build", HomSpace._build))
    box = GridBox((0,), (3,))
    M1 = rect_to_module(RectDecomp(F3, box, [Rectangle((0,), (2,)), Rectangle((1,), (3,))]))
    M2 = copy_of(M1)
    assert M2 is not M1 and M2 == M1
    ctx = Context()
    assert ctx.decomp1(M1)[1] is ctx.decomp1(M2)[1]
    assert ctx.hom(M1, M1) is ctx.hom(M2, M2) is ctx.hom(M1, M2)
    assert calls == {"decompose": 1, "build": 1}
    # one changed entry makes a different module with its own work
    M3 = copy_of(M1)
    M3.steps[((1,), 0)] = Matrix(F3, [[2, 0], [0, 1]])
    assert ctx.hom(M3, M3) is not ctx.hom(M1, M1)
    assert calls == {"decompose": 2, "build": 2}
    # three equal layers in a stack: one decomposition, one layer hom
    calls.clear()
    layers = [copy_of(M1) for _ in range(3)]
    links = [ModMorphism(a, b, {v: Matrix.identity(F3, d) for v, d in a.dims.items()})
             for a, b in zip(layers, layers[1:])]
    S = stack(layers, links)
    assert Context().hom(S, S).dim == dense_hom_dim(S, S)
    assert calls == {"decompose": 1, "build": 2}


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_end_dim_builds_no_rectangle_module(seed):
    """end_dim reads only the cached decompositions and chain bases; the
    rectangle modules are built when a morphism is materialized."""
    original = rectangles.rect_to_module
    built = []

    def counted(R):
        built.append(R)
        return original(R)

    rng = random.Random(seed)
    f = [Q, F2, F3][seed % 3]
    M = rand_module(rng, f, GridBox((0, 0), (2, 2)), max_dim=2)
    ctx = Context()
    holders = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "persistgrid" and getattr(m, "rect_to_module", None) is original]
    try:
        for m in holders:
            m.rect_to_module = counted
        assert end_dim(M, ctx) == dense_hom_dim(M, M)
        assert built == []
        basis = hom_basis(M, M, ctx)
    finally:
        for m in holders:
            m.rect_to_module = original
    assert built
    assert len(basis) == dense_hom_dim(M, M)
    for g in basis:
        assert g.validate()
    # the materialized basis is linearly independent
    flat = Matrix(f, [[x for v in sorted(M.dims) for row in g.comp(v).rows for x in row] for g in basis])
    assert flat.rank() == len(basis)


def test_int_and_fraction_entries_share_one_representative():
    """Q values are ints when integral, but an integral Fraction is equal
    and hashes alike, so a module holding one is the same content."""
    box = GridBox((0,), (2,))

    def module(two):
        steps = {((0,), 0): Matrix(Q, [[two, 0]]), ((1,), 0): Matrix(Q, [[Fraction(1, 2)]])}
        return PersModule(Q, box, {(0,): 2, (1,): 1, (2,): 1}, steps)

    A, B = module(Fraction(2)), module(2)
    ctx = Context()
    assert ctx.hom(A, A) is ctx.hom(B, B)
    assert json.dumps(pmod_to_json(A)) == json.dumps(pmod_to_json(B))


@given(st.integers(0, 2**31))
@settings(max_examples=6, deadline=None)
def test_engine_matches_oracle_on_repeated_layers(seed):
    rng = random.Random(seed)
    f = [F2, F3, Q][seed % 3]
    L = rand_module(rng, f, GridBox((0,), (3,)), max_dim=2)
    # equal layers as distinct objects, linked by identities and by one
    # random endomorphism
    layers = [copy_of(L) for _ in range(4)]
    E = Context().hom(L, L)
    g = E.materialize(E.random_element(rng))
    links = [ModMorphism(a, b, {v: Matrix.identity(f, d) for v, d in a.dims.items()})
             for a, b in zip(layers, layers[1:])]
    links[1] = ModMorphism(layers[1], layers[2], g.comps)
    S = stack(layers, links)
    check_pair(S, S, rng)
    assert end_dim(S) == dense_hom_dim(S, S)


@given(st.integers(0, 2**31))
@settings(max_examples=3, deadline=None)
def test_engine_matches_oracle_on_candies(seed):
    rng = random.Random(seed)
    f = [F2, F3][seed % 2]
    V = rand_module(rng, f, GridBox((0,), (1,)), max_dim=2)
    M = candy_wrap(V).module
    check_pair(M, M, rng)
    assert end_dim(M) == dense_hom_dim(M, M) == 1
