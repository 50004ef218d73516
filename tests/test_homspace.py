"""The hom engine, one sparse system over 1D fibres, against a dense
naturality-system oracle."""

import gc
import hashlib
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (Context, Field, GridBox, HomSpace, PersModule, Rectangle,
                         RectDecomp, candy_wrap, check_candy, concat, direct_sum, end_algebra, end_dim,
                         gen4, hom_basis, hom_dim, interval_decompose_1d, iso_certificate, min3, min3_rect,
                         rect_to_module, stack, try_split)
from persistgrid import homspace, rectangles, verify
from persistgrid.grid import ModMorphism, vsucc
from persistgrid.io import pmod_to_json
from persistgrid.linalg import Matrix
from persistgrid.rectangles import hom_leq
from persistgrid.sampling import rand_module, rand_rect_decomp
from persistgrid.verify import DECOMPOSABLE

from oracles import is_matching, materialize_by_iso, rank_by_first_nonzero, rect_sum

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
    return total - rank_by_first_nonzero(A)


def dense_express(ctx, M, N, g):
    """1D coordinates (0, i, j) by the dense formula: invN . g . isoM
    composed at every vertex, then read at each source summand's birth."""
    if M.is_zero() or N.is_zero():
        return {}
    I, J = ctx.intervals1(M), ctx.intervals1(N)
    DM, DN = rect_sum(I, M.box), rect_sum(J, N.box)
    isoM = ModMorphism(rect_to_module(DM), M, I.basis)
    invN = ModMorphism(N, rect_to_module(DN), {v: b.inverse() for v, b in J.basis.items()})
    h = invN.compose(g).compose(isoM)
    out = {}
    for i, A in enumerate(DM.summands):
        col = DM.indices_at(A.b).index(i)
        rows = DN.indices_at(A.b)
        mat = h.comp(A.b)
        for j, B in enumerate(DN.summands):
            if hom_leq(A, B):
                c = mat.rows[rows.index(j)][col]
                if c != 0:
                    out[(0, i, j)] = c
    return out


def materialized(ctx, M, N, x):
    """The morphism M -> N whose components Context.materialize gives for x."""
    return ModMorphism(M, N, ctx.materialize(M, N, x))


def check_pair(M, N, rng):
    ctx = Context()
    hs = ctx.hom(M, N)
    assert hs.dim == dense_hom_dim(M, N)
    # the columns are the int triples (t, i, j) with (i, j) a hom pair of
    # fibre t's records, in ascending order, and the basis lives on them
    (IM, _), (IN, _) = ctx.fibres(M), ctx.fibres(N)
    cols = [(t, i, j) for t, (I, J) in enumerate(zip(IM, IN)) for i, j in I.hom_pairs(J)]
    assert len(cols) == hs.ncols and cols == sorted(cols)
    assert all(type(a) is int for key in cols for a in key)
    assert set(hs.pivot_keys).union(*hs.basis) <= set(cols)
    for b in hs.basis:
        g = materialized(ctx, M, N, b)
        assert g.validate()
        back = ctx.express(M, N, g.comps)
        assert back == b
    assert hs.dim == len(hs.basis)  # dim came from the rank, before the basis was solved
    # random element round-trips through coordinates, and an entry no basis
    # element has puts a vector outside the span
    x = hs.random_element(rng)
    coords = hs.coords_in_basis(x)
    assert coords is not None and homspace.combine(M.field, zip(coords, hs.basis)) == x
    assert hs.coords_in_basis({**x, "outside": M.field.one}) is None


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
    # and a 4D pair, the fibres then being two layers deep
    f = [F2, Q][seed % 2]
    box = GridBox((0, 0, 0, 0), (1, 1, 1, 1))
    M = rand_module(rng, f, box, max_dim=2)
    N = rand_module(rng, f, box, max_dim=2)
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
        gs += [materialized(ctx, A, B, hs.random_element(rng)) for _ in range(3)]
        for g in gs:
            assert ctx.express(A, B, g.comps) == dense_express(ctx, A, B, g)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_materialize_matches_iso_conjugation(seed):
    """materialize's components are the composite of whole morphisms
    through the rectangle modules of the fibres' interval decompositions, on
    1D and 2D pairs, on zero modules, and on the zero element."""
    rng = random.Random(seed)
    f = [Q, F2, F3][seed % 3]
    box = [GridBox((0,), (4,)), GridBox((0, 0), (2, 2))][seed // 3 % 2]
    M = rand_module(rng, f, box, max_dim=2)
    N = rand_module(rng, f, box, max_dim=2)
    Z = PersModule(f, box, {}, {})
    ctx = Context()
    for A, B in ((M, N), (N, M), (M, M), (Z, M), (M, Z)):
        hs = ctx.hom(A, B)
        for x in [{}, *hs.basis, hs.random_element(rng), hs.random_element(rng)]:
            assert materialized(ctx, A, B, x) == materialize_by_iso(ctx, A, B, x)


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
        lhs = materialized(ctx, L, N, z)
        rhs = materialized(ctx, M, N, y).compose(materialized(ctx, L, M, x))
        for v in L.dims:
            if N.dim(v):
                assert lhs.comp(v) == rhs.comp(v)


def copy_of(M):
    """An equal module that is a distinct object."""
    return PersModule(M.field, M.box, dict(M.dims), dict(M.steps))


def test_each_module_is_decomposed_and_each_hom_built_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(homspace, "interval_decompose_1d", counted("decompose", homspace.interval_decompose_1d))
    monkeypatch.setattr(rectangles.Intervals, "hom_pairs", counted("pairs", rectangles.Intervals.hom_pairs))
    monkeypatch.setattr(HomSpace, "_build", counted("build", HomSpace._build))
    box = GridBox((0,), (3,))
    M1 = rect_to_module(RectDecomp(F3, box, [Rectangle((0,), (2,)), Rectangle((1,), (3,))]))
    ctx = Context()
    H1 = ctx.hom(M1, M1)
    assert ctx.hom(M1, M1) is H1
    ident = ctx.express(M1, M1, ModMorphism.identity(M1).comps)
    assert materialized(ctx, M1, M1, ident).validate()
    materialized(ctx, M1, M1, H1.basis[0])
    assert calls == {"decompose": 1, "pairs": 1, "build": 1}
    # an equal copy is a module of its own, with an equal hom space
    M2 = copy_of(M1)
    assert M2 is not M1 and M2 == M1
    H2 = ctx.hom(M2, M2)
    assert H2 is not H1 and H2.M is M2
    assert (H2.dim, H2.basis, H2.pivot_keys) == (H1.dim, H1.basis, H1.pivot_keys)
    # three equal layers in a stack: one decomposition and one pair list
    # per fibre, and one system over the fibres with no layer HomSpace
    calls.clear()
    layers = [copy_of(M1) for _ in range(3)]
    links = [ModMorphism(a, b, {v: Matrix.identity(F3, d) for v, d in a.dims.items()})
             for a, b in zip(layers, layers[1:])]
    S = stack(layers, links)
    assert Context().hom(S, S).dim == dense_hom_dim(S, S)
    assert calls == {"decompose": 3, "pairs": 3, "build": 1}
    # three equal 2D layers in a 3D stack: nine fibres, still one system
    calls.clear()
    layers = [copy_of(S) for _ in range(3)]
    links = [ModMorphism(a, b, {v: Matrix.identity(F3, d) for v, d in a.dims.items()})
             for a, b in zip(layers, layers[1:])]
    T = stack(layers, links)
    assert T.n == 3 and Context().hom(T, T).dim == dense_hom_dim(T, T)
    assert calls == {"decompose": 9, "pairs": 9, "build": 1}


def test_context_keeps_alive_only_the_modules_it_was_given():
    """The layers a fibre walk slices are dropped once it has read them."""

    def live():
        gc.collect()
        return sum(isinstance(o, PersModule) for o in gc.get_objects())

    T = rand_module(random.Random(3), F3, GridBox((0, 0, 0), (2, 1, 1)), max_dim=2)
    ctx = Context()
    before = live()
    assert ctx.hom(T, T).dim == dense_hom_dim(T, T)
    assert live() == before


def test_verbs_map_between_the_callers_modules(monkeypatch):
    """hom_basis, iso_certificate's witness and the endomorphisms try_split
    tries have the modules the caller passed as source and target, not an
    equal module the Context saw first."""
    box = GridBox((0, 0), (1, 1))
    M1 = rect_to_module(RectDecomp(Q, box, [Rectangle((0, 0), (1, 1)), Rectangle((0, 0), (1, 0))]))
    M2, M3 = copy_of(M1), copy_of(M1)
    ctx = Context()
    ctx.hom(M1, M1)
    basis = hom_basis(M2, M3, ctx)
    assert basis and all(g.source is M2 and g.target is M3 for g in basis)
    witness = iso_certificate(M2, M3, ctx=ctx).witness
    assert witness.source is M2 and witness.target is M3
    tried = []
    original = verify._try_element

    def spy(M, a, rng):
        tried.append(a)
        return original(M, a, rng)

    monkeypatch.setattr(verify, "_try_element", spy)
    assert try_split(M2, ctx=ctx).status == DECOMPOSABLE
    assert tried and all(a.source is M2 and a.target is M2 for a in tried)


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_hom_engine_builds_no_rectangle_module(seed):
    """end_dim, hom_basis, try_split and iso_certificate read only the
    cached interval records, with their chain bases and inverses: none of
    them builds a rectangle module."""
    original = rectangles.rect_to_module
    built = []

    def counted(R):
        built.append(R)
        return original(R)

    rng = random.Random(seed)
    f = [Q, F2, F3][seed % 3]
    M = rand_module(rng, f, GridBox((0, 0), (2, 2)), max_dim=2)
    M1 = rand_module(rng, f, GridBox((0,), (3,)), max_dim=2)
    ctx = Context()
    holders = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "persistgrid" and getattr(m, "rect_to_module", None) is original]
    try:
        for m in holders:
            m.rect_to_module = counted
        assert end_dim(M, ctx) == dense_hom_dim(M, M)
        basis = hom_basis(M, M, ctx)
        try_split(M, seed=seed, ctx=ctx)
        iso_certificate(M, M, seed=seed, ctx=ctx)
        try_split(M1, seed=seed, ctx=ctx)
        assert iso_certificate(M1, M1, ctx=ctx).isomorphic is True
    finally:
        for m in holders:
            m.rect_to_module = original
    assert holders and built == []
    assert len(basis) == dense_hom_dim(M, M)
    for g in basis:
        assert g.validate()
    # the materialized basis is linearly independent
    flat = Matrix(f, [[x for v in sorted(M.dims) for row in g.comp(v).rows for x in row] for g in basis])
    assert flat.rank() == len(basis)


def test_dim_solves_no_top_level_kernel(monkeypatch):
    """The rank gives dim: check_candy on a 2D candy and try_split on an
    end_dim-1 min3 output solve no kernel, since their layers are 1D and a
    1D layer's hom columns are read off the interval records.  try_split on
    a 2D V + V reads the basis of End(V + V) and solves its kernel once."""
    kernels = []
    original = homspace.nullspace_sparse

    def spy(rows, ncols, field):
        kernels.append(ncols)
        return original(rows, ncols, field)

    monkeypatch.setattr(homspace, "nullspace_sparse", spy)
    V = rand_module(random.Random(3), F1009, GridBox((0,), (3,)), max_dim=2)
    C = candy_wrap(V)
    assert C.module.n == 2 and check_candy(C.module, C.ul, C.lr).ok
    M = min3(rand_rect_decomp(random.Random(0), F1009, 1, 5, hi=4)).M
    assert M.n == 2 and try_split(M).reason == "end_dim = 1"
    assert kernels == []
    W = rand_module(random.Random(3), F1009, GridBox((0, 0), (2, 1)), max_dim=2)
    assert try_split(direct_sum(W, W)).status == DECOMPOSABLE
    assert len(kernels) == 1


def test_dim_paths_build_no_per_layer_objects(monkeypatch):
    """end_dim of a 2D candy, check_candy and try_split on an end_dim-1
    min3 output read their 1D layers' interval records only: they build no
    Rectangle, no RectDecomp and no HomSpace for a 1D layer."""
    V = rand_module(random.Random(3), F1009, GridBox((0,), (3,)), max_dim=2)
    C = candy_wrap(V)
    M = min3(rand_rect_decomp(random.Random(0), F1009, 1, 5, hi=4)).M
    built = Counter()

    def counted(cls, name, of):
        original = cls.__dict__[name]

        def wrapper(self, *args):
            built[of(self, *args)] += 1
            return original(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(Rectangle, "__post_init__", lambda r: "Rectangle")
    counted(RectDecomp, "__init__", lambda D, *args: "RectDecomp")
    counted(HomSpace, "__init__", lambda H, A, B, ctx: f"{A.n}D HomSpace")
    assert end_dim(C.module) == 1
    assert check_candy(C.module, C.ul, C.lr).ok
    assert try_split(M).reason == "end_dim = 1"
    assert built == {"2D HomSpace": 3}


@pytest.mark.parametrize("f", [F1009, Q], ids=str)
def test_elder_rule_runs_only_on_fibres_with_a_non_matching_step(f, monkeypatch):
    """The canonical maps of a candy and of gen4 give only 0/1 matchings
    along axis 0 when the input's steps are matchings, so end_dim runs no
    elder-rule pass there; a random V + V has steps that are not."""
    fibres = []
    original = rectangles._elder_rule

    def spy(M):
        fibres.append(M)
        return original(M)

    monkeypatch.setattr(rectangles, "_elder_rule", spy)
    V = rand_module(random.Random(0), f, GridBox((0,), (3,)), max_dim=2)
    assert all(map(is_matching, V.steps.values()))
    assert end_dim(candy_wrap(V).module) == end_dim(gen4(V).M) == 1
    assert fibres == []
    W = rand_module(random.Random(1), f, GridBox((0, 0), (2, 1)), max_dim=2)
    end_dim(direct_sum(W, W))
    assert fibres and not any(all(map(is_matching, M.steps.values())) for M in fibres)


def matching_fibre(rng, f, hi) -> PersModule:
    """A random 1D module on [0, hi] whose steps are 0/1 partial injections."""
    dims = {(x,): d for x in range(hi + 1) if (d := rng.randint(0, 3))}
    steps = {}
    for (x,), d in dims.items():
        if (e := dims.get((x + 1,))) is not None:
            m = Matrix.zero(f, e, d)
            for c, r in zip(range(d), rng.sample(range(e), e)):
                if rng.random() < 0.8:
                    m.rows[r][c] = f.one
            steps[((x,), 0)] = m
    return PersModule(f, GridBox((0,), (hi,)), dims, steps)


@pytest.mark.parametrize("f", [F2, F1009, Q], ids=str)
def test_row_coords_match_the_inverse_formula(f):
    """Between two records of matchings, coords reads entries of g: the same
    coordinates, keys and key order as mapping each chain vector at its
    birth and applying the inverse of the target's chain basis there."""
    rng = random.Random(11)
    values = [f.zero, f.one, f.of(2), f.of(-1)] + ([Fraction(1, 2), Fraction(-3, 4)] if f.is_rational else [])
    for _ in range(40):
        hi, at = rng.randint(0, 5), (rng.randint(0, 2),)
        M, N = matching_fibre(rng, f, hi), matching_fibre(rng, f, hi)
        I, J = interval_decompose_1d(M), interval_decompose_1d(N)
        assert I.rows is not None and J.rows is not None
        g = {v + at: Matrix(f, [[rng.choice(values) for _ in range(d)] for _ in range(N.dims[v])])
             for v, d in M.dims.items() if v in N.dims and rng.random() < 0.9}
        expected = {}
        for i, (b, d) in enumerate(zip(I.births, I.deaths)):
            gv, live = g.get((b,) + at), J.at.get((b,))
            if gv is None or live is None:
                continue
            y = J.basis[(b,)].inverse().mul_vec(gv.mul_vec(I.chains[i][b]))
            expected.update(((i, j), c) for j, c in zip(live, y) if c != 0 and J.deaths[j] <= d)
        assert list(I.coords(J, g, at).items()) == list(expected.items())


def materialize_by_conjugation(ctx, M, N, x) -> dict:
    """Context.materialize by the conjugation formula on every fibre:
    basisN[v] @ X_v @ basisM[v]^-1, with X the components realize gives
    between the two interval decompositions.  Fibre t is the t-th vertex
    suffix v[1:] of the box, the last axis slowest."""
    (IM, _), (IN, _) = ctx.fibres(M), ctx.fibres(N)
    lo, hi = M.box.lo, M.box.hi
    suffixes = sorted(product(*map(range, lo[1:], (h + 1 for h in hi[1:]))), key=lambda s: s[::-1])
    axis0 = GridBox(lo[:1], hi[:1])
    comps = {}
    for t in sorted({key[0] for key in x}):
        I, J = IM[t], IN[t]
        xt = {(i, j): c for (u, i, j), c in x.items() if u == t}
        for v, X in rectangles.realize(rect_sum(I, axis0), rect_sum(J, axis0), xt).items():
            comps[v + suffixes[t]] = J.basis[v] @ X @ I.basis[v].inverse()
    return comps


def matching_modules(rng, f) -> list:
    """Candy, gen4 and min3 outputs and rectangle modules, 1D to 4D, whose
    fibres are all records of matchings."""
    R1, R2, R3 = (rand_rect_decomp(rng, f, n, 3 - n // 2, hi=4 - n) for n in (1, 2, 3))
    V1, V2, V3 = map(rect_to_module, (R1, R2, R3))
    return [V1, V3, candy_wrap(V1).module, candy_wrap(V2).module, candy_wrap(V3).module, min3(R1).M,
            min3_rect(R2).M, min3_rect(R3).M, gen4(V1).M, gen4(V2).M]


@pytest.mark.parametrize("f", [F2, F1009, Q], ids=str)
def test_entries_between_matching_records_match_the_conjugation_formula(f, monkeypatch):
    """materialize writes each coordinate as entries: the components, their
    key order and its refusal of a nonzero coordinate outside the hom space
    are those of the conjugation formula, and it reads a chain basis or its
    inverse only on a record without rows, so never between two records of
    matchings."""
    rng = random.Random(17)
    read = []
    basis, inverse = rectangles.Intervals.__dict__["basis"], rectangles.Intervals.inverse
    monkeypatch.setattr(rectangles.Intervals, "basis",
                        property(lambda I: read.append(I) or basis.__get__(I, rectangles.Intervals)))
    monkeypatch.setattr(rectangles.Intervals, "inverse", lambda I, v: read.append(I) or inverse(I, v))
    # a step that is no matching, and a candy of it, whose fibres mix both kinds
    W = PersModule(f, GridBox((0,), (2,)), {(0,): 2, (1,): 1, (2,): 1},
                   {((0,), 0): Matrix.from_ints(f, [[1, 1]]), ((1,), 0): Matrix.identity(f, 1)})
    pairs = [(M, B) for M in [*matching_modules(rng, f), W, candy_wrap(W).module] for B in (M, direct_sum(M, M))]
    entries = plains = reads = 0
    for A, B in pairs:
        for C, D in ((A, B), (B, A)):
            ctx = Context()
            hs = ctx.hom(C, D)
            (IC, _), (ID, _) = ctx.fibres(C), ctx.fibres(D)
            for x in [*hs.basis[:4], hs.random_element(rng), hs.random_element(rng)]:
                read.clear()
                got = ctx.materialize(C, D, x)
                fibres = {key[0] for key in x}
                plain = {t for t in fibres if IC[t].rows is None or ID[t].rows is None}
                assert all(I.rows is None for I in read)
                assert {id(I) for I in read} <= {id(I) for t in plain for I in (IC[t], ID[t])}
                assert list(got.items()) == list(materialize_by_conjugation(ctx, C, D, x).items())
                entries, plains, reads = entries + len(fibres) - len(plain), plains + len(plain), reads + len(read)
            # a nonzero coordinate outside the hom space, on each fibre pair that has one
            for t, (I, J) in enumerate(zip(IC, ID)):
                zero = [(i, j) for i in range(len(I.births)) for j in range(len(J.births))
                        if (i, j) not in I.hom_pairs(J)]
                if zero:
                    x = {(t, *zero[0]): f.one}
                    with pytest.raises(ValueError) as want:
                        materialize_by_conjugation(ctx, C, D, x)
                    with pytest.raises(ValueError, match=re.escape(str(want.value))):
                        ctx.materialize(C, D, x)
    assert entries > 0 and plains > 0 and reads > 0


def test_int_and_fraction_entries_give_equal_hom_spaces():
    """Q values are ints when integral, but an integral Fraction is equal
    and hashes alike, so a module holding one has the same hom space and
    the same PMOD bytes."""
    box = GridBox((0,), (2,))

    def module(two):
        steps = {((0,), 0): Matrix(Q, [[two, 0]]), ((1,), 0): Matrix(Q, [[Fraction(1, 2)]])}
        return PersModule(Q, box, {(0,): 2, (1,): 1, (2,): 1}, steps)

    A, B = module(Fraction(2)), module(2)
    ctx = Context()
    HA, HB = ctx.hom(A, A), ctx.hom(B, B)
    assert (HA.dim, HA.basis) == (HB.dim, HB.basis)
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
    ctx = Context()
    g = materialized(ctx, L, L, ctx.hom(L, L).random_element(rng))
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


@pytest.mark.parametrize("f", [F1009, Q], ids=str)
def test_engine_matches_oracle_on_benchmark_candies(f):
    """The candy shapes the benchmark verifies, over its fields: the concat
    of two 2D candies and the 3D candy of a 2 x 1 module."""
    rng = random.Random(7)
    A, B = (candy_wrap(rand_module(rng, f, GridBox((0,), (1,)), max_dim=2)) for _ in range(2))
    V = rand_module(rng, f, GridBox((0, 0), (1, 0)), max_dim=1)
    for M in (concat(A, B).module, candy_wrap(V).module):
        check_pair(M, M, rng)
        assert end_dim(M) == dense_hom_dim(M, M) == 1


def solved_coords(E, x):
    """Coordinates of x over E.basis from the dense system whose rows are
    the keys the basis elements use and whose columns are the elements."""
    f = E.M.field
    keys = list(dict.fromkeys(k for b in E.basis for k in b))
    A = Matrix(f, [[b.get(k, f.zero) for b in E.basis] for k in keys])
    return [row[0] for row in A.solve(Matrix(f, [[x.get(k, f.zero)] for k in keys])).rows]


@pytest.mark.parametrize("f", [F2, F1009, Q], ids=str)
@pytest.mark.parametrize("box", [GridBox((0,), (4,)), GridBox((0, 0), (2, 2)), GridBox((0, 0, 0), (1, 1, 1))],
                         ids=["1d", "2d", "3d"])
@given(seed=st.integers(0, 2**31))
@settings(max_examples=3, deadline=None)
def test_basis_elements_have_pivot_keys(f, box, seed):
    """Basis element k is 1 at pivot_keys[k] and every other element is 0
    there, so coordinates read at the keys give back any combination, and
    end_algebra's table equals the one solved densely."""
    rng = random.Random(seed)
    M = rand_module(rng, f, box, max_dim=2)
    N = rand_module(rng, f, box, max_dim=2)
    MM = direct_sum(M, M)
    ctx = Context()
    for A, B in ((M, M), (M, N), (MM, MM)):
        E = ctx.hom(A, B)
        assert len(E.pivot_keys) == len(E.basis) == E.dim
        for k, key in enumerate(E.pivot_keys):
            assert [b.get(key, f.zero) for b in E.basis] == [f.one if j == k else f.zero for j in range(E.dim)]
        c = [f.rand(rng) for _ in E.basis]
        assert E.coords_in_basis(homspace.combine(f, zip(c, E.basis))) == c
    alg = end_algebra(MM, ctx)
    E = alg.space
    assert alg.identity == solved_coords(E, ctx.express(MM, MM, ModMorphism.identity(MM).comps))
    assert alg.mult_table == [[solved_coords(E, ctx.compose(MM, MM, MM, x, y)) for y in E.basis] for x in E.basis]


def hom_record(ctx, A, B) -> str:
    """The column count, dim, basis, pivot keys and materialized hom basis
    of Hom(A, B), as one string, dict orders included."""
    E = ctx.hom(A, B)
    comps = [[(v, m.rows) for v, m in g.comps.items()] for g in hom_basis(A, B, ctx)]
    return repr((E.ncols, E.dim, E.basis, E.pivot_keys, comps))


# sha256 of the hom_record of M -> M, M -> N and M+M -> M+M and of the
# end_algebra(M+M) tables, for rand_module seeds 0-9 (M and N drawn in turn
# from random.Random(seed), dims <= 2), recorded before the hom engine moved
# onto interval records; the 3D entries re-recorded when one system over 1D
# fibres replaced the layer-by-layer one, which moved only the column count
# and the order of the entries inside each basis element; all re-recorded
# when the keys became flat (t, i, j) triples, which in the old nested form
# (i_{n-1}, (..., (i_1, (i, j)))) hash to the earlier pins
BASIS_PINS = {
    "1d-F2": "9e49a36fbd65b93bfd3169bb8927b93ccbc3c12665f731a3f74099d1d6033ade",
    "1d-F1009": "21d806a2238ba7eb43d2bde910e8b5602eb56cb49311133f65b99f0f2ed567f5",
    "1d-Q": "c4c1b9215489f3dbce8d0a284db7f3d51820ea322be8e9cb0e19e54a8273052f",
    "2d-F2": "35070e7255ea9c5d87c3bc00ac7ef2ab04621fbdbaa559170b89ef71c3e920bf",
    "2d-F1009": "50481b955c57e5578fcda000087c6ba2b5de52558ba169cac0d0780682a242cd",
    "2d-Q": "2a9942885d26fba21ac9cb916d044baaebfc865a928e7e510721ec6487c02f8d",
    "3d-F2": "7d4f33d1e57def1b1453f4fe9ea76ed2e916a0b797fede4f85516cbd75e6868e",
    "3d-F1009": "a5951a67405ad994e69d45932c52d7bab50441963fb9577f23af3413e5f764e4",
    "3d-Q": "5549c7a5282e7f20a957256ee5d5202d50413522953ba6f0f58a5123fc2bdc48",
}


@pytest.mark.parametrize("f", [F2, F1009, Q], ids=str)
@pytest.mark.parametrize("box", [GridBox((0,), (4,)), GridBox((0, 0), (2, 2)), GridBox((0, 0, 0), (1, 1, 1))],
                         ids=["1d", "2d", "3d"])
def test_bases_are_pinned(f, box, request):
    h = hashlib.sha256()
    for seed in range(10):
        rng = random.Random(seed)
        M = rand_module(rng, f, box, max_dim=2)
        N = rand_module(rng, f, box, max_dim=2)
        MM = direct_sum(M, M)
        ctx = Context()
        for A, B in ((M, M), (M, N), (MM, MM)):
            h.update(hom_record(ctx, A, B).encode())
        alg = end_algebra(MM, ctx)
        h.update(repr((alg.identity, alg.mult_table)).encode())
    assert h.hexdigest() == BASIS_PINS[request.node.callspec.id]


# sha256 of what does not depend on the column order or on the order of the
# keys inside a basis element: dim and the materialized hom_basis components
# (dict order included) of M -> M, M -> N, N -> M and M+M -> M+M, the
# end_algebra identity and table of M and of M+M, and the try_split(M+M,
# seed=7) JSON, for rand_module seeds 0-9 (dims <= 2)
CANONICAL_PINS = {
    "1d-F2": "69cc2e7444d6b8f12fceea3eaf304c4d5d693a80869191c052f326e2ed3f9dc4",
    "1d-F1009": "d5c98caa236e46fef09f664fdd70e062e8149a0b6be9ac01e454d6f13ec546a4",
    "1d-Q": "d55bfe46f3c5256352ec56062e72bea7028bf119df4f3417fd16b841d9296794",
    "2d-F2": "6d29b51ef1f165e76ca1839bcd87ca620db884b6b220b0cd13154639e2d2900d",
    "2d-F1009": "ab6db7b0c39c53a40358130943c352bdadfcfb74a0727d0b4be4ba8c39f60f70",
    "2d-Q": "1c5b87df9fa93badc3578aef93afa3c4fd0fd06fd483b1fc012ae711f3d4e0bf",
    "3d-F2": "7580094e884c74fa2d33b5f525ff43bdc9d5bd6897db7f86a5b5e9a783e94972",
    "3d-F1009": "f948111b18be470d88eadbef4a2072dd277b323a673c0b7e699fe742eadda5c2",
    "3d-Q": "1c7314f97d6f75b8c9ebee9a9aee206b11d476f0fc664e25fd5162262c689b7d",
    "4d-F2": "3b5c4c9fa8df03d3360523d27a0bfd925a21c577f7fe1e8905f725a489821d4c",
    "4d-F1009": "3d2eb1c496bb48abf70be0e5cc20b9b556a4caea768bcb432088579839466606",
    "4d-Q": "0005738e0f41e187ef86fb1c459b07954af986d6c3271e5fcffeed03fbd21a87",
}


@pytest.mark.parametrize("f", [F2, F1009, Q], ids=str)
@pytest.mark.parametrize("box", [GridBox((0,), (4,)), GridBox((0, 0), (2, 2)), GridBox((0, 0, 0), (1, 1, 1)),
                                 GridBox((0, 0, 0, 0), (1, 1, 1, 1))], ids=["1d", "2d", "3d", "4d"])
def test_canonical_bases_are_pinned(f, box, request):
    h = hashlib.sha256()
    for seed in range(10):
        rng = random.Random(seed)
        M = rand_module(rng, f, box, max_dim=2)
        N = rand_module(rng, f, box, max_dim=2)
        MM = direct_sum(M, M)
        ctx = Context()
        for A, B in ((M, M), (M, N), (N, M), (MM, MM)):
            comps = [[(v, m.rows) for v, m in g.comps.items()] for g in hom_basis(A, B, ctx)]
            h.update(repr((ctx.hom(A, B).dim, comps)).encode())
        for A in (M, MM):
            alg = end_algebra(A, ctx)
            h.update(repr((alg.identity, alg.mult_table)).encode())
        h.update(json.dumps(try_split(MM, seed=7, ctx=ctx).to_json(), sort_keys=True).encode())
    assert h.hexdigest() == CANONICAL_PINS[request.node.callspec.id]
