"""grid.coarsen: pulling the coarse module back along its grid's floor
gives the module exactly, keep coordinates stay distinct, a second
coarsening returns the coarse module itself, and End has the same
dimension on both grids.  A refinement of a module (a grid.Compression's stacked layout) coarsens to
the same module, so the builders' corner grids give the CLI the files that
their stacked layouts gave, and the candy gives the files of the paper's
candy: the stacked S' and S'' glued along their copy of V."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (AxisEmbedding, CandyModule, Field, GridBox, PersModule, build_S, build_S_dprime,
                         build_S_prime, candy_wrap, concat, end_dim, gen4, min3, min3_rect, string_candies)
from persistgrid.grid import Compression, candy_corners, coarsen, pad, pullback, vsub, vsucc
from persistgrid.io import pmod_to_json
from persistgrid.linalg import Matrix
from persistgrid.sampling import rand_module, rand_rect_decomp

FIELDS = (Field.prime(2), Field.prime(3), Field.rationals(), Field.prime(1009))


def axis_floor(grid, k, c):
    """The coarse coordinate of c on axis k of grid."""
    return grid.floor(grid.lo[:k] + (c,) + grid.lo[k + 1:])[k]


def fine_box(grid):
    """The box that grid cuts into runs."""
    return GridBox(grid.lo, grid.hi)


def stacked(M, grid):
    """The stacked layout that M on its corner grid stands for."""
    return pullback(M, grid.floor, fine_box(grid))


def stacked_candy(V):
    """The paper's candy of V: the stacked layouts of S'(V) and S''(V),
    which agree on their common copy of V at height 0, glued there, with
    the layer line."""
    P, D = (stacked(r.M, r.meta["grid"]) for r in (build_S_prime(V), build_S_dprime(V)))
    assert {v: d for v, d in P.dims.items() if v[-1] == 0} == {v: d for v, d in D.dims.items() if v[-1] == 0}
    assert all(P.steps[vk] == D.steps[vk] for vk in P.steps.keys() & D.steps.keys())
    M = PersModule(V.field, GridBox.hull([P.box, D.box]), {**P.dims, **D.dims}, {**P.steps, **D.steps})
    return CandyModule(M, *candy_corners(M), AxisEmbedding.layer(V.n, V.n, 0))


def paper_line(L, grid, box, scales):
    """The affine line with the given scales into the stacked layout that
    grid's coarse box stands for, checked to be what L, on that coarse box,
    stands for on box."""
    A = AxisEmbedding([("affine", c, 0) for c in scales], box.n, 0)
    assert grid.down(A, box).hits(box) == L.hits(box)
    return A


def check_coarsen(M, keep):
    """Every property coarsen promises, for M and keep; the coarse module."""
    coarse, grid = coarsen(M, keep)
    assert fine_box(grid) == M.box and grid.coarse == coarse.box
    assert pullback(coarse, grid.floor, fine_box(grid)) == M
    inside = [[c for c in ks if a <= c <= b] for a, b, ks in zip(M.box.lo, M.box.hi, keep)]
    kept = [{axis_floor(grid, k, c) for c in cs} for k, cs in enumerate(inside)]
    assert [len(ks) for ks in kept] == [len(cs) for cs in inside]
    again, grid2 = coarsen(coarse, kept)
    assert again is coarse  # an already-coarsest module is not rebuilt
    assert grid2.coarse == fine_box(grid2) == coarse.box  # every coordinate is a run of its own
    assert grid2.starts == tuple(tuple(range(a, b + 1)) for a, b in zip(coarse.box.lo, coarse.box.hi))
    assert end_dim(coarse) == end_dim(M)
    return coarse


def _kill_slab(M, k, c):
    """M with every vertex of slab c on axis k made zero: still a module,
    since every square touching the slab has its source or far corner there."""
    dims = {v: d for v, d in M.dims.items() if v[k] != c}
    return PersModule(M.field, M.box, dims,
                      {(v, j): m for (v, j), m in M.steps.items() if v in dims and vsucc(v, j) in dims})


def _rebase(M, v, P):
    """M with the basis at v changed by the invertible P: isomorphic to M,
    with the steps into and out of v no longer identities."""
    Pinv = P.inverse()
    steps = {}
    for (u, k), m in M.steps.items():
        m = P @ m if vsucc(u, k) == v else m
        steps[(u, k)] = m @ Pinv if u == v else m
    return PersModule(M.field, M.box, dict(M.dims), steps)


def stretched_module(rng, field):
    """A random module pulled back along a random monotone surjection, so
    that runs of identity steps appear, padded by zero slabs, with one
    zero slab inside, one vertex's basis changed by a near-identity, and
    zero steps left out."""
    n = rng.randint(1, 3)
    box = GridBox((0,) * n, (2 if n < 3 else 1,) * n)
    V = rand_module(rng, field, box, max_dim=2)
    reps = [[rng.randint(1, 3) for _ in range(a, b + 1)] for a, b in zip(box.lo, box.hi)]
    coords = [[c for c, r in zip(range(a, b + 1), rs) for _ in range(r)] for a, b, rs in zip(box.lo, box.hi, reps)]
    fine = GridBox((0,) * n, tuple(len(cs) - 1 for cs in coords))
    M = pullback(V, lambda x: tuple(cs[c] for cs, c in zip(coords, x)), fine)
    M = pad(M, GridBox(tuple(a - 1 for a in fine.lo), tuple(b + 1 for b in fine.hi)))
    k = rng.randrange(n)
    M = _kill_slab(M, k, rng.randint(M.box.lo[k], M.box.hi[k]))
    live = sorted(M.dims)
    if live:
        v = rng.choice(live)
        d = M.dims[v]
        P = Matrix.identity(field, d)
        if d > 1:
            P.rows[0][1] = field.one  # unipotent: the identity but for one entry
        elif field.p != 2:
            P.rows[0][0] = field.of(2)  # a scalar that is not one
        M = _rebase(M, v, P)
    M = PersModule(field, M.box, M.dims, {vk: m for vk, m in M.steps.items() if not m.is_zero()})
    assert M.validate()
    return M


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_random_modules_pull_back(seed):
    rng = random.Random(seed)
    M = stretched_module(rng, FIELDS[seed % 4])
    keep = [{c for c in range(a, b + 1) if rng.random() < 0.2} for a, b in zip(M.box.lo, M.box.hi)]
    check_coarsen(M, keep)


def line_keep(n, lines):
    """The coordinates each (line, box) pair hits on its box, per axis."""
    keep = [set() for _ in range(n)]
    for L, box in lines:
        for k, ys in enumerate(L.hits(box)):
            keep[k].update(ys)
    return keep


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_refinements_coarsen_alike(seed):
    """M pulled back to a finer box along a monotone floor whose fibres
    hold only identities coarsens to M's own coarsening, with the same
    coarse coordinates through floor, when every kept coordinate begins a
    fibre: the fine box has M's lo, and both are numbered from it."""
    rng = random.Random(seed)
    M = stretched_module(rng, FIELDS[seed % 4])
    starts, hi = [], []
    for a, b in zip(M.box.lo, M.box.hi):
        lengths = [rng.randint(1, 3) for _ in range(a, b + 1)]
        starts.append([a + sum(lengths[:i]) for i in range(len(lengths))])
        hi.append(a + sum(lengths) - 1)
    grid = Compression(M.box.lo, tuple(hi), tuple(map(tuple, starts)))
    M = M.translate(vsub(grid.coarse.lo, M.box.lo))  # M on the grid's coarse box
    fine = pullback(M, grid.floor, fine_box(grid))

    keep_fine = [{c for c in ss if rng.random() < 0.3} for ss in starts]
    keep = [{axis_floor(grid, k, c) for c in ks} for k, ks in enumerate(keep_fine)]
    coarse_fine, grid_fine = coarsen(fine, keep_fine)
    coarse, grid_coarse = coarsen(M, keep)
    assert pmod_to_json(coarse_fine) == pmod_to_json(coarse)
    for k, (a, b) in enumerate(zip(fine.box.lo, fine.box.hi)):
        assert all(axis_floor(grid_fine, k, c) == axis_floor(grid_coarse, k, axis_floor(grid, k, c))
                   for c in range(a, b + 1))


@given(st.integers(0, 2**31))
@settings(max_examples=6, deadline=None)
def test_construction_outputs_pull_back(seed):
    """Every builder's output on its corner grid, and concat of two stacked
    candies: the stacked layout coarsens to a smaller module, which the
    output on its corner grid coarsens to as well; for the candy, the
    stacked layout is the paper's glued candy.  string_candies
    concatenates the candies on their corner grids, which has no stacked
    layout, and coarsen keeps its promises on it."""
    rng = random.Random(seed)
    field = FIELDS[seed % 4]
    V = rand_module(rng, field, GridBox((0,), (3,)), max_dim=2, total_cap=5)
    W = rand_module(rng, field, GridBox((0, 0), (1, 1)), max_dim=2, total_cap=4)
    R = rand_rect_decomp(rng, field, 1, 4)
    built = [build_S(R), min3(R), min3_rect(rand_rect_decomp(rng, field, 2, 3, hi=2)), gen4(V), gen4(W),
             build_S_prime(V), build_S_dprime(W)]
    outputs = []
    for r in built:
        grid, box = r.meta["grid"], r.meta["source_box"]
        paper = paper_line(r.line, grid, box, [r.meta.get("s", 1)] + [1] * (box.n - 1))
        outputs.append((r.M, stacked(r.M, grid), (paper, box), (r.line, box)))
    A, F = candy_wrap(V), stacked_candy(V)
    outputs.append((A.module, F.module, (F.line, V.box), (A.line, V.box)))
    for M, fine, paper, line in outputs:
        coarse = check_coarsen(fine, line_keep(M.n, [paper]))
        assert len(coarse.dims) < len(fine.dims)
        assert coarsen(M, line_keep(M.n, [line]))[0] == coarse
    fine = concat(F, stacked_candy(V.translate((1,)))).module
    assert len(check_coarsen(fine, line_keep(fine.n, [])).dims) < len(fine.dims)
    S = string_candies([V, V])
    check_coarsen(S.candy.module, line_keep(S.candy.module.n, [(e, V.box) for e in S.embeddings]))
