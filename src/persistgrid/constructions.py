"""Builders realizing a module as a hyperplane restriction of a taller
indecomposable: the four-layer stack over rectangle decompositions, its
five-layer extension via projective covers (and the dual: that extension
of the dual module, dualized back), candy wrapping and concatenation, and the three/four-layer
minimal variants.

The input copy always sits at height 0 of the stacking axis, so every
returned embedding inserts the constant 0 as the last coordinate.

Each output is built on its corner grid: a rectangle module changes only
where a rectangle begins or ends, so each axis of the stacked layout
(the paper's coordinates) is cut into runs there and at every coordinate
the output line hits, and each run becomes one coordinate.  A builder's
meta["grid"] (a grid.Compression) gives the stacked layout back as
pullback(M, grid.floor, GridBox(grid.lo, grid.hi)); meta reads it.  The
caps count what is built: _refuse_stack, the one stack-size rule, weighs
each chain's layers on its coarse box (S' and gen4 first on V's box), and
the glued candy is refused on its box.  S and S' keep the coordinates of
V's box, so their line is the layer embedding; S'' keeps them up to a
translation, and the candy writes S', translated, into the dicts of S''.
concat joins any two candies on their own grids and checks only the
squares its handle adds; string_candies concatenates the candies as
candy_wrap returns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache, partial

from .covers import projective_cover
from .grid import (MAX_DIM, MAX_VERTICES, AxisEmbedding, Compression, GridBox, ModMorphism, PersModule,
                   candy_corner_faults, candy_corners, dualize, pad, pullback, stack, vadd, vsub, vsucc)
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle, realize, rect_to_module


@dataclass
class BuildResult:
    """M on its corner grid meta["grid"], and line into M.

    meta also holds the input's box, "source_box".  The four-layer chain of
    build_S and build_S_prime adds its births and deaths, "bprime" and
    "dprime"; min3_rect and gen4 add those and the scale "s", the layers'
    rectangles "chain" and the rank order "order" of _refined_layers."""

    M: PersModule
    line: AxisEmbedding
    meta: dict = dc_field(default_factory=dict)

    @property
    def layer_count(self) -> int:
        return self.M.box.hi[-1] - self.M.box.lo[-1] + 1  # every builder leaves the stacking axis uncut


@dataclass
class CandyModule:
    """A stacked module with one-dimensional corner handles.

    ul minimizes every coordinate except the last (maximized); lr is the
    opposite.  line, when present, recovers the wrapped input.
    """

    module: PersModule
    ul: tuple
    lr: tuple
    line: AxisEmbedding | None = None


@dataclass
class StringResult:
    candy: CandyModule
    embeddings: list  # one AxisEmbedding per input, in order


# ---------------------------------------------------------------------------
# separate-and-shift / verticalize / cone


def separate_and_shift(V: RectDecomp) -> list:
    """Distinct shifted deaths d' with d'_j >= d_j, (b_j + d'_j)/2 <= d'_i
    for all pairs, and b_j + d'_j even in every component.

    Deterministic rule: C = (largest coordinate appearing in V) + 2m, then
    d'_j = C + 2j per component, bumped by 1 where needed for parity.
    """
    if not V.summands:
        raise ValueError("empty rectangle decomposition")
    m = len(V)
    n = V.n
    C = max(max(max(r.b), max(r.d)) for r in V.summands) + 2 * m
    out = []
    for j, r in enumerate(V.summands, start=1):
        base = C + 2 * j
        out.append(tuple(base + ((r.b[k] + base) % 2) for k in range(n)))
    return out


def verticalize(V: RectDecomp, dprime: list) -> tuple:
    """mu = componentwise max of (b_i + d'_i)/2 and births b'_i = 2 mu - d'_i."""
    n = V.n
    for r, dp in zip(V.summands, dprime):
        if any((r.b[k] + dp[k]) % 2 for k in range(n)):
            raise ValueError("parity guarantee violated: b + d' must be even componentwise")
    mu = tuple(max((r.b[k] + dp[k]) // 2 for r, dp in zip(V.summands, dprime)) for k in range(n))
    bprime = [tuple(2 * mu[k] - dp[k] for k in range(n)) for dp in dprime]
    return mu, bprime


def cone(bprime: list, dprime: list) -> Rectangle:
    n = len(bprime[0])
    return Rectangle(
        tuple(max(b[k] for b in bprime) for k in range(n)),
        tuple(max(d[k] for d in dprime) for k in range(n)),
    )


def _refuse_stack(height: int, count: int, m: int = 1) -> None:
    """The one stack-size rule: refuse a stack of height layers of count
    vertices that passes the vertex cap, or whose m x m step matrices (m
    rectangles) at every vertex would hold over MAX_VERTICES * MAX_DIM scalars."""
    if height * count > MAX_VERTICES:
        raise ValueError(f"{height} layers of {count} vertices exceed the cap {MAX_VERTICES}")
    if height * count * m * m > MAX_VERTICES * MAX_DIM:
        raise ValueError(f"{height} layers of {count} vertices with up to {m} rectangles each "
                         f"exceed {MAX_VERTICES * MAX_DIM} step scalars")


def _cone_chain(bprime: list, dprime: list, tails: list, height: int, hits: list):
    """The rectangles of the layers [cone] -> [b'_i, d'_i] -> tails[0] ->
    tails[1] -> ... and their corner grid, the hull of hits and all the
    rectangles with each axis k cut where a rectangle begins or ends and at
    each coordinate of hits[k].  Returns (grid, chain): chain lists each
    layer's rectangles in the stacked layout.

    height is the number of layers in the stack the chain goes into, which
    _refuse_stack weighs on grid.coarse before any layer is built."""
    chain = [[cone(bprime, dprime)], [Rectangle(b, d) for b, d in zip(bprime, dprime)], *tails]
    corners = [tuple(map(min, hits)), tuple(map(max, hits))] + [p for rects in chain for r in rects for p in (r.b, r.d)]
    grid = Compression.of(tuple(map(min, zip(*corners))), tuple(map(max, zip(*corners))),
                          [{*ks, *(c for rects in chain for r in rects for c in (r.b[k], r.d[k] + 1))}
                           for k, ks in enumerate(hits)])
    _refuse_stack(height, grid.coarse.count, len(bprime))
    return grid, chain


def _chain_layers(field, grid: Compression, chain: list):
    """_cone_chain's layers on grid.coarse, linked by a ones column and then
    by diagonals: (layers, links)."""
    m = len(chain[1])
    decomps = [RectDecomp(field, grid.coarse, [Rectangle(grid.floor(r.b), grid.floor(r.d)) for r in rects])
               for rects in chain]
    coords = [{(0, j): field.one for j in range(m)}] + [{(i, i): field.one for i in range(m)}] * (len(chain) - 2)
    layers = [rect_to_module(d) for d in decomps]
    links = [ModMorphism(layers[i], layers[i + 1], realize(decomps[i], decomps[i + 1], x))
             for i, x in enumerate(coords)]
    return layers, links


def _stack_on_grid(layers: list, links: list, meta: dict) -> tuple[PersModule, dict]:
    """The layers stacked with the last at height 0, and a copy of meta
    whose grid has that stacking axis added."""
    lo = 1 - len(layers)
    return stack(layers, links, height_lo=lo), {**meta, "grid": meta["grid"].extend(lo, 0)}


def _s_chain(V: RectDecomp, height: int):
    """(chain, meta): the rectangles of the four layers I_V -> Vbar -> V' -> V
    and, in meta, their corner grid, a box containing V.box where every
    coordinate of V.box begins a run, for a stack of height layers."""
    dprime = separate_and_shift(V)
    _, bprime = verticalize(V, dprime)
    vprime = [Rectangle(r.b, d) for r, d in zip(V.summands, dprime)]
    hits = [range(a, b + 1) for a, b in zip(V.box.lo, V.box.hi)]
    grid, chain = _cone_chain(bprime, dprime, [vprime, V.summands], height, hits)
    return chain, {"dprime": dprime, "bprime": bprime, "grid": grid, "source_box": V.box}


def build_S(V: RectDecomp) -> BuildResult:
    """Four layers I_V -> Vbar -> V' -> V stacked, V at height 0, on the
    corner grid meta["grid"], which keeps V's coordinates: no rectangle
    begins below V.box.lo."""
    chain, meta = _s_chain(V, 4)
    M, meta = _stack_on_grid(*_chain_layers(V.field, meta["grid"], chain), meta)
    return BuildResult(M, AxisEmbedding.layer(V.n, V.n, 0), meta)


def _s_prime_plan(V: PersModule, height: int):
    """(cover, chain, meta): V's projective cover and _s_chain of its
    rectangles, on a box containing V.box = cover.decomp.box, each refused
    for a stack of height layers before it is made."""
    if V.is_zero():
        raise ValueError("zero module")
    _refuse_stack(height, V.box.count)  # the cover can be as large as V.box
    cov = projective_cover(V)
    return (cov, *_s_chain(cov.decomp, height))


def build_S_prime(V: PersModule, *, _plan: tuple | None = None) -> BuildResult:
    """Five layers: the four-layer stack on a projective cover R of V,
    with the cover surjection p: R ->> V appended; V at height 0, on the
    corner grid meta["grid"].  No rectangle begins below V.box.lo, and every
    summand of R ends at V.box.hi, so each coordinate of V.box is a run of
    its own, numbered as in V: the copy of V and p need no change.  _plan,
    when given, is _s_prime_plan(V, height) for the stack that will hold
    the result (candy_wrap's nine layers); otherwise five are weighed."""
    cov, chain, meta = _plan or _s_prime_plan(V, 5)
    layers, links = _chain_layers(V.field, meta["grid"], chain)
    top = pad(V, layers[0].box)
    links.append(ModMorphism(layers[3], top, cov.comps))
    M, meta = _stack_on_grid(layers + [top], links, meta)
    return BuildResult(M, AxisEmbedding.layer(V.n, V.n, 0), meta)


def _s_dprime_plan(V: PersModule, height: int):
    """(W, plan, grid, t, line): W the dual of V, plan its _s_prime_plan,
    and S''(V)'s corner grid, the unstacked grid of the plan stacked at
    heights -4..0, mirrored as dualize mirrors a module and translated by t
    so that the copy of V lands on V.box at height 0; line is the layer
    embedding into it."""
    W = dualize(V)
    plan = _s_prime_plan(W, height)
    grid = plan[2]["grid"]
    t = vsub(vadd(V.box.lo, V.box.hi), vadd(grid.lo, grid.hi)) + (4,)
    grid = grid.extend(-4, 0).reflect().translate(t)
    u = V.box.lo + (0,)
    return W, plan, grid, t, AxisEmbedding.layer(V.n, V.n, 0).translate(vsub(grid.floor(u), u))


def build_S_dprime(V: PersModule, *, _plan: tuple | None = None) -> BuildResult:
    """The dual five layers V -> T -> T' -> Tbar -> I_T, V at height 0, on
    the corner grid meta["grid"].

    Computed by dualizing the primal stack of the dual module, translated
    in the same pass so the V copy comes back to V's own coordinates; the
    primal stack's corner grid is mirrored and translated with it.  Each
    coordinate of V.box is still a run of its own, so the line is the layer
    embedding translated onto the grid.  _plan is _s_dprime_plan(V, height)
    as in build_S_prime, which refuses a zero V, as the dual of 0 is 0.
    """
    W, prim_plan, grid, t, line = _plan or _s_dprime_plan(V, 5)
    M = dualize(build_S_prime(W, _plan=prim_plan).M, t)
    return BuildResult(M, line, {"source_box": V.box, "grid": grid})


def candy_wrap(V: PersModule) -> CandyModule:
    """Nine layers I_R -> Rbar -> R' -> R -> V -> T -> T' -> Tbar -> I_T:
    S'(V) and S''(V) on their corner grids, glued along their copy of V.
    Both grids keep every coordinate of V.box, so the primal half is
    written, translated onto the dual one's copy of V, into the dual half's
    own dicts, and the line is the dual's.  _s_prime_plan refuses a zero V."""
    prim_plan, dual_plan = _s_prime_plan(V, 9), _s_dprime_plan(V, 9)
    (_, _, meta), (_, _, grid, _, line) = prim_plan, dual_plan
    # the primal half, at heights -4..0, moves by t onto the dual one's
    # copy of V; their glued box is refused over the cap before either is built
    t = vsub(line.apply(V.box.lo), V.box.lo + (0,))
    box = GridBox.hull([meta["grid"].extend(-4, 0).translate(t).coarse, grid.coarse])
    P = build_S_prime(V, _plan=prim_plan).M
    dual = build_S_dprime(V, _plan=dual_plan)
    dims, steps = dual.M.dims, dual.M.steps
    for v, d in P.dims.items():
        if v[-1] < 0:
            dims[vadd(v, t)] = d
        elif dims.get(vadd(v, t)) != d:
            raise AssertionError("primal and dual stacks disagree on the shared layer")
    steps.update({(vadd(v, t), k): m for (v, k), m in P.steps.items()})  # the copy of V keeps the primal steps
    # each layer and link made its own objects: one object for each matrix
    objects = {}
    same = {i: objects.setdefault((m.nrows, m.ncols, tuple(map(tuple, m.rows))), m)
            for i, m in {id(m): m for m in steps.values()}.items()}
    M = PersModule(V.field, box, dims, {vk: same[id(m)] for vk, m in steps.items()})
    return CandyModule(M, *candy_corners(M), dual.line)


def concat(A: CandyModule, B: CandyModule) -> CandyModule:
    """A and B joined by a handle, each on the grid of its own module.
    A and B must be modules, as a reader or a builder leaves them.  No step
    joins A to B and every handle step leaves a handle vertex, so a path
    that can be nonzero from an old vertex stays in A or in B: only the
    squares based at the handle can fail.  They alone are checked, at its
    vertices in M.dims order, so a failure reads as M.validate() reports it."""
    MA, MB = A.module, B.module
    if MA.field != MB.field:
        raise ValueError("concatenation needs a common field")
    if MA.n != MB.n:
        raise ValueError("concatenation needs a common ambient dimension")
    N = MA.n
    if N < 2:
        raise ValueError("concatenation needs at least two dimensions")
    for name, C in (("first", A), ("second", B)):
        faults = candy_corner_faults(C.module, C.ul, C.lr)
        if faults:
            raise ValueError(f"the {name} candy's corners are wrong: {'; '.join(faults)}")
    e_snd, e_last = (tuple(int(i == j) for i in range(N)) for j in (N - 2, N - 1))
    # align lr(A) with ul(B), then push B one step down and one step right
    t = vadd(vsub(A.lr, B.ul), vsub(e_snd, e_last))
    x = vsub(A.lr, e_last)
    dims = dict(MA.dims)
    for v, d in MB.dims.items():
        w = vadd(v, t)
        if w in dims:
            raise AssertionError("candy supports overlap after translation")
        dims[w] = d
    steps = dict(MA.steps)
    steps.update({(vadd(v, t), k): m for (v, k), m in MB.steps.items()})
    # joining handle: B's top layer, translated and shifted one step back
    # along the second-to-last axis, mapped identically onto that layer, with
    # its corner x = ul(B) + t - e_{N-2} = lr(A) - e_{N-1} also mapped onto
    # lr(A).  In 2D only x is new; in higher dimensions a lone vertex cannot
    # commute with the top layer's sideways arrows, so the whole copy is needed.
    fresh = {}  # handle vertex -> its vertex of B's top layer, untranslated
    for w in MB.dims:
        if w[-1] == B.ul[-1]:
            u = vsub(vadd(w, t), e_snd)
            if u not in dims:
                fresh[u] = w
                dims[u] = MB.dims[w]
    if x not in fresh:
        raise AssertionError("joining vertex collides with a candy support")
    eye = cache(partial(Matrix.identity, MA.field))  # one identity per dimension
    for u, w in fresh.items():
        steps[(u, N - 2)] = eye(dims[u])
        for k in range(N - 1):
            if k != N - 2 and vsucc(u, k) in dims:
                steps[(u, k)] = MB.step(w, k)
    steps[(x, N - 1)] = eye(dims[x])  # x -> lr(A)
    box = GridBox.hull([MA.box, GridBox(vadd(MB.box.lo, t), vadd(MB.box.hi, t)), GridBox(x, x)])
    M = PersModule(MA.field, box, dims, steps)
    rep = M.validate(at=fresh)
    if not rep:
        raise AssertionError(f"concatenation broke commutativity: {rep.message}")
    return CandyModule(M, A.ul, vadd(B.lr, t))


def string_candies(mods: list) -> StringResult:
    """Wrap each module and fold concat left to right over the candies as
    candy_wrap returns them; each input's embedding is its candy's line,
    translated as concat translates that candy."""
    if not mods:
        raise ValueError("need at least one module")
    cur, *rest = [candy_wrap(m) for m in mods]
    lines = [cur.line]
    for c in rest:
        cur = concat(cur, c)
        lines.append(c.line.translate(vsub(cur.lr, c.lr)))
    return StringResult(cur, lines)


# ---------------------------------------------------------------------------
# three-layer and four-layer minimal constructions


def _greedy_points(windows: list) -> list:
    """Pairwise distinct integers, one per window, earliest deadline first."""
    order = sorted(range(len(windows)), key=lambda i: (windows[i][1], windows[i][0], i))
    taken = set()
    out = [None] * len(windows)
    for i in order:
        lo, hi = windows[i]
        t = lo
        while t in taken:
            t += 1
        if t > hi:
            raise AssertionError("greedy point selection ran out of room")
        taken.add(t)
        out[i] = t
    return out


def _refined_layers(field, summands: list, windows: list, s: int, source: GridBox, height: int):
    """The three rectangle layers I' -> R'' -> R~ on a first axis refined by s.

    Summand i becomes the window windows[i] on the first axis.  The births
    b'_i take pairwise distinct first coordinates inside their windows, and
    the deaths d'_i = D + (m - rank) on the first axis keep the interleaved
    ordering that makes endomorphisms of R'' diagonal.  Summands are listed
    in the rank order meta["order"], and meta["chain"] lists each layer's
    rectangles.  Returns (layers, links, line, meta), on the corner grid
    meta["grid"] of the hull of the rectangles and the line's hits;
    the line, in the paper's coordinates, samples first coordinates of
    source, the input box, at multiples of s.  height is as in _cone_chain.
    """
    m = len(summands)
    n = len(summands[0].b)
    _refuse_stack(height, 1, m)  # what fails on one vertex fails on every grid: pick no points
    ts = _greedy_points(windows)
    order = sorted(range(m), key=lambda i: ts[i])
    tilde = [Rectangle((windows[i][0],) + summands[i].b[1:], (windows[i][1],) + summands[i].d[1:])
             for i in order]
    D = tuple(max(r.d[k] for r in tilde) for k in range(n))
    bprime = [(ts[i],) + summands[i].b[1:] for i in order]
    dprime = [(D[0] + (m - rank),) + D[1:] for rank in range(1, m + 1)]
    line = AxisEmbedding([("affine", s, 0)] + [("affine", 1, 0)] * (n - 1), n, 0)
    grid, chain = _cone_chain(bprime, dprime, [tilde], height, line.hits(source)[:-1])
    layers, links = _chain_layers(field, grid, chain)
    meta = {
        "s": s,
        "bprime": bprime,
        "dprime": dprime,
        "chain": chain,
        "order": order,
        "grid": grid,
        "source_box": source,
    }
    return layers, links, line, meta


def min3_rect(V: RectDecomp) -> BuildResult:
    """Three layers I'_V -> V'' -> V~ with distinct first coordinates.

    The first axis is refined by the scale s = 2(m+1): each summand becomes
    the window [s b1, s d1] there (simple summands with b1 = d1 inflate to
    [s b1 - m, s b1 + m]); see _refined_layers.  The result is on the
    corner grid meta["grid"], the line into it.
    """
    if not V.summands:
        raise ValueError("empty rectangle decomposition")
    m = len(V)
    s = 2 * (m + 1)
    windows = [(s * r.b[0] - m, s * r.b[0] + m) if r.b[0] == r.d[0] else (s * r.b[0], s * r.d[0])
               for r in V.summands]
    layers, links, line, meta = _refined_layers(V.field, V.summands, windows, s, V.box, 3)
    M, meta = _stack_on_grid(layers, links, meta)
    return BuildResult(M, meta["grid"].down(line, V.box), meta)


def min3(V: RectDecomp) -> BuildResult:
    """The 1D three-layer construction (min3_rect specialized to n = 1),
    on its corner grid meta["grid"]."""
    if V.n != 1:
        raise ValueError("min3 takes a 1D decomposition; use min3_rect for higher dimensions")
    return min3_rect(V)


def gen4(V: PersModule) -> BuildResult:
    """Four layers I'_R -> R'' -> R~ -> V~ for a general module V.

    R is a projective cover of V.  To let the cover surjection live on the
    refined first axis, both R and V are stretched by pulling back along
    (y1, rest) -> (floor(y1/s), rest): a rectangle [b, d] becomes the window
    [s b1, s d1 + s - 1], wide enough that no inflation is ever needed, and
    p becomes p composed with the stretch.  Sampling first coordinates at
    multiples of s recovers p and V exactly.  The result is on the corner
    grid meta["grid"], the line into it.
    """
    if V.is_zero():
        raise ValueError("zero module")
    _refuse_stack(4, V.box.count)
    cov = projective_cover(V)
    s = 2 * (len(cov.decomp) + 1)
    windows = [(s * r.b[0], s * r.d[0] + s - 1) for r in cov.decomp.summands]

    def floor(y):
        return (y[0] // s,) + y[1:]

    layers, links, line, meta = _refined_layers(V.field, cov.decomp.summands, windows, s, V.box, 4)
    # the stretched V on the corner grid: V, padded to cover the grid's box
    # under floor, pulled back along floor after first.  The line hits each
    # s-block's first coordinate, so no run straddles two blocks.
    grid = meta["grid"]
    wide = pad(V, GridBox(V.box.lo, (grid.hi[0] // s,) + V.box.hi[1:]))
    top = pullback(wide, lambda u: floor(grid.first(u)), grid.coarse)
    # stretched cover surjection: at y it is p at floor(y), columns permuted
    # into the rank order used for the rectangle layers
    order, tilde = meta["order"], meta["chain"][2]
    comps = {}
    for u, d in top.dims.items():
        y = grid.first(u)
        x = floor(y)
        cols = cov.decomp.indices_at(x)
        live = [cols.index(order[j]) for j, r in enumerate(tilde) if r.contains(y)]
        comps[u] = cov.comps[x].submatrix(range(d), live)
    links.append(ModMorphism(layers[2], top, comps))
    M, meta = _stack_on_grid(layers + [top], links, meta)
    return BuildResult(M, meta["grid"].down(line, V.box), meta)
