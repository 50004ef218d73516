"""Builders realizing a module as a hyperplane restriction of a taller
indecomposable: the four-layer stack over rectangle decompositions, its
five-layer extension via projective covers (and the dual: that extension
of the dual module, mirrored), candy wrapping and concatenation, and the
three/four-layer minimal variants.

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
the glued candy is refused on its box.

Every stack is written by one stacker, _Stack.chain: it floors each
layer's rectangles onto the corner grid and writes the dims, the layer
steps and the links straight into the stack's dicts, one object for each
distinct matrix, with no rectangle module or link morphism between.  S
and S' keep the coordinates of V's box, so their line is the layer
embedding.  S'' is the plan of S' of the dual module stacked mirrored,
which keeps V's coordinates up to a translation; the candy writes S'' and
then S', translated onto the copy of V in S'', into one stack.  concat
joins any two candies on their own grids and checks only the squares its
handle adds; string_candies concatenates the candies as candy_wrap
returns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache, partial
from itertools import product

from .covers import projective_cover
from .grid import (MAX_DIM, MAX_VERTICES, AxisEmbedding, Compression, GridBox, PersModule, candy_corner_faults,
                   candy_corners, dualize, pad, pullback, vadd, vle, vpred, vsub, vsucc)
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle


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


class _Stack:
    """A stacked module written in place, one layer after another: its
    dims and steps, with one object for each distinct step matrix."""

    def __init__(self, field):
        self.field = field
        self.dims, self.steps = {}, {}
        self._same, self._ones = {}, {}

    def module(self, box: GridBox) -> PersModule:
        return PersModule(self.field, box, self.dims, self.steps)

    def share(self, m: Matrix) -> Matrix:
        """The stack's object equal to m, m itself the first time."""
        return self._same.setdefault((m.nrows, m.ncols, tuple(map(tuple, m.rows))), m)

    def ones(self, nrows: int, cols) -> Matrix:
        """The shared 0/1 matrix of nrows rows whose column c has its one in
        row cols[c], none where that is None; cols None stands for one
        column of ones."""
        if (m := self._ones.get(key := (nrows, cols))) is None:
            m = Matrix.zero(self.field, nrows, 1 if cols is None else len(cols))
            for c, r in ((0, r) for r in range(nrows)) if cols is None else enumerate(cols):
                if r is not None:
                    m.rows[r][c] = self.field.one
            m = self._ones[key] = self.share(m)
        return m

    def put(self, M: PersModule, t: tuple) -> None:
        """M's vertices and steps at height 0, translated by t."""
        dims, steps, share = self.dims, self.steps, self.share
        for v, d in M.dims.items():
            dims[vadd(v, t) + (0,)] = d
        for (v, k), m in M.steps.items():
            steps[(vadd(v, t) + (0,), k)] = share(m)

    def chain(self, grid: Compression, chain: list, h: int, o: tuple, mirror: bool = False) -> None:
        """The stacker: _cone_chain's layers, each rectangle floored onto
        grid.coarse, linked by a column of ones and then by diagonals,
        layer i at height h + i and each vertex v of grid.coarse at o + v.

        Mirrored, layer i sits at height h - i and v at o - v, and every
        arrow turns round with its matrix transposed, as dualize turns a
        stack: the rectangle [b, d] becomes [o - d, o - b] and a link's
        coordinate (i, j) becomes (j, i).  Either way, vertices, steps and
        links come in the order in which stacking the rectangle modules, or
        dualizing that stack, would list them."""
        box, n = grid.coarse, grid.coarse.n
        layers = []
        for rects in chain:
            ends = [(grid.floor(r.b), grid.floor(r.d)) for r in rects]
            for b, d in ends:
                if not vle(b, d):
                    raise ValueError(f"bad rectangle [{b}, {d}]")
                if not (vle(box.lo, b) and vle(d, box.hi)):
                    raise ValueError(f"rectangle [{b}, {d}] escapes box {box.lo}..{box.hi}")
            layers.append(ends)
        for x, (src, tgt) in enumerate(zip(layers, layers[1:])):
            for i, j in ((0 if x == 0 else j, j) for j in range(len(tgt))):
                (ab, ad), (bb, bd) = src[i], tgt[j]
                if not (vle(bb, ab) and vle(bd, ad) and vle(ab, bd)):  # rectangles.hom_leq on the integer ends
                    raise ValueError(f"nonzero coordinate ({i}, {j}) where the hom space is zero")
        ats = []  # per layer, each vertex (its height last) -> the layer's summands there
        for x, ends in enumerate(layers):
            at, height = {}, (h - x if mirror else h + x,)
            for i, (b, d) in enumerate(ends):
                spans = (range(c - p, c - q - 1, -1) if mirror else range(c + p, c + q + 1) for c, p, q in zip(o, b, d))
                for v in product(*spans):
                    at.setdefault(v + height, []).append(i)
            ats.append(at)
        at = {v: idxs for layer in ats for v, idxs in layer.items()}
        pos = {v: {s: r for r, s in enumerate(idxs)} for v, idxs in at.items()}
        dims, steps, ones, memo, near = self.dims, self.steps, self.ones, self._ones, vpred if mirror else vsucc
        for x, layer in enumerate(ats):
            for v, idxs in layer.items():
                dims[v] = len(idxs)
            # each arrow u -> w, listed at the end v from which the order reaches it
            for v in layer:
                for k in range(n):
                    if (u := near(v, k)) in layer:
                        u, w = (u, v) if mirror else (v, u)
                        key = (len(at[w]), tuple(map(pos[w].get, at[u])))
                        steps[(u, k)] = memo.get(key) or ones(*key)
            if x + 1 == len(ats):
                break
            for v in layer:  # the link from layer x to x + 1, mirrored from x + 1 to x
                if (u := near(v, n)) in at:
                    u, w = (u, v) if mirror else (v, u)
                    if x == 0:
                        steps[(u, n)] = ones(1, (0,) * len(at[u])) if mirror else ones(len(at[w]), None)
                    elif (cols := tuple(map(pos[w].get, at[u]))).count(None) < len(cols):
                        steps[(u, n)] = ones(len(at[w]), cols)


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
    st = _Stack(V.field)
    st.chain(meta["grid"], chain, -3, (0,) * V.n)
    grid = meta["grid"].extend(-3, 0)
    return BuildResult(st.module(grid.coarse), AxisEmbedding.layer(V.n, V.n, 0), {**meta, "grid": grid})


def _s_prime_plan(V: PersModule, height: int):
    """(cover, chain, meta): V's projective cover and _s_chain of its
    rectangles, on a box containing V.box = cover.decomp.box, each refused
    for a stack of height layers before it is made."""
    if V.is_zero():
        raise ValueError("zero module")
    _refuse_stack(height, V.box.count)  # the cover can be as large as V.box
    cov = projective_cover(V)
    return (cov, *_s_chain(cov.decomp, height))


def build_S_prime(V: PersModule, *, _plan: tuple | None = None, _into: tuple | None = None) -> BuildResult:
    """Five layers: the four-layer stack on a projective cover R of V,
    with the cover surjection p: R ->> V appended; V at height 0, on the
    corner grid meta["grid"].  No rectangle begins below V.box.lo, and every
    summand of R ends at V.box.hi, so each coordinate of V.box is a run of
    its own, numbered as in V: the copy of V and p need no change.  _plan,
    when given, is _s_prime_plan(V, height) for the stack that will hold
    the result (candy_wrap's nine layers); otherwise five are weighed.
    _into, when given, is (stack, t): the five layers are written into that
    _Stack translated by t, and the result is translated with them."""
    cov, chain, meta = _plan or _s_prime_plan(V, 5)
    st, t = _into or (_Stack(V.field), (0,) * V.n)
    st.chain(meta["grid"], chain, -4, t)
    for w, m in cov.comps.items():
        st.steps[(vadd(w, t) + (-1,), V.n)] = st.share(m)
    st.put(V, t)
    grid = meta["grid"].extend(-4, 0).translate(t + (0,))
    return BuildResult(st.module(grid.coarse), AxisEmbedding.layer(V.n, V.n, 0).translate(t + (0,)),
                       {**meta, "grid": grid})


def _s_dprime_plan(V: PersModule, height: int):
    """(plan, o, grid, line): plan is the _s_prime_plan of W, the dual of
    V.  S''(V) is the stack of that plan mirrored: its vertex (v, h) goes to
    (o - v, -h), so that the copy of W lands on a translate of V.box; grid
    is the plan's corner grid mirrored in the same way, S''(V)'s, and line
    the layer embedding onto that translate."""
    plan = _s_prime_plan(dualize(V), height)
    g = plan[2]["grid"]
    grid = g.extend(-4, 0).reflect().translate(vsub(vadd(V.box.lo, V.box.hi), vadd(g.lo, g.hi)) + (4,))
    u = V.box.lo + (0,)
    line = AxisEmbedding.layer(V.n, V.n, 0).translate(vsub(grid.floor(u), u))
    return plan, vadd(grid.lo[:-1], g.coarse.hi), grid, line


def build_S_dprime(V: PersModule, *, _plan: tuple | None = None, _into: _Stack | None = None) -> BuildResult:
    """The dual five layers V -> T -> T' -> Tbar -> I_T, V at height 0, on
    the corner grid meta["grid"]: S'(W) of the dual W of V, mirrored.

    The plan's rectangles are stacked mirrored, each link's coordinates
    transposed, and each component of W's cover surjection transposed
    once; V's own steps sit at height 0.  That is what dualizing the
    stack S'(W) gives.  Each coordinate of V.box is still a run of its own,
    so the line is the layer embedding translated onto the grid.  _plan is
    _s_dprime_plan(V, height) as in build_S_prime, which refuses a zero V,
    as the dual of 0 is 0; _into, when given, is the _Stack to write into.
    """
    (cov, chain, meta), o, grid, line = _plan or _s_dprime_plan(V, 5)
    st = _into or _Stack(V.field)
    st.chain(meta["grid"], chain, 4, o, mirror=True)
    for w, m in cov.comps.items():
        st.steps[(vsub(o, w) + (0,), V.n)] = st.share(m.transpose())
    st.put(V, vsub(o, vadd(V.box.lo, V.box.hi)))
    return BuildResult(st.module(grid.coarse), line, {"source_box": V.box, "grid": grid})


def candy_wrap(V: PersModule) -> CandyModule:
    """Nine layers I_R -> Rbar -> R' -> R -> V -> T -> T' -> Tbar -> I_T:
    S'(V) and S''(V) on their corner grids, glued along their copy of V.
    Both grids keep every coordinate of V.box, so both halves are written
    into one _Stack: S'' first, then S' translated onto the copy of V in
    S''.  The line is that of S''.  _s_prime_plan refuses a zero V."""
    prim_plan, dual_plan = _s_prime_plan(V, 9), _s_dprime_plan(V, 9)
    line = dual_plan[3]
    # the primal half, at heights -4..0, moves by t onto the dual one's
    # copy of V; their glued box is refused over the cap before either is built
    t = vsub(line.apply(V.box.lo), V.box.lo + (0,))
    box = GridBox.hull([prim_plan[2]["grid"].extend(-4, 0).translate(t).coarse, dual_plan[2].coarse])
    st = _Stack(V.field)
    build_S_dprime(V, _plan=dual_plan, _into=st)
    build_S_prime(V, _plan=prim_plan, _into=(st, t[:-1]))
    M = st.module(box)
    return CandyModule(M, *candy_corners(M), line)


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


def _refined_layers(st: _Stack, summands: list, windows: list, s: int, source: GridBox, height: int):
    """The three rectangle layers I' -> R'' -> R~ on a first axis refined by s,
    written into st at the bottom of a stack of height layers with its top
    at height 0.

    Summand i becomes the window windows[i] on the first axis.  The births
    b'_i take pairwise distinct first coordinates inside their windows, and
    the deaths d'_i = D + (m - rank) on the first axis keep the interleaved
    ordering that makes endomorphisms of R'' diagonal.  Summands are listed
    in the rank order meta["order"], and meta["chain"] lists each layer's
    rectangles.  Returns (line, meta), on the corner grid
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
    st.chain(grid, chain, 1 - height, (0,) * n)
    meta = {
        "s": s,
        "bprime": bprime,
        "dprime": dprime,
        "chain": chain,
        "order": order,
        "grid": grid,
        "source_box": source,
    }
    return line, meta


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
    st = _Stack(V.field)
    line, meta = _refined_layers(st, V.summands, windows, s, V.box, 3)
    grid = meta["grid"].extend(-2, 0)
    return BuildResult(st.module(grid.coarse), grid.down(line, V.box), {**meta, "grid": grid})


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

    st = _Stack(V.field)
    line, meta = _refined_layers(st, cov.decomp.summands, windows, s, V.box, 4)
    # the stretched V on the corner grid: V, padded to cover the grid's box
    # under floor, pulled back along floor after first.  The line hits each
    # s-block's first coordinate, so no run straddles two blocks.
    grid = meta["grid"]
    wide = pad(V, GridBox(V.box.lo, (grid.hi[0] // s,) + V.box.hi[1:]))
    top = pullback(wide, lambda u: floor(grid.first(u)), grid.coarse)
    # stretched cover surjection: at y it is p at floor(y), columns permuted
    # into the rank order used for the rectangle layers, from height -1 to 0
    order, tilde = meta["order"], meta["chain"][2]
    for u, d in top.dims.items():
        y = grid.first(u)
        x = floor(y)
        cols = cov.decomp.indices_at(x)
        live = [cols.index(order[j]) for j, r in enumerate(tilde) if r.contains(y)]
        st.steps[(u + (-1,), V.n)] = st.share(cov.comps[x].submatrix(range(d), live))
    st.put(top, (0,) * V.n)
    grid = grid.extend(-3, 0)
    return BuildResult(st.module(grid.coarse), grid.down(line, V.box), {**meta, "grid": grid})
