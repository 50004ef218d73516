"""Morphism spaces between persistence modules: one sparse system over 1D
fibres for every n.

A fibre is a leaf of the layer tree that slices a module along its last
axis, then each layer along its own, down to 1D along axis 0.  Between 1D
modules Hom is spanned by canonical homomorphisms between interval
summands, indexed by the summand pairs that rectangles.interval_decompose_1d's
integer ends allow.  A morphism M -> N is a family of fibre morphisms that
commutes with every arrow along the other axes.  Its sparse "ambient
coordinates" are keyed by flat triples (t, i, j): summand pair (i, j) of
fibre t, the fibres numbered with the last axis slowest.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import accumulate, product

from .grid import GridBox, PersModule, require_common, slice_layers
from .linalg import Matrix, nullspace_sparse, rank_sparse
from .rectangles import Intervals, interval_decompose_1d


def combine(f, terms) -> dict:
    """The sparse vector sum of c * x over the (c, x) pairs in terms.

    Zero coefficients are skipped and zero entries dropped, so the keys
    keep the order of their first nonzero contribution.
    """
    out: dict = {}
    for c, x in terms:
        if c == 0:
            continue
        for k, v in x.items():
            out[k] = f.add(out.get(k, f.zero), f.mul(c, v))
    return {k: v for k, v in out.items() if v != 0}


def _by_fibre(x: dict) -> dict:
    """Ambient coordinates split as {fibre number: {(i, j): c}}."""
    per = defaultdict(dict)
    for (t, i, j), c in x.items():
        per[t][i, j] = c
    return per


class Context:
    """Caches for a batch of hom computations, keyed by the module objects
    callers pass in.

    Each module given here is walked once into its fibres' Intervals
    records and links; each box's fibre numbering and each pair of modules'
    HomSpace are made once.  The layers of a walk are not kept, and no
    rectangle module is built.  The caches hold every module they key, so
    ids cannot be recycled underneath us.  No HomSpace refers back to its
    context, so the caches are freed with it.
    """

    def __init__(self):
        self._fibres = {}  # id(M) -> (M, (records, links))
        self._suffixes = {}
        self._homs = {}

    def intervals1(self, M: PersModule) -> Intervals:
        """interval_decompose_1d of a 1D module M, made once per module."""
        return self.fibres(M)[0][0]

    def fibres(self, M: PersModule) -> tuple[list[Intervals], dict]:
        """(records, links): the records of M's fibres along axis 0, numbered
        as in suffixes, and {(t, u): the interval coordinates of M's steps
        from fibre t to a neighbour u} where they are nonzero, read off the
        layer tree; made once per module."""
        entry = self._fibres.get(id(M))
        if entry is None:
            entry = self._fibres[id(M)] = (M, self._walk(M))
        return entry[1]

    def _walk(self, M: PersModule) -> tuple[list[Intervals], dict]:
        if M.n == 1:
            return [interval_decompose_1d(M)], {}
        layers, steps = slice_layers(M)
        I, links = [], {}
        for layer in layers:
            J, inner = self._walk(layer)
            if inner:
                links.update(((t + len(I), u + len(I)), c) for (t, u), c in inner.items())
            I += J
        w = len(J)
        for i, step in enumerate(steps):
            for t, at in enumerate(self.suffixes(layers[0].box), i * w):
                if c := I[t].coords(I[t + w], step.comps, at):
                    links[t, t + w] = c
        return I, links

    def suffixes(self, box: GridBox) -> list[tuple]:
        """The v[1:] of fibre t's vertices for t = 0, 1, ..., the fibres in
        lexicographic order of v[1:] read last axis first; made once per box."""
        out = self._suffixes.get(box)
        if out is None:
            ranges = map(range, box.lo[:0:-1], [h + 1 for h in box.hi[:0:-1]])
            out = self._suffixes[box] = [v[::-1] for v in product(*ranges)]
        return out

    def hom(self, M: PersModule, N: PersModule) -> "HomSpace":
        """Hom(M, N), made once per pair of modules; the HomSpace holds both,
        which keeps the ids in its key valid."""
        key = (id(M), id(N))
        if key not in self._homs:
            self._homs[key] = HomSpace(M, N, self)
        return self._homs[key]

    # -- the ambient-coordinate calculus, one fibre at a time ----------

    def express(self, M: PersModule, N: PersModule, g: dict) -> dict:
        """Ambient coordinates of the natural transformation M -> N with
        components g, {vertex: matrix}."""
        (IM, _), (IN, _) = self.fibres(M), self.fibres(N)
        out = {}
        for t, at in enumerate(self.suffixes(M.box)):
            out.update(((t, i, j), c) for (i, j), c in IM[t].coords(IN[t], g, at).items())
        return out

    def materialize(self, M: PersModule, N: PersModule, x: dict) -> dict:
        """The components, {vertex: matrix}, of the natural transformation
        M -> N with the given ambient coordinates, zero ones left out, fibre
        by fibre and in ascending vertices within one.  Coordinate (t, i, j)
        = c is c at the rows of summands j and i of fibre t's records at
        each y of [births_i, deaths_j]; a side whose record has no rows is
        then carried onto its module by the chain basis: J.basis on the
        left, I.inverse on the right."""
        (IM, _), (IN, _) = self.fibres(M), self.fibres(N)
        suffixes = self.suffixes(M.box)
        comps = {}
        for t, xt in sorted(_by_fibre(x).items()):
            I, J, at = IM[t], IN[t], suffixes[t]
            block = {}
            for (i, j), c in xt.items():
                if c == 0:
                    continue
                b, e = I.births[i], J.deaths[j]
                if not J.births[j] <= b <= e <= I.deaths[i]:  # rectangles.hom_leq on the integer ends
                    raise ValueError(f"nonzero coordinate ({i}, {j}) where the hom space is zero")
                for y, r, col in zip(range(b, e + 1), J.rows_at(j, b, e), I.rows_at(i, b, e)):
                    if (m := block.get(y)) is None:
                        v = (y,) + at
                        m = block[y] = Matrix.zero(M.field, N.dims[v], M.dims[v])
                    m.rows[r][col] = c
            for y in sorted(block):
                m = block[y] if J.rows is not None else J.basis[(y,)] @ block[y]
                if I.rows is None and (inv := I.inverse((y,))) is not None:
                    m = m @ inv
                comps[(y,) + at] = m
        return comps

    def compose(self, L: PersModule, M: PersModule, N: PersModule, x: dict, y: dict) -> dict:
        """Ambient coordinates of (x: M -> N) after (y: L -> M)."""
        if not x or not y:
            return {}
        f = L.field
        (IL, _), (IN, _) = self.fibres(L), self.fibres(N)
        xs, ys = _by_fibre(x), _by_fibre(y)
        out = {}
        for t in xs.keys() & ys.keys():
            acc = {}
            for key, b, c in IL[t].composite_terms(IN[t], ys[t].items(), xs[t].items()):
                acc[key] = f.add(acc.get(key, f.zero), f.mul(c, b))
            out.update(((t, i, k), c) for (i, k), c in acc.items() if c != 0)
        return out


class HomSpace:
    """Hom(M, N) in ambient coordinates, built by Context.hom with the
    context it reads; it keeps no reference to that context.

    M and N must share field and box (grid.require_common), which is
    checked before anything is built.  The columns are the unit vectors at
    the fibre pairs, in the lexicographic order of their ambient keys, and
    dim is their count less the rank of _build's rows; the keys are made
    and the kernel solved on the first read of basis.

    Basis element k is 1 at its pivot key, pivot_keys[k], where every other
    one is 0; coords_in_basis reads coordinates there.  nullspace_sparse
    gives each kernel vector a 1 at its free column, a 0 at the other free
    columns and its other nonzeros at pivot columns to the left in the
    rref.  So the free columns are where some kernel vector has its last
    nonzero entry, and the element of free column j is the one kernel
    vector that is 1 at j and 0 at the other free columns: the basis and
    its pivot keys depend only on the kernel, the fibre families natural
    along every axis, and the column order.
    """

    def __init__(self, M: PersModule, N: PersModule, ctx: Context):
        require_common("hom", M, N)
        self.M = M
        self.N = N
        self._rows, self._pairs = self._build(ctx)
        self.ncols = sum(map(len, self._pairs))

    @cached_property
    def dim(self) -> int:
        return self.ncols - rank_sparse(self._rows, self.M.field)

    @cached_property
    def _solved(self) -> tuple[list[dict], list]:
        """(basis, keys): the kernel basis and its elements' pivot keys."""
        f = self.M.field
        keys = [(t, i, j) for t, pairs in enumerate(self._pairs) for i, j in pairs]
        if not self._rows:
            return [{k: f.one} for k in keys], keys
        sols = nullspace_sparse(self._rows, len(keys), f)
        return [{keys[col]: c for col, c in sol.items()} for sol in sols], [keys[max(sol)] for sol in sols]

    @property
    def basis(self) -> list[dict]:
        return self._solved[0]

    @property
    def pivot_keys(self) -> list:
        return self._solved[1]

    def _build(self, ctx: Context) -> tuple[list[dict], list[list]]:
        """(rows, pairs): the constraint rows and each fibre pair's hom
        pairs; column offsets[t] + c of the system is pair c of fibre t."""
        M, N = self.M, self.N
        f = M.field
        (IM, lM), (IN, lN) = ctx.fibres(M), ctx.fibres(N)
        pairs = [I.hom_pairs(J) for I, J in zip(IM, IN)]
        offsets = list(accumulate(map(len, pairs), initial=0))
        rows: list[dict] = []
        if offsets[-1] == 0:
            return rows, pairs
        for t, u in (lM if lN is lM else sorted(lM.keys() | lN.keys())):
            # link_N . f_t = f_u . link_M in Hom(M_t, N_u), one pass per link;
            # a unit column is carried as its column number for its one
            per_leaf: dict = defaultdict(dict)
            I, K = IM[t], IN[u]
            units = ((key, col) for col, key in enumerate(pairs[t], offsets[t]))
            for leaf, col, c in I.composite_terms(K, units, lN.get((t, u), {}).items()):
                per_leaf[leaf][col] = c
            units = ((key, col) for col, key in enumerate(pairs[u], offsets[u]))
            for leaf, c, col in I.composite_terms(K, lM.get((t, u), {}).items(), units):
                per_leaf[leaf][col] = f.neg(c)
            rows.extend(per_leaf.values())
        return rows, pairs

    # -- element operations --------------------------------------------

    def coords_in_basis(self, x: dict):
        """Coefficients of x over the basis, or None if x is outside the span.

        The only candidate is x read at the basis's pivot keys, checked
        against x."""
        f = self.M.field
        coords = [x.get(k, f.zero) for k in self.pivot_keys]
        return coords if combine(f, zip(coords, self.basis)) == {k: c for k, c in x.items() if c != 0} else None

    def random_element(self, rng) -> dict:
        f = self.M.field
        return combine(f, ((f.rand(rng), b) for b in self.basis))


def hom_dim(M: PersModule, N: PersModule, ctx: Context | None = None) -> int:
    return (ctx or Context()).hom(M, N).dim


def end_dim(M: PersModule, ctx: Context | None = None) -> int:
    return hom_dim(M, M, ctx)
