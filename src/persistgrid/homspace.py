"""Morphism spaces between persistence modules, computed recursively.

For 1D modules, Hom is spanned by canonical homomorphisms between interval
summands, so elements have exact sparse coordinates ("ambient coordinates"
indexed by allowed summand pairs).  For nD modules both sides are sliced
into layers along the last axis; a morphism is a tuple of layer morphisms
subject to one commutation constraint per adjacent pair, solved as a sparse
linear system over the layer hom bases.  Ambient coordinates at level n are
layer-tagged level n-1 coordinates, so elements stay sparse dicts all the
way down and composition never touches a vertex-by-vertex matrix.  The 1D
base case reads the interval records of rectangles.interval_decompose_1d:
hom columns, compose and express compare their integer ends.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import accumulate

from .grid import PersModule, require_common, slice_layers
from .linalg import Matrix, nullspace_sparse, rank_sparse
from .rectangles import Intervals, interval_decompose_1d, realize


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


def _by_layer(x: dict) -> dict:
    """Layer-tagged coordinates {(i, leaf): c}, split as {i: {leaf: c}}."""
    per = defaultdict(dict)
    for (i, leaf), c in x.items():
        per[i][leaf] = c
    return per


class Context:
    """Shared caches for a batch of hom computations.

    Caches are keyed by module content: each module maps to the first module
    seen here with the same field, box, dims and step matrices, in the same
    dict order.  What is made for that representative is stored under its
    id and the id of every module seen for it, so the caches answer a
    module already seen in one lookup.  Equal modules thus share one
    interval decomposition, one layer slicing and one HomSpace, and a
    representative iterates exactly like the modules it stands for.  A step
    enters the key as a number per matrix object, equal for equal rows, so
    a matrix that steps share is read once.  The maps keep every module and
    matrix alive, so ids cannot be recycled underneath us.

    A 1D module is cached as its Intervals record and a pair of them as
    their Intervals.hom_pairs, which a 2D HomSpace reads for each layer
    instead of a layer HomSpace.  No rectangle module is built.  No
    HomSpace refers back to its context, so the caches are freed with it.
    """

    def __init__(self):
        self._reps = {}  # id(M) -> (M, representative)
        self._by_content = {}
        self._mats = {}  # id(m) -> (m, content number)
        self._numbers = {}  # row tuples -> content number
        self._decomps = {}
        self._pairs = {}
        self._layers = {}
        self._homs = {}

    def _content(self, m: Matrix) -> int:
        """A number for m's rows, the same for every equal matrix seen here;
        each matrix object's rows are read once."""
        entry = self._mats.get(id(m))
        if entry is None:
            rows = tuple(map(tuple, m.rows))
            entry = self._mats[id(m)] = (m, self._numbers.setdefault(rows, len(self._numbers)))
        return entry[1]

    def _rep(self, M: PersModule) -> PersModule:
        """The first module seen in this context equal to M."""
        entry = self._reps.get(id(M))
        if entry is None:
            key = (M.field, M.box, tuple(M.dims.items()), tuple(M.steps),
                   tuple(map(self._content, M.steps.values())))
            entry = self._reps[id(M)] = (M, self._by_content.setdefault(key, M))
        return entry[1]

    # -- cached structure, made for the representative -----------------

    def _cached(self, cache: dict, M: PersModule, make):
        """make(R) for the representative R of M, made once per R."""
        out = cache.get(id(M))
        if out is None:
            R = self._rep(M)
            out = cache.get(id(R))
            if out is None:
                out = make(R)
            cache[id(M)] = cache[id(R)] = out
        return out

    def intervals1(self, M: PersModule) -> Intervals:
        """interval_decompose_1d of the representative of a 1D module M."""
        return self._cached(self._decomps, M, interval_decompose_1d)

    def pairs(self, M: PersModule, N: PersModule) -> list[tuple]:
        """hom_pairs of two 1D modules, made once per pair of representatives."""
        key = (id(self._rep(M)), id(self._rep(N)))
        out = self._pairs.get(key)
        if out is None:
            out = self._pairs[key] = self.intervals1(M).hom_pairs(self.intervals1(N))
        return out

    def layers(self, M: PersModule):
        return self._cached(self._layers, M, slice_layers)

    def hom(self, M: PersModule, N: PersModule) -> "HomSpace":
        M, N = self._rep(M), self._rep(N)
        key = (id(M), id(N))
        if key not in self._homs:
            self._homs[key] = HomSpace(M, N, self)
        return self._homs[key]

    # -- the ambient-coordinate calculus -------------------------------

    def express(self, M: PersModule, N: PersModule, g: dict) -> dict:
        """Ambient coordinates of the natural transformation M -> N with
        components g, {vertex: matrix}."""
        if M.is_zero() or N.is_zero():
            return {}
        if M.n == 1:
            return self.intervals1(M).coords(self.intervals1(N), g)
        Ms, _ = self.layers(M)
        Ns, _ = self.layers(N)
        h0 = M.box.lo[-1]
        out = {}
        for i in range(len(Ms)):
            gi = {v: m for v in Ms[i].dims if (m := g.get(v + (h0 + i,))) is not None}
            for leaf, c in self.express(Ms[i], Ns[i], gi).items():
                out[(i, leaf)] = c
        return out

    def materialize(self, M: PersModule, N: PersModule, x: dict) -> dict:
        """The components, {vertex: matrix}, of the natural transformation
        M -> N with the given ambient coordinates; zero ones are left out."""
        if M.is_zero() or N.is_zero():
            return {}
        if M.n == 1:
            # realize gives the morphism between the rectangle modules; the
            # chain bases carry it onto M and N
            I, J = self.intervals1(M), self.intervals1(N)
            comps = {}
            for v, m in realize(I.decomp, J.decomp, x).items():
                m = J.basis[v] @ m
                comps[v] = m if (inv := I.inverse(v)) is None else m @ inv
            return comps
        Ms, _ = self.layers(M)
        Ns, _ = self.layers(N)
        h0 = M.box.lo[-1]
        per = _by_layer(x)
        comps = {}
        for i in range(len(Ms)):
            for v, m in self.materialize(Ms[i], Ns[i], per.get(i, {})).items():
                comps[v + (h0 + i,)] = m
        return comps

    def compose(self, L: PersModule, M: PersModule, N: PersModule, x: dict, y: dict) -> dict:
        """Ambient coordinates of (x: M -> N) after (y: L -> M)."""
        if not x or not y:
            return {}
        f = L.field
        if L.n == 1:
            out = {}
            for key, b, c in self.intervals1(L).composite_terms(self.intervals1(N), y.items(), x.items()):
                out[key] = f.add(out.get(key, f.zero), f.mul(c, b))
            return {k: v for k, v in out.items() if v != 0}
        Ls, _ = self.layers(L)
        Ms, _ = self.layers(M)
        Ns, _ = self.layers(N)
        xs, ys = _by_layer(x), _by_layer(y)
        out = {}
        for i in set(xs) & set(ys):
            for leaf, c in self.compose(Ls[i], Ms[i], Ns[i], xs[i], ys[i]).items():
                out[(i, leaf)] = c
        return out


class HomSpace:
    """Hom(M, N) in ambient coordinates, built by Context.hom with the
    context it reads; it keeps no reference to that context.

    M and N must share field and box (grid.require_common), which is
    checked before anything is built.  _build gives the constraint rows and
    the layers' hom bases; in 1D there are no rows and the columns are the
    unit vectors at Context.pairs.  dim is the column count less the rows'
    rank.  The columns, the layer bases tagged by layer, and their keys are
    made on the first read of basis, which also solves the kernel.

    Each basis element b_k has a pivot key, pivot_keys[k], at which b_k is 1 and
    every other basis element is 0; coords_in_basis reads coordinates
    there.  The columns have such keys, by induction on n: in 1D they are
    the unit vectors at their pairs (i, j); above, column c is a basis
    element b of layer i tagged by i, so it is 1 at (i, key of b), where
    the other columns of layer i are 0 by induction and those of other
    layers are 0 because their tag differs.  nullspace_sparse gives each
    kernel vector a 1 at its free column and a 0 at the other free columns,
    so basis element k is 1 at its free column's key and every other basis
    element is 0 there.  That free column is the kernel vector's largest,
    since every other nonzero sits at a pivot column to its left in the rref.
    """

    def __init__(self, M: PersModule, N: PersModule, ctx: Context):
        require_common("hom", M, N)
        self.M = M
        self.N = N
        self._rows, self._layers = self._build(ctx)
        self.ncols = sum(len(keys) for _, keys in self._layers)

    @cached_property
    def dim(self) -> int:
        return self.ncols - rank_sparse(self._rows, self.M.field)

    @cached_property
    def _solved(self) -> tuple[list[dict], list]:
        """(basis, keys): the kernel basis and its elements' pivot keys."""
        f, cols, keys = self.M.field, [], []
        for i, (basis, ks) in enumerate(self._layers):
            if basis is None:  # a 1D module or layer: the unit vectors at its pairs
                basis = [{k: f.one} for k in ks]
            tagged = self.M.n > 1
            cols += [{(i, leaf): c for leaf, c in b.items()} for b in basis] if tagged else basis
            keys += [(i, k) for k in ks] if tagged else ks
        if not self._rows:
            return cols, keys
        sols = nullspace_sparse(self._rows, len(cols), f)
        return ([combine(f, ((c, cols[col]) for col, c in sol.items())) for sol in sols],
                [keys[max(sol)] for sol in sols])

    @property
    def basis(self) -> list[dict]:
        return self._solved[0]

    @property
    def pivot_keys(self) -> list:
        return self._solved[1]

    def _build(self, ctx: Context) -> tuple[list[dict], list[tuple]]:
        """(rows, layers): the constraint rows and each layer's (hom basis,
        its pivot keys), a 1D layer's basis None as its keys are its pairs;
        column offsets[i] + b of the system is layer i's basis element b."""
        M, N = self.M, self.N
        f = M.field
        if M.is_zero() or N.is_zero():
            return [], []
        if M.n == 1:
            return [], [(None, ctx.pairs(M, N))]
        Ms, lMs = ctx.layers(M)
        Ns, lNs = ctx.layers(N)
        h = len(Ms)
        if M.n == 2:
            layers = [(None, ctx.pairs(Ms[i], Ns[i])) for i in range(h)]
        else:
            layers = [(H.basis, H.pivot_keys) for H in (ctx.hom(Ms[i], Ns[i]) for i in range(h))]
        offsets = list(accumulate((len(keys) for _, keys in layers), initial=0))
        if offsets[-1] == 0:
            return [], layers
        lM_expr = [ctx.express(Ms[i], Ms[i + 1], lMs[i].comps) for i in range(h - 1)]
        lN_expr = lM_expr if N is M else [ctx.express(Ns[i], Ns[i + 1], lNs[i].comps) for i in range(h - 1)]
        rows: list[dict] = []
        for i in range(h - 1):
            # constraint: link_N . f_i = f_{i+1} . link_M in Hom(M_i, N_{i+1})
            per_leaf: dict = defaultdict(dict)
            (basis, keys), (basis1, keys1) = layers[i], layers[i + 1]
            if M.n == 2:
                # compose in one pass over each link, a 1D layer's columns
                # being the unit vectors at its pairs, each carried as its
                # column number in place of its coefficient one
                I, K = ctx.intervals1(Ms[i]), ctx.intervals1(Ns[i + 1])
                units = ((key, col) for col, key in enumerate(keys, offsets[i]))
                for leaf, col, c in I.composite_terms(K, units, lN_expr[i].items()):
                    per_leaf[leaf][col] = c
                units = ((key, col) for col, key in enumerate(keys1, offsets[i + 1]))
                for leaf, c, col in I.composite_terms(K, lM_expr[i].items(), units):
                    per_leaf[leaf][col] = f.neg(c)
            else:
                for col, b in enumerate(basis, offsets[i]):
                    for leaf, c in ctx.compose(Ms[i], Ns[i], Ns[i + 1], lN_expr[i], b).items():
                        per_leaf[leaf][col] = c
                for col, b in enumerate(basis1, offsets[i + 1]):
                    for leaf, c in ctx.compose(Ms[i], Ms[i + 1], Ns[i + 1], b, lM_expr[i]).items():
                        row = per_leaf[leaf]
                        row[col] = f.sub(row.get(col, f.zero), c)
            rows.extend(per_leaf.values())
        return rows, layers

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
