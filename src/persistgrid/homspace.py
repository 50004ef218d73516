"""Morphism spaces between persistence modules, computed recursively.

For 1D modules, Hom is spanned by canonical homomorphisms between interval
summands, so elements have exact sparse coordinates ("ambient coordinates"
indexed by allowed summand pairs).  For nD modules both sides are sliced
into layers along the last axis; a morphism is a tuple of layer morphisms
subject to one commutation constraint per adjacent pair, solved as a sparse
linear system over the layer hom bases.  Ambient coordinates at level n are
layer-tagged level n-1 coordinates, so elements stay sparse dicts all the
way down and composition never touches a vertex-by-vertex matrix.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import accumulate, groupby

from .grid import PersModule, require_common, slice_layers
from .linalg import Matrix, nullspace_sparse, rank_sparse
from .rectangles import hom_leq, interval_decompose_1d, realize


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

    A 1D decomposition is cached with its chain basis, which is all that
    hom bases, express and compose read; materialize also reads the chain
    basis inverses, computed once per representative on first use.  No
    rectangle module is built.  No HomSpace refers back to its context, so
    the caches are freed with the context.
    """

    def __init__(self):
        self._reps = {}  # id(M) -> (M, representative)
        self._by_content = {}
        self._mats = {}  # id(m) -> (m, content number)
        self._numbers = {}  # row tuples -> content number
        self._decomps = {}
        self._inverses = {}
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
            key = (M.field, M.box, tuple(M.dims.items()),
                   tuple((vk, self._content(m)) for vk, m in M.steps.items()))
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

    def intervals1(self, M: PersModule):
        """(decomp, basis) for a 1D module, as interval_decompose_1d gives
        them for the representative of M."""
        return self._cached(self._decomps, M, interval_decompose_1d)

    def _basis_inverse(self, M: PersModule) -> dict:
        """vertex -> the inverse of intervals1(M)'s chain basis there,
        computed on first use."""
        return self._cached(self._inverses, M,
                            lambda R: {v: b.inverse() for v, b in self.intervals1(R)[1].items()})

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
            DM, basisM = self.intervals1(M)
            DN, basisN = self.intervals1(N)
            out = {}
            for v, born in groupby(range(len(DM)), key=lambda i: DM.summands[i].b):
                gv = g.get(v)
                if gv is None:
                    continue
                # summands are sorted by birth, so those born at v are the last
                # columns of M's chain basis at v; their chain vectors, mapped
                # by g, have unique coordinates in N's invertible chain basis
                born = list(born)
                chains = Matrix(M.field, [row[-len(born):] for row in basisM[v].rows])
                X = gv @ chains if basisN[v].is_identity() else basisN[v].solve(gv @ chains)
                rows = DN.indices_at(v)
                for col, i in enumerate(born):
                    for r, j in enumerate(rows):
                        c = X.rows[r][col]
                        if c != 0 and hom_leq(DM.summands[i], DN.summands[j]):
                            out[(i, j)] = c
            return out
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
            DM = self.intervals1(M)[0]
            DN, basisN = self.intervals1(N)
            inv = self._basis_inverse(M)
            X = realize(DM, DN, x)
            return {v: (basisN[v] @ m) @ inv[v] for v, m in X.items()}
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
            DL = self.intervals1(L)[0]
            DN = self.intervals1(N)[0]
            by_mid = defaultdict(list)
            for (j, k), c in x.items():
                by_mid[j].append((k, c))
            out = {}
            for (i, j), b in y.items():
                for k, c in by_mid.get(j, ()):
                    # a composite through two canonical homs vanishes unless
                    # the source birth still precedes the target death; on
                    # 1-tuples tuple order is that comparison
                    if DL.summands[i].b <= DN.summands[k].d:
                        key = (i, k)
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
    checked before anything is built.  _build gives the constraint rows,
    the columns they constrain, the layer hom basis elements tagged by
    layer, and a key for each column; in 1D there are no rows and the
    columns are the basis.  dim is the column count less the rows' rank,
    and the kernel basis is solved on the first read of basis.

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
        self._rows, self._cols, self._keys = self._build(ctx)

    @cached_property
    def dim(self) -> int:
        return len(self._cols) - rank_sparse(self._rows, self.M.field)

    @cached_property
    def _solved(self) -> tuple[list[dict], list]:
        """(basis, keys): the kernel basis and its elements' pivot keys."""
        if not self._rows:
            return self._cols, self._keys
        f = self.M.field
        sols = nullspace_sparse(self._rows, len(self._cols), f)
        return ([combine(f, ((c, self._cols[col]) for col, c in sol.items())) for sol in sols],
                [self._keys[max(sol)] for sol in sols])

    @property
    def basis(self) -> list[dict]:
        return self._solved[0]

    @property
    def pivot_keys(self) -> list:
        return self._solved[1]

    def _build(self, ctx: Context) -> tuple[list[dict], list[dict], list]:
        M, N = self.M, self.N
        f = M.field
        if M.is_zero() or N.is_zero():
            return [], [], []
        if M.n == 1:
            DM = ctx.intervals1(M)[0]
            DN = ctx.intervals1(N)[0]
            keys = [(i, j) for i, A in enumerate(DM.summands) for j, B in enumerate(DN.summands) if hom_leq(A, B)]
            return [], [{key: f.one} for key in keys], keys
        Ms, lMs = ctx.layers(M)
        Ns, lNs = ctx.layers(N)
        h = len(Ms)
        homs = [ctx.hom(Ms[i], Ns[i]) for i in range(h)]
        bases = [H.basis for H in homs]
        offsets = list(accumulate(map(len, bases), initial=0))
        if offsets[-1] == 0:
            return [], [], []
        lM_expr = [ctx.express(Ms[i], Ms[i + 1], lMs[i].comps) for i in range(h - 1)]
        lN_expr = lM_expr if N is M else [ctx.express(Ns[i], Ns[i + 1], lNs[i].comps) for i in range(h - 1)]
        rows: list[dict] = []
        for i in range(h - 1):
            # constraint: link_N . f_i = f_{i+1} . link_M in Hom(M_i, N_{i+1})
            per_leaf: dict = defaultdict(dict)
            for b_idx, b in enumerate(bases[i]):
                z = ctx.compose(Ms[i], Ns[i], Ns[i + 1], lN_expr[i], b)
                for leaf, c in z.items():
                    per_leaf[leaf][offsets[i] + b_idx] = c
            for b_idx, b in enumerate(bases[i + 1]):
                z = ctx.compose(Ms[i], Ms[i + 1], Ns[i + 1], b, lM_expr[i])
                col = offsets[i + 1] + b_idx
                for leaf, c in z.items():
                    row = per_leaf[leaf]
                    row[col] = f.sub(row.get(col, f.zero), c)
            rows.extend(per_leaf.values())
        # column offsets[i] + b of the system is layer i's basis element b
        return (rows, [{(i, leaf): v for leaf, v in b.items()} for i, basis in enumerate(bases) for b in basis],
                [(i, key) for i, H in enumerate(homs) for key in H.pivot_keys])

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
