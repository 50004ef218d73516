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
from itertools import accumulate, groupby

from .grid import ModMorphism, PersModule, slice_layers, vle
from .linalg import Matrix, nullspace_sparse
from .rectangles import hom_leq, interval_decompose_1d, realize, rect_to_module


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


class Context:
    """Shared caches for a batch of hom computations.

    Caches are keyed by module content: each module maps to the first module
    seen here with the same field, box, dims and step matrices, in the same
    dict order, and the caches key on that representative.  Equal modules
    thus share one interval decomposition, one layer slicing and one
    HomSpace, and a representative iterates exactly like the modules it
    stands for.  The map keeps every module alive, so ids cannot be recycled
    underneath us.

    A 1D decomposition is cached with its chain basis, which is all that
    hom bases, express and compose read; the rectangle module and the iso
    onto M are built only when a morphism is materialized.
    """

    def __init__(self):
        self._reps = {}  # id(M) -> (M, representative)
        self._by_content = {}
        self._decomps = {}
        self._layers = {}
        self._homs = {}

    def _rep(self, M: PersModule) -> PersModule:
        """The first module seen in this context equal to M."""
        entry = self._reps.get(id(M))
        if entry is None:
            key = (M.field, M.box, tuple(M.dims.items()),
                   tuple((vk, tuple(map(tuple, m.rows))) for vk, m in M.steps.items()))
            entry = self._reps[id(M)] = (M, self._by_content.setdefault(key, M))
        return entry[1]

    # -- cached structure, keyed by representative ----------------------

    def intervals1(self, M: PersModule):
        """(decomp, basis) for a 1D module, as interval_decompose_1d gives
        them for the representative of M."""
        return tuple(self._decomp_entry(M)[:2])

    def decomp1(self, M: PersModule):
        """(decomp, iso) for a 1D module, iso: rect_to_module(decomp) -> M,
        where iso's target is the representative of M; built on first use."""
        entry = self._decomp_entry(M)
        if entry[2] is None:
            entry[2] = ModMorphism(rect_to_module(entry[0]), self._rep(M), entry[1])
        return entry[0], entry[2]

    def decomp1_inverse(self, M: PersModule) -> ModMorphism:
        """The inverse of decomp1(M)'s iso, computed on first use."""
        entry = self._decomp_entry(M)
        entry[3] = entry[3] or self.decomp1(M)[1].inverse()
        return entry[3]

    def _decomp_entry(self, M: PersModule) -> list:
        """[decomp, basis, iso or None, inverse or None]"""
        M = self._rep(M)
        if id(M) not in self._decomps:
            self._decomps[id(M)] = [*interval_decompose_1d(M), None, None]
        return self._decomps[id(M)]

    def layers(self, M: PersModule):
        M = self._rep(M)
        if id(M) not in self._layers:
            self._layers[id(M)] = slice_layers(M)
        return self._layers[id(M)]

    def hom(self, M: PersModule, N: PersModule) -> "HomSpace":
        M, N = self._rep(M), self._rep(N)
        key = (id(M), id(N))
        if key not in self._homs:
            self._homs[key] = HomSpace(M, N, self)
        return self._homs[key]

    # -- the ambient-coordinate calculus -------------------------------

    def express(self, M: PersModule, N: PersModule, g: ModMorphism) -> dict:
        """Ambient coordinates of a natural transformation g: M -> N."""
        if M.is_zero() or N.is_zero():
            return {}
        if M.n == 1:
            DM, basisM = self.intervals1(M)
            DN, basisN = self.intervals1(N)
            out = {}
            for v, born in groupby(range(len(DM)), key=lambda i: DM.summands[i].b):
                gv = g.comps.get(v)
                if gv is None:
                    continue
                # summands are sorted by birth, so those born at v are the last
                # columns of M's chain basis at v; their chain vectors, mapped
                # by g, have unique coordinates in N's invertible chain basis
                born = list(born)
                chains = Matrix(M.field, [row[-len(born):] for row in basisM[v].rows])
                X = basisN[v].solve(gv @ chains)
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
            comps = {v: m for v in Ms[i].dims if (m := g.comps.get(v + (h0 + i,))) is not None}
            gi = ModMorphism(Ms[i], Ns[i], comps)
            for leaf, c in self.express(Ms[i], Ns[i], gi).items():
                out[(i, leaf)] = c
        return out

    def materialize(self, M: PersModule, N: PersModule, x: dict) -> ModMorphism:
        """The natural transformation with the given ambient coordinates."""
        if M.is_zero() or N.is_zero():
            return ModMorphism.zero(M, N)
        if M.n == 1:
            DM, isoM = self.decomp1(M)
            DN, isoN = self.decomp1(N)
            F = realize(DM, DN, x, isoM.source, isoN.source)
            return isoN.compose(F).compose(self.decomp1_inverse(M))
        Ms, _ = self.layers(M)
        Ns, _ = self.layers(N)
        h0 = M.box.lo[-1]
        per = defaultdict(dict)
        for (i, leaf), c in x.items():
            per[i][leaf] = c
        comps = {}
        for i in range(len(Ms)):
            gi = self.materialize(Ms[i], Ns[i], per.get(i, {}))
            for v, m in gi.comps.items():
                comps[v + (h0 + i,)] = m
        return ModMorphism(M, N, comps)

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
                    # the source birth still precedes the target death
                    if vle(DL.summands[i].b, DN.summands[k].d):
                        key = (i, k)
                        out[key] = f.add(out.get(key, f.zero), f.mul(c, b))
            return {k: v for k, v in out.items() if v != 0}
        Ls, _ = self.layers(L)
        Ms, _ = self.layers(M)
        Ns, _ = self.layers(N)
        xs = defaultdict(dict)
        ys = defaultdict(dict)
        for (i, leaf), c in x.items():
            xs[i][leaf] = c
        for (i, leaf), c in y.items():
            ys[i][leaf] = c
        out = {}
        for i in set(xs) & set(ys):
            for leaf, c in self.compose(Ls[i], Ms[i], Ns[i], xs[i], ys[i]).items():
                out[(i, leaf)] = c
        return out


class HomSpace:
    """A basis of Hom(M, N) in ambient coordinates."""

    def __init__(self, M: PersModule, N: PersModule, ctx: Context | None = None):
        if M.field != N.field:
            raise ValueError("hom between modules over different fields")
        if M.box != N.box:
            raise ValueError("hom between modules on different boxes")
        self.M = M
        self.N = N
        self.ctx = ctx if ctx is not None else Context()
        self.basis = self._build()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _build(self) -> list[dict]:
        M, N, ctx = self.M, self.N, self.ctx
        f = M.field
        if M.is_zero() or N.is_zero():
            return []
        if M.n == 1:
            DM = ctx.intervals1(M)[0]
            DN = ctx.intervals1(N)[0]
            return [
                {(i, j): f.one}
                for i, A in enumerate(DM.summands)
                for j, B in enumerate(DN.summands)
                if hom_leq(A, B)
            ]
        Ms, lMs = ctx.layers(M)
        Ns, lNs = ctx.layers(N)
        h = len(Ms)
        spaces = [ctx.hom(Ms[i], Ns[i]) for i in range(h)]
        offsets = list(accumulate((sp.dim for sp in spaces), initial=0))
        total = offsets[-1]
        if total == 0:
            return []
        lM_expr = [ctx.express(Ms[i], Ms[i + 1], lMs[i]) for i in range(h - 1)]
        lN_expr = lM_expr if N is M else [ctx.express(Ns[i], Ns[i + 1], lNs[i]) for i in range(h - 1)]
        rows: list[dict] = []
        for i in range(h - 1):
            # constraint: link_N . f_i = f_{i+1} . link_M in Hom(M_i, N_{i+1})
            per_leaf: dict = defaultdict(dict)
            for b_idx, b in enumerate(spaces[i].basis):
                z = ctx.compose(Ms[i], Ns[i], Ns[i + 1], lN_expr[i], b)
                for leaf, c in z.items():
                    per_leaf[leaf][offsets[i] + b_idx] = c
            for b_idx, b in enumerate(spaces[i + 1].basis):
                z = ctx.compose(Ms[i], Ms[i + 1], Ns[i + 1], b, lM_expr[i])
                col = offsets[i + 1] + b_idx
                for leaf, c in z.items():
                    row = per_leaf[leaf]
                    row[col] = f.sub(row.get(col, f.zero), c)
            rows.extend(per_leaf.values())
        # column offsets[i] + b of the system is layer i's basis element b
        tagged = [{(i, leaf): v for leaf, v in b.items()} for i, sp in enumerate(spaces) for b in sp.basis]
        return [combine(f, ((c, tagged[col]) for col, c in sol.items()))
                for sol in nullspace_sparse(rows, total, f)]

    # -- element operations --------------------------------------------

    def express(self, g: ModMorphism) -> dict:
        return self.ctx.express(self.M, self.N, g)

    def materialize(self, x: dict) -> ModMorphism:
        return self.ctx.materialize(self.M, self.N, x)

    def coords_in_basis(self, x: dict):
        """Coefficients of x over the basis, or None if x is outside the span."""
        f = self.M.field
        keys = sorted({k for b in self.basis for k in b} | set(x), key=repr)
        pos = {k: i for i, k in enumerate(keys)}
        A = Matrix.zero(f, len(keys), self.dim)
        for j, b in enumerate(self.basis):
            for k, c in b.items():
                A.rows[pos[k]][j] = c
        rhs = Matrix.zero(f, len(keys), 1)
        for k, c in x.items():
            rhs.rows[pos[k]][0] = c
        sol = A.solve(rhs)
        if sol is None:
            return None
        return [sol.rows[j][0] for j in range(self.dim)]

    def random_element(self, rng) -> dict:
        f = self.M.field
        return combine(f, ((f.rand(rng), b) for b in self.basis))


def hom_dim(M: PersModule, N: PersModule, ctx: Context | None = None) -> int:
    return (ctx or Context()).hom(M, N).dim


def end_dim(M: PersModule, ctx: Context | None = None) -> int:
    return hom_dim(M, M, ctx)
