"""Rectangle modules, canonical homomorphisms, morphisms of rectangle sums
in sparse coordinates, and 1D barcodes / explicit interval decompositions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .fields import Field
from .grid import GridBox, ModMorphism, PersModule, vadd, vle, vsub, vsucc
from .linalg import Matrix


@dataclass(frozen=True)
class Rectangle:
    """I[b, d]: the field on the box [b, d], identities inside, zero outside."""

    b: tuple
    d: tuple

    def __post_init__(self):
        b, d = tuple(self.b), tuple(self.d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        if len(b) != len(d) or not vle(b, d):
            raise ValueError(f"bad rectangle [{b}, {d}]")

    @property
    def n(self) -> int:
        return len(self.b)

    def contains(self, v) -> bool:
        return vle(self.b, v) and vle(v, self.d)


def hom_leq(A: Rectangle, B: Rectangle) -> bool:
    """A <= B iff Hom(I[A], I[B]) is nonzero (it is then one-dimensional):
    B.b <= A.b, B.d <= A.d and A.b <= B.d."""
    if A.n != B.n:
        raise ValueError("rectangles of different dimensions")
    return vle(B.b, A.b) and vle(B.d, A.d) and vle(A.b, B.d)


class RectDecomp:
    """An ordered formal direct sum of rectangles inside a box.

    Order matters: the sparse coordinates of morphisms index it.  The
    summands are fixed once the sum is made, so the map from each vertex to
    the summands containing it is built once, on first use.
    """

    def __init__(self, field: Field, box: GridBox, summands: list[Rectangle]):
        self.field = field
        self.box = box
        self.summands = list(summands)
        self._at = None
        for r in self.summands:
            if r.n != box.n:
                raise ValueError("rectangle dimension does not match box")
            if not (box.contains(r.b) and box.contains(r.d)):
                raise ValueError(f"rectangle [{r.b}, {r.d}] escapes box {box.lo}..{box.hi}")

    def __len__(self):
        return len(self.summands)

    def __eq__(self, other):
        return (
            isinstance(other, RectDecomp)
            and self.field == other.field
            and self.box == other.box
            and self.summands == other.summands
        )

    def __repr__(self):
        return f"RectDecomp({self.field}, {[(r.b, r.d) for r in self.summands]})"

    @property
    def n(self) -> int:
        return self.box.n

    def on_box(self, box: GridBox) -> "RectDecomp":
        return RectDecomp(self.field, box, self.summands)

    def by_vertex(self) -> dict[tuple, list[int]]:
        """Each vertex of some summand -> the indices of the summands
        containing it, in summand order.  Vertices come in order of first
        appearance, summand by summand.  The lists are shared: read them only."""
        if self._at is None:
            at: dict[tuple, list[int]] = {}
            for i, r in enumerate(self.summands):
                for v in GridBox(r.b, r.d).vertices():
                    at.setdefault(v, []).append(i)
            self._at = at
        return self._at

    def indices_at(self, v) -> list[int]:
        return self.by_vertex().get(tuple(v), [])

    def barcode(self) -> Counter:
        return Counter((r.b, r.d) for r in self.summands)

    def dualize(self) -> "RectDecomp":
        c = vadd(self.box.lo, self.box.hi)
        return RectDecomp(self.field, self.box, [Rectangle(vsub(c, r.d), vsub(c, r.b)) for r in self.summands])


def rect_to_module(R: RectDecomp) -> PersModule:
    """The persistence module of a rectangle decomposition.

    The basis at each vertex lists the summands containing it, in summand
    order; steps are the induced 0/1 matrices.
    """
    field = R.field
    n = R.n
    at = R.by_vertex()
    dims = {v: len(idxs) for v, idxs in at.items()}
    steps = {}
    one = field.one
    for v, idxs in at.items():
        for k in range(n):
            w = vsucc(v, k)
            widx = at.get(w)
            if not R.box.contains(w) or not widx:
                continue
            m = Matrix.zero(field, len(widx), len(idxs))
            pos_w = {s: j for j, s in enumerate(widx)}
            for col, s in enumerate(idxs):
                j = pos_w.get(s)
                if j is not None:
                    m.rows[j][col] = one
            steps[(v, k)] = m
    return PersModule(field, R.box, dims, steps)


def realize(source: RectDecomp, target: RectDecomp, coords: dict,
            src_mod: PersModule | None = None, tgt_mod: PersModule | None = None) -> ModMorphism:
    """The morphism with sparse coordinates coords: coords[(i, j)] = c sends
    summand i of source to summand j of target by c times the canonical hom,
    which is the identity on [b_i, d_j] and zero elsewhere.

    src_mod and tgt_mod, when given, must be rect_to_module(source) and
    rect_to_module(target); the morphism then uses them as they are.
    """
    if source.field != target.field:
        raise ValueError("field mismatch")
    if source.box != target.box:
        raise ValueError("box mismatch")
    by_source: dict[int, list] = {}
    for (i, j), c in coords.items():
        if c == 0:
            continue
        if not hom_leq(source.summands[i], target.summands[j]):
            raise ValueError(f"nonzero coordinate ({i}, {j}) where the hom space is zero")
        by_source.setdefault(i, []).append((j, c))
    src_mod = src_mod or rect_to_module(source)
    tgt_mod = tgt_mod or rect_to_module(target)
    tgt_at = target.by_vertex()
    comps = {}
    for v, sidx in source.by_vertex().items():
        tidx = tgt_at.get(v)
        if not tidx:
            continue
        row_of = {j: row for row, j in enumerate(tidx)}
        m = Matrix.zero(source.field, len(tidx), len(sidx))
        # both summands live at v, so v lies in [b_i, d_j]
        for col, i in enumerate(sidx):
            for j, c in by_source.get(i, ()):
                row = row_of.get(j)
                if row is not None:
                    m.rows[row][col] = c
        comps[v] = m
    return ModMorphism(src_mod, tgt_mod, comps)


# ---------------------------------------------------------------------------
# 1D interval decompositions and barcodes


class _Chain:
    __slots__ = ("birth", "death", "vecs", "index")

    def __init__(self, birth: int, vec: list, index: int):
        self.birth = birth
        self.death = None
        self.vecs = {birth: vec}
        self.index = index  # creation order, the tie-break between equal intervals


def _interval_chains(M: PersModule) -> list[_Chain]:
    """One reduction pass over a 1D module: chains of basis vectors, one
    per interval summand, sorted by (birth, death, creation order)."""
    if M.n != 1:
        raise ValueError("interval decomposition needs a 1D module")
    f = M.field
    lo, hi = M.box.lo[0], M.box.hi[0]
    active: list[_Chain] = []
    done: list[_Chain] = []
    chains_made = 0

    def reduce_vec(vec, accepted, chain, x):
        """Reduce vec against accepted (pivot, chain) pairs, applying the same
        operations to the whole stored chain so the chain property survives."""
        for piv, other in accepted:
            c = vec[piv]
            if c == 0:
                continue
            ov = other.vecs[x]
            vec = [f.sub(a, f.mul(c, b)) for a, b in zip(vec, ov)]
            if chain is not None:
                for y in range(chain.birth, x):
                    cv, ovy = chain.vecs[y], other.vecs[y]
                    chain.vecs[y] = [f.sub(a, f.mul(c, b)) for a, b in zip(cv, ovy)]
        return vec

    for x in range(lo, hi + 1):
        d = M.dim((x,))
        accepted: list[tuple[int, _Chain]] = []
        survivors: list[_Chain] = []
        if x > lo and active:
            A = M.step((x - 1,), 0)
            # elder rule: older births reduce younger ones
            for chain in sorted(active, key=lambda c: c.birth):
                img = A.mul_vec(chain.vecs[x - 1]) if d else [f.zero] * 0
                vec = reduce_vec(list(img), accepted, chain, x) if d else []
                piv = next((i for i, a in enumerate(vec) if a != 0), None)
                if piv is None:
                    chain.death = x - 1
                    done.append(chain)
                else:
                    inv = f.inv(vec[piv])
                    if inv != f.one:
                        vec = [f.mul(inv, a) for a in vec]
                        for y in range(chain.birth, x):
                            chain.vecs[y] = [f.mul(inv, a) for a in chain.vecs[y]]
                    chain.vecs[x] = vec
                    accepted.append((piv, chain))
                    survivors.append(chain)
        elif active:
            survivors = active
        active = survivors
        # new chains born at x complete the basis
        for r in range(d):
            vec = [f.zero] * d
            vec[r] = f.one
            vec = reduce_vec(vec, accepted, None, x)
            piv = next((i for i, a in enumerate(vec) if a != 0), None)
            if piv is None:
                continue
            if vec[piv] != f.one:
                inv = f.inv(vec[piv])
                vec = [f.mul(inv, a) for a in vec]
            chain = _Chain(x, vec, chains_made)
            chains_made += 1
            accepted.append((piv, chain))
            active.append(chain)
    for chain in active:
        chain.death = hi
        done.append(chain)
    return sorted(done, key=lambda c: (c.birth, c.death, c.index))


def barcode_1d(M: PersModule) -> Counter:
    """Barcode of a 1D module, read off its interval chains."""
    return Counter(((c.birth,), (c.death,)) for c in _interval_chains(M))


def interval_decompose_1d(M: PersModule):
    """Explicit interval decomposition of a 1D module.

    Returns (decomp, basis).  Summands are ordered by (birth, death,
    creation order), deterministically.  The columns of basis[v] are the
    chain vectors at v of the summands containing v, in summand order: the
    components of a pointwise invertible morphism rect_to_module(decomp) -> M,
    which Context.decomp1 builds.
    """
    f = M.field
    chains = _interval_chains(M)
    decomp = RectDecomp(f, M.box, [Rectangle((c.birth,), (c.death,)) for c in chains])
    basis = {}
    for v, idxs in decomp.by_vertex().items():
        cols = [chains[i].vecs[v[0]] for i in idxs]
        basis[v] = Matrix(f, [[col[r] for col in cols] for r in range(M.dim(v))])
    return decomp, basis
