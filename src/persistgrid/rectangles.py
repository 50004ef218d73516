"""Rectangle modules, canonical homomorphisms, morphisms of rectangle sums
in sparse coordinates, and 1D barcodes / explicit interval decompositions:
Intervals records of plain ints, with the interval hom rules on them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .fields import Field
from .grid import GridBox, PersModule, live_arrows, require_common, vle
from .linalg import Matrix


@dataclass(frozen=True)
class Rectangle:
    """I[b, d]: the field on the box [b, d], identities inside, zero outside."""

    b: tuple
    d: tuple

    def __post_init__(self):
        if type(self.b) is not tuple:
            object.__setattr__(self, "b", tuple(self.b))
        if type(self.d) is not tuple:
            object.__setattr__(self, "d", tuple(self.d))
        b, d = self.b, self.d
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
            if not (vle(box.lo, r.b) and vle(r.d, box.hi)):  # r.b <= r.d
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

    def by_vertex(self) -> dict[tuple, list[int]]:
        """Each vertex of some summand -> the indices of the summands
        containing it, in summand order.  Vertices come in order of first
        appearance, summand by summand.  The lists are shared: read them only."""
        if self._at is None:
            at: dict[tuple, list[int]] = {}
            for i, r in enumerate(self.summands):
                for v in product(*map(range, r.b, (x + 1 for x in r.d))):
                    at.setdefault(v, []).append(i)
            self._at = at
        return self._at

    def indices_at(self, v) -> list[int]:
        return self.by_vertex().get(tuple(v), [])

    def barcode(self) -> Counter:
        return Counter((r.b, r.d) for r in self.summands)


def rect_to_module(R: RectDecomp) -> PersModule:
    """The persistence module of a rectangle decomposition.

    The basis at each vertex lists the summands containing it, in summand
    order; steps are the induced 0/1 matrices, one object per distinct
    matrix, never mutated.
    """
    field = R.field
    at = R.by_vertex()
    dims = {v: len(idxs) for v, idxs in at.items()}
    pos = {v: {s: j for j, s in enumerate(idxs)} for v, idxs in at.items()}
    steps, shared = {}, {}
    for v, k, w in live_arrows(at, R.n):  # the summands lie in R.box
        # column col of the step has its one in row key[1][col], if any
        key = (dims[w], tuple(map(pos[w].get, at[v])))
        if (m := shared.get(key)) is None:
            m = shared[key] = Matrix.zero(field, dims[w], dims[v])
            for col, j in enumerate(key[1]):
                if j is not None:
                    m.rows[j][col] = field.one
        steps[(v, k)] = m
    return PersModule(field, R.box, dims, steps)


def realize(source: RectDecomp, target: RectDecomp, coords: dict) -> dict:
    """The components of the morphism rect_to_module(source) ->
    rect_to_module(target) with sparse coordinates coords: coords[(i, j)] = c
    sends summand i of source to summand j of target by c times the
    canonical hom, which is the identity on [b_i, d_j] and zero elsewhere.
    Only the nonzero components are given, keyed by vertex; vertices with
    the same source and target summands share one matrix, never mutated.
    """
    require_common("morphism", source, target)
    by_source: dict[int, list] = {}
    for (i, j), c in coords.items():
        if c == 0:
            continue
        if not hom_leq(source.summands[i], target.summands[j]):
            raise ValueError(f"nonzero coordinate ({i}, {j}) where the hom space is zero")
        by_source.setdefault(i, []).append((j, c))
    tgt_at = target.by_vertex()
    comps, shared = {}, {}
    for v, sidx in source.by_vertex().items():
        tidx = tgt_at.get(v)
        if not tidx:
            continue
        key = (tuple(sidx), tuple(tidx))
        if key not in shared:
            row_of = {j: row for row, j in enumerate(tidx)}
            m = Matrix.zero(source.field, len(tidx), len(sidx))
            # both summands live at v, so v lies in [b_i, d_j]
            for col, i in enumerate(sidx):
                for j, c in by_source.get(i, ()):
                    if (row := row_of.get(j)) is not None:
                        m.rows[row][col] = c
            shared[key] = None if m.is_zero() else m
        if shared[key] is not None:
            comps[v] = shared[key]
    return comps


# ---------------------------------------------------------------------------
# 1D interval decompositions and barcodes


class _Chain:
    __slots__ = ("birth", "death", "vecs", "index")

    def __init__(self, birth: int, vecs, index: int):
        self.birth = birth
        self.death = None
        # {x: chain vector} in the elder-rule pass; on the matching path the
        # list of its rows at birth, birth + 1, ...
        self.vecs = vecs
        self.index = index  # creation order, the tie-break between equal intervals


def interval_decompose_1d(M: PersModule) -> "Intervals":
    """Explicit interval decomposition of a 1D module: one chain of basis
    vectors per interval summand, ordered by (birth, death, creation
    order), deterministically.

    When every step is a 0/1 matching (entries 0 and one only, at most one
    nonzero in each row and column; identities and the empty matching
    included), the chains follow the matchings and the record keeps each
    summand's row at each vertex.  That is the elder-rule pass's answer:
    its chain vectors are then unit vectors with coefficient 1, which a
    matching sends to distinct unit vectors or to zero, so reducing the
    images subtracts nothing and rescales nothing, a chain dies exactly
    where its row is unmatched, and a newborn e_r survives its reduction
    exactly when r is no survivor's row.  Any other step sends the whole
    module through the elder-rule pass."""
    if M.n != 1:
        raise ValueError("interval decomposition needs a 1D module")
    matchings = _matchings(M)
    chains = _elder_rule(M) if matchings is None else _follow(M, matchings)
    chains.sort(key=lambda c: (c.birth, c.death, c.index))
    return Intervals(M.field, chains, matchings is not None)


def _matching(A: Matrix) -> list | None:
    """m with m[c] the row of column c's one and None at a zero column, when
    A is a 0/1 matching; None otherwise."""
    one = A.field.one
    m = [None] * A.ncols
    for r, row in enumerate(A.rows):
        if nonzero := len(row) - row.count(0):
            if nonzero > 1 or one not in row or m[c := row.index(one)] is not None:
                return None
            m[c] = r
    return m


def _matchings(M: PersModule) -> dict | None:
    """{x: the matching of the step from x - 1} over M's steps, a missing
    step being the empty one, or None when some step is no matching.  Each
    matrix object is read once."""
    seen, out = {}, {}
    for ((x,), _), A in M.steps.items():
        if id(A) not in seen:
            seen[id(A)] = _matching(A)
        if (m := seen[id(A)]) is None:
            return None
        out[x + 1] = m
    return out


def _follow(M: PersModule, matchings: dict) -> list[_Chain]:
    """The chains of a module whose steps are all matchings, each a list of
    rows: a chain survives a step where its row is matched, and the rows
    of x no survivor holds are born there, in row order."""
    active: list[_Chain] = []
    done: list[_Chain] = []
    chains_made = 0
    for x in range(M.box.lo[0], M.box.hi[0] + 1):
        m = matchings.get(x)
        survivors = []
        for chain in active:
            r = None if m is None else m[chain.vecs[-1]]
            if r is None:
                chain.death = x - 1
                done.append(chain)
            else:
                chain.vecs.append(r)
                survivors.append(chain)
        active = survivors
        d = M.dims.get((x,), 0)
        if d > len(active):
            held = {chain.vecs[-1] for chain in active}
            for r in range(d):
                if r not in held:
                    active.append(_Chain(x, [r], chains_made))
                    chains_made += 1
    for chain in active:
        chain.death = M.box.hi[0]
        done.append(chain)
    return done


def _elder_rule(M: PersModule) -> list[_Chain]:
    """The chains of a 1D module by one reduction pass over its steps."""
    f = M.field
    lo, hi = M.box.lo[0], M.box.hi[0]
    active: list[_Chain] = []
    done: list[_Chain] = []
    chains_made = 0

    def reduce_vec(vec, accepted, chain, x):
        """(pivot, vec): vec reduced against the accepted (pivot, chain)
        pairs and scaled to a leading one, pivot None when it reduces to
        zero.  A surviving chain's stored vectors undergo the same
        operations, so the chain property survives; a birth has none."""
        for piv, other in accepted:
            c = vec[piv]
            if c == 0:
                continue
            vec = [f.sub(a, f.mul(c, b)) for a, b in zip(vec, other.vecs[x])]
            if chain is not None:
                for y in range(chain.birth, x):
                    chain.vecs[y] = [f.sub(a, f.mul(c, b)) for a, b in zip(chain.vecs[y], other.vecs[y])]
        piv = next((i for i, a in enumerate(vec) if a != 0), None)
        if piv is not None and vec[piv] != f.one:
            inv = f.inv(vec[piv])
            vec = [f.mul(inv, a) for a in vec]
            if chain is not None:
                for y in range(chain.birth, x):
                    chain.vecs[y] = [f.mul(inv, a) for a in chain.vecs[y]]
        return piv, vec

    for x in range(lo, hi + 1):
        d = M.dims.get((x,), 0)
        accepted: list[tuple[int, _Chain]] = []
        survivors: list[_Chain] = []
        if x > lo and active:
            A = M.step((x - 1,), 0) if d else None  # not a zero matrix into a dead vertex
            if d and A.is_identity():
                # the vectors at x - 1 are reduced and normalized in birth
                # order and span the space, so the pass below would change
                # none of them and find nothing to be born
                for chain in active:
                    chain.vecs[x] = chain.vecs[x - 1]
                continue
            # elder rule: older births reduce younger ones; active lists the
            # chains by birth, since survivors keep their order and births
            # come last
            for chain in active:
                piv, vec = reduce_vec(A.mul_vec(chain.vecs[x - 1]), accepted, chain, x) if d else (None, [])
                if piv is None:
                    chain.death = x - 1
                    done.append(chain)
                else:
                    chain.vecs[x] = vec
                    accepted.append((piv, chain))
                    survivors.append(chain)
        active = survivors
        # new chains born at x complete the basis
        for r in range(d):
            vec = [f.zero] * d
            vec[r] = f.one
            piv, vec = reduce_vec(vec, accepted, None, x)
            if piv is None:
                continue
            chain = _Chain(x, {x: vec}, chains_made)
            chains_made += 1
            accepted.append((piv, chain))
            active.append(chain)
    for chain in active:
        chain.death = hi
        done.append(chain)
    return done


def barcode_1d(M: PersModule) -> Counter:
    """Barcode of a 1D module, read off its interval decomposition."""
    I = interval_decompose_1d(M)
    return Counter(((b,), (d,)) for b, d in zip(I.births, I.deaths))


class Intervals:
    """A 1D module's interval summands: summand i is [births[i], deaths[i]]
    with chain vector chains[i][x] at x, and at[v] lists those live at v.
    basis[v] holds the chain vectors of at[v] as columns, the components of
    a pointwise invertible morphism to M from the sum of the summands'
    rectangle modules.

    A record of matchings keeps rows[i], summand i's row at births[i],
    births[i] + 1, ...: its chain vectors are those unit vectors, made on
    first read, and its bases permutation matrices.  rows is None on a
    record of the elder-rule pass, which gives the chain vectors."""

    def __init__(self, field: Field, chains: list[_Chain], matched: bool):
        self.field = field
        self.births = [c.birth for c in chains]
        self.deaths = [c.death for c in chains]
        if matched:
            self.rows = [c.vecs for c in chains]
        else:
            self.rows = None
            self.chains = [c.vecs for c in chains]  # in place of the cached property
        self._inverses = {}

    def hom_pairs(self, J: "Intervals") -> list[tuple]:
        """The (i, j), i then j rising, with Hom(self[i], J[j]) nonzero, by
        hom_leq on the integer ends: the columns of a 1D hom space."""
        return [(i, j) for i, (a, b) in enumerate(zip(self.births, self.deaths))
                for j, (c, d) in enumerate(zip(J.births, J.deaths)) if c <= a and d <= b and a <= d]

    def coords(self, J: "Intervals", g: dict, at: tuple = ()) -> dict:
        """The sparse coordinates of the morphism with components g,
        {vertex: matrix}, from this module to J's, read at the vertices
        (x,) + at: on the fibre at at of a larger module.  Summand i's chain
        vector at its birth b, mapped by g, has unique coordinates in J's
        chain basis there; of the summands j live at b, hom_leq keeps those
        that die no later than i.  Between two records of matchings both
        are unit vectors, so coordinate (i, j) is the entry of g at b in
        row j's row and column i's row."""
        out = {}
        rows, Jrows, Jbirths, Jdeaths = self.rows, J.rows, J.births, J.deaths
        for i, (b, d) in enumerate(zip(self.births, self.deaths)):
            gv, live = g.get((b,) + at), J.at.get((b,))
            if gv is None or live is None:
                continue
            if rows is not None and Jrows is not None:
                col, grows = rows[i][0], gv.rows
                for j in live:
                    if (c := grows[Jrows[j][b - Jbirths[j]]][col]) != 0 and Jdeaths[j] <= d:
                        out[(i, j)] = c
                continue
            y, inv = gv.mul_vec(self.chains[i][b]), J.inverse((b,))
            for j, c in zip(live, y if inv is None else inv.mul_vec(y)):
                if c != 0 and Jdeaths[j] <= d:
                    out[(i, j)] = c
        return out

    def rows_at(self, i: int, b: int, e: int) -> list[int]:
        """Summand i's row at b, b + 1, ..., e: on a record of matchings
        read off rows, on any other its place in at, the column of basis."""
        if self.rows is not None:
            return self.rows[i][b - self.births[i]:e + 1 - self.births[i]]
        return [self.at[(x,)].index(i) for x in range(b, e + 1)]

    def composite_terms(self, K: "Intervals", y, x):
        """The terms ((i, k), b, c) of x after y, given as ((i, j), b) and
        ((j, k), c) pairs from self through a middle module to K: those
        meeting at j, but none where births[i] follows K.deaths[k], as the
        composite of two canonical homs then vanishes."""
        by_mid = defaultdict(list)
        for (j, k), c in x:
            by_mid[j].append((k, c))
        births, deaths = self.births, K.deaths
        for (i, j), b in y:
            for k, c in by_mid.get(j, ()):
                if births[i] <= deaths[k]:
                    yield (i, k), b, c

    @cached_property
    def at(self) -> dict[tuple, list[int]]:
        at: dict[tuple, list[int]] = {}
        for i, (b, d) in enumerate(zip(self.births, self.deaths)):
            for x in range(b, d + 1):
                at.setdefault((x,), []).append(i)
        return at

    @cached_property
    def chains(self) -> list[dict]:
        """The unit vectors at a record of matchings' rows."""
        f, at = self.field, self.at
        chains = []
        for b, rows in zip(self.births, self.rows):
            vecs = {}
            for x, r in enumerate(rows, b):
                vecs[x] = vec = [f.zero] * len(at[(x,)])
                vec[r] = f.one
            chains.append(vecs)
        return chains

    def _matrix(self, v) -> Matrix:
        return Matrix(self.field, zip(*(self.chains[i][v[0]] for i in self.at[v])))

    @cached_property
    def basis(self) -> dict[tuple, Matrix]:
        return {v: self._matrix(v) for v in self.at}

    def inverse(self, v) -> Matrix | None:
        """The inverse of basis[v], None where that is the identity; on a
        record of matchings the transpose of a permutation matrix."""
        if v not in self._inverses:
            B = self._matrix(v)
            if B.is_identity():
                self._inverses[v] = None
            else:
                self._inverses[v] = B.inverse() if self.rows is None else B.transpose()
        return self._inverses[v]
