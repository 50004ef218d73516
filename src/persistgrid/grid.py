"""Persistence modules on finite boxes of Z^n and morphisms between them.

A module stores one dimension per vertex and one matrix per unit-step arrow;
all other internal maps are composites along the lexicographically smallest
monotone path, which commutativity makes canonical.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property, partial
from operator import add, le, sub

from .fields import Field
from .linalg import Matrix

MAX_VERTICES = 100_000  # the largest box any module or construction may use
MAX_AXES = 32  # the most axes a module or rectangle file may have
# the largest vertex dimension a module file may give, so that one dense
# step matrix holds at most MAX_VERTICES scalars
MAX_DIM = 316


@dataclass(frozen=True)
class GridBox:
    """A product of integer intervals [lo_k, hi_k] in Z^n."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if type(self.lo) is not tuple:
            object.__setattr__(self, "lo", tuple(self.lo))
        if type(self.hi) is not tuple:
            object.__setattr__(self, "hi", tuple(self.hi))
        lo, hi = self.lo, self.hi
        if len(lo) != len(hi):
            raise ValueError("lo and hi have different lengths")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"empty box: lo={lo} hi={hi}")
        if self.count > MAX_VERTICES:
            raise ValueError(f"box with {self.count} vertices exceeds the cap {MAX_VERTICES}")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def count(self) -> int:
        c = 1
        for a, b in zip(self.lo, self.hi):
            c *= b - a + 1
        return c

    def contains(self, v) -> bool:
        for x, a, b in zip(v, self.lo, self.hi):
            if not a <= x <= b:
                return False
        return True

    def contains_box(self, other: "GridBox") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)

    def vertices(self):
        """All vertices in lexicographic order."""
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    @staticmethod
    def hull(boxes: list["GridBox"]) -> "GridBox":
        lo = tuple(min(b.lo[k] for b in boxes) for k in range(boxes[0].n))
        hi = tuple(max(b.hi[k] for b in boxes) for k in range(boxes[0].n))
        return GridBox(lo, hi)


def vsucc(v: tuple, k: int) -> tuple:
    """v + e_k, the head of the unit arrow from v along axis k."""
    return v[:k] + (v[k] + 1,) + v[k + 1:]


def vpred(v: tuple, k: int) -> tuple:
    """v - e_k, the tail of the unit arrow into v along axis k."""
    return v[:k] + (v[k] - 1,) + v[k + 1:]


def live_arrows(tails, n: int, heads=None):
    """(v, k, w) for each unit arrow v -> w = v + e_k of Z^n with v in tails
    and w in heads (tails when None): tails in their order, then k rising."""
    heads = tails if heads is None else heads
    for v in tails:
        for k in range(n):
            w = vsucc(v, k)
            if w in heads:
                yield v, k, w


def vadd(v, w) -> tuple:
    return tuple(map(add, v, w))


def vsub(v, w) -> tuple:
    return tuple(map(sub, v, w))


def vle(v, w) -> bool:
    return all(map(le, v, w))


class PersModule:
    """A persistence module confined to a finite box.

    dims holds only box vertices with positive dimension; steps holds only
    arrows between two such vertices, each of its arrow's shape, and may
    share matrix objects, which are never mutated.  Everything else is zero.
    """

    __slots__ = ("field", "box", "dims", "steps")

    def __init__(self, field: Field, box: GridBox, dims: dict, steps: dict):
        """Stores its arguments: io.pmod_from_json checks outside input."""
        self.field = field
        self.box = box
        self.dims = dims
        self.steps = steps

    @property
    def n(self) -> int:
        return self.box.n

    def dim(self, v) -> int:
        return self.dims.get(tuple(v), 0)

    def step(self, v, k) -> Matrix:
        v = tuple(v)
        m = self.steps.get((v, k))
        if m is not None:
            return m
        return Matrix.zero(self.field, self.dim(vsucc(v, k)), self.dim(v))

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def arrows(self):
        """All in-box unit arrows between positive-dimension vertices."""
        return live_arrows(self.dims, self.n)

    def composite(self, x, y) -> Matrix:
        """The internal map M(x <= y), composed along a canonical path."""
        x, y = tuple(x), tuple(y)
        if not vle(x, y):
            raise ValueError(f"{x} is not <= {y}")
        if self.dim(x) == 0 or self.dim(y) == 0:
            return Matrix.zero(self.field, self.dim(y), self.dim(x))
        if x == y:
            return Matrix.identity(self.field, self.dim(x))
        # lexicographically smallest vertex sequence: raise the last axis
        # first; a one-arrow path gives the stored step itself
        acc, cur = None, x
        for k in range(self.n - 1, -1, -1):
            while cur[k] < y[k]:
                acc = self.step(cur, k) if acc is None else self.step(cur, k) @ acc
                cur = vsucc(cur, k)
                if cur != y and acc.is_zero():
                    return Matrix.zero(self.field, self.dim(y), self.dim(x))
        return acc

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, PersModule):
            return NotImplemented
        if self.field != other.field or self.box != other.box or self.dims != other.dims:
            return False
        keys = set(self.steps) | set(other.steps)
        return all(self.step(v, k) == other.step(v, k) for v, k in keys)

    def __repr__(self):
        return f"PersModule({self.field}, box={self.box.lo}..{self.box.hi}, total_dim={self.total_dim()})"

    def translate(self, t) -> "PersModule":
        t = tuple(t)
        box = GridBox(vadd(self.box.lo, t), vadd(self.box.hi, t))
        dims = {vadd(v, t): d for v, d in self.dims.items()}
        steps = {(vadd(v, t), k): m for (v, k), m in self.steps.items()}
        return PersModule(self.field, box, dims, steps)

    def validate(self, at=None) -> "ValidationReport":
        """Check every commutativity square whose two paths can be nonzero, by
        check_squares, which io.pmod_from_json runs on the steps it reads;
        given the live vertices at, only the squares based at them, in at's
        order."""
        steps, n = self.steps, self.n
        if n < 2:  # no squares
            return ValidationReport(True, "ok", None)
        # each vertex whose steps the squares read, with its steps along axes 0..n-1
        near = self.dims if at is None else dict.fromkeys(w for v in at for w in (v, *(vsucc(v, k) for k in range(n))))
        rows = {v: [steps.get((v, k)) for k in range(n)] for v in near}
        out = rows if at is None else {v: rows[v] for v in at}
        succ = [[None if m is None else rows[vsucc(v, k)] for k, m in enumerate(here)] for v, here in out.items()]
        mats = steps.values() if at is None else (m for here in rows.values() for m in here if m is not None)
        return check_squares(out, succ, {id(m): m for m in mats}.values(), n)


def check_squares(out: dict, succ, mats, n: int) -> "ValidationReport":
    """The first commutativity square that fails, vertices in out's order,
    or ok.  out maps each live vertex v to its steps along axes 0..n-1,
    None (the zero map) where missing; succ lists, in the same order,
    out[v + e_k] along each axis k of a given step, else None; mats holds
    each step object once.  Steps join live vertices only, so a square
    missing an arrow on both paths commutes.  An identity arrow contributes
    the other arrow unmultiplied; a product is taken once per pair of step
    objects, which equal records of a file share."""
    if n < 2:
        return ValidationReport(True, "ok", None)
    identities = {id(m) for m in mats if m.is_identity()}
    products = {}

    def path(a, b):
        """b after a, or None when b is missing (zero)."""
        if b is None:
            return None
        if id(a) in identities:
            return b
        if id(b) in identities:
            return a
        if (key := (id(a), id(b))) not in products:
            products[key] = b @ a
        return products[key]

    axes = list(itertools.combinations(range(n), 2))  # (j, k), j < k, in order
    for (v, here), there in zip(out.items(), succ):
        for j, k in axes:
            lhs = None if there[j] is None else path(here[j], there[j][k])
            rhs = None if there[k] is None else path(here[k], there[k][j])
            if lhs is rhs:
                continue
            if lhs is None or rhs is None:
                ok = (rhs if lhs is None else lhs).is_zero()
            else:
                ok = lhs == rhs
            if not ok:
                return ValidationReport(False, f"commutativity fails on the square at {v}, axes ({j}, {k})", v)
    return ValidationReport(True, "ok", None)


@dataclass
class ValidationReport:
    ok: bool
    message: str
    vertex: tuple | None

    def __bool__(self):
        return self.ok


class ModMorphism:
    """A natural transformation source -> target, one matrix per vertex.

    source and target share field and box.  comps holds matrices only at
    vertices where both modules are nonzero, each of shape target.dim(v) x
    source.dim(v); zero components may be left out, and the matrices are
    never mutated.
    """

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: PersModule, target: PersModule, comps: dict):
        """Stores its arguments: the builders keep the rules above."""
        self.source = source
        self.target = target
        self.comps = comps

    @property
    def field(self) -> Field:
        return self.source.field

    def comp(self, v) -> Matrix:
        v = tuple(v)
        m = self.comps.get(v)
        if m is not None:
            return m
        return Matrix.zero(self.field, self.target.dim(v), self.source.dim(v))

    @staticmethod
    def identity(M: PersModule) -> "ModMorphism":
        return ModMorphism(M, M, {v: Matrix.identity(M.field, d) for v, d in M.dims.items()})

    @staticmethod
    def zero(source: PersModule, target: PersModule) -> "ModMorphism":
        return ModMorphism(source, target, {})

    def validate(self) -> ValidationReport:
        # every arrow with source dim > 0 at the tail and target dim > 0 at the
        # head constrains f; in particular source dim 0 at the head still
        # forces N(v -> w) . f_v = 0
        for v, k, w in live_arrows(self.source.dims, self.source.n, self.target.dims):
            if self.target.step(v, k) @ self.comp(v) != self.comp(w) @ self.source.step(v, k):
                return ValidationReport(False, f"naturality fails on the arrow ({v}, axis {k})", v)
        return ValidationReport(True, "ok", None)

    def compose(self, other: "ModMorphism") -> "ModMorphism":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        verts = set(self.comps) & set(other.comps)
        return ModMorphism(other.source, self.target, {v: self.comp(v) @ other.comp(v) for v in verts})

    def __eq__(self, other):
        if not isinstance(other, ModMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        for v in set(self.comps) | set(other.comps):
            if self.comp(v) != other.comp(v):
                return False
        return True

    def is_invertible(self) -> bool:
        if set(self.source.dims) != set(self.target.dims):
            return False
        if any(self.source.dim(v) != self.target.dim(v) for v in self.source.dims):
            return False
        return all(self.comp(v).is_invertible() for v in self.source.dims)


# ---------------------------------------------------------------------------
# hyperplane embeddings


class AxisEmbedding:
    """A monotone injective map Z^n -> Z^{n+1}.

    Per-axis strictly increasing maps (affine with scale >= 1, or an explicit
    increasing table) plus one inserted constant coordinate.
    """

    def __init__(self, axis_maps: list, insert_pos: int, insert_value: int):
        # each axis map is ("affine", scale, offset) or ("table", start, values)
        self.axis_maps = []
        for am in axis_maps:
            if am[0] == "affine":
                _, scale, offset = am
                if scale < 1:
                    raise ValueError("affine axis map needs scale >= 1")
                self.axis_maps.append(("affine", int(scale), int(offset)))
            elif am[0] == "table":
                _, start, values = am
                values = [int(x) for x in values]
                if any(a >= b for a, b in zip(values, values[1:])):
                    raise ValueError("table axis map must be strictly increasing")
                self.axis_maps.append(("table", int(start), values))
            else:
                raise ValueError(f"unknown axis map {am!r}")
        self.insert_pos = insert_pos
        self.insert_value = insert_value
        if not (0 <= insert_pos <= len(self.axis_maps)):
            raise ValueError("insert position out of range")

    @property
    def n(self) -> int:
        return len(self.axis_maps)

    @staticmethod
    def layer(n: int, pos: int, value: int) -> "AxisEmbedding":
        """Identity on all axes, inserting a constant coordinate."""
        return AxisEmbedding([("affine", 1, 0)] * n, pos, value)

    def _apply_axis(self, k: int, x: int) -> int:
        am = self.axis_maps[k]
        if am[0] == "affine":
            return am[1] * x + am[2]
        start, values = am[1], am[2]
        i = x - start
        if not (0 <= i < len(values)):
            raise ValueError(f"{x} outside the table domain of axis {k}")
        return values[i]

    def apply(self, x) -> tuple:
        y = [self._apply_axis(k, xi) for k, xi in enumerate(x)]
        y.insert(self.insert_pos, self.insert_value)
        return tuple(y)

    def axis_preimage_range(self, k: int, lo: int, hi: int):
        """Largest integer range mapping into [lo, hi] on axis k, or None."""
        am = self.axis_maps[k]
        if am[0] == "affine":
            scale, offset = am[1], am[2]
            a = -(-(lo - offset) // scale)  # ceil
            b = (hi - offset) // scale
            return (a, b) if a <= b else None
        start, values = am[1], am[2]
        xs = [start + i for i, v in enumerate(values) if lo <= v <= hi]
        if not xs:
            return None
        return (min(xs), max(xs))

    def preimage_box(self, box: GridBox) -> GridBox | None:
        if self.insert_pos >= box.n or not (box.lo[self.insert_pos] <= self.insert_value <= box.hi[self.insert_pos]):
            return None
        lo, hi = [], []
        outer = [i for i in range(box.n) if i != self.insert_pos]
        for k, bi in enumerate(outer):
            r = self.axis_preimage_range(k, box.lo[bi], box.hi[bi])
            if r is None:
                return None
            lo.append(r[0])
            hi.append(r[1])
        return GridBox(tuple(lo), tuple(hi))

    def hits(self, box: GridBox) -> list[list[int]]:
        """Per target axis, the coordinates the embedding takes on box, in
        order; the inserted axis has the one inserted value."""
        out = [[self._apply_axis(k, x) for x in range(a, b + 1)] for k, (a, b) in enumerate(zip(box.lo, box.hi))]
        out.insert(self.insert_pos, [self.insert_value])
        return out

    def translate(self, t) -> "AxisEmbedding":
        """Compose with a translation by t of the target Z^{n+1}."""
        if len(t) != self.n + 1:
            raise ValueError("translation length must match the target dimension")
        outer = [ti for i, ti in enumerate(t) if i != self.insert_pos]
        maps = []
        for am, off in zip(self.axis_maps, outer):
            if am[0] == "affine":
                maps.append(("affine", am[1], am[2] + off))
            else:
                maps.append(("table", am[1], [x + off for x in am[2]]))
        return AxisEmbedding(maps, self.insert_pos, self.insert_value + t[self.insert_pos])

    def __eq__(self, other):
        return (
            isinstance(other, AxisEmbedding)
            and self.axis_maps == other.axis_maps
            and self.insert_pos == other.insert_pos
            and self.insert_value == other.insert_value
        )


# ---------------------------------------------------------------------------
# the four core constructions on modules


def pullback(M: PersModule, phi, box: GridBox) -> PersModule:
    """Pull M back along the monotone vertex map phi from box into M.box:
    x has M's space at phi(x), and the arrow x -> x + e_k is the internal
    map M(phi(x) <= phi(x + e_k)), inside a fibre a shared identity."""
    dims = {}
    image = {}
    for x in box.vertices():
        y = phi(x)
        if not M.box.contains(y):
            raise ValueError(f"image {y} of {x} escapes the module box")
        d = M.dims.get(y)
        if d:
            dims[x] = d
            image[x] = y
    eye = cache(partial(Matrix.identity, M.field))  # one identity per dimension
    steps = {(x, k): eye(dims[x]) if image[x] == image[x2] else M.composite(image[x], image[x2])
             for x, k, x2 in live_arrows(dims, box.n)}
    return PersModule(M.field, box, dims, steps)


def coarsen(M: PersModule, keep: list) -> tuple[PersModule, "Compression"]:
    """M on its coarsest grid: M' and the Compression grid of M.box whose
    coarse box M' is on, with pullback(M', grid.floor, M.box) == M.  When
    every coordinate begins a run, grid is the identity and M' is M itself.

    A coordinate c > lo_k of axis k that is not in keep[k] merges into
    c - 1 when every arrow from slab c - 1 to slab c along axis k joins
    equal dimensions by an identity: a live vertex next to a dead one, or a
    missing step into a live vertex, blocks the merge.  Every coordinate of
    keep inside M.box begins a run, so distinct ones stay distinct.  Each
    coarse step is the stored step out of the last coordinate of its runs,
    because the composite before it is all identities: no matrix is
    multiplied, and steps that share an object still share it.

    Pullback along floor, a monotone surjection whose fibres hold only
    identities, is fully faithful: a morphism between two such pullbacks is
    constant on each fibre.  So End(M) is End(M'), and end_dim,
    indecomposability and the local certificate carry over.
    """
    n, lo, hi, dims, steps = M.n, M.box.lo, M.box.hi, M.dims, M.steps
    starts = [set(ks) for ks in keep]  # coordinates that begin a run
    identity = {}
    for v, d in dims.items():
        for k in range(n):
            c = v[k]
            if c > lo[k] and vpred(v, k) not in dims:
                starts[k].add(c)
            if c < hi[k]:
                m = steps.get((v, k))
                if m is not None and id(m) not in identity:
                    identity[id(m)] = m.is_identity()  # square, so the head has dimension d
                if m is None or not identity[id(m)]:
                    starts[k].add(c + 1)
    grid = Compression.of(lo, hi, starts)
    if grid.coarse == M.box:  # every coordinate begins a run: M is coarsest
        return M, grid
    # per axis: the last coordinate of each run -> its coarse coordinate
    ends = [{e - 1: a + i for i, e in enumerate(s[1:] + (b + 1,))} for a, b, s in zip(lo, hi, grid.starts)]
    cdims, csteps = {}, {}
    for v, d in dims.items():
        if all(c in e for c, e in zip(v, ends)):
            u = tuple(e[c] for e, c in zip(ends, v))
            cdims[u] = d
            for k in range(n):
                if (m := steps.get((v, k))) is not None:
                    csteps[(u, k)] = m
    return PersModule(M.field, grid.coarse, cdims, csteps), grid


@dataclass(frozen=True)
class Compression:
    """The box lo..hi of Z^n cut, on each axis, into runs of consecutive
    coordinates: starts[k] lists in order the coordinate at which each run
    of axis k begins, the first being lo[k]; run i of axis k is coordinate
    lo[k] + i of the coarse box.  A module on the coarse box stands for its
    pullback along floor to lo..hi, which is constant on each run.  Only
    the coarse box is a GridBox: lo..hi may pass the vertex cap.
    """

    lo: tuple
    hi: tuple
    starts: tuple

    @staticmethod
    def of(lo, hi, events) -> "Compression":
        """The runs of lo..hi that begin at lo and at each coordinate of
        events[k] inside lo..hi on axis k."""
        return Compression(lo, hi, tuple(tuple(sorted({a, *(c for c in ev if a <= c <= b)}))
                                         for a, b, ev in zip(lo, hi, events)))

    @cached_property
    def coarse(self) -> GridBox:
        return GridBox(self.lo, tuple(a + len(s) - 1 for a, s in zip(self.lo, self.starts)))

    def floor(self, v) -> tuple:
        """The coarse vertex whose runs hold v."""
        return tuple(a + bisect_right(s, c) - 1 for a, s, c in zip(self.lo, self.starts, v))

    def first(self, u) -> tuple:
        """The vertex at which the runs of the coarse vertex u begin."""
        return tuple(s[c - a] for a, s, c in zip(self.lo, self.starts, u))

    def extend(self, lo: int, hi: int) -> "Compression":
        """This compression with one more axis [lo, hi], left uncut."""
        return Compression(self.lo + (lo,), self.hi + (hi,), self.starts + (tuple(range(lo, hi + 1)),))

    def translate(self, t) -> "Compression":
        return Compression(vadd(self.lo, t), vadd(self.hi, t),
                           tuple(tuple(c + x for c in s) for s, x in zip(self.starts, t)))

    def reflect(self) -> "Compression":
        """The runs mirrored in the box's centre, as dualize mirrors a module."""
        return Compression(self.lo, self.hi, tuple((a, *(a + b + 1 - c for c in reversed(s[1:])))
                                                   for a, b, s in zip(self.lo, self.hi, self.starts)))

    def down(self, L: AxisEmbedding, box: GridBox) -> AxisEmbedding:
        """L on box followed by floor, as table maps over box: an embedding
        into the coarse box that stands for L when every coordinate L hits
        begins a run."""
        tables = [[a + bisect_right(s, y) - 1 for y in ys] for a, s, ys in zip(self.lo, self.starts, L.hits(box))]
        value = tables.pop(L.insert_pos)[0]
        return AxisEmbedding([("table", a, t) for a, t in zip(box.lo, tables)], L.insert_pos, value)


def restrict(M: PersModule, L: AxisEmbedding, source_box: GridBox | None = None) -> PersModule:
    """Pull M back along the hyperplane embedding L."""
    if L.n != M.n - 1:
        raise ValueError(f"embedding from dimension {L.n} targets dimension {L.n + 1}, not {M.n}")
    if source_box is None:
        source_box = L.preimage_box(M.box)
        if source_box is None:
            raise ValueError("the embedding misses the module box entirely")
    return pullback(M, L.apply, source_box)


def pad(M: PersModule, target: GridBox) -> PersModule:
    """View M on a larger box, zero outside (padding by zeros)."""
    if not target.contains_box(M.box):
        raise ValueError("target box does not contain the module box")
    return PersModule(M.field, target, dict(M.dims), dict(M.steps))


def require_common(what: str, a, b) -> None:
    """Refuse a pair over different fields or on different boxes, with a
    ValueError naming what was asked of it and both values.  a and b are
    modules or RectDecomps; every operation on two of them keeps this rule."""
    if a.field != b.field:
        raise ValueError(f"{what} of modules over different fields, {a.field} and {b.field}")
    if a.box != b.box:
        raise ValueError(f"{what} of modules on different boxes, {a.box.lo}..{a.box.hi} and {b.box.lo}..{b.box.hi}")


def stack(layers: list[PersModule], links: list[ModMorphism], height_lo: int = 0) -> PersModule:
    """Assemble an (n+1)D module from n-D layers and connecting morphisms.

    Layer i sits at last coordinate height_lo + i; links[i] maps layer i to
    layer i+1.  A link component left out is the zero map, and so is the
    step it would give.
    """
    if not layers:
        raise ValueError("need at least one layer")
    if len(links) != len(layers) - 1:
        raise ValueError("need exactly one link per adjacent layer pair")
    base = layers[0]
    for L in layers[1:]:
        require_common("stack", base, L)
    for i, f in enumerate(links):
        if f.source != layers[i] or f.target != layers[i + 1]:
            raise ValueError(f"link {i} does not connect layers {i} -> {i + 1}")
    n = base.n
    box = GridBox(base.box.lo + (height_lo,), base.box.hi + (height_lo + len(layers) - 1,))
    dims = {}
    steps = {}
    for i, L in enumerate(layers):
        h = height_lo + i
        for v, d in L.dims.items():
            dims[v + (h,)] = d
        for (v, k), m in L.steps.items():
            steps[(v + (h,), k)] = m
        if i + 1 < len(layers):
            for v, m in links[i].comps.items():
                steps[(v + (h,), n)] = m
    return PersModule(base.field, box, dims, steps)


def direct_sum(M: PersModule, N: PersModule) -> PersModule:
    require_common("direct sum", M, N)
    dims = {}
    for v in set(M.dims) | set(N.dims):
        dims[v] = M.dim(v) + N.dim(v)
    steps = {(v, k): Matrix.block_diag(M.field, [M.step(v, k), N.step(v, k)]) for v, k, _ in live_arrows(dims, M.n)}
    return PersModule(M.field, M.box, dims, steps)


def dualize(M: PersModule, t=None) -> PersModule:
    """The linear dual on the reversed box, translated by t when given, in
    one pass: v goes to lo + hi + t - v, matrices transpose, and steps
    sharing a matrix share its transpose."""
    box = M.box if t is None else GridBox(vadd(M.box.lo, t), vadd(M.box.hi, t))
    c = vadd(box.lo, M.box.hi)
    dims = {vsub(c, v): d for v, d in M.dims.items()}
    tr = {id(m): m.transpose() for m in {id(m): m for m in M.steps.values()}.values()}
    # arrow v -> w dualizes to (c - w) -> (c - v)
    steps = {(vsub(c, vsucc(v, k)), k): tr[id(m)] for (v, k), m in M.steps.items()}
    return PersModule(M.field, box, dims, steps)


def slice_layers(M: PersModule) -> tuple[list[PersModule], list[ModMorphism]]:
    """Split M along its last axis into layers and connecting morphisms.

    Layer i holds the vertices and steps of M at last coordinate lo + i; the
    nonzero steps of M along its last axis become the link components.
    """
    n = M.n
    if n < 2:
        raise ValueError("slice_layers needs n >= 2")
    h_lo = M.box.lo[-1]
    count = M.box.hi[-1] - h_lo + 1
    box = GridBox(M.box.lo[:-1], M.box.hi[:-1])
    dims = [{} for _ in range(count)]
    steps = [{} for _ in range(count)]
    comps = [{} for _ in range(count - 1)]
    for v, d in M.dims.items():
        dims[v[-1] - h_lo][v[:-1]] = d
    for (v, k), m in M.steps.items():
        if k != n - 1:
            steps[v[-1] - h_lo][(v[:-1], k)] = m
        elif not m.is_zero():
            comps[v[-1] - h_lo][v[:-1]] = m
    layers = [PersModule(M.field, box, d, s) for d, s in zip(dims, steps)]
    links = [ModMorphism(layers[i], layers[i + 1], comps[i]) for i in range(count - 1)]
    return layers, links


def candy_corners(M: PersModule) -> tuple[tuple, tuple]:
    """(ul, lr) of M's nonempty support: ul takes its smallest leading
    coordinates and largest last one, lr the opposite."""
    lo, hi = tuple(map(min, zip(*M.dims))), tuple(map(max, zip(*M.dims)))
    return lo[:-1] + hi[-1:], hi[:-1] + lo[-1:]


def candy_corner_faults(M: PersModule, ul: tuple, lr: tuple) -> list[str]:
    """One message for each way ul and lr fail to be M's candy_corners,
    each of dimension 1.  Empty when they are; a zero module has none."""
    if M.is_zero():
        return ["zero module"]
    exp_ul, exp_lr = candy_corners(M)
    msgs = []
    if tuple(ul) != exp_ul:
        msgs.append(f"upper-left corner {tuple(ul)} != bounding position {exp_ul}")
    if tuple(lr) != exp_lr:
        msgs.append(f"lower-right corner {tuple(lr)} != bounding position {exp_lr}")
    for name, c in (("upper-left", tuple(ul)), ("lower-right", tuple(lr))):
        if M.dim(c) != 1:
            msgs.append(f"{name} corner has dimension {M.dim(c)}, want 1")
    return msgs
