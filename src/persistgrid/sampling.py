"""Seeded random and exhaustive generators used by the test suites.

Random modules are produced by rejection: draw dimensions and {0,1} step
entries, keep only commutative results.  Two-row modules are assembled from
two random 1D rows joined by a random natural transformation, which is
always commutative by construction.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from .fields import Field
from .grid import GridBox, ModMorphism, PersModule, live_arrows, stack
from .homspace import Context
from .linalg import Matrix
from .rectangles import Rectangle, RectDecomp, barcode_1d
from .verify import find_gap


def rand_rect_decomp(rng: random.Random, field: Field, n: int, max_summands: int,
                     lo: int = 0, hi: int = 4) -> RectDecomp:
    m = rng.randint(1, max_summands)
    rects = []
    for _ in range(m):
        b = tuple(rng.randint(lo, hi) for _ in range(n))
        d = tuple(rng.randint(b[k], hi) for k in range(n))
        rects.append(Rectangle(b, d))
    box = GridBox((lo,) * n, (hi,) * n)
    return RectDecomp(field, box, rects)


def rand_module(rng: random.Random, field: Field, box: GridBox, max_dim: int = 2,
                total_cap: int | None = None, nonzero: bool = True,
                tries: int = 2000) -> PersModule:
    """A random commutative module with step entries in {0, 1}."""
    for _ in range(tries):
        dims = {}
        for v in box.vertices():
            d = rng.randint(0, max_dim)
            if d:
                dims[v] = d
        if total_cap is not None and sum(dims.values()) > total_cap:
            continue
        if nonzero and not dims:
            continue
        steps = {}
        for v, k, w in live_arrows(dims, box.n):
            m = Matrix.zero(field, dims[w], dims[v])
            for r in range(dims[w]):
                for c in range(dims[v]):
                    m.rows[r][c] = field.of(rng.randint(0, 1))
            steps[(v, k)] = m
        M = PersModule(field, box, dims, steps)
        if M.validate():
            return M
    raise RuntimeError("rejection sampling found no commutative module")


def _add_upper_row(rng: random.Random, lower: PersModule, max_dim: int) -> PersModule:
    """lower below a random row on its box, joined by a random link."""
    upper = rand_module(rng, lower.field, lower.box, max_dim, nonzero=False)
    ctx = Context()
    x = ctx.hom(lower, upper).random_element(rng)
    return stack([lower, upper], [ModMorphism(lower, upper, ctx.materialize(lower, upper, x))])


def rand_two_rows(rng: random.Random, field: Field, width: int, max_dim: int = 2) -> PersModule:
    """A random module on a width x 2 box: two random rows, random link."""
    box = GridBox((0,), (width - 1,))
    return _add_upper_row(rng, rand_module(rng, field, box, max_dim, nonzero=False), max_dim)


def rand_two_rows_with_barcode(rng: random.Random, field: Field, width: int,
                               target: Counter, max_dim: int = 2,
                               tries: int = 200000) -> PersModule:
    """Random two-row module whose bottom-row restriction has the given
    barcode; the bottom row is found by rejection."""
    box = GridBox((0,), (width - 1,))
    # the dimension vector the barcode implies: a cheap necessary condition
    dims = dict(Counter((x,) for (b,), (d,) in target.elements() for x in range(b, d + 1)))
    for _ in range(tries):
        lower = rand_module(rng, field, box, max_dim, nonzero=False)
        if lower.dims == dims and barcode_1d(lower) == target:
            break
    else:
        raise RuntimeError("rejection sampling never hit the target barcode")
    return _add_upper_row(rng, lower, max_dim)


def rand_two_rows_with_gap(rng: random.Random, field: Field, max_width: int = 6,
                           max_dim: int = 2, tries: int = 20000) -> PersModule:
    """Random two-row module with a zero vertex on a monotone path between
    two nonzero vertices."""
    for _ in range(tries):
        width = rng.randint(2, max_width)
        M = rand_two_rows(rng, field, width, max_dim)
        if sum(M.dims.values()) == 0:
            continue
        if find_gap(M) is not None:
            return M
    raise RuntimeError("rejection sampling found no gapped module")


# ---------------------------------------------------------------------------
# exhaustive enumeration


def interval_multisets(field: Field, lo: int, hi: int, total_cap: int):
    """All 1D rectangle decompositions with summands in [lo, hi] and total
    dimension (sum of interval lengths) at most total_cap, as RectDecomps."""
    intervals = [(b, d) for b in range(lo, hi + 1) for d in range(b, hi + 1)]
    weights = [d - b + 1 for b, d in intervals]
    box = GridBox((lo,), (hi,))

    def rec(i, budget, chosen):
        if chosen:
            yield RectDecomp(field, box, [Rectangle((b,), (d,)) for b, d in chosen])
        if i == len(intervals):
            return
        for j in range(i, len(intervals)):
            w = weights[j]
            if w <= budget:
                yield from rec(j, budget - w, chosen + [intervals[j]])

    yield from rec(0, total_cap, [])


def enumerate_modules(field: Field, box: GridBox, max_dim: int = 1):
    """All commutative modules on the box with every dimension <= max_dim
    and step entries ranging over the whole field; max_dim is 0 or 1."""
    if max_dim > 1:
        raise NotImplementedError("exhaustive enumeration only supports dims <= 1")
    verts = list(box.vertices())
    scalars = [field.zero, field.one] if field.is_rational else field.elements()
    for dims_vec in itertools.product(range(max_dim + 1), repeat=len(verts)):
        dims = {v: d for v, d in zip(verts, dims_vec) if d}
        arrows = list(live_arrows(dims, box.n))
        for combo in itertools.product(scalars, repeat=len(arrows)):
            steps = {}
            for (v, k, w), c in zip(arrows, combo):
                m = Matrix.zero(field, dims[w], dims[v])
                m.rows[0][0] = c
                steps[(v, k)] = m
            M = PersModule(field, box, dims, steps)
            if M.validate():
                yield M
