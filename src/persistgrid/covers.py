"""Projective covers and injective envelopes over a finite grid box.

Indecomposable projectives on a box are the rectangles I[x, hi]; injectives
are the I[lo, x].  The cover picks, at each vertex, standard basis vectors
completing the incoming images to the whole fiber, which makes the result
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import ModMorphism, PersModule, dualize, dualize_morphism, vadd
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle, rect_to_module


@dataclass
class CoverResult:
    """A rectangle-decomposable module together with the comparison morphism.

    For a projective cover the morphism maps module -> V (onto); for an
    injective envelope it maps V -> module (into).
    """

    decomp: RectDecomp
    module: PersModule
    morphism: ModMorphism


def projective_cover(V: PersModule) -> CoverResult:
    """The projective cover P(V) ->> V.

    Generators at x are the standard basis vectors e_r of V(x) for the
    non-pivot rows of the column span of all incoming step images; each
    contributes a summand I[x, hi] mapping by w |-> V(x <= w) e_r.
    """
    f = V.field
    box = V.box
    n = box.n
    gens: list[tuple[tuple, int]] = []  # (vertex, basis row)
    for x in sorted(V.dims):
        cols = []
        for k in range(n):
            v = vadd(x, tuple(-1 if i == k else 0 for i in range(n)))
            if box.contains(v) and V.dim(v) > 0:
                m = V.step(v, k)
                for c in range(m.ncols):
                    cols.append([m.rows[r][c] for r in range(m.nrows)])
        d = V.dim(x)
        if cols:
            incoming = Matrix(f, [[col[r] for col in cols] for r in range(d)])
            pivots = set(incoming.column_space_pivot_rows())
        else:
            pivots = set()
        for r in range(d):
            if r not in pivots:
                gens.append((x, r))
    decomp = RectDecomp(f, box, [Rectangle(x, box.hi) for x, _ in gens])
    P = rect_to_module(decomp)
    comps = {}
    for w in P.dims:
        # summand i is I[x_i, hi], so the ones at w are the generators below w
        live = [gens[i] for i in decomp.indices_at(w)]
        m = Matrix.zero(f, V.dim(w), len(live))
        for j, (x, r) in enumerate(live):
            col = V.composite(x, w)
            for i in range(V.dim(w)):
                m.rows[i][j] = col.rows[i][r]
        comps[w] = m
    p = ModMorphism(P, V, comps)
    return CoverResult(decomp, P, p)


def injective_envelope(V: PersModule) -> CoverResult:
    """The injective envelope V >-> E(V), computed as the dual cover."""
    cov = projective_cover(dualize(V))
    E = dualize(cov.module)
    i = dualize_morphism(cov.morphism)  # dualize(dual V) == V on the same box
    return CoverResult(cov.decomp.dualize().on_box(V.box), E, i)
