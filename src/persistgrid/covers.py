"""Projective covers over a finite grid box.

Indecomposable projectives on a box are the rectangles I[x, hi].  The
cover picks, at each vertex, standard basis vectors completing the incoming
images to the whole fiber, which makes the result deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import PersModule, vpred
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle


@dataclass
class CoverResult:
    """A projective cover as its rectangles and the components of the cover
    surjection rect_to_module(decomp) ->> V, one at each live vertex of V."""

    decomp: RectDecomp
    comps: dict


def projective_cover(V: PersModule) -> CoverResult:
    """The projective cover P(V) ->> V.

    Generators at x are the standard basis vectors e_r of V(x) for the
    non-pivot rows of the column span of all incoming step images; each
    contributes a summand I[x, hi] mapping by w |-> V(x <= w) e_r.  The
    cover module itself is not built: the summands live at w are the ones
    decomp.indices_at(w) lists, in the basis order rect_to_module gives.
    """
    f = V.field
    box = V.box
    gens: list[tuple[tuple, int]] = []  # (vertex, basis row)
    for x in sorted(V.dims):
        preds = [(vpred(x, k), k) for k in range(box.n)]
        incoming = [V.step(v, k).rows for v, k in preds if V.dim(v) > 0]
        joined = [sum(rows, []) for rows in zip(*incoming)]  # the incoming steps side by side
        pivots = set(Matrix(f, joined).column_space_pivot_rows()) if incoming else set()
        for r in range(V.dim(x)):
            if r not in pivots:
                gens.append((x, r))
    decomp = RectDecomp(f, box, [Rectangle(x, box.hi) for x, _ in gens])
    comps = {}
    for w, idxs in decomp.by_vertex().items():
        if w not in V.dims:
            continue  # components live where both modules do
        m = Matrix.zero(f, V.dim(w), len(idxs))
        # summand i is I[x_i, hi], so x_i <= w: take V(x <= w) once per x
        maps = {x: V.composite(x, w) for x in {gens[i][0] for i in idxs}}
        for j, i in enumerate(idxs):
            x, r = gens[i]
            for row, col in zip(m.rows, maps[x].rows):
                row[j] = col[r]
        comps[w] = m
    return CoverResult(decomp, comps)
