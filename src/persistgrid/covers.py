"""Projective covers over a finite grid box.

Indecomposable projectives on a box are the rectangles I[x, hi].  The
cover picks, at each vertex, standard basis vectors completing the incoming
images to the whole fiber, which makes the result deterministic.  Making a
cover finds only its generators, one elimination per live vertex; the cover
surjection is swept from them the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .grid import PersModule, vpred
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle


@dataclass
class CoverResult:
    """A projective cover of module: its rectangles decomp, summand i being
    I[x, hi] for the generator gens[i] = (x, r), the basis vector e_r of
    module(x).  comps, the components of the cover surjection
    rect_to_module(decomp) ->> module at each live vertex of module, in
    decomp.by_vertex() order, is made on its first read and then kept."""

    decomp: RectDecomp
    module: PersModule
    gens: list

    @cached_property
    def comps(self) -> dict:
        """One sweep over the live vertices w of V = module, each in some
        summand, in lexicographic order.  Generator (x, r)'s column is e_r
        at x; at a later live w it is the step into w along the least axis
        k with x_k < w_k applied to its column at w - e_k, and zero when
        w - e_k is dead or that step is missing.  By induction that is V(x <= w) e_r, since commutativity
        makes V(x <= w) the step after V(x <= w - e_k); and the canonical
        path of PersModule.composite ends with that same arrow, so the
        products, hence the scalars, are the ones it gives."""
        V, gens, at = self.module, self.gens, self.decomp.by_vertex()
        f, steps, n = V.field, V.steps, V.n
        cols: dict[tuple, dict] = {}  # live w -> {i: column of generator i at w, None for zero}
        for w in sorted(V.dims):
            here = cols[w] = {}
            for i in at[w]:
                x, r = gens[i]
                if x == w:
                    here[i] = c = [f.zero] * V.dims[w]
                    c[r] = f.one
                    continue
                k = next(k for k in range(n) if x[k] < w[k])
                u = vpred(w, k)  # x <= u, so summand i is live at u when u is
                c, m = cols[u][i] if u in cols else None, steps.get((u, k))
                here[i] = None if c is None or m is None else m.mul_vec(c)
        comps = {}
        for w, idxs in at.items():
            if (here := cols.get(w)) is not None:
                zero = [f.zero] * V.dims[w]
                comps[w] = Matrix(f, zip(*(zero if c is None else c for c in map(here.get, idxs))))
        return comps


def projective_cover(V: PersModule) -> CoverResult:
    """The projective cover P(V) ->> V, as its generators.

    Generators at x are the standard basis vectors e_r of V(x) for the
    non-pivot rows of the column span of the stored steps into x (a missing
    step is zero and adds nothing to the span); each contributes a summand
    I[x, hi], listed in order of x, then r.  Only the generators are found
    here; the surjection w |-> V(x <= w) e_r is made when comps is first
    read.  The cover module itself is not built: the summands live at w are
    the ones decomp.indices_at(w) lists, in the basis order rect_to_module
    gives.
    """
    f, box, steps = V.field, V.box, V.steps
    gens: list[tuple[tuple, int]] = []  # (vertex, basis row)
    for x in sorted(V.dims):
        incoming = [m for k in range(box.n) if (m := steps.get((vpred(x, k), k))) is not None]
        if len(incoming) > 1:  # the incoming steps side by side; a single one is read in place
            incoming = [Matrix(f, [sum(rows, []) for rows in zip(*(m.rows for m in incoming))])]
        pivots = set(incoming[0].column_space_pivot_rows()) if incoming else set()
        gens += [(x, r) for r in range(V.dims[x]) if r not in pivots]
    return CoverResult(RectDecomp(f, box, [Rectangle(x, box.hi) for x, _ in gens]), V, gens)
