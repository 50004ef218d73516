"""Certification: endomorphism algebras, indecomposability, isomorphism
certificates, and the constructive two-row decomposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import accumulate

from .grid import ModMorphism, PersModule, candy_corner_faults, require_common, slice_layers, vpred, vsucc
from .homspace import Context, HomSpace, end_dim
from .linalg import Matrix, Poly, coprime_split, minimal_polynomial, nullspace_sparse
from .rectangles import interval_decompose_1d


def hom_basis(M: PersModule, N: PersModule, ctx: Context | None = None) -> list[ModMorphism]:
    ctx = ctx or Context()
    out = []
    for b in ctx.hom(M, N).basis:
        g = ModMorphism(M, N, ctx.materialize(M, N, b))
        rep = g.validate()
        if not rep:
            raise AssertionError(f"hom basis element fails naturality: {rep.message}")
        out.append(g)
    return out


@dataclass
class EndAlgebra:
    """End(M) with structure constants over a fixed basis."""

    module: PersModule
    space: HomSpace
    mult_table: list  # mult_table[i][j][k]: coefficient of e_k in e_i . e_j
    identity: list

    @property
    def dim(self) -> int:
        return self.space.dim


def end_algebra(M: PersModule, ctx: Context | None = None) -> EndAlgebra:
    ctx = ctx or Context()
    E = ctx.hom(M, M)
    ident = E.coords_in_basis(ctx.express(M, M, ModMorphism.identity(M).comps))
    if ident is None:
        raise AssertionError("identity endomorphism outside the computed basis")
    table = []
    for bi in E.basis:
        row = []
        for bj in E.basis:
            prod = ctx.compose(M, M, M, bi, bj)
            coords = E.coords_in_basis(prod)
            if coords is None:
                raise AssertionError("product of endomorphisms escapes the basis span")
            row.append(coords)
        table.append(row)
    return EndAlgebra(M, E, table, ident)


# ---------------------------------------------------------------------------
# splitting


INDECOMPOSABLE = "IndecomposableCertified"
DECOMPOSABLE = "DecomposableCertified"
INCONCLUSIVE = "Inconclusive"
TRIALS = 24  # random elements drawn by try_split and iso_certificate unless told otherwise


@dataclass
class IndecVerdict:
    status: str
    reason: str
    end_dim: int
    summands: tuple | None = None  # (M1, M2) when decomposable
    iso: ModMorphism | None = None  # M in the block basis, equal to direct_sum(M1, M2), -> M
    certificate: dict | None = None  # radical_dim, nilpotency_index, residue_degree

    def to_json(self) -> dict:
        out = {"status": self.status, "reason": self.reason, "end_dim": self.end_dim}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.summands is not None:
            A, B = self.summands
            out["witness"] = {
                "summand_dims": [
                    {str(v): d for v, d in sorted(A.dims.items())},
                    {str(v): d for v, d in sorted(B.dims.items())},
                ]
            }
        return out


def _split_along(M: PersModule, P: dict, cuts: dict):
    """A nonzero M read in the vertexwise bases P[v], whose columns fall into
    consecutive blocks of sizes cuts[v]: (parts, iso) or None.

    parts[b] is M restricted to block b, and iso maps direct_sum of the
    parts, which is M written in the block basis, to M by P.  None unless
    every P[v] is invertible and every step is block diagonal; the iso's
    naturality and invertibility are checked here, the one certificate of a
    splitting.
    """
    f = M.field
    Pinv = {}
    for v, Pv in P.items():
        try:
            Pinv[v] = Pv.inverse()
        except ValueError:
            return None
    k = len(next(iter(cuts.values())))
    at = {v: list(accumulate(c, initial=0)) for v, c in cuts.items()}
    dims = [{v: d for v, c in cuts.items() if (d := c[b])} for b in range(k)]
    steps = [{} for _ in range(k)]
    blocked = {}
    for v, a, w in M.arrows():
        B = blocked[(v, a)] = Pinv[w] @ (M.step(v, a) @ P[v])
        diag = [B.submatrix(range(at[w][b], at[w][b + 1]), range(at[v][b], at[v][b + 1])) for b in range(k)]
        if Matrix.block_diag(f, diag) != B:
            return None
        for b in range(k):
            if v in dims[b] and w in dims[b]:
                steps[b][(v, a)] = diag[b]
    iso = ModMorphism(PersModule(f, M.box, dict(M.dims), blocked), M, P)
    if not iso.validate() or not iso.is_invertible():
        return None
    return [PersModule(f, M.box, dims[b], steps[b]) for b in range(k)], iso


def _kernel_split(M: PersModule, a: ModMorphism, g: Poly, h: Poly, mins: dict):
    """M = ker g(a) + ker h(a) vertexwise: (parts, iso), or None when one
    of the kernels is zero everywhere, or when _split_along refuses.

    Requires g, h coprime with g.h a multiple of the minimal polynomial
    mins[v] of each block a.comp(v), so the kernels are complementary
    submodules; g and h are evaluated modulo mins[v].  Kernels that did not
    fill M would give a non-square P[v], which _split_along refuses.
    """
    f = M.field
    P, cuts = {}, {}
    for v, d in M.dims.items():
        K1, K2 = (nullspace_sparse([dict(enumerate(r)) for r in (e % mins[v]).eval_matrix(a.comp(v)).rows], d, f)
                  for e in (g, h))
        P[v] = Matrix(f, [[x.get(r, f.zero) for x in K1 + K2] for r in range(d)])
        cuts[v] = (len(K1), len(K2))
    if all(c[0] == 0 for c in cuts.values()) or all(c[1] == 0 for c in cuts.values()):
        return None
    return _split_along(M, P, cuts)


def _try_element(M: PersModule, a: ModMorphism, rng):
    """(split, q, f): f is the minimal polynomial of the endomorphism a of
    M, the lcm of its vertex blocks' distinct ones.  split is ([M1, M2], iso)
    when coprime_split finds a coprime factorization g*h of f, and M is cut
    into ker g(a) + ker h(a).  Otherwise q is the monic irreducible that f
    is a power of, when that is known: always over F_p, and over Q when q
    is linear.
    """
    mins = {v: minimal_polynomial(a.comp(v)) for v in M.dims}
    f = reduce(Poly.lcm, dict.fromkeys(mins.values()))
    g, h, q = coprime_split(f, rng)
    if h.degree > 0:
        return _kernel_split(M, a, g, h, mins), None, f
    return None, q, f


def _local_certificate(alg: EndAlgebra, residues: list) -> dict | None:
    """Proof that A = End(M) is local, from pairs (a, f): a an endomorphism
    in ambient coordinates whose minimal polynomial is a power of the
    irreducible f.

    J, the two-sided ideal generated by the f(a), must be nilpotent with
    dim A - dim J = deg f for the largest deg f.  Then f(a) = 0 in A/J, and
    1 is not in J, so K[a] in A/J is the field K[x]/(f) and fills A/J.  A
    nilpotent ideal with a semisimple quotient is the radical, so A is local.
    """
    f = alg.module.field
    d = alg.dim
    table = [[[(k, c) for k, c in enumerate(coords) if c != 0] for coords in row] for row in alg.mult_table]

    def mul(x, y):
        out = [f.zero] * d
        for i, xi in enumerate(x):
            if xi != 0:
                for j, yj in enumerate(y):
                    if yj != 0:
                        xy = f.mul(xi, yj)
                        for k, c in table[i][j]:
                            out[k] = f.add(out[k], f.mul(xy, c))
        return out

    def span(vectors):
        R, pivots = Matrix(f, vectors).rref()
        return R.rows[: len(pivots)]

    units = Matrix.identity(f, d).rows
    gens = []
    for amb, g in residues:
        a = alg.space.coords_in_basis(amb)
        ga = [f.zero] * d
        for c in reversed(g.coeffs):  # Horner: ga = ga . a + c
            ga = [f.add(x, f.mul(c, e)) for x, e in zip(mul(ga, a), alg.identity)]
        gens.append(ga)
    left = span([mul(e, g) for e in units for g in gens])
    J = span([mul(x, e) for x in left for e in units])
    degree = max(g.degree for _, g in residues)
    if d - len(J) != degree:
        return None
    power, index = J, 1
    while power:
        index += 1
        nxt = span([mul(x, y) for x in power for y in J])
        if len(nxt) == len(power):
            return None  # J^k = J^(k+1) != 0: not nilpotent
        power = nxt
    return {"radical_dim": len(J), "nilpotency_index": index, "residue_degree": degree}


def try_split(M: PersModule, seed: int = 0, trials: int = TRIALS, ctx: Context | None = None) -> IndecVerdict:
    """Certify M indecomposable or produce an explicit nontrivial splitting.

    Conclusive when end_dim = 1, when one of the random endomorphisms drawn
    splits M, or when the draws whose minimal polynomials are powers of
    known irreducibles certify that End(M) is local (_local_certificate).
    The certificate is tried after the 1st, 2nd, 4th, 8th ... informative
    draw, one whose minimal polynomial f is a proper power of its
    irreducible q, so that q(a) is a nonzero radical element, and once more
    after the last trial.  The tries draw nothing from the rng, and a
    success proves the same invariants that a later one would.  A zero
    module is not indecomposable, and is refused with a ValueError.
    """
    ctx = ctx or Context()
    if M.is_zero():
        raise ValueError("zero module")
    E = ctx.hom(M, M)
    ed = E.dim
    if ed == 1:
        return IndecVerdict(INDECOMPOSABLE, "end_dim = 1", ed)
    rng = random.Random(seed)
    algebra = cache(partial(end_algebra, M, ctx))
    residues, informative = [], 0
    for _ in range(trials):
        amb = E.random_element(rng)
        if not amb:
            continue
        split, q, f = _try_element(M, ModMorphism(M, M, ctx.materialize(M, M, amb)), rng)
        if split is not None:
            return IndecVerdict(DECOMPOSABLE, "splitting endomorphism found", ed, tuple(split[0]), split[1])
        if q is not None:
            residues.append((amb, q))
            informative += f != q
            if f != q and informative & (informative - 1) == 0 and (cert := _local_certificate(algebra(), residues)):
                break
    else:
        cert = residues and _local_certificate(algebra(), residues)
    if cert:
        return IndecVerdict(INDECOMPOSABLE, "local endomorphism ring: nilpotent radical, field quotient", ed,
                            certificate=cert)
    return IndecVerdict(INCONCLUSIVE, f"no splitting element after {trials} trials", ed)


# ---------------------------------------------------------------------------
# isomorphism certificates


@dataclass
class IsoReport:
    isomorphic: bool | None  # None: no certificate found, not a proof
    witness: ModMorphism | None
    reason: str
    certificate: dict | None = None  # {"hom_dims": [...]} for a Hom-dimension proof

    def to_json(self) -> dict:
        out = {"isomorphic": self.isomorphic, "reason": self.reason, "has_witness": self.witness is not None}
        return out if self.certificate is None else {**out, "certificate": self.certificate}


def iso_certificate(M: PersModule, N: PersModule, seed: int = 0, trials: int = TRIALS, ctx: Context | None = None) -> IsoReport:
    """Search for a pointwise invertible natural transformation M -> N.

    Complete in 1D (barcode comparison).  For n >= 2, unequal dimension
    functions or, when the trials find no witness, unequal dim End(M),
    Hom(M, N), Hom(N, M) and End(N) prove non-isomorphism; otherwise the
    verdict is None.  M and N must share field and box.
    """
    require_common("isomorphism", M, N)
    ctx = ctx or Context()
    if dict(M.dims) != dict(N.dims):
        return IsoReport(False, None, "dimension functions differ")
    if M.is_zero():
        return IsoReport(True, ModMorphism.zero(M, N), "both zero")
    if M.n == 1:
        I, J = ctx.intervals1(M), ctx.intervals1(N)
        # both lists of summands are sorted by (birth, death)
        if (I.births, I.deaths) != (J.births, J.deaths):
            return IsoReport(False, None, "barcodes differ")
        phi = ModMorphism(M, N, ctx.materialize(M, N, {(0, i, i): M.field.one for i in range(len(I.births))}))
        return IsoReport(True, phi, "matching barcodes")
    H = ctx.hom(M, N)
    rng = random.Random(seed)
    for t in range(trials):
        amb = H.random_element(rng)
        if not amb:
            continue
        phi = ModMorphism(M, N, ctx.materialize(M, N, amb))
        if phi.is_invertible():
            return IsoReport(True, phi, f"random hom-span element invertible (trial {t})")
    dims = [ctx.hom(M, M).dim, H.dim, ctx.hom(N, M).dim, ctx.hom(N, N).dim]
    if len(set(dims)) > 1:
        return IsoReport(False, None, "hom dimensions differ", {"hom_dims": dims})
    return IsoReport(None, None, f"no invertible element found in {trials} trials")


# ---------------------------------------------------------------------------
# two-row decomposition


@dataclass
class TwoRowSplit:
    summands: list  # three PersModules on the original box
    iso: ModMorphism  # M in the block basis, equal to the three direct_summed left to right, -> M
    gap: tuple


def find_gap(M: PersModule) -> tuple | None:
    """A zero vertex lying between two nonzero vertices, if any: the first in
    lexicographic order.  One sweep up the box finds the vertices with a
    live vertex below them, one sweep down those with one above."""
    order = list(M.box.vertices())
    below, above = set(), set()
    for y in order:
        if y in M.dims or any(vpred(y, k) in below for k in range(M.n)):
            below.add(y)
    for y in reversed(order):
        if y in M.dims or any(vsucc(y, k) in above for k in range(M.n)):
            above.add(y)
    return next((y for y in order if y not in M.dims and y in below and y in above), None)


def decompose_two_rows(M: PersModule) -> TwoRowSplit:
    """Constructive decomposition of a module on an m x 2 grid with a gap.

    The gap is the first one find_gap gives, at column y0.  Interval-decompose
    both rows and sort the intervals into three groups on each row so the
    connecting morphism is block diagonal: the gap's row splits by position
    (deaths left of y0 / empty / births right of y0), the other row by death
    when the gap is on the lower row and by birth when it is on the upper
    row (< y0 / = y0 / > y0).  M is then split along the rows' chain bases
    with their columns sorted by group.
    """
    if M.n != 2 or M.box.hi[1] - M.box.lo[1] != 1:
        raise ValueError("decompose_two_rows needs a module on an m x 2 box")
    y = find_gap(M)
    if y is None:
        raise ValueError("no zero vertex between nonzero vertices")
    y0, h0 = y[0], M.box.lo[1]
    gap_row = y[1] - h0

    def group_of(b, d, h):
        if h == gap_row:
            if d < y0:
                return 1
            if b > y0:
                return 3
            raise AssertionError(f"{('lower', 'upper')[h]} interval crosses the gap")
        c = d if gap_row == 0 else b
        return 1 if c < y0 else (2 if c == y0 else 3)

    P, cuts = {}, {}
    for h, row in enumerate(slice_layers(M)[0]):
        I = interval_decompose_1d(row)
        group = [group_of(b, d, h) for b, d in zip(I.births, I.deaths)]
        for v, d in row.dims.items():
            # the columns of the chain basis at v, group 1 first
            by_group = [[c for c, i in enumerate(I.at[v]) if group[i] == g] for g in (1, 2, 3)]
            P[v + (h0 + h,)] = I.basis[v].submatrix(range(d), sum(by_group, []))
            cuts[v + (h0 + h,)] = tuple(map(len, by_group))
    split = _split_along(M, P, cuts)
    if split is None:
        raise AssertionError("two-row module is not block diagonal over the grouping")
    summands, iso = split
    if sum(1 for s in summands if not s.is_zero()) < 2:
        raise AssertionError("two-row decomposition came out trivial")
    return TwoRowSplit(summands, iso, y)


# ---------------------------------------------------------------------------
# candy checks


@dataclass
class CandyReport:
    ok: bool
    messages: list

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "messages": self.messages}


def check_candy(M: PersModule, ul: tuple, lr: tuple) -> CandyReport:
    """Corner dimensions 1, corner positions at the support's bounding box
    (ul: smallest in the leading coordinates, largest in the last; lr: the
    opposite), and a scalar endomorphism ring.
    """
    msgs = candy_corner_faults(M, ul, lr)
    if M.is_zero():
        return CandyReport(False, msgs)
    ed = end_dim(M)
    if ed != 1:
        msgs.append(f"end_dim = {ed}, want 1")
    ok = not msgs
    if ok:
        msgs.append("ok")
    return CandyReport(ok, msgs)
