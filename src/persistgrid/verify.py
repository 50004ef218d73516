"""Certification: endomorphism algebras, indecomposability, isomorphism
certificates, and the constructive two-row decomposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grid import ModMorphism, PersModule, candy_corner_faults, direct_sum, stack, vle
from .homspace import Context, HomSpace, end_dim
from .linalg import Matrix, Poly, coprime_split, factor_fp, minimal_polynomial
from .rectangles import RectDecomp, realize


def hom_basis(M: PersModule, N: PersModule, ctx: Context | None = None) -> list[ModMorphism]:
    ctx = ctx or Context()
    H = ctx.hom(M, N)
    out = []
    for b in H.basis:
        g = H.materialize(b)
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
    ident = E.coords_in_basis(E.express(ModMorphism.identity(M)))
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


@dataclass
class IndecVerdict:
    status: str
    reason: str
    end_dim: int
    summands: tuple | None = None  # (M1, M2) when decomposable
    iso: ModMorphism | None = None  # direct_sum(M1, M2) -> M
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


def _endo_min_poly(a: ModMorphism) -> Poly:
    """Minimal polynomial of an endomorphism: lcm over the vertex blocks."""
    f = a.field
    m = None
    for v in a.source.dims:
        mv = minimal_polynomial(a.comp(v))
        m = mv if m is None else m.lcm(mv)
    return m if m is not None else Poly(f, [f.zero, f.one])


def _split_along(M: PersModule, a: ModMorphism, g: Poly, h: Poly):
    """M = ker g(a) + ker h(a) vertexwise; returns (M1, M2, iso) or None.

    Requires g, h coprime with g.h a multiple of the minimal polynomial, so
    the kernels are complementary submodules.
    """
    f = M.field
    P, Pinv = {}, {}
    split_dim = {}
    for v, d in M.dims.items():
        av = a.comp(v)
        K1 = g.eval_matrix(av).nullspace()
        K2 = h.eval_matrix(av).nullspace()
        if K1.ncols + K2.ncols != d:
            return None
        P[v] = Matrix.hstack([K1, K2])
        try:
            Pinv[v] = P[v].inverse()
        except ValueError:
            return None
        split_dim[v] = K1.ncols
    if all(split_dim[v] == 0 for v in M.dims) or all(split_dim[v] == M.dims[v] for v in M.dims):
        return None  # one side vanished everywhere: trivial split
    dims1 = {v: split_dim[v] for v in M.dims}
    dims2 = {v: M.dims[v] - split_dim[v] for v in M.dims}
    steps1, steps2 = {}, {}
    for v, k, w in M.arrows():
        B = Pinv[w] @ (M.step(v, k) @ P[v])
        d1v, d1w = split_dim[v], split_dim[w]
        # kernels of coprime factors are invariant, so B must be block diagonal
        for r in range(d1w):
            for c in range(d1v, M.dims[v]):
                if B.rows[r][c] != 0:
                    return None
        for r in range(d1w, M.dims[w]):
            for c in range(d1v):
                if B.rows[r][c] != 0:
                    return None
        steps1[(v, k)] = B.submatrix(range(d1w), range(d1v))
        steps2[(v, k)] = B.submatrix(range(d1w, M.dims[w]), range(d1v, M.dims[v]))
    M1 = PersModule(f, M.box, dims1, steps1)
    M2 = PersModule(f, M.box, dims2, steps2)
    if M1.is_zero() or M2.is_zero():
        return None
    iso = ModMorphism(direct_sum(M1, M2), M, {v: P[v] for v in M.dims})
    rep = iso.validate()
    if not rep or not iso.is_invertible():
        return None
    return M1, M2, iso


def _try_element(M: PersModule, a: ModMorphism, rng):
    """(split, f): split is (M1, M2, iso) when the minimal polynomial of the
    endomorphism a has a coprime factorization; otherwise f is the monic
    irreducible it is a power of, if f is known irreducible: always over F_p
    (factoring a prime power draws nothing from rng), over Q when f is linear.
    """
    mp = _endo_min_poly(a)
    gh = coprime_split(mp, rng)
    if gh is not None:
        return _split_along(M, a, *gh), None
    if not M.field.is_rational:
        return None, factor_fp(mp, rng)[0][0]
    root = mp // mp.gcd(mp.derivative())
    return None, root if root.degree == 1 else None


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


def try_split(M: PersModule, seed: int = 0, trials: int = 24, ctx: Context | None = None) -> IndecVerdict:
    """Certify M indecomposable or produce an explicit nontrivial splitting.

    Conclusive when end_dim = 1, when one of the random endomorphisms drawn
    splits M, or, once every draw has failed, when the draws whose minimal
    polynomials are powers of known irreducibles certify that End(M) is
    local (_local_certificate).
    """
    ctx = ctx or Context()
    if M.is_zero():
        return IndecVerdict(INCONCLUSIVE, "zero module", 0)
    E = ctx.hom(M, M)
    ed = E.dim
    if ed == 1:
        return IndecVerdict(INDECOMPOSABLE, "end_dim = 1", ed)
    rng = random.Random(seed)
    residues = []
    for _ in range(trials):
        amb = E.random_element(rng)
        if not amb:
            continue
        split, f = _try_element(M, E.materialize(amb), rng)
        if split is not None:
            return IndecVerdict(DECOMPOSABLE, "splitting endomorphism found", ed, split[:2], split[2])
        if f is not None:
            residues.append((amb, f))
    if residues and (cert := _local_certificate(end_algebra(M, ctx), residues)):
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

    def to_json(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "reason": self.reason,
            "has_witness": self.witness is not None,
        }


def iso_certificate(M: PersModule, N: PersModule, seed: int = 0, trials: int = 30, ctx: Context | None = None) -> IsoReport:
    """Search for a pointwise invertible natural transformation M -> N.

    Complete in 1D (barcode comparison); for n >= 2, absence of a witness
    after the trials is not a proof of non-isomorphism, except through the
    dimension-function obstruction.
    """
    if M.field != N.field or M.box != N.box:
        raise ValueError("iso certificate needs matching box and field")
    ctx = ctx or Context()
    if dict(M.dims) != dict(N.dims):
        return IsoReport(False, None, "dimension functions differ")
    if M.is_zero():
        return IsoReport(True, ModMorphism.zero(M, N), "both zero")
    if M.n == 1:
        DM = ctx.intervals1(M)[0]
        if DM.barcode() != ctx.intervals1(N)[0].barcode():
            return IsoReport(False, None, "barcodes differ")
        phi = ctx.materialize(M, N, {(i, i): M.field.one for i in range(len(DM))})
        return IsoReport(True, phi, "matching barcodes")
    H = ctx.hom(M, N)
    rng = random.Random(seed)
    for t in range(trials):
        amb = H.random_element(rng)
        if not amb:
            continue
        phi = H.materialize(amb)
        if phi.is_invertible():
            return IsoReport(True, phi, f"random hom-span element invertible (trial {t})")
    return IsoReport(None, None, f"no invertible element found in {trials} trials")


# ---------------------------------------------------------------------------
# two-row decomposition


@dataclass
class TwoRowSplit:
    summands: list  # three PersModules on the original box
    iso: ModMorphism  # direct_sum of the three -> M
    gap: tuple


def find_gap(M: PersModule) -> tuple | None:
    """A zero vertex lying between two nonzero vertices, if any."""
    for y in sorted(M.box.vertices()):
        if M.dim(y) > 0:
            continue
        below = any(vle(x, y) for x in M.dims)
        above = any(vle(y, z) for z in M.dims)
        if below and above:
            return y
    return None


def decompose_two_rows(M: PersModule, y: tuple | None = None, ctx: Context | None = None) -> TwoRowSplit:
    """Constructive decomposition of a module on an m x 2 grid with a gap.

    Interval-decompose both rows and sort the intervals into three groups on
    each row so the connecting morphism is block diagonal: with the gap at
    column y0 on the lower row, lower intervals split by position (deaths
    left of y0 / empty / births right of y0) and upper intervals by death
    (< y0 / = y0 / > y0); with the gap on the upper row the dual rule splits
    upper intervals by position and lower intervals by birth.
    """
    if M.n != 2 or M.box.hi[1] - M.box.lo[1] != 1:
        raise ValueError("decompose_two_rows needs a module on an m x 2 box")
    if y is None:
        y = find_gap(M)
        if y is None:
            raise ValueError("no zero vertex between nonzero vertices")
    y = tuple(y)
    if M.dim(y) != 0:
        raise ValueError(f"vertex {y} is not a gap")
    if not (any(vle(x, y) for x in M.dims) and any(vle(y, z) for z in M.dims)):
        raise ValueError(f"vertex {y} is not between nonzero vertices")
    ctx = ctx or Context()
    rows, links = ctx.layers(M)
    L, U = rows
    link = links[0]
    DL, basisL = ctx.intervals1(L)
    DU, basisU = ctx.intervals1(U)
    y0 = y[0]
    lower = y[1] == M.box.lo[1]

    def group_of(r, is_upper):
        b, d = r.b[0], r.d[0]
        if lower:
            if not is_upper:
                if d < y0:
                    return 1
                if b > y0:
                    return 3
                raise AssertionError("lower interval crosses the gap")
            return 1 if d < y0 else (2 if d == y0 else 3)
        if is_upper:
            if d < y0:
                return 1
            if b > y0:
                return 3
            raise AssertionError("upper interval crosses the gap")
        return 1 if b < y0 else (2 if b == y0 else 3)

    gL = [group_of(r, False) for r in DL.summands]
    gU = [group_of(r, True) for r in DU.summands]
    coords = ctx.express(L, U, link)
    for (i, j), c in coords.items():
        if gL[i] != gU[j]:
            raise AssertionError("connecting morphism is not block diagonal over the grouping")
    f = M.field
    h0 = M.box.lo[1]
    summands = []
    for g in (1, 2, 3):
        li = [i for i in range(len(DL)) if gL[i] == g]
        ui = [j for j in range(len(DU)) if gU[j] == g]
        subL = RectDecomp(f, L.box, [DL.summands[i] for i in li])
        subU = RectDecomp(f, U.box, [DU.summands[j] for j in ui])
        at_l = {i: a for a, i in enumerate(li)}
        at_u = {j: a for a, j in enumerate(ui)}
        sub = {(at_l[i], at_u[j]): c for (i, j), c in coords.items() if gL[i] == g}
        sub_link = realize(subL, subU, sub)
        summands.append(stack([sub_link.source, sub_link.target], [sub_link], height_lo=h0))
    total = direct_sum(direct_sum(summands[0], summands[1]), summands[2])
    # the direct-sum basis at a vertex lists group 1 then 2 then 3 survivors;
    # map each back through the row isomorphisms
    comps = {}
    for row_idx, (D, basis) in enumerate(((DL, basisL), (DU, basisU))):
        grp = gL if row_idx == 0 else gU
        h = h0 + row_idx
        row_mod = rows[row_idx]
        for v, d in row_mod.dims.items():
            present = D.indices_at(v)
            ordering = [c for g in (1, 2, 3) for c, i in enumerate(present) if grp[i] == g]
            comps[v + (h,)] = basis[v].submatrix(range(d), ordering)
    iso = ModMorphism(total, M, comps)
    rep = iso.validate()
    if not rep:
        raise AssertionError(f"two-row isomorphism fails naturality: {rep.message}")
    if not iso.is_invertible():
        raise AssertionError("two-row isomorphism is not invertible")
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


def check_candy(M: PersModule, ul: tuple, lr: tuple, ctx: Context | None = None) -> CandyReport:
    """Corner dimensions 1, corner positions at the support's bounding box
    (ul: smallest in the leading coordinates, largest in the last; lr: the
    opposite), and a scalar endomorphism ring.
    """
    msgs = candy_corner_faults(M, ul, lr)
    if M.is_zero():
        return CandyReport(False, msgs)
    ed = end_dim(M, ctx or Context())
    if ed != 1:
        msgs.append(f"end_dim = {ed}, want 1")
    ok = not msgs
    if ok:
        msgs.append("ok")
    return CandyReport(ok, msgs)
