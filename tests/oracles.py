"""Test oracles: slow, independent decisions that the library's verdicts
are checked against.

`local_dim` is the trace-form radical over Q; `endomorphisms` and the
decisions built on it enumerate every endomorphism of a module over a
finite field; `pmod_to_json_v1` and `candy_to_json_v1` write the older PMOD
form, one record per step, which the reader still accepts;
`indices_by_scan` reads a rectangle sum summand by summand;
`rect_sum` is the rectangle sum of an interval record's summands, and
`materialize_by_iso` builds a morphism from its coordinates through the
rectangle modules of the interval decompositions; `checked_pmod_from_json`
reads an older-form PMOD without the reader's one-pass shortcuts, parsing
every record anew and building the module through a constructor that
filters and checks its input, and `checked_pmod2_from_json` reads a
version-2 PMOD fact by fact, parsing each arrow's matrix anew;
`module_faults` and `morphism_faults` list the ways a module or a morphism
breaks the rules that the storing constructors of PersModule and
ModMorphism take on trust; `stretch_first` builds gen4's floor-stretch of a
module arrow by arrow, without the internal maps of a pullback;
`intervals_by_full_pass` decomposes a 1D module by reducing the image of
every chain at every step, identity steps included, and `is_matching`
tests a step for a 0/1 matching entry by entry;
`factors_by_trial_division` factors a polynomial over a small prime field
into irreducibles by trial division; `powmod_right_to_left` raises a
polynomial to a power modulo another by right-to-left powering;
`minimal_polynomial_by_powers` finds a
matrix's minimal polynomial from the rank of its powers;
`rref_by_first_nonzero`, with `rank_by_first_nonzero` and
`solve_by_first_nonzero` read off it, is dense Gauss-Jordan elimination
pivoting on the first nonzero entry of each column; `gap_by_scan` finds a
zero vertex between two live ones by testing every pair;
`candy_wrap_by_glue` builds a candy from a translated copy of the primal
half and the dual half, glued into new dicts, layer 0 checked to agree;
`cover_comps_by_composites` makes a projective cover's surjection from one
internal map per generator vertex and live vertex; `S_by_layers`,
`S_prime_by_layers`, `min3_rect_by_layers` and `gen4_by_layers` stack a
construction's layers as modules, each rectangle layer a RectDecomp
through rect_to_module and each link through realize, all joined by
grid.stack, and `S_dprime_by_dualize` dualizes S' of the dual module."""

from __future__ import annotations

import itertools

from persistgrid import (CandyModule, PersModule, RectDecomp, Rectangle, build_S_dprime, build_S_prime, end_algebra,
                         gen4, hom_basis, min3_rect, projective_cover, realize, rect_to_module)
from persistgrid.constructions import _s_chain, _s_prime_plan
from persistgrid.grid import (MAX_DIM, Compression, GridBox, ModMorphism, candy_corners, dualize, pad, pullback,
                              slice_layers, stack, vadd, vle, vsub, vsucc)
from persistgrid.homspace import Context
from persistgrid.io import FormatError, _axis_count, _require, _vector, candy_to_json, field_from_json
from persistgrid.linalg import Matrix, Poly


def local_dim(M: PersModule, ctx: Context | None = None) -> int:
    """dim End(M)/rad over the rationals, via the trace-form radical.

    In characteristic zero rad(A) = {x : tr(L_x L_y) = 0 for all y}, so the
    semisimple quotient dimension is the rank of the trace Gram matrix.
    A value of 1 certifies that End(M) is local, hence M indecomposable.
    """
    if not M.field.is_rational:
        raise ValueError("local_dim needs characteristic zero; the trace-form radical is not sound over a prime field")
    alg = end_algebra(M, ctx)
    f = M.field
    d = alg.dim
    lefts = []
    for i in range(d):
        L = Matrix.zero(f, d, d)
        for j in range(d):
            for k in range(d):
                L.rows[k][j] = alg.mult_table[i][j][k]
        lefts.append(L)
    gram = Matrix.zero(f, d, d)
    for i in range(d):
        for j in range(d):
            P = lefts[i] @ lefts[j]
            gram.rows[i][j] = sum((P.rows[t][t] for t in range(d)), f.zero)
    return rank_by_first_nonzero(gram)


def indices_by_scan(R: RectDecomp, v) -> list[int]:
    """The summands of R containing the vertex v, found by testing each."""
    return [i for i, r in enumerate(R.summands) if r.contains(v)]


def rect_sum(I, box: GridBox) -> RectDecomp:
    """The rectangle sum [births[i], deaths[i]] of a 1D interval record I
    on box, summand i of I as summand i."""
    return RectDecomp(I.field, box, [Rectangle((b,), (d,)) for b, d in zip(I.births, I.deaths)])


def materialize_by_iso(ctx: Context, M: PersModule, N: PersModule, x: dict) -> ModMorphism:
    """Context.materialize composed out of whole morphisms: in 1D, realize x
    between the rectangle modules of the two interval decompositions and
    compose with the isos from them to the modules that the chain bases
    give; in nD, layer by layer, each layer's keys (t, i, j) those with t
    in its run of w fibres, w the number of fibres in one layer."""
    if M.is_zero() or N.is_zero():
        return ModMorphism.zero(M, N)
    if M.n == 1:
        I, J = ctx.intervals1(M), ctx.intervals1(N)
        DM, DN = rect_sum(I, M.box), rect_sum(J, N.box)
        RM, RN = rect_to_module(DM), rect_to_module(DN)
        isoN = ModMorphism(RN, N, J.basis)
        isoM_inverse = ModMorphism(M, RM, {v: b.inverse() for v, b in I.basis.items()})
        X = ModMorphism(RM, RN, realize(DM, DN, {(i, j): c for (_, i, j), c in x.items()}))
        return isoN.compose(X).compose(isoM_inverse)
    Ms, Ns = slice_layers(M)[0], slice_layers(N)[0]
    h0, w = M.box.lo[-1], Ms[0].box.count // (Ms[0].box.hi[0] - Ms[0].box.lo[0] + 1)
    comps = {}
    for k in range(len(Ms)):
        xk = {(t - k * w, i, j): c for (t, i, j), c in x.items() if t // w == k}
        gk = materialize_by_iso(ctx, Ms[k], Ns[k], xk)
        comps.update({v + (h0 + k,): m for v, m in gk.comps.items()})
    return ModMorphism(M, N, comps)


def endomorphisms(M: PersModule):
    """Every endomorphism of M over a finite field, as {vertex: matrix}:
    all linear combinations of a hom basis, the zero one first."""
    f = M.field
    basis = hom_basis(M, M, Context())
    for coeffs in itertools.product(f.elements(), repeat=len(basis)):
        comps = {v: Matrix.zero(f, d, d) for v, d in M.dims.items()}
        for c, g in zip(coeffs, basis):
            if c:
                for v in M.dims:
                    comps[v] = comps[v] + Matrix(f, [[f.mul(c, x) for x in row] for row in g.comp(v).rows])
        yield comps


def decomposable_by_idempotents(M: PersModule) -> bool:
    """A nontrivial idempotent endomorphism exists iff M is decomposable."""
    ident = {v: Matrix.identity(M.field, d) for v, d in M.dims.items()}
    for e in endomorphisms(M):
        if e == ident or all(m.is_zero() for m in e.values()):
            continue
        if all(m @ m == m for m in e.values()):
            return True
    return False


def nilpotent_count(M: PersModule) -> int:
    """The number of nilpotent endomorphisms of M; for a local End(M) that
    is the size of its radical."""
    count = 0
    for e in endomorphisms(M):
        powers = dict(e)
        for _ in range(max(M.dims.values())):
            powers = {v: m @ e[v] for v, m in powers.items()}
        count += all(m.is_zero() for m in powers.values())
    return count


def factors_by_trial_division(f: Poly) -> list[tuple[Poly, int]]:
    """The monic irreducible factors q of f over a small prime field, by
    degree then coefficients, each with its multiplicity.  Monic polynomials
    are tried in that order and divided out, so each one that divides what
    is left has no proper factor and is irreducible."""
    field = f.field
    out, rest = [], f.monic()
    for d in range(1, f.degree + 1):
        for low in itertools.product(field.elements(), repeat=d):
            q = Poly(field, [*low, field.one])
            e = 0
            while (rest % q).is_zero():
                e, rest = e + 1, rest // q
            if e:
                out.append((q, e))
    return out


def powmod_right_to_left(a: Poly, e: int, mod: Poly) -> Poly:
    """a^e mod mod by right-to-left powering: the base squared at every bit
    of e, and multiplied into the result where the bit is set."""
    f = a.field
    result = Poly(f, [f.one])
    base = a % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def minimal_polynomial_by_powers(A: Matrix) -> Poly:
    """The monic minimal polynomial of A: the least k such that A^k lies in
    the span of I, A, ..., A^(k-1), read off the rank of the powers
    flattened to columns, with A^k written in the earlier powers."""
    f = A.field
    powers = [Matrix.identity(f, A.nrows)]
    while rank_by_first_nonzero(Matrix(f, zip(*(sum(P.rows, []) for P in powers)))) == len(powers):
        powers.append(powers[-1] @ A)
    *lower, top = (sum(P.rows, []) for P in powers)
    c = solve_by_first_nonzero(Matrix(f, zip(*lower)), Matrix(f, [[y] for y in top]))
    return Poly(f, [f.neg(row[0]) for row in c.rows] + [f.one])


def rref_by_first_nonzero(A: Matrix) -> tuple[Matrix, list[int]]:
    """The reduced row echelon form of A and its pivot columns, by dense
    Gauss-Jordan elimination that pivots on the first nonzero entry of each
    column, where the library pivots on the sparsest row."""
    f = A.field
    rows = [list(r) for r in A.rows]
    pivots = []
    pr = 0
    for pc in range(A.ncols):
        pivot_row = None
        for i in range(pr, A.nrows):
            if rows[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        prow = rows[pr]
        for i in range(A.nrows):
            c = rows[i][pc]
            if i != pr and c != 0:
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], prow)]
        pivots.append(pc)
        pr += 1
        if pr == A.nrows:
            break
    return Matrix(f, rows), pivots


def rank_by_first_nonzero(A: Matrix) -> int:
    return len(rref_by_first_nonzero(A)[1])


def solve_by_first_nonzero(A: Matrix, b: Matrix) -> Matrix | None:
    """The solution X of A X = b read off the rref of [A | b], with every
    free unknown zero, or None when a pivot falls in b's columns."""
    f = A.field
    R, pivots = rref_by_first_nonzero(Matrix(f, [r + s for r, s in zip(A.rows, b.rows)]))
    if any(pc >= A.ncols for pc in pivots):
        return None
    X = Matrix.zero(f, A.ncols, b.ncols)
    for r, pc in enumerate(pivots):
        X.rows[pc] = R.rows[r][A.ncols:]
    return X


def gap_by_scan(M: PersModule) -> tuple | None:
    """The first zero vertex of M's box, in lexicographic order, with a
    live vertex below it and one above it, each found by testing them all."""
    return next((y for y in M.box.vertices() if M.dim(y) == 0
                 and any(vle(x, y) for x in M.dims) and any(vle(y, z) for z in M.dims)), None)


def stretch_first(V: PersModule, s: int) -> PersModule:
    """Pullback of V along (y1, rest) -> (floor(y1/s), rest): each vertex
    becomes s copies along the first axis, joined by identities, and each
    arrow between copies of two vertices is V's step between them."""
    n = V.n
    box = GridBox((s * V.box.lo[0],) + V.box.lo[1:], (s * V.box.hi[0] + s - 1,) + V.box.hi[1:])
    dims = {}
    for v, d in V.dims.items():
        for r in range(s * v[0], s * v[0] + s):
            dims[(r,) + v[1:]] = d
    steps = {}
    for y in dims:
        x = (y[0] // s,) + y[1:]
        y1 = vsucc(y, 0)
        if box.contains(y1) and y1 in dims:
            steps[(y, 0)] = Matrix.identity(V.field, dims[y]) if y1[0] // s == x[0] else V.step(x, 0)
        for k in range(1, n):
            yk = vsucc(y, k)
            if box.contains(yk) and yk in dims:
                steps[(y, k)] = V.step(x, k)
    return PersModule(V.field, box, dims, steps)


class _FullPassChain:
    __slots__ = ("birth", "death", "vecs", "index")

    def __init__(self, birth: int, vec: list, index: int):
        self.birth = birth
        self.death = None
        self.vecs = {birth: vec}
        self.index = index  # creation order, the tie-break between equal intervals


def intervals_by_full_pass(M: PersModule):
    """interval_decompose_1d by the plain reduction pass: every step,
    identity or not, maps each chain vector forward, reduces the images in
    birth order and completes the basis with new births.  Returns the summands as (birth, death) pairs in the
    library's order and the chain basis."""
    f = M.field
    lo, hi = M.box.lo[0], M.box.hi[0]
    active: list[_FullPassChain] = []
    done: list[_FullPassChain] = []
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
        accepted: list[tuple[int, _FullPassChain]] = []
        survivors: list[_FullPassChain] = []
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
            chain = _FullPassChain(x, vec, chains_made)
            chains_made += 1
            accepted.append((piv, chain))
            active.append(chain)
    for chain in active:
        chain.death = hi
        done.append(chain)
    done.sort(key=lambda c: (c.birth, c.death, c.index))
    basis = {}
    for x in range(lo, hi + 1):
        cols = [c.vecs[x] for c in done if c.birth <= x <= c.death]
        if cols:
            basis[(x,)] = Matrix(f, [[col[r] for col in cols] for r in range(M.dim((x,)))])
    return [(c.birth, c.death) for c in done], basis


def is_matching(A: Matrix) -> bool:
    """Entries 0 and one only, at most one nonzero in each row and column."""
    return (all(a in (0, A.field.one) for row in A.rows for a in row)
            and all(sum(map(bool, line)) <= 1 for line in (*A.rows, *zip(*A.rows))))


def module_faults(M: PersModule) -> list[str]:
    """One message for each way M breaks PersModule's rules: dimensions are
    positive and sit at box vertices, steps join two such vertices and have
    the shape of their arrow.  Empty for a lawful module."""
    faults = [f"dimension {d!r} at {v}" for v, d in M.dims.items() if type(d) is not int or d < 1]
    faults += [f"vertex {v} outside the box" for v in M.dims if len(v) != M.n or not M.box.contains(v)]
    for (v, k), m in M.steps.items():
        w = vsucc(v, k) if type(k) is int and 0 <= k < M.n else None
        if v not in M.dims or w not in M.dims:
            faults.append(f"step at {v} axis {k} does not join two positive-dimension vertices")
        elif (m.nrows, m.ncols) != (M.dims[w], M.dims[v]):
            faults.append(f"step at {v} axis {k} has shape {m.nrows}x{m.ncols}, want {M.dims[w]}x{M.dims[v]}")
    return faults


def morphism_faults(f: ModMorphism) -> list[str]:
    """One message for each way f breaks ModMorphism's rules: source and
    target share field and box, and components sit only at vertices where
    both modules are nonzero, each of shape target.dim(v) x source.dim(v).
    Empty for a lawful morphism."""
    S, T = f.source, f.target
    faults = [] if S.field == T.field and S.box == T.box else ["source and target differ in field or box"]
    for v, m in f.comps.items():
        if v not in S.dims or v not in T.dims:
            faults.append(f"component at {v} where a module is zero")
        elif (m.nrows, m.ncols) != (T.dims[v], S.dims[v]):
            faults.append(f"component at {v} has shape {m.nrows}x{m.ncols}, want {T.dims[v]}x{S.dims[v]}")
    return faults


def _checked_module(field, box, dims, steps) -> PersModule:
    """A PersModule built by a checking constructor: zero dimensions and
    steps touching them are dropped, and a vertex outside the box or a
    misshapen step is a ValueError."""
    dims = {v: d for v, d in dims.items() if d > 0}
    kept = {}
    for v in dims:
        if not box.contains(v):
            raise ValueError(f"vertex {v} outside box")
    for (v, k), mat in steps.items():
        dv, dw = dims.get(v, 0), dims.get(vsucc(v, k), 0)
        if dv == 0 or dw == 0:
            continue
        if mat.nrows != dw or mat.ncols != dv:
            raise ValueError(f"step at ({v}, axis {k}) has shape {mat.nrows}x{mat.ncols}, want {dw}x{dv}")
        kept[(v, k)] = mat
    return PersModule(field, box, dims, kept)


def checked_pmod_from_json(obj: dict) -> PersModule:
    """The older-form PMOD reader in four passes: the record checks, then
    the checking constructor's, then the missing steps, then commutativity.
    Every step matrix is parsed anew, and a record touching a
    zero-dimensional vertex must have its exact shape, so `[]` is no zero
    map into such a head."""
    _require(obj, ("field", "n", "lo", "hi", "dims", "steps"), "PMOD")
    f = field_from_json(obj["field"])
    n = _axis_count(obj["n"])
    try:
        box = GridBox(_vector(obj["lo"], n, "lo"), _vector(obj["hi"], n, "hi"))
    except ValueError as e:
        raise FormatError(str(e))
    if not isinstance(obj["dims"], list) or len(obj["dims"]) != box.count:
        raise FormatError(f"dims must be a list of one entry for each of the {box.count} box vertices")
    dims = {}
    for v, d in zip(box.vertices(), obj["dims"]):
        if type(d) is not int or not 0 <= d <= MAX_DIM:
            raise FormatError(f"bad dimension {d!r} at {v}, want 0 to {MAX_DIM}")
        if d:
            dims[v] = d
    if not isinstance(obj["steps"], list):
        raise FormatError(f"steps must be a list, got {obj['steps']!r}")
    steps = {}
    for rec in obj["steps"]:
        _require(rec, ("v", "axis", "matrix"), "step record")
        v = _vector(rec["v"], n, "step vertex")
        k = rec["axis"]
        if type(k) is not int or not 0 <= k < n:
            raise FormatError(f"bad axis {k!r}")
        if not box.contains(v) or v[k] == box.hi[k]:
            raise FormatError(f"step at {v} axis {k} leaves the box")
        if (v, k) in steps:
            raise FormatError(f"step at {v} axis {k} is given twice")
        rows = rec["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise FormatError(f"step at {v} axis {k}: matrix must be a list of rows")
        try:
            m = Matrix(f, [[f.parse(x) for x in row] for row in rows])
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise FormatError(f"bad scalar or ragged rows in step at {v} axis {k}: {e}")
        # the constructor checks the shape of every step between two
        # positive-dimension vertices and drops the others, which must be empty
        dv, dw = dims.get(v, 0), dims.get(vsucc(v, k), 0)
        if not (dv and dw) and (m.nrows, m.ncols) != (dw, dv):
            raise FormatError(f"step at {v} axis {k} has shape {m.nrows}x{m.ncols}, expected {dw}x{dv}")
        steps[(v, k)] = m
    try:
        M = _checked_module(f, box, dims, steps)
    except ValueError as e:
        raise FormatError(str(e))
    # steps between two positive-dimension vertices may not be omitted
    for v, k, _ in M.arrows():
        if (v, k) not in M.steps:
            raise FormatError(f"missing step at {v} axis {k}")
    rep = M.validate()
    if not rep:
        raise FormatError(f"module is not commutative: {rep.message}")
    return M


def pmod_to_json_v1(M: PersModule) -> dict:
    """The older PMOD form, as the library wrote it before version 2: one
    dimension per box vertex in lexicographic order, and one record
    {v, axis, matrix} per arrow between positive-dimension vertices in
    sorted order, an omitted (zero) step as zero rows."""
    f = M.field
    return {"field": f.to_json(), "n": M.n, "lo": list(M.box.lo), "hi": list(M.box.hi),
            "dims": [M.dim(v) for v in M.box.vertices()],
            "steps": [{"v": list(v), "axis": k, "matrix": [[f.fmt(x) for x in row] for row in M.step(v, k).rows]}
                      for v, k, _ in sorted(M.arrows())]}


def candy_to_json_v1(C) -> dict:
    """candy_to_json with its module in the older PMOD form."""
    return {**candy_to_json(C), "module": pmod_to_json_v1(C.module)}


def checked_pmod2_from_json(obj: dict) -> PersModule:
    """The version-2 PMOD reader fact by fact: each dims record in turn, then
    each arrow's index with its matrix parsed anew (no two steps share one),
    then the table's references, then the checking constructor's shapes and
    commutativity.  The arrows are listed here, not by grid.live_arrows."""
    _require(obj, ("version", "field", "n", "lo", "hi", "dims", "matrices", "steps"), "PMOD")
    if type(obj["version"]) is not int or obj["version"] != 2:
        raise FormatError(f"not a version-2 PMOD: {obj['version']!r}")
    f = field_from_json(obj["field"])
    n = _axis_count(obj["n"])
    try:
        box = GridBox(_vector(obj["lo"], n, "lo"), _vector(obj["hi"], n, "hi"))
    except ValueError as e:
        raise FormatError(str(e))
    if not isinstance(obj["dims"], list):
        raise FormatError("dims must be a list")
    dims = {}
    for rec in obj["dims"]:
        v = _vector(rec, n + 1, "dims record")[:n]
        if dims and v <= next(reversed(dims)):
            raise FormatError(f"vertex {v} is out of order")
        if not box.contains(v) or not 1 <= rec[n] <= MAX_DIM:
            raise FormatError(f"bad dims record {rec}")
        dims[v] = rec[n]
    table, index = obj["matrices"], obj["steps"]
    arrows = [(v, k) for v in sorted(dims) for k in range(n) if vsucc(v, k) in dims]
    if not isinstance(table, list) or not isinstance(index, list) or len(index) != len(arrows):
        raise FormatError(f"want a list of matrices and one index for each of the {len(arrows)} arrows")
    steps = {}
    for (v, k), i in zip(arrows, index):
        if type(i) is not int or not 0 <= i < len(table):
            raise FormatError(f"bad index {i!r} at {v} axis {k}")
        rows = table[i]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise FormatError(f"matrices[{i}] must be a list of rows")
        try:
            steps[(v, k)] = Matrix(f, [[f.parse(x) for x in row] for row in rows])
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise FormatError(f"bad scalar or ragged rows in matrices[{i}]: {e}")
    if sorted(set(index)) != list(range(len(table))):
        raise FormatError("a matrix is used by no step")
    try:
        M = _checked_module(f, box, dims, steps)
    except ValueError as e:
        raise FormatError(str(e))
    rep = M.validate()
    if not rep:
        raise FormatError(f"module is not commutative: {rep.message}")
    return M


def candy_wrap_by_glue(V: PersModule) -> CandyModule:
    """candy_wrap's nine layers glued in new dicts: S'(V) translated by t
    onto the copy of V in S''(V), whose vertices above height 0 and steps
    out of its layer 0 along the last axis are added to it; one object for
    each distinct matrix."""
    P, dual = build_S_prime(V).M, build_S_dprime(V)
    n, t = V.n, vsub(dual.line.apply(V.box.lo), V.box.lo + (0,))
    P = P.translate(t)
    dims, steps = P.dims, P.steps
    for v, d in dual.M.dims.items():
        if v[-1] == 0:
            if dims.get(v) != d:
                raise AssertionError("primal and dual stacks disagree on the shared layer")
        else:
            dims[v] = d
    for (v, k), m in dual.M.steps.items():
        if v[-1] >= 0 and not (v[-1] == 0 and k < n):
            steps[(v, k)] = m
    objects = {}
    same = {i: objects.setdefault((m.nrows, m.ncols, tuple(map(tuple, m.rows))), m)
            for i, m in {id(m): m for m in steps.values()}.items()}
    M = PersModule(V.field, GridBox.hull([P.box, dual.M.box]), dims, {vk: same[id(m)] for vk, m in steps.items()})
    return CandyModule(M, *candy_corners(M), dual.line)


def cover_comps_by_composites(V: PersModule, cover) -> dict:
    """The components of cover's surjection onto V at each live vertex w,
    in cover.decomp.by_vertex() order: column j is V(x <= w) e_r for the
    generator (x, r) of the j-th summand live at w, one composite taken
    per generator vertex x."""
    f, gens = V.field, cover.gens
    comps = {}
    for w, idxs in cover.decomp.by_vertex().items():
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
    return comps


def chain_layers(field, grid: Compression, chain: list):
    """A cone chain's layers as modules on grid.coarse, each a RectDecomp
    of its floored rectangles through rect_to_module, linked through
    realize by a ones column and then by diagonals: (layers, links)."""
    m = len(chain[1])
    decomps = [RectDecomp(field, grid.coarse, [Rectangle(grid.floor(r.b), grid.floor(r.d)) for r in rects])
               for rects in chain]
    coords = [{(0, j): field.one for j in range(m)}] + [{(i, i): field.one for i in range(m)}] * (len(chain) - 2)
    layers = [rect_to_module(d) for d in decomps]
    links = [ModMorphism(layers[i], layers[i + 1], realize(decomps[i], decomps[i + 1], x))
             for i, x in enumerate(coords)]
    return layers, links


def _layer_grid(grid: Compression) -> Compression:
    """A built stack's corner grid without its stacking axis."""
    return Compression(grid.lo[:-1], grid.hi[:-1], grid.starts[:-1])


def S_by_layers(R: RectDecomp) -> PersModule:
    chain, meta = _s_chain(R, 4)
    return stack(*chain_layers(R.field, meta["grid"], chain), height_lo=-3)


def S_prime_by_layers(V: PersModule) -> PersModule:
    cov, chain, meta = _s_prime_plan(V, 5)
    layers, links = chain_layers(V.field, meta["grid"], chain)
    top = pad(V, layers[0].box)
    return stack(layers + [top], links + [ModMorphism(layers[3], top, cov.comps)], height_lo=-4)


def S_dprime_by_dualize(V: PersModule) -> PersModule:
    """S'(W) of the dual W of V, dualized and translated so that its
    copy of W comes back onto the copy of V that build_S_dprime's line
    gives."""
    W = dualize(V)
    g = _s_prime_plan(W, 5)[2]["grid"]
    return dualize(S_prime_by_layers(W), vsub(vadd(V.box.lo, V.box.hi), vadd(g.lo, g.hi)) + (4,))


def min3_rect_by_layers(V: RectDecomp) -> PersModule:
    """min3_rect's chain, read off its meta, stacked by layers."""
    meta = min3_rect(V).meta
    return stack(*chain_layers(V.field, _layer_grid(meta["grid"]), meta["chain"]), height_lo=-2)


def gen4_by_layers(V: PersModule) -> PersModule:
    """gen4's chain, read off its meta, stacked by layers under the
    stretched V, linked by the stretched cover surjection."""
    meta = gen4(V).meta
    s, order, tilde, grid = meta["s"], meta["order"], meta["chain"][2], _layer_grid(meta["grid"])
    cov = projective_cover(V)
    layers, links = chain_layers(V.field, grid, meta["chain"])

    def floor(y):
        return (y[0] // s,) + y[1:]

    wide = pad(V, GridBox(V.box.lo, (grid.hi[0] // s,) + V.box.hi[1:]))
    top = pullback(wide, lambda u: floor(grid.first(u)), grid.coarse)
    comps = {}
    for u, d in top.dims.items():
        y = grid.first(u)
        cols = cov.decomp.indices_at(floor(y))
        live = [cols.index(order[j]) for j, r in enumerate(tilde) if r.contains(y)]
        comps[u] = cov.comps[floor(y)].submatrix(range(d), live)
    return stack(layers + [top], links + [ModMorphism(layers[2], top, comps)], height_lo=-3)
