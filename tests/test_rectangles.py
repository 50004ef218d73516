import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (Context, Field, GridBox, Rectangle, RectDecomp, barcode_1d,
                         direct_sum, interval_decompose_1d, realize, rect_to_module)
from persistgrid.grid import ModMorphism, PersModule
from persistgrid.linalg import Matrix
from persistgrid.rectangles import hom_leq
from persistgrid.sampling import rand_module, rand_rect_decomp

from oracles import indices_by_scan, intervals_by_full_pass, is_matching, rect_sum

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F1009 = Field.prime(1009)


def barcode_by_ranks(M):
    """Barcode of a 1D module by rank inclusion-exclusion.

    mult[b, d] = r(b,d) - r(b-1,d) - r(b,d+1) + r(b-1,d+1), where r(x,y) is
    the rank of M(x <= y) and r vanishes outside the box.
    """
    if M.n != 1:
        raise ValueError("barcode_1d needs a 1D module")
    lo, hi = M.box.lo[0], M.box.hi[0]
    r = {}
    for x in range(lo, hi + 1):
        acc = Matrix.identity(M.field, M.dim((x,)))
        r[(x, x)] = acc.rank()
        for y in range(x + 1, hi + 1):
            acc = M.step((y - 1,), 0) @ acc
            r[(x, y)] = acc.rank()

    def rk(x, y):
        if x < lo or y > hi:
            return 0
        return r[(x, y)]

    bars = Counter()
    for b in range(lo, hi + 1):
        for d in range(b, hi + 1):
            m = rk(b, d) - rk(b - 1, d) - rk(b, d + 1) + rk(b - 1, d + 1)
            if m < 0:
                raise AssertionError("negative barcode multiplicity")
            if m > 0:
                bars[((b,), (d,))] = m
    return bars


def rand_1d(seed):
    """A random 1D module over Q, F_2, F_3 or F_1009 on a box of width 5 or 8."""
    rng = random.Random(seed)
    f = [Q, F2, F3, F1009][seed % 4]
    return rand_module(rng, f, GridBox((0,), (4 if seed // 4 % 2 else 7,)), max_dim=2)


class TestRectToModule:
    def test_single_interval(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (2,)), [Rectangle((0,), (2,))]))
        assert [M.dim((i,)) for i in range(3)] == [1, 1, 1]
        assert all(m == Matrix.identity(Q, 1) for m in M.steps.values())

    def test_disjoint_points(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)),
                                      [Rectangle((0,), (0,)), Rectangle((1,), (1,))]))
        assert M.step((0,), 0).is_zero()

    def test_2d_square(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0, 0), (1, 1)),
                                      [Rectangle((0, 0), (1, 1))]))
        assert all(M.dim(v) == 1 for v in M.box.vertices())
        assert M.validate()


class TestCanonicalHom:
    def test_paper_1d_examples(self):
        assert hom_leq(Rectangle((1,), (3,)), Rectangle((0,), (2,)))
        assert not hom_leq(Rectangle((0,), (2,)), Rectangle((1,), (3,)))

    def test_2d_example_against_hom_solver(self):
        from persistgrid import hom_basis
        A, B = Rectangle((0, 0), (2, 2)), Rectangle((0, 0), (1, 1))
        assert hom_leq(A, B)
        box = GridBox((0, 0), (2, 2))
        MA = rect_to_module(RectDecomp(Q, box, [A]))
        MB = rect_to_module(RectDecomp(Q, box, [B]))
        assert len(hom_basis(MA, MB)) == 1
        assert len(hom_basis(MB, MA)) == 0

    def test_hom_relation_reflexive_antisymmetric(self, rng):
        rects = [Rectangle(tuple(rng.randint(0, 3) for _ in range(2)),) for _ in range(0)]
        for _ in range(50):
            b = tuple(rng.randint(0, 3) for _ in range(2))
            d = tuple(rng.randint(b[k], 4) for k in range(2))
            A = Rectangle(b, d)
            assert hom_leq(A, A)
            b2 = tuple(rng.randint(0, 3) for _ in range(2))
            d2 = tuple(rng.randint(b2[k], 4) for k in range(2))
            B = Rectangle(b2, d2)
            if A != B and hom_leq(A, B):
                assert not hom_leq(B, A)

    def test_hom_relation_no_3_cycle(self, rng):
        # A -> B -> C nonzero excludes C -> A for distinct rectangles
        found = 0
        while found < 30:
            rs = []
            for _ in range(3):
                b = tuple(rng.randint(0, 3) for _ in range(2))
                d = tuple(rng.randint(b[k], 5) for k in range(2))
                rs.append(Rectangle(b, d))
            A, B, C = rs
            if len({A, B, C}) == 3 and hom_leq(A, B) and hom_leq(B, C):
                assert not hom_leq(C, A)
                found += 1


class TestRealize:
    def test_identity_formal_matrix(self):
        R = RectDecomp(Q, GridBox((0,), (3,)),
                       [Rectangle((0,), (2,)), Rectangle((1,), (3,))])
        M = rect_to_module(R)
        g = ModMorphism(M, M, realize(R, R, {(0, 0): Q.one, (1, 1): Q.one}))
        assert g.validate()
        for v in M.dims:
            assert g.comp(v) == Matrix.identity(Q, M.dim(v))

    def test_single_canonical_hom(self):
        box = GridBox((0,), (3,))
        src = RectDecomp(Q, box, [Rectangle((1,), (3,))])
        tgt = RectDecomp(Q, box, [Rectangle((0,), (2,))])
        comps = realize(src, tgt, {(0, 0): Q.one})
        assert list(comps) == [(1,), (2,)]  # only the nonzero components
        g = ModMorphism(rect_to_module(src), rect_to_module(tgt), comps)
        assert g.comp((1,)) == Matrix.identity(Q, 1)
        assert g.comp((2,)) == Matrix.identity(Q, 1)
        assert g.comp((0,)).ncols == 0
        assert g.validate()

    def test_entry_outside_hom_space_rejected(self):
        box = GridBox((0,), (3,))
        src = RectDecomp(Q, box, [Rectangle((0,), (2,))])
        tgt = RectDecomp(Q, box, [Rectangle((1,), (3,))])
        with pytest.raises(ValueError):
            realize(src, tgt, {(0, 0): Q.one})
        # an explicit zero coordinate there is skipped, by realize and by
        # the hom engine alike
        assert realize(src, tgt, {(0, 0): Q.zero}) == {}
        assert Context().materialize(rect_to_module(src), rect_to_module(tgt), {(0, 0, 0): Q.zero}) == {}

    def test_formal_composition_zero_rule(self):
        # the composite of two nonzero canonical homs can vanish
        from persistgrid import Context
        box = GridBox((0,), (5,))
        A = RectDecomp(Q, box, [Rectangle((2,), (5,))])
        B = RectDecomp(Q, box, [Rectangle((1,), (3,))])
        C = RectDecomp(Q, box, [Rectangle((0,), (1,))])
        MA, MB, MC = (rect_to_module(R) for R in (A, B, C))
        f = ModMorphism(MA, MB, realize(A, B, {(0, 0): Q.one}))
        g = ModMorphism(MB, MC, realize(B, C, {(0, 0): Q.one}))
        assert not f.comp((2,)).is_zero() and not g.comp((1,)).is_zero()
        h = g.compose(f)
        for v in h.source.dims:
            assert h.comp(v).is_zero()  # A.b = 2 > C.d = 1
        ctx = Context()
        x, y = ctx.hom(MA, MB).basis[0], ctx.hom(MB, MC).basis[0]
        assert ctx.compose(MA, MB, MC, y, x) == {}


class TestBarcode:
    def test_simple_interval(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)), [Rectangle((0,), (1,))]))
        assert barcode_1d(M) == Counter({(((0,), (1,))): 1})

    def test_zero_step_two_points(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)),
                                      [Rectangle((0,), (0,)), Rectangle((1,), (1,))]))
        assert barcode_1d(M) == Counter({((0,), (0,)): 1, ((1,), (1,)): 1})

    def test_rank_formula_example(self):
        # dims (1,2,1) with steps (1,0)^T then (0,1)
        from persistgrid import PersModule
        box = GridBox((0,), (2,))
        dims = {(0,): 1, (1,): 2, (2,): 1}
        steps = {((0,), 0): Matrix.from_ints(Q, [[1], [0]]),
                 ((1,), 0): Matrix.from_ints(Q, [[0, 1]])}
        M = PersModule(Q, box, dims, steps)
        assert barcode_1d(M) == Counter({((0,), (1,)): 1, ((1,), (2,)): 1})

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_barcode_inverts_rect_to_module(self, seed):
        rng = random.Random(seed)
        R = rand_rect_decomp(rng, Q, 1, 4)
        assert barcode_1d(rect_to_module(R)) == R.barcode()

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_barcode_point_counts(self, seed):
        M = rand_1d(seed)
        bc = barcode_1d(M)
        assert bc == barcode_by_ranks(M)
        for x in M.box.vertices():
            total = sum(m for ((b,), (d,)), m in bc.items() if b <= x[0] <= d)
            assert total == M.dim(x)


def partial_injection(draw, f, d, e) -> list[list]:
    """A random e x d 0/1 matrix with at most one one in each row and column."""
    rows = draw(st.permutations(range(e)))
    keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    m = [[f.zero] * d for _ in range(e)]
    for c in range(min(d, e)):
        if keep[c]:
            m[rows[c]][c] = f.one
    return m


@st.composite
def runs_1d(draw):
    """A 1D module made of runs of one dimension each, zero included.  Inside
    a run the steps are mostly identities, else identities with one entry
    changed, random or zero; any step may be a 0/1 matching, or one with
    one entry scaled away from 1, which no matching has; steps between runs
    are otherwise random or zero."""
    f = draw(st.sampled_from([F2, F3, Q, F1009]))
    values = [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)] if f.is_rational else [f.of(c) for c in range(-2, 3)]
    scalar = st.sampled_from(values)
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=5))
    dims = [d for d, length in runs for _ in range(length)]
    steps = {}
    for x, (d, e) in enumerate(zip(dims, dims[1:])):
        kinds = ["identity"] * 3 + ["near", "random", "zero"] if d == e else ["random", "zero"]
        kind = draw(st.sampled_from(kinds + ["matching", "scaled matching"]))
        if not (d and e) or kind == "zero":
            continue
        if kind in ("matching", "scaled matching"):
            rows = partial_injection(draw, f, d, e)
            ones = [(r, c) for r, row in enumerate(rows) for c, a in enumerate(row) if a]
            scales = [a for a in values if a not in (0, f.one)]  # none over F_2
            if kind == "scaled matching" and ones and scales:
                r, c = draw(st.sampled_from(ones))
                rows[r][c] = draw(st.sampled_from(scales))
        elif kind == "random":
            rows = [[draw(scalar) for _ in range(d)] for _ in range(e)]
        else:
            rows = Matrix.identity(f, d).rows
            if kind == "near":
                rows[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(scalar)
        steps[((x,), 0)] = Matrix(f, rows)
    return PersModule(f, GridBox((0,), (len(dims) - 1,)), {(x,): d for x, d in enumerate(dims) if d}, steps)


class TestIntervalDecompose:
    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_decompose_matches_barcode_and_iso(self, seed):
        M = rand_1d(seed)
        I = Context().intervals1(M)
        D = rect_sum(I, M.box)
        iso = ModMorphism(rect_to_module(D), M, I.basis)
        assert D.barcode() == barcode_1d(M) == barcode_by_ranks(M)
        assert iso.validate()
        assert iso.is_invertible()
        # the iso is the chain basis that interval_decompose_1d returns
        I2 = interval_decompose_1d(M)
        assert (I2.births, I2.deaths) == (I.births, I.deaths) and iso.comps == I2.basis

    @given(runs_1d())
    @settings(max_examples=300, deadline=None)
    def test_identity_steps_carry_chains_over_exactly(self, M):
        """An identity step passes the chains on unchanged, and a module of
        0/1 matchings is read off its rows; the plain pass, which reduces at
        every step, gives the same summands in the same order and the same
        chain basis either way.  A record keeps rows exactly when every
        step is a matching."""
        I = interval_decompose_1d(M)
        summands, full_basis = intervals_by_full_pass(M)
        assert list(zip(I.births, I.deaths)) == summands
        assert I.basis == full_basis
        assert (I.rows is not None) == all(map(is_matching, M.steps.values()))
        for v, B in full_basis.items():
            assert I.inverse(v) == (None if B.is_identity() else B.inverse())

    def test_equal_intervals_keep_creation_order(self):
        box = GridBox((0,), (3,))
        I = rect_to_module(RectDecomp(Q, box, [Rectangle((1,), (2,))]))
        J = rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (3,))]))
        M = direct_sum(direct_sum(I, J), direct_sum(I, J))
        seen = set()
        for _ in range(100):
            I = Context().intervals1(M)
            iso = ModMorphism(rect_to_module(rect_sum(I, box)), M, I.basis)
            seen.add(tuple(sorted((v, tuple(map(tuple, m.rows))) for v, m in iso.comps.items())))
        assert len(seen) == 1
        # the two chains born at 0 are made from e_0 and then e_1
        assert iso.comp((0,)) == Matrix.identity(Q, 2)


class TestVertexIndex:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_indices_at_matches_scan(self, data):
        """In 1-3D, with repeated rectangles and with vertices that lie in
        no summand."""
        n = data.draw(st.integers(1, 3))
        hi = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        box = GridBox((0,) * n, hi)
        corner = st.tuples(*[st.integers(0, h) for h in hi])
        distinct = data.draw(st.lists(st.tuples(corner, corner), min_size=1, max_size=4))
        rects = [Rectangle(tuple(map(min, b, d)), tuple(map(max, b, d))) for b, d in distinct]
        picks = data.draw(st.lists(st.integers(0, len(rects) - 1), min_size=1, max_size=7))
        R = RectDecomp(Q, box, [rects[i] for i in picks])
        for v in box.vertices():
            assert R.indices_at(v) == indices_by_scan(R, v)
        assert set(R.by_vertex()) == {v for v in box.vertices() if indices_by_scan(R, v)}
        M = rect_to_module(R)
        assert M.dims == {v: len(idx) for v, idx in R.by_vertex().items()}
