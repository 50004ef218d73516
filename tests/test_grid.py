import itertools

import pytest

from persistgrid import (AxisEmbedding, Context, Field, GridBox, HomSpace, ModMorphism, PersModule,
                         Rectangle, RectDecomp, candy_wrap, direct_sum, dualize, iso_certificate,
                         pad, realize, rect_to_module, restrict, stack)
from persistgrid.grid import MAX_VERTICES, pullback, slice_layers, vadd, vsucc
from persistgrid.io import FormatError, line_from_json, line_to_json, pmod_from_json, pmod_to_json
from persistgrid.linalg import Matrix
from persistgrid.sampling import rand_module, rand_rect_decomp

from oracles import stretch_first

Q = Field.rationals()
F2 = Field.prime(2)
F1009 = Field.prime(1009)
RANDOM_BOXES = (GridBox((0, 0), (2, 2)), GridBox((0, 0, 0), (1, 1, 2)), GridBox((-1, 0, 0), (0, 1, 1)))


def interval_module(field, lo, hi, b, d):
    return rect_to_module(RectDecomp(field, GridBox((lo,), (hi,)), [Rectangle((b,), (d,))]))


class TestGridBox:
    def test_vertices_lexicographic(self):
        box = GridBox((0, 0), (1, 1))
        assert list(box.vertices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GridBox((1,), (0,))

    def test_cap(self):
        assert MAX_VERTICES == 100_000
        assert GridBox((0, 0), (999, 99)).count == MAX_VERTICES
        with pytest.raises(ValueError):
            GridBox((0, 0), (1000, 99))  # 100 100 vertices


class TestValidate:
    def test_rectangle_passes(self):
        assert rect_to_module(RectDecomp(Q, GridBox((0, 0), (2, 2)),
                                         [Rectangle((0, 0), (1, 2))])).validate()

    def test_broken_square_fails(self):
        # 2x2 box, all dims 1, three steps 1 and one step 0
        box = GridBox((0, 0), (1, 1))
        dims = {v: 1 for v in box.vertices()}
        one = Matrix.identity(Q, 1)
        zero = Matrix.zero(Q, 1, 1)
        steps = {((0, 0), 0): one, ((0, 0), 1): one, ((1, 0), 1): one, ((0, 1), 0): zero}
        rep = PersModule(Q, box, dims, steps).validate()
        assert not rep
        assert rep.vertex == (0, 0)

    def test_zero_module_passes(self):
        assert PersModule(Q, GridBox((0,), (3,)), {}, {}).validate()


class TestRestrictPadStack:
    def test_layer_embedding_recovers_layer(self):
        V = interval_module(Q, 0, 2, 1, 2)
        W = interval_module(Q, 0, 2, 0, 1)
        g = next(iter([ModMorphism(V, W, {(1,): Matrix.identity(Q, 1)})]))
        assert g.validate()
        M = stack([V, W], [g])
        for h, layer in ((0, V), (1, W)):
            R = restrict(M, AxisEmbedding.layer(1, 1, h))
            assert R.dims == layer.dims and R.steps == layer.steps

    def test_stack_of_identities_restricts_to_layer(self):
        V = interval_module(Q, 0, 2, 0, 2)
        ident = ModMorphism(V, V, {v: Matrix.identity(Q, 1) for v in V.dims})
        M = stack([V, V, V], [ident, ident])
        R = restrict(M, AxisEmbedding.layer(1, 1, 0))
        assert R.dims == V.dims

    def test_pad_then_restrict_back(self):
        V = interval_module(Q, 0, 1, 0, 1)
        big = pad(V, GridBox((-2,), (3,)))
        back = restrict(stack([big], []), AxisEmbedding.layer(1, 1, 0))
        assert back.dims == V.dims

    def test_scaled_restriction_of_scaled_rectangle(self):
        # restriction with per-axis scale s maps I[sb, sd] back to I[b, d]
        s = 3
        M2 = stack([interval_module(Q, 0, 6, 0, 6)], [])
        L = AxisEmbedding([("affine", s, 0)], 1, 0)
        R = restrict(M2, L)
        assert sorted(R.dims) == [(0,), (1,), (2,)]
        assert all(m == Matrix.identity(Q, 1) for m in R.steps.values())


class TestPairRule:
    """Every operation on two modules, or two RectDecomps, refuses a pair
    over different fields or on different boxes, naming both values, before
    it builds anything."""

    BASE = RectDecomp(Q, GridBox((0,), (1,)), [Rectangle((0,), (1,))])
    OTHERS = {"fields": (RectDecomp(F2, GridBox((0,), (1,)), [Rectangle((0,), (1,))]), "Q and F2"),
              "boxes": (RectDecomp(Q, GridBox((0,), (2,)), [Rectangle((0,), (1,))]), "(0,)..(1,) and (0,)..(2,)")}
    CALLERS = {
        "direct sum": lambda a, b: direct_sum(rect_to_module(a), rect_to_module(b)),
        "stack": lambda a, b: stack([rect_to_module(a), rect_to_module(b)],
                                    [ModMorphism.zero(rect_to_module(a), rect_to_module(b))]),
        "morphism": lambda a, b: realize(a, b, {}),
        "hom": lambda a, b: Context().hom(rect_to_module(a), rect_to_module(b)),
        "isomorphism": lambda a, b: iso_certificate(rect_to_module(a), rect_to_module(b)),
    }

    @pytest.mark.parametrize("differ", sorted(OTHERS))
    @pytest.mark.parametrize("what", sorted(CALLERS))
    def test_refused_naming_both_values(self, monkeypatch, what, differ):
        monkeypatch.setattr(HomSpace, "_build", lambda *a: pytest.fail("built a hom space for the pair"))
        other, values = self.OTHERS[differ]
        with pytest.raises(ValueError) as e:
            self.CALLERS[what](self.BASE, other)
        where = "over different" if differ == "fields" else "on different"
        assert str(e.value) == f"{what} of modules {where} {differ}, {values}"


class TestDirectSumDual:
    def test_dims_add(self, rng):
        box = GridBox((0, 0), (2, 2))
        A = rand_module(rng, F2, box, max_dim=2)
        B = rand_module(rng, F2, box, max_dim=2)
        S = direct_sum(A, B)
        assert S.validate()
        for v in box.vertices():
            assert S.dim(v) == A.dim(v) + B.dim(v)

    def test_point_sum_example(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)),
                                      [Rectangle((0,), (0,)), Rectangle((1,), (1,))]))
        assert M.dim((0,)) == 1 and M.dim((1,)) == 1
        assert M.step((0,), 0).is_zero()

    def test_dualize_involution(self, rng):
        box = GridBox((0, 0), (2, 1))
        M = rand_module(rng, F2, box, max_dim=2)
        D = dualize(dualize(M))
        assert D.dims == M.dims
        assert D.steps == M.steps

    def test_dualize_translates_in_the_same_pass(self, rng):
        """dualize(M, t) is the dual translated by t, its steps sharing a
        transpose wherever the dual's do."""
        for box in (GridBox((0,), (3,)), GridBox((1, -1), (2, 1)), GridBox((0, 0, 0), (1, 1, 1))):
            M = rand_module(rng, Q, box, max_dim=2)
            t = tuple(rng.randint(-3, 3) for _ in range(box.n))
            D, E = dualize(M, t), dualize(M).translate(t)
            assert (D.box, list(D.dims.items()), list(D.steps)) == (E.box, list(E.dims.items()), list(E.steps))
            assert D.steps == E.steps
            shared = {vk: id(m) for vk, m in E.steps.items()}
            assert all((id(D.steps[a]) == id(D.steps[b])) == (i == shared[b])
                       for a, i in shared.items() for b in shared)


class TestSliceLayers:
    def test_roundtrip_with_stack(self, rng):
        box = GridBox((0,), (2,))
        A = rand_module(rng, F2, box, max_dim=2)
        B = rand_module(rng, F2, box, max_dim=2)
        ctx = Context()
        g = ModMorphism(A, B, ctx.materialize(A, B, ctx.hom(A, B).random_element(rng)))
        M = stack([A, B], [g], height_lo=-1)
        layers, links = slice_layers(M)
        assert layers[0].dims == A.dims and layers[1].dims == B.dims
        assert links[0].comps == g.comps


def slice_layers_by_restriction(M):
    """Reference construction of slice_layers: restrict M to each layer and
    take the links from the steps along the last axis."""
    n = M.n
    h_lo, h_hi = M.box.lo[-1], M.box.hi[-1]
    layers = [restrict(M, AxisEmbedding.layer(n - 1, n - 1, h)) for h in range(h_lo, h_hi + 1)]
    links = []
    for i, h in enumerate(range(h_lo, h_hi)):
        comps = {v: M.step(v + (h,), n - 1) for v in layers[i].dims if layers[i + 1].dim(v) > 0}
        links.append(ModMorphism(layers[i], layers[i + 1], comps))
    return layers, links


def validate_dense(M) -> bool:
    """Reference commutativity check: every square in the box, with the
    missing arrows materialized as zero matrices."""
    for v in M.box.vertices():
        for j in range(M.n):
            for k in range(j + 1, M.n):
                vj, vk = vsucc(v, j), vsucc(v, k)
                if not M.box.contains(vsucc(vj, k)):
                    continue
                if M.step(vj, k) @ M.step(v, j) != M.step(vk, j) @ M.step(v, k):
                    return False
    return True


def random_modules(rng, count):
    """Random 2D and 3D modules over Q and F_1009; some arrows are dropped,
    which leaves zero maps that need not commute."""
    for _ in range(count):
        field = rng.choice((Q, F1009))
        box = rng.choice(RANDOM_BOXES)
        M = rand_module(rng, field, box, max_dim=2 if box.n == 2 else rng.randint(1, 2))
        steps = {vk: m for vk, m in M.steps.items() if rng.random() < 0.8}
        yield PersModule(field, box, M.dims, steps)


def identity_heavy_modules(rng, count):
    """Rectangle modules and candies, whose steps are mostly identities."""
    for i in range(count):
        field = rng.choice((Q, F1009))
        if i % 4:
            yield rect_to_module(rand_rect_decomp(rng, field, rng.choice((2, 3)), 4, hi=2))
        else:
            yield candy_wrap(rand_module(rng, field, GridBox((0,), (rng.randint(0, 2),)), max_dim=2)).module


def shared_step_modules(rng, count):
    """Modules read back from their PMOD files, so equal steps are one
    shared matrix object: candies, rectangle modules and random modules."""
    for M in itertools.chain(identity_heavy_modules(rng, count // 2),
                             (rand_module(rng, rng.choice((Q, F1009)), rng.choice(RANDOM_BOXES), max_dim=1)
                              for _ in range(count - count // 2))):
        yield pmod_from_json(pmod_to_json(M))


class TestSliceLayersOracle:
    def test_matches_restriction(self, rng):
        for M in random_modules(rng, 60):
            layers, links = slice_layers(M)
            want_layers, want_links = slice_layers_by_restriction(M)
            assert layers == want_layers
            assert links == want_links

    def test_roundtrip_with_stack(self, rng):
        for M in random_modules(rng, 20):
            layers, links = slice_layers(M)
            assert stack(layers, links, height_lo=M.box.lo[-1]) == M


class TestPullback:
    def test_floor_map_matches_stretch(self, rng):
        inputs = itertools.chain(random_modules(rng, 30), shared_step_modules(rng, 10),
                                 (rand_module(rng, F1009, GridBox((-1,), (2,))) for _ in range(10)))
        for M in inputs:
            s = rng.randint(1, 3)
            box = GridBox((s * M.box.lo[0],) + M.box.lo[1:], (s * M.box.hi[0] + s - 1,) + M.box.hi[1:])
            assert pullback(M, lambda y: (y[0] // s,) + y[1:], box) == stretch_first(M, s)

    def test_arrows_inside_a_fibre_share_one_identity_per_dimension(self, rng):
        for M in itertools.chain(random_modules(rng, 20), (rand_module(rng, F1009, GridBox((0, 0), (2, 2)))
                                                            for _ in range(10))):
            box = GridBox((3 * M.box.lo[0],) + M.box.lo[1:], (3 * M.box.hi[0] + 2,) + M.box.hi[1:])
            P = pullback(M, lambda y: (y[0] // 3,) + y[1:], box)
            inside = {}  # dimension -> the objects on arrows x -> x + e_0 with x and x + e_0 in one fibre
            for (x, k), m in P.steps.items():
                if k == 0 and x[0] % 3 != 2:
                    inside.setdefault(m.nrows, set()).add(id(m))
            assert inside and all(len(ids) == 1 for ids in inside.values())

    def test_composite_of_one_arrow_is_the_step(self, rng):
        for M in itertools.chain(random_modules(rng, 20), shared_step_modules(rng, 10)):
            for (v, k), m in M.steps.items():
                assert M.composite(v, vsucc(v, k)) is m
            for v, d in M.dims.items():
                assert M.composite(v, v) == Matrix.identity(M.field, d)

    def test_composite_with_a_zero_end_is_the_zero_matrix(self, rng):
        zeros = 0
        for M in random_modules(rng, 20):
            lo, hi = M.box.lo, M.box.hi
            for v in M.box.vertices():
                if M.dim(v) == 0:
                    zeros += 1
                    assert M.composite(lo, v) == Matrix.zero(M.field, 0, M.dim(lo))
                    assert M.composite(v, hi) == Matrix.zero(M.field, M.dim(hi), 0)
        assert zeros > 0

    def test_layer_restriction_shares_steps(self, rng):
        for M in shared_step_modules(rng, 10):
            n = M.n
            for pos in range(n):
                for h in range(M.box.lo[pos], M.box.hi[pos] + 1):
                    L = AxisEmbedding.layer(n - 1, pos, h)
                    R = restrict(M, L)
                    for (x, k), m in R.steps.items():
                        assert m is M.steps[(L.apply(x), k + (k >= pos))]


class TestValidateOracle:
    def test_agrees_with_dense_check(self, rng):
        verdicts = set()
        for M in itertools.chain(random_modules(rng, 200), identity_heavy_modules(rng, 40),
                                 shared_step_modules(rng, 40)):
            if M.steps:
                (v, k), m = rng.choice(sorted(M.steps.items(), key=lambda it: it[0]))
                rows = [list(r) for r in m.rows]
                rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] = M.field.of(rng.randint(-3, 3))
                changed = Matrix(M.field, rows)
                # the change hits one arrow, or every arrow sharing the object
                every = rng.random() < 0.5
                steps = {a: changed if a == (v, k) or (every and s is m) else s for a, s in M.steps.items()}
                M = PersModule(M.field, M.box, M.dims, steps)
            # vertices in the order a PMOD lists them, which both checks follow
            M = PersModule(M.field, M.box, dict(sorted(M.dims.items())), M.steps)
            rep = M.validate()
            assert bool(rep) == validate_dense(M)
            verdicts.add(bool(rep))
            # the reader refuses exactly the modules validate refuses, with its message
            try:
                pmod_from_json(pmod_to_json(M))
                read = None
            except FormatError as e:
                read = str(e)
            assert read == (None if rep else f"module is not commutative: {rep.message}")
        assert verdicts == {True, False}

    def test_missing_arrow_against_nonzero_path(self):
        box = GridBox((0, 0), (1, 1))
        dims = {v: 1 for v in box.vertices()}
        one = Matrix.identity(Q, 1)
        for missing in (((0, 0), 0), ((1, 0), 1), ((0, 0), 1), ((0, 1), 0)):
            steps = {((0, 0), 0): one, ((0, 0), 1): one, ((1, 0), 1): one, ((0, 1), 0): one}
            del steps[missing]
            rep = PersModule(Q, box, dims, steps).validate()
            assert not rep and rep.vertex == (0, 0)

    def test_missing_arrow_against_zero_path(self):
        box = GridBox((0, 0), (1, 1))
        dims = {v: 1 for v in box.vertices()}
        one, zero = Matrix.identity(Q, 1), Matrix.zero(Q, 1, 1)
        steps = {((0, 0), 0): one, ((1, 0), 1): zero, ((0, 0), 1): one}
        assert PersModule(Q, box, dims, steps).validate()

    def test_dead_far_corner_is_skipped(self):
        # the far corner has dimension 0, so both paths land in the zero space
        box = GridBox((0, 0), (1, 1))
        dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        one = Matrix.identity(Q, 1)
        M = PersModule(Q, box, dims, {((0, 0), 0): one, ((0, 0), 1): one})
        assert M.validate() and validate_dense(M)


class TestMorphismChecks:
    def test_validate_names_the_arrow_and_vertex_of_a_non_natural_morphism(self):
        M = interval_module(Q, 0, 1, 0, 1)
        rep = ModMorphism(M, M, {(0,): Matrix.identity(Q, 1)}).validate()
        assert not rep and rep.message == "naturality fails on the arrow ((0,), axis 0)" and rep.vertex == (0,)

    def test_not_invertible_when_supports_or_dimensions_differ(self):
        M = interval_module(Q, 0, 1, 0, 1)
        point = interval_module(Q, 0, 1, 0, 0)
        # the target lives where the source does not; every source vertex matches
        assert not ModMorphism(point, M, {(0,): Matrix.identity(Q, 1)}).is_invertible()
        double = PersModule(Q, M.box, {(0,): 2, (1,): 2}, {((0,), 0): Matrix.identity(Q, 2)})
        assert not ModMorphism(M, double, {}).is_invertible()
        assert ModMorphism.identity(double).is_invertible()


class TestAxisEmbedding:
    def test_monotone_injective(self):
        L = AxisEmbedding([("affine", 2, 1), ("table", 0, [0, 3, 4])], 1, 7)
        assert L.apply((0, 0)) == (1, 7, 0)
        assert L.apply((2, 2)) == (5, 7, 4)
        pts = [L.apply((a, b)) for a in range(3) for b in range(3)]
        assert len(set(pts)) == len(pts)

    def test_table_must_increase(self):
        with pytest.raises(ValueError):
            AxisEmbedding([("table", 0, [0, 0])], 0, 0)

    def test_preimage_box(self):
        L = AxisEmbedding([("affine", 2, 0)], 1, 5)
        box = GridBox((0, 5), (7, 5))
        assert L.preimage_box(box) == GridBox((0,), (3,))
        assert L.preimage_box(GridBox((0, 0), (7, 4))) is None

    def test_json_roundtrip(self):
        L = AxisEmbedding([("affine", 2, -1), ("table", -1, [5, 9])], 2, 3)
        assert line_from_json(line_to_json(L)) == L
        # translating moves the table's values, not its domain
        t = (4, -2, 7)
        T = L.translate(t)
        assert T.axis_maps[1] == ("table", -1, [3, 7])
        assert all(T.apply(x) == vadd(L.apply(x), t) for x in itertools.product(range(-1, 2), (-1, 0)))
        assert line_from_json(line_to_json(T)) == T
