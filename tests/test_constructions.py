import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (AxisEmbedding, CandyModule, Field, GridBox, ModMorphism, PersModule,
                         Rectangle, RectDecomp, barcode_1d, build_S,
                         build_S_dprime, build_S_prime, candy_wrap, check_candy,
                         concat, end_dim, gen4, iso_certificate,
                         min3, min3_rect, rect_to_module, restrict,
                         string_candies)
from persistgrid import constructions, grid
from persistgrid.homspace import Context
from persistgrid.cli import main
from persistgrid.io import dump, pmod_to_json
from persistgrid.constructions import cone, separate_and_shift, verticalize
from persistgrid.covers import projective_cover
from persistgrid.grid import Compression, direct_sum, dualize, pad, slice_layers, stack, vadd, vsub
from persistgrid.linalg import Matrix
from persistgrid.rectangles import hom_leq
from persistgrid.sampling import enumerate_modules, rand_module, rand_rect_decomp, rand_two_rows_with_gap
from persistgrid.verify import decompose_two_rows, hom_basis, try_split

from oracles import (S_by_layers, S_dprime_by_dualize, S_prime_by_layers, candy_wrap_by_glue, gen4_by_layers,
                     local_dim, min3_rect_by_layers, module_faults, morphism_faults)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F1009 = Field.prime(1009)


def modules_equal(A, B):
    return A.dims == B.dims and A.steps == B.steps


class TestSeparateShiftVerticalize:
    def test_deaths_distinct_and_dominating(self, rng):
        for _ in range(20):
            V = rand_rect_decomp(rng, Q, 2, 4)
            dp = separate_and_shift(V)
            assert len({d[0] for d in dp}) == len(dp)
            for r, d in zip(V.summands, dp):
                assert all(a <= b for a, b in zip(r.d, d))
                assert all((r.b[k] + d[k]) % 2 == 0 for k in range(2))
            # midpoint of every summand is below every shifted death
            for r, d in zip(V.summands, dp):
                mid = tuple((r.b[k] + d[k]) // 2 for k in range(2))
                for d2 in dp:
                    assert all(m <= x for m, x in zip(mid, d2))

    def test_verticalize_common_midpoint(self, rng):
        for _ in range(20):
            V = rand_rect_decomp(rng, Q, 1, 4)
            dp = separate_and_shift(V)
            mu, bp = verticalize(V, dp)
            for b, d in zip(bp, dp):
                assert tuple((x + y) // 2 for x, y in zip(b, d)) == mu

    def test_cone_dominates(self, rng):
        V = rand_rect_decomp(rng, Q, 2, 3)
        dp = separate_and_shift(V)
        _, bp = verticalize(V, dp)
        iv = cone(bp, dp)
        for b, d in zip(bp, dp):
            assert hom_leq(iv, Rectangle(b, d))


class TestBuildS:
    def test_four_layers_and_heights(self):
        V = RectDecomp(Q, GridBox((0,), (3,)),
                       [Rectangle((1,), (3,)), Rectangle((0,), (2,))])
        r = build_S(V)
        assert r.layer_count == 4
        assert r.M.box.lo[-1] == -3 and r.M.box.hi[-1] == 0
        assert r.M.validate()

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_restriction_and_end(self, seed):
        rng = random.Random(seed)
        f = [Q, F2, F3][seed % 3]
        V = rand_rect_decomp(rng, f, 1, 4)
        r = build_S(V)
        W = restrict(r.M, r.line)
        assert barcode_1d(W) == V.barcode()
        assert end_dim(r.M) == 1

    def test_2d_input(self, rng):
        V = rand_rect_decomp(rng, Q, 2, 3, hi=3)
        r = build_S(V)
        assert end_dim(r.M) == 1
        W = restrict(r.M, r.line)
        rep = iso_certificate(W, rect_to_module(RectDecomp(V.field, W.box, V.summands)))
        assert rep.isomorphic is True


class TestCoverStacks:
    @given(st.integers(0, 2**31))
    @settings(max_examples=8, deadline=None)
    def test_sprime_and_sdual(self, seed):
        rng = random.Random(seed)
        f = [Q, F2][seed % 2]
        n = 1 + seed % 2
        V = rand_module(rng, f, GridBox((0,) * n, (2,) * n), max_dim=2)
        for build, lo, hi in ((build_S_prime, -4, 0), (build_S_dprime, 0, 4)):
            r = build(V)
            assert r.layer_count == 5
            assert r.M.box.lo[-1] == lo and r.M.box.hi[-1] == hi
            W = restrict(r.M, r.line, source_box=V.box)
            assert modules_equal(W, V)
            assert end_dim(r.M) == 1

    def test_zero_module_rejected(self):
        Z = PersModule(Q, GridBox((0,), (2,)), {}, {})
        with pytest.raises(ValueError):
            build_S_prime(Z)
        with pytest.raises(ValueError):
            build_S_dprime(Z)


class TestCandy:
    def make(self, rng, f=F2):
        V = rand_module(rng, f, GridBox((0, 0), (1, 1)), max_dim=1)
        return V, candy_wrap(V)

    def test_nine_layers_corners_end(self, rng):
        V, C = self.make(rng)
        assert C.module.box.hi[-1] - C.module.box.lo[-1] == 8
        heights = {v[-1] for v in C.module.dims}
        assert heights == set(range(-4, 5))
        rep = check_candy(C.module, C.ul, C.lr)
        assert rep.ok, rep.messages
        W = restrict(C.module, C.line, source_box=V.box)
        assert modules_equal(W, V)

    def test_concat_point_candies(self):
        # two one-vertex candies: result is three 1-dim spaces with identity
        # arrows out of the joining vertex
        box = GridBox((0, 0), (0, 0))
        K = PersModule(Q, box, {(0, 0): 1}, {})
        A = CandyModule(K, (0, 0), (0, 0))
        C = concat(A, A)
        assert sorted(C.module.dims) == [(0, -1), (0, 0), (1, -1)]
        assert all(d == 1 for d in C.module.dims.values())
        assert C.module.step((0, -1), 0) == Matrix.identity(Q, 1)
        assert C.module.step((0, -1), 1) == Matrix.identity(Q, 1)
        assert check_candy(C.module, C.ul, C.lr).ok

    def test_concat_closed_and_no_cross_paths(self, rng):
        V1, A = self.make(rng)
        V2, B = self.make(rng)
        C = concat(A, B)
        assert check_candy(C.module, C.ul, C.lr).ok
        assert C.ul == A.ul
        # no monotone path between the supports of the two candy images
        a_sup = set(A.module.dims)
        b_sup = {v for v in C.module.dims
                 if v not in a_sup and C.module.dim(v) == 1 or v not in a_sup}
        b_img = [v for v in C.module.dims if v[-1] < A.module.box.lo[-1] - 1]
        for a in a_sup:
            for b in b_img:
                assert not all(x <= y for x, y in zip(a, b))
                assert not all(y <= x for x, y in zip(a, b))

    def test_string_recovers_inputs(self, rng):
        mods = [rand_module(rng, F2, GridBox((0, 0), (1, 1)), max_dim=1)
                for _ in range(3)]
        res = string_candies(mods)
        assert check_candy(res.candy.module, res.candy.ul, res.candy.lr).ok
        for emb, v in zip(res.embeddings, mods):
            W = restrict(res.candy.module, emb, source_box=v.box)
            assert modules_equal(W, v)


def handle_vertices(A, B, C) -> list:
    """The vertices C = concat(A, B) has that neither A nor B, translated
    as C places it, has: the handle, in C.module.dims order."""
    t = vsub(C.lr, B.lr)
    old = set(A.module.dims) | {vadd(v, t) for v in B.module.dims}
    return [v for v in C.module.dims if v not in old]


def point_candy(field, n):
    v = (0,) * n
    return CandyModule(PersModule(field, GridBox(v, v), {v: 1}, {}), v, v)


def joins(rng, field):
    """(A, B) pairs that concat joins: point candies in 2D and 3D, candies
    of 1D, 2D and 3D inputs, and strings of two or three candies on either
    side."""
    for n in (2, 3):
        yield point_candy(field, n), point_candy(field, n)
    for box, max_dim in ((GridBox((0,), (3,)), 2), (GridBox((0, 0), (1, 0)), 1), (GridBox((0, 0), (1, 1)), 1),
                         (GridBox((0, 0, 0), (1, 0, 0)), 1)):
        mods = [rand_module(rng, field, box, max_dim=max_dim) for _ in range(4)]
        candies = [candy_wrap(V) for V in mods]
        yield candies[0], candies[1]
        if box.n < 3:
            yield string_candies(mods[:3]).candy, candies[3]
            yield candies[3], string_candies(mods[:2]).candy


class TestConcatChecksTheHandle:
    """concat checks only the squares based at the handle vertices it adds:
    the report equals a check of the whole joined module, on valid joins
    and on joins with one handle step broken, and the vertices checked per
    join do not grow along a string."""

    @pytest.mark.parametrize("field", [F2, F1009, Q], ids=str)
    def test_handle_check_reports_as_the_whole_module(self, rng, field):
        failing = 0
        for A, B in joins(rng, field):
            C = concat(A, B)
            M, H = C.module, handle_vertices(A, B, C)
            n, lr = M.n, A.lr
            x = lr[:-1] + (lr[-1] - 1,)
            assert x in H and M.steps[(x, n - 1)].is_identity()
            assert M.validate(at=H) == M.validate() and M.validate().ok
            steps = [vk for vk in M.steps if vk[0] in H and vk != (x, n - 1)]
            mutants = [((x, n - 1), Matrix.zero(field, 1, 1))]
            for vk in rng.sample(steps, min(3, len(steps))):
                m = M.steps[vk]
                mutants += [(vk, Matrix.zero(field, m.nrows, m.ncols)), (vk, m + m)]
            for vk, m in mutants:
                bad = PersModule(field, M.box, M.dims, {**M.steps, vk: m})
                rep = bad.validate()
                assert bad.validate(at=H) == rep, (vk, rep)
                failing += not rep.ok
        assert failing > 10

    @pytest.mark.parametrize("box", [GridBox((0,), (3,)), GridBox((0, 0), (1, 0))], ids=["2d", "3d"])
    def test_checked_vertices_do_not_grow_along_a_string(self, rng, box, monkeypatch):
        C = candy_wrap(rand_module(rng, F1009, box, max_dim=1))
        checked = []
        real = grid.check_squares

        def spy(out, succ, mats, n):
            checked.append(list(out))
            return real(out, succ, mats, n)

        monkeypatch.setattr(grid, "check_squares", spy)
        cur = C
        for _ in range(5):
            nxt = concat(cur, C)
            assert checked[-1] == handle_vertices(cur, C, nxt)
            cur = nxt
        assert len(checked) == 5 and len({len(vs) for vs in checked}) == 1


class TestCandyMatchesTheGlue:
    """candy_wrap writes the primal half into the dual half's dicts; it
    builds the candy that gluing translated copies of both halves gives."""

    @pytest.mark.parametrize("field", [F2, F1009, Q], ids=str)
    def test_candy_wrap_matches_the_glue(self, rng, field):
        shapes = [(GridBox((0,), (3,)), 2), (GridBox((0, 0), (1, 0)), 1), (GridBox((0, 0), (1, 1)), 1),
                  (GridBox((0, 0, 0), (1, 1, 0)), 1)]
        for box, max_dim in shapes * 2:
            V = rand_module(rng, field, box, max_dim=max_dim)
            C, G = candy_wrap(V), candy_wrap_by_glue(V)
            assert C.module.field == G.module.field and C.module.box == G.module.box
            assert C.module.dims == G.module.dims and C.module.steps == G.module.steps
            assert (C.ul, C.lr, C.line) == (G.ul, G.lr, G.line)
            rows = {id(m): tuple(map(tuple, m.rows)) for m in C.module.steps.values()}
            assert len(rows) == len(set(rows.values()))  # one object per distinct matrix


class TestStackerMatchesTheLayers:
    """The stacker writes each construction's layers and links straight
    into the stack's dicts, and S'' stacks the plan of the dual module
    mirrored.  Each gives the module that stacking the rectangle modules
    gives, and for S'' dualizing S' of the dual: equal as a module, equal
    as PMOD bytes, and with its vertices and steps listed in the same order."""

    @pytest.mark.parametrize("field", [F2, F3, Q], ids=str)
    def test_every_construction_equals_the_layer_route(self, rng, field):
        for box in (GridBox((0,), (3,)), GridBox((0, 0), (2, 1)), GridBox((0, 0, 0), (1, 1, 1))):
            for _ in range(3):
                R = rand_rect_decomp(rng, field, box.n, 3, hi=3)
                V = rand_module(rng, field, box, max_dim=2, total_cap=6)
                for new, old in ((build_S(R).M, S_by_layers(R)), (min3_rect(R).M, min3_rect_by_layers(R)),
                                 (build_S_prime(V).M, S_prime_by_layers(V)),
                                 (build_S_dprime(V).M, S_dprime_by_dualize(V)), (gen4(V).M, gen4_by_layers(V))):
                    assert new == old
                    assert json.dumps(pmod_to_json(new)) == json.dumps(pmod_to_json(old))
                    assert list(new.dims) == list(old.dims) and list(new.steps) == list(old.steps)


class TestMin3:
    def test_worked_example(self):
        V = RectDecomp(Q, GridBox((0,), (1,)),
                       [Rectangle((0,), (1,)), Rectangle((1,), (1,))])
        r = min3(V)
        assert r.layer_count == 3
        assert r.meta["s"] == 6
        ds = r.meta["chain"]
        assert [(x.b, x.d) for x in ds[0]] == [((4,), (9,))]
        assert [(x.b, x.d) for x in ds[1]] == [((0,), (9,)), ((4,), (8,))]
        assert [(x.b, x.d) for x in ds[2]] == [((0,), (6,)), ((4,), (8,))]
        W = restrict(r.M, r.line, source_box=V.box)
        assert barcode_1d(W) == V.barcode()
        assert local_dim(r.M) == 1

    def test_rejects_higher_dim(self, rng):
        with pytest.raises(ValueError):
            min3(rand_rect_decomp(rng, Q, 2, 2))

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_random_1d(self, seed):
        rng = random.Random(seed)
        V = rand_rect_decomp(rng, Q, 1, 4, hi=3)
        r = min3(V)
        W = restrict(r.M, r.line, source_box=V.box)
        assert barcode_1d(W) == V.barcode()
        assert local_dim(r.M) == 1


class TestMin3Rect:
    @given(st.integers(0, 2**31))
    @settings(max_examples=8, deadline=None)
    def test_2d_restriction_and_ordering(self, seed):
        rng = random.Random(seed)
        V = rand_rect_decomp(rng, Q, 2, 3, hi=3)
        r = min3_rect(V)
        assert r.layer_count == 3
        # interleaving: b'_1 <_f ... <_f b'_m <= d'_m <_f ... <_f d'_1
        bp, dp = r.meta["bprime"], r.meta["dprime"]
        m = len(bp)
        for i in range(m - 1):
            assert bp[i][0] < bp[i + 1][0]
            assert dp[i + 1][0] < dp[i][0]
        assert all(x <= y for x, y in zip(bp[-1], dp[-1]))
        # componentwise b <= b' <= d <= d' against the refined summands
        tilde = r.meta["chain"][2]
        for t, b, d in zip(tilde, bp, dp):
            assert all(x <= y for x, y in zip(t.b, b))
            assert all(x <= y for x, y in zip(b, t.d))
            assert all(x <= y for x, y in zip(t.d, d))
        # the middle layer has diagonal endomorphism matrices
        vpp = r.meta["chain"][1]
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert not hom_leq(vpp[i], vpp[j])
        W = restrict(r.M, r.line, source_box=V.box)
        rep = iso_certificate(W, rect_to_module(V))
        assert rep.isomorphic is True
        assert local_dim(r.M) == 1

    def test_matches_min3_in_1d(self, rng):
        V = rand_rect_decomp(rng, Q, 1, 3, hi=3)
        a = min3(V)
        b = min3_rect(V)
        assert modules_equal(a.M, b.M)


class TestGen4:
    @given(st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None)
    def test_restriction_exact(self, seed):
        rng = random.Random(seed)
        f = [Q, F2][seed % 2]
        n = 1 + seed % 2
        V = rand_module(rng, f, GridBox((0,) * n, (2,) * n),
                        max_dim=2 if n == 1 else 1)
        r = gen4(V)
        assert r.layer_count == 4
        W = restrict(r.M, r.line, source_box=V.box)
        assert modules_equal(W, V)
        assert end_dim(r.M) == 1

    def test_all_outputs_validate(self, rng):
        V = rand_module(rng, Q, GridBox((0,), (2,)), max_dim=2)
        r = gen4(V)
        assert r.M.validate()


def built_modules(rng, field):
    """The output of every library routine that builds a PersModule, on
    small random inputs over the given field."""
    V = rand_module(rng, field, GridBox((0,), (3,)), max_dim=2)
    W = rand_module(rng, field, GridBox((0, 0), (1, 1)), max_dim=2)
    yield from (V, W, V.translate((2,)), dualize(W), direct_sum(V, V), pad(V, GridBox((-1,), (5,))))
    layers, links = slice_layers(W)
    yield from layers
    yield stack(layers, links)
    R = rand_rect_decomp(rng, field, 1, 4)
    yield rect_to_module(R)
    for r in (build_S(R), min3(R), min3_rect(rand_rect_decomp(rng, field, 2, 3, hi=2)),
              build_S_prime(V), build_S_dprime(V), gen4(V), gen4(W)):
        yield r.M
        yield restrict(r.M, r.line, source_box=r.meta["source_box"])
    A, B = candy_wrap(V), candy_wrap(V.translate((1,)))
    yield from (A.module, B.module, concat(A, B).module, string_candies([V, V]).candy.module)
    verdict = try_split(direct_sum(V, V), seed=1)
    assert verdict.summands is not None
    yield from verdict.summands
    yield from decompose_two_rows(rand_two_rows_with_gap(rng, field)).summands
    yield from itertools.islice(enumerate_modules(F2, GridBox((0, 0), (1, 1))), 40)


class TestBuiltModulesKeepTheRules:
    """PersModule stores what it is given, so every builder must hand it
    positive dimensions at box vertices and rightly shaped steps between
    them; module_faults checks each output against those rules."""

    @pytest.mark.parametrize("field", [Q, F3])
    def test_every_builder(self, rng, field):
        count = 0
        for M in built_modules(rng, field):
            assert module_faults(M) == []
            count += 1
        assert count > 40

    def test_faults_are_seen(self):
        box = GridBox((0,), (2,))
        one = Matrix.identity(Q, 1)
        bad = PersModule(Q, box, {(0,): 1, (1,): 0, (3,): 1}, {((0,), 0): one, ((1,), 0): Matrix.zero(Q, 1, 2)})
        assert len(module_faults(bad)) == 4


def built_morphisms(rng, field):
    """Every kind of morphism the library builds, on small random inputs:
    the construction links as slice_layers reads them off each built stack,
    slice_layers links, projective covers (of a dual module too), hom basis
    elements and both split isos."""
    V = rand_module(rng, field, GridBox((0,), (3,)), max_dim=2)
    W = rand_module(rng, field, GridBox((0, 0), (1, 1)), max_dim=2)
    R = rand_rect_decomp(rng, field, 1, 4)
    links = [f for r in (build_S(R), min3(R), min3_rect(rand_rect_decomp(rng, field, 2, 3, hi=2)),
                         build_S_prime(V), build_S_dprime(V), gen4(V), gen4(W))
             for f in slice_layers(r.M)[1]]
    assert len(links) >= 20
    yield from links
    yield from slice_layers(W)[1]
    yield from slice_layers(candy_wrap(V).module)[1]
    yield from (ModMorphism(rect_to_module(c.decomp), M, c.comps)
                for M in (V, W, dualize(W)) for c in [projective_cover(M)])
    yield from hom_basis(V, V) + hom_basis(W, W) + hom_basis(V, rand_module(rng, field, V.box, max_dim=2))
    yield ModMorphism.identity(W)
    yield try_split(direct_sum(V, V), seed=1).iso
    yield decompose_two_rows(rand_two_rows_with_gap(rng, field)).iso


class TestBuiltMorphismsKeepTheRules:
    """ModMorphism stores what it is given, so every builder must hand it
    components only where both modules live, each of its vertex's shape;
    morphism_faults checks each morphism the library builds."""

    @pytest.mark.parametrize("field", [Q, F3])
    def test_every_builder(self, rng, field):
        count = 0
        for f in built_morphisms(rng, field):
            assert morphism_faults(f) == []
            count += 1
        assert count > 40

    def test_faults_are_seen(self):
        box = GridBox((0,), (2,))
        A = PersModule(Q, box, {(0,): 1, (1,): 2}, {((0,), 0): Matrix.from_ints(Q, [[1], [0]])})
        B = PersModule(Q, box, {(1,): 1}, {})
        bad = ModMorphism(A, B, {(0,): Matrix.zero(Q, 0, 1), (1,): Matrix.zero(Q, 2, 1), (2,): Matrix.zero(Q, 1, 1)})
        assert len(morphism_faults(bad)) == 3
        assert len(morphism_faults(ModMorphism(A, PersModule(F3, box, {}, {}), {}))) == 1


class TestSharedStepsStayUnchanged:
    """Builders give equal steps one matrix object (rect_to_module, realize,
    dualize, concat), so no routine that reads a built module may write into
    one of its steps."""

    @pytest.mark.parametrize("field", [Q, F3])
    def test_readers_leave_every_step_as_built(self, rng, field):
        V = rand_module(rng, field, GridBox((0,), (3,)), max_dim=2)
        W = rand_module(rng, field, GridBox((0, 0), (1, 1)), max_dim=2)
        R = rand_rect_decomp(rng, field, 1, 4)
        built = [(r.M, r.line, r.meta["source_box"])
                 for r in (min3(R), min3_rect(rand_rect_decomp(rng, field, 2, 3, hi=2)), gen4(V), gen4(W),
                           build_S_prime(V), build_S_dprime(W))]
        A, B = candy_wrap(V), candy_wrap(V.translate((1,)))
        S = string_candies([V, V])
        built += [(A.module, A.line, V.box), (concat(A, B).module, None, None),
                  (S.candy.module, S.embeddings[1], V.box)]
        snapshot = [{vk: [list(r) for r in m.rows] for vk, m in M.steps.items()} for M, _, _ in built]
        for M, line, box in built:
            if line is not None:
                restrict(M, line, source_box=box)
            ctx = Context()
            end_dim(M, ctx)
            try_split(M, seed=1, trials=4)
            iso_certificate(M, M, trials=4)
            hom_basis(M, M, ctx)
            pmod_to_json(M)
        assert [{vk: m.rows for vk, m in M.steps.items()} for M, _, _ in built] == snapshot

    @pytest.mark.parametrize("field", [Q, Field.prime(1009)])
    def test_equal_layer_steps_of_a_candy_are_one_object(self, rng, field):
        """In every rectangle layer of a candy, the primal ones below the
        input and the dual ones above it, equal steps are one object."""
        C = candy_wrap(rand_module(rng, field, GridBox((0, 0), (2, 2)), max_dim=2)).module
        n = C.n
        layer_steps = 0
        for h in range(C.box.lo[-1], C.box.hi[-1] + 1):
            if h == 0:
                continue
            objects = {}
            for (v, k), m in C.steps.items():
                if v[-1] == h and k < n - 1:
                    objects.setdefault(tuple(map(tuple, m.rows)), set()).add(id(m))
                    layer_steps += 1
            assert all(len(ids) == 1 for ids in objects.values())
        assert len({id(m) for m in C.steps.values()}) * 10 < layer_steps


class TestCornerGrid:
    """The CLI's constructions fill their rectangle layers on the corner
    grid, never on the stacked layout: the layer box of every stacker call
    is smaller than the stacked layer box, which meta reads."""

    @staticmethod
    def _boxes(monkeypatch, argv) -> list:
        """The vertex count of the layer box, grid.coarse, of each stacker
        call while cli.main runs argv."""
        counts = []
        real = constructions._Stack.chain

        def spy(st, grid, *args, **kwargs):
            counts.append(grid.coarse.count)
            return real(st, grid, *args, **kwargs)

        monkeypatch.setattr(constructions._Stack, "chain", spy)
        assert main(argv) == 0
        return counts

    @staticmethod
    def _module(tmp_path, box, max_dim):
        rng = random.Random(7)
        V = next(V for V in iter(lambda: rand_module(rng, Field.prime(1009), box, max_dim=max_dim), None)
                 if not V.is_zero())
        p = str(tmp_path / "v.json")
        dump(pmod_to_json(V), p)
        return V, p

    def test_candy_2x1_layers_are_at_most_a_quarter(self, tmp_path, monkeypatch):
        V, p = self._module(tmp_path, GridBox((0, 0), (1, 0)), 1)
        # an S' layer box is the hull of the input's box and each [b'_i, d'_i]
        metas = [(W.box, build_S_prime(W).meta) for W in (V, dualize(V))]
        stacked = min(GridBox.hull([box] + [GridBox(b, d) for b, d in zip(m["bprime"], m["dprime"])]).count
                      for box, m in metas)
        counts = self._boxes(monkeypatch, ["construct", "--method", "candy", "--in", p, "--out", p + ".out"])
        # one chain of four rectangle layers for each half; a projective cover builds no module
        assert len(counts) == 2 and all(4 * c <= stacked for c in counts), (counts, stacked)

    def test_gen4_3x3_layers_are_smaller(self, tmp_path, monkeypatch):
        V, p = self._module(tmp_path, GridBox((0, 0), (2, 2)), 2)
        grid = gen4(V).meta["grid"]
        stacked = GridBox(grid.lo[:-1], grid.hi[:-1]).count  # one layer of the stacked layout
        counts = self._boxes(monkeypatch, ["construct", "--method", "gen4", "--in", p, "--out", p + ".out"])
        assert len(counts) == 1 and all(c < stacked for c in counts), (counts, stacked)

    def test_candy_halves_keep_the_input_coordinates(self, rng, monkeypatch):
        """S and S' keep every coordinate of V's box, so their line is the
        layer embedding; the candy takes the line of S'', and wrapping moves
        no line onto a grid."""
        V = rand_module(rng, F3, GridBox((1, 2), (2, 3)), max_dim=2, total_cap=4)
        R = rand_rect_decomp(rng, F3, 2, 3, lo=1)
        assert build_S(R).line == AxisEmbedding.layer(2, 2, 0)
        assert build_S_prime(V).line == AxisEmbedding.layer(2, 2, 0)
        calls = []
        real = Compression.down

        def spy(grid, L, box):
            calls.append(box)
            return real(grid, L, box)

        monkeypatch.setattr(Compression, "down", spy)
        assert candy_wrap(V).line == build_S_dprime(V).line
        assert calls == []

    def test_a_plan_builds_the_same_half_each_time(self, rng):
        """A half built from a plan made beforehand equals one built from
        scratch, and building leaves the plan as it was, so it can be used
        again."""
        V = rand_module(rng, F3, GridBox((1, 2), (2, 3)), max_dim=2, total_cap=4)
        for build, make in ((build_S_prime, constructions._s_prime_plan),
                            (build_S_dprime, constructions._s_dprime_plan)):
            fresh, plan = build(V), make(V, 9)
            for _ in range(2):
                built = build(V, _plan=plan)
                assert (built.M, built.line, built.meta) == (fresh.M, fresh.line, fresh.meta)
