import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (Field, GridBox, PersModule, Rectangle,
                         RectDecomp, barcode_1d, check_candy, decompose_two_rows,
                         direct_sum, end_algebra, end_dim, iso_certificate,
                         min3, rect_to_module, stack, try_split)
from persistgrid import verify
from persistgrid.cli import main
from persistgrid.grid import ModMorphism, live_arrows, vsucc
from persistgrid.homspace import Context
from persistgrid.io import dump, pmod_to_json
from persistgrid.linalg import Matrix, Poly
from persistgrid.sampling import (rand_module, rand_rect_decomp, rand_two_rows,
                                  rand_two_rows_with_gap)

from oracles import decomposable_by_idempotents, gap_by_scan, local_dim, nilpotent_count
from test_homspace import dense_hom_dim

Q = Field.rationals()
F2 = Field.prime(2)


def interval(field, lo, hi, b, d):
    return rect_to_module(RectDecomp(field, GridBox((lo,), (hi,)), [Rectangle((b,), (d,))]))


class TestEndAlgebra:
    def test_rectangle_end_dim_one(self):
        assert end_dim(interval(Q, 0, 3, 0, 1)) == 1

    def test_structure_constants_close(self, rng):
        M = rand_module(rng, Q, GridBox((0,), (3,)), max_dim=2)
        alg = end_algebra(M)
        d = alg.dim
        for i in range(d):
            for j in range(d):
                assert len(alg.mult_table[i][j]) == d

    def test_local_dim_examples(self):
        assert local_dim(interval(Q, 0, 1, 0, 1)) == 1
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)),
                                      [Rectangle((0,), (0,)), Rectangle((1,), (1,))]))
        assert local_dim(M) == 2  # End = K x K

    def test_local_dim_rejects_prime_fields(self):
        with pytest.raises(ValueError):
            local_dim(interval(F2, 0, 1, 0, 1))


class TestTrySplit:
    def test_disjoint_points_decomposable(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)),
                                      [Rectangle((0,), (0,)), Rectangle((1,), (1,))]))
        v = try_split(M)
        assert v.status == "DecomposableCertified"
        M1, M2 = v.summands
        dims = sorted((tuple(M1.dim((i,)) for i in range(2)),
                       tuple(M2.dim((i,)) for i in range(2))))
        assert dims == [(0, 1), (1, 0)]
        assert v.iso.validate() and v.iso.is_invertible()

    def test_rectangle_indecomposable(self):
        v = try_split(interval(Q, 0, 3, 1, 2))
        assert v.status == "IndecomposableCertified"

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_constructed_direct_sums_split(self, seed):
        rng = random.Random(seed)
        f = [Q, F2][seed % 2]
        box = GridBox((0,), (3,)) if seed % 3 else GridBox((0, 0), (2, 1))
        X = rand_module(rng, f, box, max_dim=1)
        Y = rand_module(rng, f, box, max_dim=1)
        M = direct_sum(X, Y)
        v = try_split(M, seed=seed)
        assert v.status == "DecomposableCertified"
        M1, M2 = v.summands
        for w in box.vertices():
            assert M1.dim(w) + M2.dim(w) == M.dim(w)
        assert v.iso.validate() and v.iso.is_invertible()
        assert v.iso.source == direct_sum(M1, M2)

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_split_summands_recompose(self, seed):
        rng = random.Random(seed)
        M = rand_two_rows(rng, F2, 4, max_dim=2)
        if sum(M.dims.values()) == 0:
            return
        v = try_split(M, seed=seed)
        if v.status == "DecomposableCertified":
            M1, M2 = v.summands
            S = direct_sum(M1, M2)
            assert S.validate()
            assert v.iso.source.dims == S.dims
            assert v.iso.source == S
            assert v.iso.validate() and v.iso.is_invertible()

    def test_split_when_p_divides_a_multiplicity(self):
        # M = I[0,1] + I[0,0] + I[0,0] over F_2, and a is the quotient of
        # I[0,1] onto the first I[0,0] plus the identity on the second; its
        # minimal polynomial x^2 (x + 1) splits though 2 divides the
        # multiplicity of x, and ker(a + 1) is the second I[0,0]
        point = interval(F2, 0, 1, 0, 0)
        M = direct_sum(direct_sum(interval(F2, 0, 1, 0, 1), point), point)
        a = ModMorphism(M, M, {(0,): Matrix.from_ints(F2, [[0, 0, 0], [1, 0, 0], [0, 0, 1]]),
                               (1,): Matrix.zero(F2, 1, 1)})
        assert a.validate()
        split, q, f = verify._try_element(M, a, random.Random(0))
        assert f == Poly.from_ints(F2, [0, 0, 1, 1])
        assert split is not None and q is None
        (M1, M2), iso = split
        assert (M1.dims, M2.dims) == ({(0,): 1}, {(0,): 2, (1,): 1})
        assert iso.validate() and iso.is_invertible()

    def test_end_dim_one_always_certified(self):
        for b, d in [(0, 0), (0, 2), (1, 3)]:
            v = try_split(interval(F2, 0, 3, b, d))
            assert v.status == "IndecomposableCertified"


class TestLocalCertificate:
    """Verdicts of the nilpotent-ideal certificate against the oracles:
    idempotents and nilpotent counts over F_2 and F_3, the trace form over
    Q."""

    # 1D inputs whose min3 output has end_dim 2 or 3
    MIN3_SEEDS = (24, 44, 61, 130, 147)

    @staticmethod
    def four_subspace(field, C):
        """Four 2D subspaces of K^4 at the antichain i + j = 3 of a 4 x 4
        grid: K^2 + 0, 0 + K^2, the diagonal and the graph of C, and their
        sums, all of K^4, above.  End is the centralizer K[C] of C, a field
        when C's characteristic polynomial is irreducible."""
        f = field
        C = Matrix.from_ints(f, C)
        one = Matrix.identity(f, 2)
        zero = Matrix.zero(f, 2, 2)
        bases = [Matrix(f, one.rows + zero.rows), Matrix(f, zero.rows + one.rows),
                 Matrix(f, one.rows + one.rows), Matrix(f, one.rows + C.rows)]
        box = GridBox((0, 0), (3, 3))
        dims = {v: 2 if sum(v) == 3 else 4 for v in box.vertices() if sum(v) >= 3}
        steps = {}
        for v in dims:
            for k in range(2):
                if vsucc(v, k) in dims:
                    steps[(v, k)] = bases[v[0]] if sum(v) == 3 else Matrix.identity(f, 4)
        M = PersModule(f, box, dims, steps)
        assert M.validate()
        return M

    def test_four_subspace_validity(self):
        for f, C, ed in ((F2, [[0, 1], [1, 1]], 2), (Q, [[2, 1], [0, 2]], 2), (Q, [[2, 0], [0, 3]], 2)):
            assert end_dim(self.four_subspace(f, C)) == ed

    def _check_finite(self, M):
        """The verdict matches the idempotent oracle, and a certificate's
        radical is the set of nilpotent endomorphisms."""
        p = M.field.p
        v = try_split(M, seed=3)
        oracle = decomposable_by_idempotents(M)
        assert v.status == ("DecomposableCertified" if oracle else "IndecomposableCertified")
        if not oracle:
            cert = v.certificate
            assert p ** cert["radical_dim"] == nilpotent_count(M)
            assert cert["residue_degree"] == v.end_dim - cert["radical_dim"]
        return v

    @pytest.mark.parametrize("p", [2, 3])
    def test_min3_outputs_over_small_fields(self, p):
        f = Field.prime(p)
        mods = [min3(rand_rect_decomp(random.Random(s), f, 1, 5, hi=4)).M for s in self.MIN3_SEEDS]
        assert all(end_dim(M) > 1 for M in mods)
        for M in mods:
            assert self._check_finite(M).status == "IndecomposableCertified"

    def test_four_subspace_over_small_fields(self):
        F3 = Field.prime(3)
        F4 = self.four_subspace(F2, [[0, 1], [1, 1]])  # x^2 + x + 1: End = F_4
        F9 = self.four_subspace(F3, [[0, 2], [1, 0]])  # x^2 + 1: End = F_9
        jordan = self.four_subspace(F3, [[2, 1], [0, 2]])  # (x - 2)^2: local, radical of dim 1
        for M, radical, degree in ((F4, 0, 2), (F9, 0, 2), (jordan, 1, 1)):
            cert = self._check_finite(M).certificate
            assert (cert["radical_dim"], cert["residue_degree"]) == (radical, degree)
        point = rect_to_module(RectDecomp(F3, F9.box, [Rectangle((3, 3), (3, 3))]))
        for M in (direct_sum(F4, F4), direct_sum(F9, point), direct_sum(jordan, point)):
            assert self._check_finite(M).status == "DecomposableCertified"

    def test_rationals_agree_with_the_trace_form(self):
        mods = [min3(rand_rect_decomp(random.Random(s), Q, 1, 5, hi=4)).M for s in self.MIN3_SEEDS]
        jordan = self.four_subspace(Q, [[2, 1], [0, 2]])
        mods += [jordan, direct_sum(jordan, jordan),
                 self.four_subspace(Q, [[0, 11], [1, 0]]),  # End = Q(sqrt 11), not certified over Q
                 self.four_subspace(Q, [[2, 0], [0, 3]])]  # End = Q x Q
        statuses = set()
        for M in mods:
            v = try_split(M, seed=5)
            statuses.add(v.status)
            assert (v.status == "IndecomposableCertified") == (local_dim(M) == 1)
            if v.status == "IndecomposableCertified":
                assert v.certificate["radical_dim"] == v.end_dim - 1
        assert statuses == {"IndecomposableCertified", "DecomposableCertified", "Inconclusive"}

    @classmethod
    def local_cases(cls) -> dict:
        """Modules with a local End(M): the MIN3_SEEDS outputs over F_1009,
        F_2, F_3 and Q, and the four-subspace fields and Jordan blocks."""
        cases = {f"min3 {f} {s}": min3(rand_rect_decomp(random.Random(s), f, 1, 5, hi=4)).M
                 for f in (Field.prime(1009), F2, Field.prime(3), Q) for s in cls.MIN3_SEEDS}
        for f, C in ((F2, [[0, 1], [1, 1]]), (Field.prime(3), [[0, 2], [1, 0]]), (Field.prime(3), [[2, 1], [0, 2]]),
                     (Q, [[2, 1], [0, 2]]), (Field.prime(1009), [[0, 11], [1, 0]])):
            cases[f"four-subspace {f} {C}"] = cls.four_subspace(f, C)
        return cases

    def test_local_verdicts_are_pinned(self, capsys, tmp_path):
        """The full `verify indec` output on each local case, seeded by the
        case's index, byte for byte."""
        out = {}
        for seed, (name, M) in enumerate(self.local_cases().items()):
            path = str(tmp_path / "m.json")
            dump(pmod_to_json(M), path)
            capsys.readouterr()
            code = main(["verify", "indec", "--seed", str(seed), "--in", path])
            out[name] = (code, capsys.readouterr().out)
        assert out == LOCAL_PINNED

    def test_local_verdicts_stop_at_the_first_certificate(self, monkeypatch):
        """Over F_1009 a min3 output's local End(M) is certified after one
        draw per radical dimension: its radical squares to zero, so the ideal
        of one informative draw is a line; over Q after at most two draws.
        end_algebra is built once per try_split, also when every draw is a
        field element."""
        counts = {}
        spied = {name: getattr(verify, name) for name in ("_try_element", "end_algebra")}
        for name, original in spied.items():
            def spy(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(verify, name, spy)
        for seed, (name, M) in enumerate(self.local_cases().items()):
            counts.update(dict.fromkeys(spied, 0))
            v = try_split(M, seed=seed)
            assert v.status == "IndecomposableCertified" and counts["end_algebra"] == 1, name
            if name.startswith("min3 F1009"):
                assert counts["_try_element"] == v.certificate["radical_dim"] <= 2, name
            if name.startswith("min3 Q"):
                assert counts["_try_element"] <= 2, name

    def test_ideal_that_is_not_nilpotent_is_refused(self):
        """M = V + V + W over F_7, V = I[0,1] and W = I[2,2], has End(M) =
        M_2(K) x K.  With a = [[3,1],[0,3]] on V + V and 3 on W and q = x - 3,
        J = M_2(K) x 0 has dim End - deg q = 4, so only J^2 = J is left
        to refuse it: M is decomposable, and no certificate may say local."""
        F7 = Field.prime(7)
        V, W = interval(F7, 0, 2, 0, 1), interval(F7, 0, 2, 2, 2)
        M = direct_sum(direct_sum(V, V), W)
        jordan = Matrix.from_ints(F7, [[3, 1], [0, 3]])
        a = {(0,): jordan, (1,): jordan, (2,): Matrix.from_ints(F7, [[3]])}
        assert ModMorphism(M, M, a).validate()
        ctx = Context()
        alg = end_algebra(M, ctx)
        assert alg.dim == 5
        assert verify._local_certificate(alg, [(ctx.express(M, M, a), Poly.from_ints(F7, [-3, 1]))]) is None

    def test_quadratic_residue_field_over_f1009(self):
        # 11 is not a square mod 1009, so End = F_1009(sqrt 11)
        M = self.four_subspace(Field.prime(1009), [[0, 11], [1, 0]])
        v = try_split(M, seed=7)
        assert v.status == "IndecomposableCertified"
        assert v.certificate == {"radical_dim": 0, "nilpotency_index": 1, "residue_degree": 2}
        assert v.to_json()["certificate"] == v.certificate


class TestIso:
    def test_self_iso(self, rng):
        M = rand_module(rng, Q, GridBox((0,), (3,)), max_dim=2)
        rep = iso_certificate(M, M)
        assert rep.isomorphic is True
        assert rep.witness.is_invertible()

    def test_swap_iso(self, rng):
        box = GridBox((0, 0), (1, 1))
        X = rand_module(rng, F2, box, max_dim=1)
        Y = rand_module(rng, F2, box, max_dim=1)
        rep = iso_certificate(direct_sum(X, Y), direct_sum(Y, X))
        assert rep.isomorphic is True

    def test_dims_obstruction(self):
        rep = iso_certificate(interval(Q, 0, 2, 0, 1), interval(Q, 0, 2, 0, 2))
        assert rep.isomorphic is False

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_1d_complete_decision(self, seed):
        rng = random.Random(seed)
        box = GridBox((0,), (3,))
        M = rand_module(rng, F2, box, max_dim=2)
        N = rand_module(rng, F2, box, max_dim=2)
        rep = iso_certificate(M, N)
        assert rep.isomorphic is (barcode_1d(M) == barcode_1d(N))


def _same_dims(rng, M):
    """A random commutative module with M's dimensions and {0, 1} steps."""
    while True:
        f = M.field
        steps = {(v, k): Matrix(f, [[f.of(rng.randint(0, 1)) for _ in range(M.dims[v])] for _ in range(M.dims[w])])
                 for v, k, w in live_arrows(M.dims, M.n)}
        N = PersModule(f, M.box, M.dims, steps)
        if N.validate():
            return N


class TestIsoByHomDims:
    """Past the random search, unequal Hom dimensions prove non-isomorphism."""

    @given(st.integers(0, 2**31), st.sampled_from([F2, Field.prime(3), Q]))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_against_dense_hom_dims(self, seed, f):
        rng = random.Random(seed)
        M = rand_module(rng, f, GridBox((0, 0), (2, 1)), max_dim=2)
        N = _same_dims(rng, M)
        rep = iso_certificate(M, N)
        dims = [dense_hom_dim(M, M), dense_hom_dim(M, N), dense_hom_dim(N, M), dense_hom_dim(N, N)]
        if rep.isomorphic is True:
            # found by the random search, which runs first and is unchanged
            assert rep.reason.startswith("random hom-span element invertible") and rep.certificate is None
            assert rep.witness.validate() and rep.witness.is_invertible()
        elif rep.isomorphic is False:
            assert rep.certificate == {"hom_dims": dims} and len(set(dims)) > 1
        else:
            assert len(set(dims)) == 1

    def test_cli_exits_1_with_the_certificate(self, tmp_path, capsys):
        rng = random.Random(1)  # hom dimensions [3, 4, 3, 5]
        M = rand_module(rng, F2, GridBox((0, 0), (2, 1)), max_dim=2)
        N = _same_dims(rng, M)
        paths = [str(tmp_path / f"{name}.json") for name in "mn"]
        for p, X in zip(paths, (M, N)):
            dump(pmod_to_json(X), p)
        capsys.readouterr()
        assert main(["verify", "iso", "--in", paths[0], "--with", paths[1]]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["isomorphic"] is False and out["reason"] == "hom dimensions differ"
        assert out["certificate"] == {"hom_dims": [3, 4, 3, 5]}


class TestTwoRows:
    def _two_rows(self, lower_rects, upper_rects, link_entries=None):
        box = GridBox((0,), (3,))
        L = rect_to_module(RectDecomp(F2, box, lower_rects)) if lower_rects else \
            PersModule(F2, box, {}, {})
        U = rect_to_module(RectDecomp(F2, box, upper_rects)) if upper_rects else \
            PersModule(F2, box, {}, {})
        g = ModMorphism.zero(L, U)
        return stack([L, U], [g])

    def test_spec_example_lower_gap(self):
        M = self._two_rows([Rectangle((0,), (0,)), Rectangle((2,), (2,))], [])
        split = decompose_two_rows(M)
        nz = [s for s in split.summands if sum(s.dims.values())]
        assert len(nz) == 2
        assert split.iso.validate() and split.iso.is_invertible()

    def test_precondition_errors(self):
        M = self._two_rows([Rectangle((0,), (3,))], [])
        with pytest.raises(ValueError):
            decompose_two_rows(M)  # no gap
        with pytest.raises(ValueError):
            decompose_two_rows(interval(F2, 0, 2, 0, 1))  # wrong box shape

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_gapped_modules_decompose_and_recompose(self, seed):
        rng = random.Random(seed)
        M = rand_two_rows_with_gap(rng, F2, max_width=5)
        split = decompose_two_rows(M)
        nz = [s for s in split.summands if sum(s.dims.values())]
        assert len(nz) >= 2
        total = split.iso.source
        for v in M.box.vertices():
            assert total.dim(v) == M.dim(v)
        assert split.iso.validate() and split.iso.is_invertible()
        S1, S2, S3 = split.summands
        assert total == direct_sum(direct_sum(S1, S2), S3)
        # cross-oracle: try_split must not certify indecomposability
        v = try_split(M, seed=seed)
        assert v.status != "IndecomposableCertified"

    @given(st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_find_gap_is_the_scan(self, seed):
        """find_gap's two sweeps give the vertex gap_by_scan finds by testing
        every pair of vertices, on sparse random supports with zero steps
        on boxes of one to three axes."""
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        lo = tuple(rng.randint(-1, 1) for _ in range(n))
        box = GridBox(lo, tuple(a + rng.randint(0, 4) for a in lo))
        dims = {v: 1 for v in box.vertices() if rng.random() < rng.choice([0.1, 0.3, 0.7])}
        M = PersModule(F2, box, dims, {})
        assert verify.find_gap(M) == gap_by_scan(M)

    def test_find_gap_is_linear_in_the_box(self):
        """A 50 000 x 2 module, live with identity steps on its upper row
        and zero on its lower one, has no gap; find_gap says so within a
        second, where testing every zero vertex against every live one
        takes minutes."""
        m = 50_000
        one = Matrix.identity(F2, 1)
        M = PersModule(F2, GridBox((0, 0), (m - 1, 1)), {(x, 1): 1 for x in range(m)},
                       {((x, 1), 0): one for x in range(m - 1)})
        start = time.perf_counter()
        assert verify.find_gap(M) is None
        assert time.perf_counter() - start < 1.0

    def test_wrong_grouping_is_refused(self, monkeypatch):
        """Lower and upper rows I[0, 0] + I[2, 3], joined by the identity:
        with the gap at (1, 0) both I[0, 0] fall in group 1.  Moving the
        lower one to group 3 leaves an invertible basis in which the link at
        (0, 0) crosses groups, so the split routine refuses it."""
        box = GridBox((0,), (3,))
        L, U = (rect_to_module(RectDecomp(F2, box, [Rectangle((0,), (0,)), Rectangle((2,), (3,))])) for _ in "LU")
        M = stack([L, U], [ModMorphism(L, U, {v: Matrix.identity(F2, d) for v, d in L.dims.items()})])
        split_along = verify._split_along
        seen = []
        monkeypatch.setattr(verify, "_split_along", lambda M, P, cuts: seen.append((P, cuts)) or split_along(M, P, cuts))
        decompose_two_rows(M)
        P, cuts = seen[0]
        assert cuts[(0, 0)] == (1, 0, 0) and cuts[(0, 1)] == (1, 0, 0)
        assert split_along(M, P, cuts) is not None
        moved = {**cuts, (0, 0): (0, 0, 1)}
        assert split_along(M, P, moved) is None
        assert split_along(M, {**P, (0, 0): Matrix.zero(F2, 1, 1)}, cuts) is None
        monkeypatch.setattr(verify, "_split_along", lambda M, P, cuts: split_along(M, P, {**cuts, (0, 0): (0, 0, 1)}))
        with pytest.raises(AssertionError):
            decompose_two_rows(M)

    def test_indecomposable_two_rows_have_convex_support(self):
        # enumerate tiny two-row modules over F2 with dims <= 1
        from persistgrid.sampling import enumerate_modules
        box = GridBox((0, 0), (2, 1))
        for M in enumerate_modules(F2, box, max_dim=1):
            if sum(M.dims.values()) == 0:
                continue
            v = try_split(M)
            if v.status != "IndecomposableCertified":
                continue
            for a in M.dims:
                for b in M.dims:
                    for w in box.vertices():
                        if all(a[k] <= w[k] <= b[k] for k in range(2)):
                            assert M.dim(w) > 0, (a, w, b)


class TestCheckCandy:
    def test_point_module(self):
        M = interval(Q, 0, 0, 0, 0)
        M2 = stack([M], [])
        rep = check_candy(M2, (0, 0), (0, 0))
        assert rep.ok

    def test_decomposable_fails(self):
        L = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)),
                                      [Rectangle((0,), (0,)), Rectangle((1,), (1,))]))
        M = stack([L], [])
        rep = check_candy(M, (0, 0), (1, 0))
        assert not rep.ok
        assert any("end_dim" in m for m in rep.messages)

    def test_wrong_corner_fails(self):
        M = stack([interval(Q, 0, 1, 0, 1)], [])
        rep = check_candy(M, (1, 0), (1, 0))
        assert not rep.ok


# recorded from the implementation that tried the local certificate only after
# every trial had failed; an earlier attempt must give the same bytes
LOCAL_PINNED = {'four-subspace F1009 [[0, 11], [1, 0]]': (0, '{\n "certificate": {\n  "nilpotency_index": 1,\n  "radical_dim": 0,\n  "residue_degree": 2\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'four-subspace F2 [[0, 1], [1, 1]]': (0, '{\n "certificate": {\n  "nilpotency_index": 1,\n  "radical_dim": 0,\n  "residue_degree": 2\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'four-subspace F3 [[0, 2], [1, 0]]': (0, '{\n "certificate": {\n  "nilpotency_index": 1,\n  "radical_dim": 0,\n  "residue_degree": 2\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'four-subspace F3 [[2, 1], [0, 2]]': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'four-subspace Q [[2, 1], [0, 2]]': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F1009 130': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F1009 147': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F1009 24': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F1009 44': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F1009 61': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F2 130': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F2 147': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F2 24': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F2 44': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F2 61': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F3 130': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F3 147': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F3 24': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F3 44': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 F3 61': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 Q 130': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 Q 147': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 2,\n  "residue_degree": 1\n },\n "end_dim": 3,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 Q 24': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 Q 44': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n'),
 'min3 Q 61': (0, '{\n "certificate": {\n  "nilpotency_index": 2,\n  "radical_dim": 1,\n  "residue_degree": 1\n },\n "end_dim": 2,\n "reason": "local endomorphism ring: nilpotent radical, field quotient",\n "status": "IndecomposableCertified"\n}\n')}
