import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (Field, GridBox, PersModule, Rectangle, RectDecomp,
                         candy_wrap, min3, rect_to_module)
from persistgrid.fields import MAX_MODULUS, MAX_SCALAR_DIGITS
from persistgrid.grid import vsucc
from persistgrid.io import (FormatError, barcode_to_json, candy_from_json,
                            candy_to_json, dump, line_from_json, line_to_json,
                            load, pmod_from_json, pmod_to_json,
                            rects_from_json, rects_to_json)
from persistgrid.sampling import rand_module, rand_rect_decomp

from oracles import checked_pmod_from_json, module_faults

Q = Field.rationals()
F2 = Field.prime(2)


class TestPmodRoundtrip:
    def test_random_modules(self, rng):
        for f in (Q, F2):
            for box in (GridBox((0,), (3,)), GridBox((0, 0), (2, 1))):
                M = rand_module(rng, f, box, max_dim=2)
                M2 = pmod_from_json(pmod_to_json(M))
                assert M2.dims == M.dims and M2.steps == M.steps
                assert M2.field == M.field

    def test_rational_scalars_exact(self):
        box = GridBox((0,), (1,))
        half = Q.parse("1/2")
        from persistgrid.linalg import Matrix
        M = PersModule(Q, box, {(0,): 1, (1,): 1},
                       {((0,), 0): Matrix(Q, [[half]])})
        obj = pmod_to_json(M)
        assert obj["steps"][0]["matrix"] == [["1/2"]]
        assert pmod_from_json(obj).steps == M.steps

    def test_omitted_arrows_roundtrip(self, rng):
        F = Field.prime(1009)
        M = PersModule(F, GridBox((0,), (1,)), {(0,): 1, (1,): 1}, {})
        assert pmod_from_json(pmod_to_json(M)) == M
        for f in (Q, F):
            # 1D, so any subset of the arrows still commutes
            N = rand_module(rng, f, GridBox((0,), (5,)), max_dim=2)
            sparse = PersModule(f, N.box, N.dims, dict(list(N.steps.items())[::2]))
            assert pmod_from_json(pmod_to_json(sparse)) == sparse

    def test_shared_step_is_formatted_once(self):
        # a read rectangle module has one shared identity step
        M = pmod_from_json(pmod_to_json(rect_to_module(RectDecomp(Q, GridBox((0, 0), (2, 1)),
                                                                  [Rectangle((0, 0), (2, 1))]))))
        assert len({id(m) for m in M.steps.values()}) == 1
        assert len({id(rec["matrix"]) for rec in pmod_to_json(M)["steps"]}) == 1

    def test_file_roundtrip(self, tmp_path, rng):
        M = rand_module(rng, F2, GridBox((0,), (2,)), max_dim=2)
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        assert pmod_from_json(load(p)).dims == M.dims


def _valid_files(rng):
    """PMOD files the reader accepted before it checked each fact once:
    random modules, candies, and records between a zero-dimensional tail
    and any head, which the module drops."""
    for f in (Q, F2, Field.prime(1009)):
        for box in (GridBox((0,), (4,)), GridBox((0, 0), (2, 1)), GridBox((0, 0, 0), (1, 1, 1))):
            obj = pmod_to_json(rand_module(rng, f, box, max_dim=2, nonzero=False))
            dim = dict(zip(box.vertices(), obj["dims"]))
            for v, d in dim.items():
                for k in range(box.n):
                    w = vsucc(v, k)
                    if d == 0 and w in dim and rng.random() < 0.5:
                        obj["steps"].append({"v": list(v), "axis": k, "matrix": [[]] * dim[w]})
            rng.shuffle(obj["steps"])
            yield obj
        yield pmod_to_json(candy_wrap(rand_module(rng, f, GridBox((0,), (2,)), max_dim=2)).module)


class TestReaderOracle:
    def test_agrees_with_checking_reader(self, rng):
        for obj in _valid_files(rng):
            M, want = pmod_from_json(obj), checked_pmod_from_json(obj)
            assert (M.field, M.box, M.dims, M.steps) == (want.field, want.box, want.dims, want.steps)
            assert module_faults(M) == []

    def test_equal_records_share_one_matrix(self, rng):
        for obj in _valid_files(rng):
            M = pmod_from_json(obj)
            distinct = {(m.nrows, m.ncols, tuple(map(tuple, m.rows))) for m in M.steps.values()}
            assert len({id(m) for m in M.steps.values()}) == len(distinct)

    def test_empty_matrix_is_the_zero_map_into_a_zero_dimensional_vertex(self):
        def read(dims, matrix):
            return pmod_from_json({"field": "Q", "n": 1, "lo": [0], "hi": [1], "dims": dims,
                                   "steps": [{"v": [0], "axis": 0, "matrix": matrix}]})

        for dims, matrix in (([2, 0], []), ([0, 2], [[], []]), ([0, 0], [])):
            M = read(dims, matrix)
            assert M.dims == {v: d for v, d in zip([(0,), (1,)], dims) if d} and M.steps == {}
        for dims, matrix in (([0, 2], []), ([2, 0], [[]]), ([2, 1], []), ([1, 1], [])):
            with pytest.raises(FormatError, match="shape"):
                read(dims, matrix)


class TestPmodErrors:
    def base(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0,), (2,)),
                                      [Rectangle((0,), (2,))]))
        return pmod_to_json(M)

    def test_missing_key(self):
        obj = self.base()
        del obj["dims"]
        with pytest.raises(FormatError):
            pmod_from_json(obj)

    def test_missing_step(self):
        obj = self.base()
        obj["steps"] = obj["steps"][:1]
        with pytest.raises(FormatError, match="missing step"):
            pmod_from_json(obj)

    def test_bad_scalar(self):
        obj = self.base()
        obj["steps"][0]["matrix"] = [["1/0"]]
        with pytest.raises(FormatError, match="bad scalar"):
            pmod_from_json(obj)

    def test_wrong_dims_length(self):
        obj = self.base()
        obj["dims"] = obj["dims"][:-1]
        with pytest.raises(FormatError, match="vertices"):
            pmod_from_json(obj)

    def test_wrong_shape(self):
        obj = self.base()
        obj["steps"][0]["matrix"] = [["1", "0"]]
        with pytest.raises(FormatError, match="shape"):
            pmod_from_json(obj)

    def test_noncommutative_rejected(self):
        box = GridBox((0, 0), (1, 1))
        obj = {
            "field": "Q", "n": 2, "lo": [0, 0], "hi": [1, 1],
            "dims": [1, 1, 1, 1],
            "steps": [
                {"v": [0, 0], "axis": 0, "matrix": [["1"]]},
                {"v": [0, 0], "axis": 1, "matrix": [["1"]]},
                {"v": [0, 1], "axis": 0, "matrix": [["1"]]},
                {"v": [1, 0], "axis": 1, "matrix": [["0"]]},
            ],
        }
        with pytest.raises(FormatError, match="commutative"):
            pmod_from_json(obj)

    def test_bad_field_tag(self):
        obj = self.base()
        obj["field"] = "R"
        with pytest.raises(FormatError):
            pmod_from_json(obj)


class TestRects:
    def test_roundtrip_with_mult(self, rng):
        V = rand_rect_decomp(rng, Q, 2, 5)
        V2 = rects_from_json(rects_to_json(V))
        assert Counter((r.b, r.d) for r in V.summands) == \
               Counter((r.b, r.d) for r in V2.summands)
        assert V2.box.lo == V.box.lo and V2.box.hi == V.box.hi

    def test_default_box_is_hull(self):
        obj = {"field": "Q", "n": 1,
               "rects": [{"b": [1], "d": [3]}, {"b": [2], "d": [5], "mult": 2}]}
        V = rects_from_json(obj)
        assert V.box.lo == (1,) and V.box.hi == (5,)
        assert len(V.summands) == 3

    def test_barcode_serialization(self):
        bc = Counter({((0,), (1,)): 2, ((2,), (2,)): 1})
        obj = barcode_to_json(Q, bc)
        assert rects_from_json(obj).barcode() == bc

    def test_errors(self):
        with pytest.raises(FormatError):
            rects_from_json({"field": "Q", "n": 1, "rects": []})
        with pytest.raises(FormatError):
            rects_from_json({"field": "Q", "n": 2,
                             "rects": [{"b": [0], "d": [1]}]})
        with pytest.raises(FormatError):
            rects_from_json({"field": "Q", "n": 1,
                             "rects": [{"b": [0], "d": [1], "mult": 0}]})
        with pytest.raises(FormatError):
            rects_from_json({"field": "Q", "n": 1,
                             "rects": [{"b": [2], "d": [0]}]})


class TestLineAndCandy:
    def test_line_roundtrip(self):
        V = RectDecomp(Q, GridBox((0,), (1,)),
                       [Rectangle((0,), (1,)), Rectangle((1,), (1,))])
        line = min3(V).line
        obj = line_to_json(line)
        L2 = line_from_json(obj)
        assert line_to_json(L2) == obj
        for v in V.box.vertices():
            assert L2.apply(v) == line.apply(v)

    def test_line_errors(self):
        with pytest.raises(FormatError):
            line_from_json({"axis_maps": []})
        with pytest.raises(FormatError):
            line_from_json({"axis_maps": [{"scale": 0, "offset": 0}],
                            "insert_axis": {"pos": 1, "value": 0}})

    def test_candy_roundtrip(self, rng):
        V = rand_module(rng, F2, GridBox((0,), (1,)), max_dim=1)
        C = candy_wrap(V)
        C2 = candy_from_json(candy_to_json(C))
        assert C2.module.dims == C.module.dims
        assert C2.ul == C.ul and C2.lr == C.lr
        assert line_to_json(C2.line) == line_to_json(C.line)

    def test_candy_without_line(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0, 0), (0, 0)),
                                      [Rectangle((0, 0), (0, 0))]))
        obj = candy_to_json(type("X", (), {"module": M, "ul": (0, 0),
                                           "lr": (0, 0), "line": None})())
        assert "line" not in obj
        C = candy_from_json(obj)
        assert C.line is None

    def test_candy_corner_dimension_check(self):
        M = rect_to_module(RectDecomp(Q, GridBox((0, 0), (0, 0)),
                                      [Rectangle((0, 0), (0, 0))]))
        obj = {"module": pmod_to_json(M), "ul": [0], "lr": [0, 0]}
        with pytest.raises(FormatError):
            candy_from_json(obj)


class TestFiles:
    def test_load_errors(self, tmp_path):
        with pytest.raises(FormatError):
            load(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError):
            load(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(FormatError):
            load(str(arr))

    def test_dump_writes_one_line_and_load_takes_any_whitespace(self, tmp_path, rng):
        obj = pmod_to_json(rand_module(rng, Q, GridBox((0, 0), (1, 2)), max_dim=2))
        p = tmp_path / "m.json"
        dump(obj, str(p))
        text = p.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert load(str(p)) == obj
        p.write_text(json.dumps(obj, indent=3))
        assert load(str(p)) == obj


class TestParseBounds:
    LARGEST = 10**MAX_SCALAR_DIGITS - 1

    @given(st.integers(-LARGEST, LARGEST), st.integers(1, LARGEST))
    @settings(max_examples=100, deadline=None)
    def test_written_scalars_roundtrip(self, num, den):
        x = Fraction(num, den)
        assert Q.parse(json.loads(json.dumps(Q.fmt(x)))) == x
        F = Field.prime(1009)
        assert F.parse(json.loads(json.dumps(F.fmt(F.of(num))))) == F.of(num)

    def test_scalar_grammar(self):
        assert Q.parse("-3/4") == Fraction(-3, 4) and Q.parse(7) == 7
        for bad in ("1e1000000", "0.5", " 1", "1 ", "+1", "1/-2", "1_0", "", "٣", "1" * (MAX_SCALAR_DIGITS + 1)):
            with pytest.raises(ValueError):
                Q.parse(bad)

    def test_modulus_bound(self):
        assert Field.from_json(f"Fp:{MAX_MODULUS - 1}").p == 2**31 - 1  # a Mersenne prime
        for tag in (f"Fp:{MAX_MODULUS + 11}", "Fp:100000000000000000000117"):  # both prime
            with pytest.raises(ValueError, match="below"):
                Field.from_json(tag)
