import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import (Field, GridBox, PersModule, Rectangle, RectDecomp,
                         candy_wrap, min3, rect_to_module)
from persistgrid.fields import MAX_MODULUS, MAX_SCALAR_DIGITS
from persistgrid.grid import MAX_DIM, live_arrows, vsucc
from persistgrid.linalg import Matrix
from persistgrid.io import (FormatError, barcode_to_json, candy_from_json,
                            candy_to_json, dump, line_from_json, line_to_json,
                            load, pmod_from_json, pmod_to_json,
                            rects_from_json, rects_to_json)
from persistgrid.sampling import rand_module, rand_rect_decomp

from oracles import checked_pmod2_from_json, checked_pmod_from_json, module_faults, pmod_to_json_v1

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
        M = PersModule(Q, box, {(0,): 1, (1,): 1},
                       {((0,), 0): Matrix(Q, [[half]])})
        obj = pmod_to_json(M)
        assert obj["matrices"][obj["steps"][0]] == [["1/2"]]
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
        obj = pmod_to_json(M)
        assert obj["matrices"] == [[["1"]]] and obj["steps"] == [0] * 7

    def test_written_form(self):
        """dims lists the live vertices in increasing order; equal steps share
        one table entry, listed in order of first use along the arrows."""
        two, one = Matrix.identity(Q, 2), Matrix(Q, [[1, 1]])
        M = PersModule(Q, GridBox((0, 0), (1, 2)), {(1, 1): 1, (0, 1): 2, (0, 0): 2, (0, 2): 1},
                       {((0, 1), 1): one, ((0, 0), 1): Matrix(Q, two.rows)})
        assert pmod_to_json(M) == {"version": 2, "field": "Q", "n": 2, "lo": [0, 0], "hi": [1, 2],
                                   "dims": [[0, 0, 2], [0, 1, 2], [0, 2, 1], [1, 1, 1]],
                                   "matrices": [[["1", "0"], ["0", "1"]], [["0", "0"]], [["1", "1"]]],
                                   "steps": [0, 1, 2]}

    def test_file_roundtrip(self, tmp_path, rng):
        M = rand_module(rng, F2, GridBox((0,), (2,)), max_dim=2)
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        assert pmod_from_json(load(p)).dims == M.dims


BOXES = (GridBox((0,), (4,)), GridBox((0, 0), (2, 1)), GridBox((0, 0, 0), (1, 1, 1)),
         GridBox((0, 0, 0, 0), (1, 1, 0, 1)))


def _modules(rng):
    """Random 1D to 4D modules, zero dimensions allowed, and the candies of
    random 1D and 2D modules, over F_2, F_1009 and Q."""
    for f in (Q, F2, Field.prime(1009)):
        for box in BOXES:
            yield rand_module(rng, f, box, max_dim=2, nonzero=False)
        for box in (GridBox((0,), (2,)), GridBox((0, 0), (1, 0))):
            yield candy_wrap(rand_module(rng, f, box, max_dim=2)).module


def _v1_files(rng):
    """Older-form PMOD files the reader accepted before it checked each fact
    once: the modules of _modules, and records between a zero-dimensional
    tail and any head, which the module drops, in shuffled order."""
    for M in _modules(rng):
        obj = pmod_to_json_v1(M)
        dim = dict(zip(M.box.vertices(), obj["dims"]))
        for v, d in dim.items():
            for k in range(M.n):
                w = vsucc(v, k)
                if d == 0 and w in dim and rng.random() < 0.5:
                    obj["steps"].append({"v": list(v), "axis": k, "matrix": [[]] * dim[w]})
        rng.shuffle(obj["steps"])
        yield obj


class TestReaderOracle:
    def test_agrees_with_checking_reader(self, rng):
        for obj, check in [(o, checked_pmod_from_json) for o in _v1_files(rng)] + \
                          [(pmod_to_json(M), checked_pmod2_from_json) for M in _modules(rng)]:
            M, want = pmod_from_json(obj), check(obj)
            assert (M.field, M.box, M.dims, M.steps) == (want.field, want.box, want.dims, want.steps)
            assert module_faults(M) == []

    def test_both_forms_read_to_equal_modules(self, rng):
        for M in _modules(rng):
            A, B = pmod_from_json(pmod_to_json(M)), pmod_from_json(pmod_to_json_v1(M))
            assert A == B == M
            assert (list(A.dims.items()), list(A.steps.items())) == (list(B.dims.items()), list(B.steps.items()))

    def test_each_table_entry_is_one_shared_matrix(self, rng):
        for M in _modules(rng):
            obj = pmod_to_json(M)
            R = pmod_from_json(obj)
            objects = {}
            for (v, k, _), i in zip(live_arrows(R.dims, R.n), obj["steps"]):
                objects.setdefault(i, set()).add(id(R.steps[(v, k)]))
            assert all(len(ids) == 1 for ids in objects.values())
            assert len(set.union(set(), *objects.values())) == len(obj["matrices"]) == len(objects)

    def test_equal_records_share_one_matrix(self, rng):
        for obj in _v1_files(rng):
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


def _rect_module(box):
    return rect_to_module(RectDecomp(Q, box, [Rectangle(box.lo, box.hi)]))


class TestPmodErrors:
    """Older-form files, written by the oracle writer, each with one fault."""

    def base(self):
        return pmod_to_json_v1(_rect_module(GridBox((0,), (2,))))

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


class TestPmod2Errors:
    """Version-2 files, each with one fault, refused by the reader and by the
    checking reader, with the reader's message."""

    @staticmethod
    def base():
        return pmod_to_json(_rect_module(GridBox((0,), (2,))))

    # (change, the message the reader gives)
    CASES = {
        "missing-key": (lambda o: o.pop("matrices"), "missing the field 'matrices'"),
        "bad-scalar": (lambda o: o.update(matrices=[[["1/0"]]]), "bad scalar or ragged rows in step at (0,) axis 0"),
        "rows-not-lists": (lambda o: o.update(matrices=[["1"]]), "step at (0,) axis 0: matrix must be a list of rows"),
        "matrices-not-a-list": (lambda o: o.update(matrices={}), "matrices must be a list, and steps a list of integer indices"),
        "wrong-shape": (lambda o: o.update(matrices=[[["1", "0"]]]), "has shape 1x2, expected 1x1"),
        "index-out-of-range": (lambda o: o["steps"].__setitem__(1, 1), "index 1 is out of range or unused"),
        "negative-index": (lambda o: o["steps"].__setitem__(0, -1), "index -1 is out of range or unused"),
        "bool-index": (lambda o: o["steps"].__setitem__(0, False), "steps a list of integer indices"),
        "one-step-short": (lambda o: o["steps"].pop(), "steps gives 1 indices for the 2 arrows"),
        "one-step-long": (lambda o: o["steps"].append(0), "steps gives 3 indices for the 2 arrows"),
        "unreferenced-matrix": (lambda o: o["matrices"].append([["2"]]), "index 1 is out of range or unused"),
        "repeated-vertex": (lambda o: o["dims"].insert(1, [0, 1]), "bad dims record [0, 1]: want vertices of the box in increasing order"),
        "unsorted-vertices": (lambda o: o["dims"].reverse(), "bad dims record [1, 1]"),
        "vertex-outside-the-box": (lambda o: o["dims"].append([3, 1]), "bad dims record [3, 1]"),
        "zero-dimension": (lambda o: o["dims"][1].__setitem__(1, 0), "bad dims record [1, 0]"),
        "dimension-over-max": (lambda o: o["dims"][1].__setitem__(1, MAX_DIM + 1), f"bad dims record [1, {MAX_DIM + 1}]"),
        "short-dims-record": (lambda o: o["dims"][0].pop(), "records of 2 integers"),
        "bool-dimension": (lambda o: o["dims"][0].__setitem__(1, True), "records of 2 integers"),
        "v1-step-records": (lambda o: o.update(steps=pmod_to_json_v1(_rect_module(GridBox((0,), (2,))))["steps"]),
                            "integer indices"),
        "unknown-version": (lambda o: o.update(version=3), "unknown PMOD version 3"),
        "bool-version": (lambda o: o.update(version=True), "unknown PMOD version True"),
        "bad-field-tag": (lambda o: o.update(field="R"), "R"),
    }

    def test_base_is_valid(self):
        obj = self.base()
        assert pmod_from_json(obj) == checked_pmod2_from_json(obj) == _rect_module(GridBox((0,), (2,)))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_with_message(self, case):
        change, message = self.CASES[case]
        obj = self.base()
        change(obj)
        with pytest.raises(FormatError, match=re.escape(message)):
            pmod_from_json(obj)
        with pytest.raises(FormatError):
            checked_pmod2_from_json(obj)

    def test_noncommutative_rejected(self):
        obj = {"version": 2, "field": "Q", "n": 2, "lo": [0, 0], "hi": [1, 1],
               "dims": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
               "matrices": [[["1"]], [["0"]]], "steps": [0, 0, 0, 1]}
        for read in (pmod_from_json, checked_pmod2_from_json):
            with pytest.raises(FormatError, match="commutative"):
                read(obj)


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
