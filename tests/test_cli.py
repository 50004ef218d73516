import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import persistgrid
from persistgrid import (Field, GridBox, Rectangle, RectDecomp, direct_sum,
                         rect_to_module)
from persistgrid.cli import main
from persistgrid.grid import MAX_AXES
from persistgrid.io import dump, pmod_to_json, rects_to_json
from persistgrid.sampling import rand_module, rand_two_rows_with_gap

Q = Field.rationals()
F2 = Field.prime(2)


@pytest.fixture
def rects_file(tmp_path):
    V = RectDecomp(Q, GridBox((0,), (1,)),
                   [Rectangle((0,), (1,)), Rectangle((1,), (1,))])
    p = str(tmp_path / "v.json")
    dump(rects_to_json(V), p)
    return p, V


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPipeline:
    def test_construct_restrict_barcode(self, tmp_path, rects_file, capsys):
        src, V = rects_file
        mod = str(tmp_path / "m.json")
        line = str(tmp_path / "l.json")
        out = str(tmp_path / "w.json")
        assert main(["construct", "--method", "min3", "--in", src,
                     "--out", mod, "--line-out", line]) == 0
        assert main(["restrict", "--in", mod, "--line", line, "--out", out]) == 0
        code, text, _ = run(capsys, ["barcode", "--in", out])
        assert code == 0
        bc = json.loads(text)
        assert {(tuple(r["b"]), tuple(r["d"])): r["mult"] for r in bc["rects"]} \
               == dict(V.barcode())

    def test_verify_indec_on_construction(self, tmp_path, rects_file, capsys):
        src, _ = rects_file
        mod = str(tmp_path / "m.json")
        assert main(["construct", "--method", "s4", "--in", src, "--out", mod]) == 0
        code, text, _ = run(capsys, ["verify", "indec", "--in", mod])
        assert code == 0
        assert json.loads(text)["status"] == "IndecomposableCertified"

    def test_candy_concat_string(self, tmp_path, rng, capsys):
        mods, paths = [], []
        for i in range(3):
            M = rand_module(rng, F2, GridBox((0,), (1,)), max_dim=1)
            p = str(tmp_path / f"v{i}.json")
            dump(pmod_to_json(M), p)
            mods.append(M)
            paths.append(p)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["construct", "--method", "candy", "--in", paths[0],
                     "--out", a]) == 0
        assert main(["construct", "--method", "candy", "--in", paths[1],
                     "--out", b]) == 0
        cat = str(tmp_path / "cat.json")
        assert main(["concat", "--a", a, "--b", b, "--out", cat]) == 0
        code, text, _ = run(capsys, ["verify", "candy", "--in", cat])
        assert code == 0
        manifest = str(tmp_path / "list.json")
        dump({"modules": paths}, manifest)
        strung = str(tmp_path / "s.json")
        assert main(["string", "--list", manifest, "--out", strung]) == 0
        with open(strung) as fh:
            obj = json.load(fh)
        assert len(obj["embeddings"]) == 3

    def test_hom_dim(self, tmp_path, capsys):
        box = GridBox((0,), (2,))
        both = rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (1,)),
                                                  Rectangle((1,), (2,))]))
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(both), p)
        code, text, _ = run(capsys, ["hom", "--a", p, "--b", p, "--basis"])
        assert code == 0
        obj = json.loads(text)
        assert obj["dim"] == 3
        assert len(obj["basis"]) == 3


class TestExitCodes:
    def test_decomposable_gives_1(self, tmp_path, rng, capsys):
        box = GridBox((0,), (1,))
        M = direct_sum(rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (0,))])),
                       rect_to_module(RectDecomp(Q, box, [Rectangle((1,), (1,))])))
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        code, text, _ = run(capsys, ["verify", "indec", "--in", p])
        assert code == 1
        assert json.loads(text)["status"] == "DecomposableCertified"

    def test_iso_false_gives_1(self, tmp_path, capsys):
        box = GridBox((0,), (1,))
        A = rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (0,))]))
        B = rect_to_module(RectDecomp(Q, box, [Rectangle((0,), (1,))]))
        pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        dump(pmod_to_json(A), pa)
        dump(pmod_to_json(B), pb)
        assert main(["verify", "iso", "--in", pa, "--with", pb]) == 1

    def test_malformed_gives_2(self, tmp_path, capsys):
        p = str(tmp_path / "bad.json")
        with open(p, "w") as fh:
            fh.write("{broken")
        code, _, err = run(capsys, ["barcode", "--in", p])
        assert code == 2 and err.startswith("error:")

    def test_barcode_on_2d_gives_2(self, tmp_path, rng, capsys):
        M = rand_module(rng, Q, GridBox((0, 0), (1, 1)), max_dim=1)
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        code, _, err = run(capsys, ["barcode", "--in", p])
        assert code == 2 and "1D" in err

    def test_field_mismatch_gives_2(self, tmp_path, rects_file, capsys):
        src, _ = rects_file
        code, _, err = run(capsys, ["barcode", "--in", src, "--field", "Fp:2"])
        # rects file over Q, declared field must match exactly
        assert code == 2

    def test_field_is_read_from_a_candy_module(self, tmp_path, rng, capsys):
        p, c = str(tmp_path / "m.json"), str(tmp_path / "c.json")
        dump(pmod_to_json(rand_module(rng, Q, GridBox((0,), (1,)), max_dim=1)), p)
        assert main(["construct", "--method", "candy", "--in", p, "--out", c]) == 0
        assert run(capsys, ["verify", "candy", "--in", c, "--field", "Q"])[0] == 0
        code, _, err = run(capsys, ["verify", "candy", "--in", c, "--field", "Fp:2"])
        assert code == 2 and "Fp:2" in err
        cat = str(tmp_path / "cat.json")
        assert run(capsys, ["concat", "--a", c, "--b", c, "--out", cat, "--field", "Q"])[0] == 0

    @pytest.mark.parametrize("module", [[1, 2], "Q", None])
    def test_field_on_a_candy_without_module_object_gives_2(self, tmp_path, capsys, module):
        p = str(tmp_path / "c.json")
        dump({"module": module, "ul": [0, 0], "lr": [1, 1]}, p)
        for argv in (["concat", "--a", p, "--b", p, "--out", str(tmp_path / "o.json")],
                     ["verify", "candy", "--in", p]):
            code, _, err = run(capsys, argv + ["--field", "Q"])
            assert code == 2 and "module" in err

    def test_concat_on_wrong_corners_gives_2(self, tmp_path, capsys):
        # the all-identity module on a 2 x 2 box is a candy with corners
        # (0, 1) and (1, 0), but not with both corners at (0, 0)
        M = rect_to_module(RectDecomp(Field.prime(1009), GridBox((0, 0), (1, 1)), [Rectangle((0, 0), (1, 1))]))
        good, bad, out = (str(tmp_path / name) for name in ("good.json", "bad.json", "out.json"))
        dump({"module": pmod_to_json(M), "ul": [0, 1], "lr": [1, 0]}, good)
        dump({"module": pmod_to_json(M), "ul": [0, 0], "lr": [0, 0]}, bad)
        assert run(capsys, ["concat", "--a", good, "--b", good, "--out", out])[0] == 0
        for a, b, which in ((good, bad, "second"), (bad, good, "first")):
            code, _, err = run(capsys, ["concat", "--a", a, "--b", b, "--out", out])
            assert code == 2 and err.startswith(f"error: the {which} candy's corners")

    def test_tworows_without_gap_gives_2(self, tmp_path, capsys):
        from persistgrid.grid import stack
        L = rect_to_module(RectDecomp(F2, GridBox((0,), (2,)),
                                      [Rectangle((0,), (2,))]))
        from persistgrid.grid import ModMorphism
        M = stack([L, L], [ModMorphism.zero(L, L)])
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        code, _, err = run(capsys, ["verify", "tworows", "--in", p])
        assert code == 2

    def test_tworows_reports_split(self, tmp_path, rng, capsys):
        M = rand_two_rows_with_gap(rng, F2, max_width=4)
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        code, text, _ = run(capsys, ["verify", "tworows", "--in", p])
        assert code == 0
        rep = json.loads(text)
        assert sum(rep["summand_dims"]) == sum(M.dims.values())


def _is_rational(x) -> bool:
    try:
        Field.rationals().parse(x)
        return True
    except (ValueError, TypeError, ZeroDivisionError):
        return False


def _is_field_tag(x) -> bool:
    try:
        Field.from_json(x)
        return True
    except (ValueError, TypeError, AttributeError):
        return False


NOT_INT = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
                    st.none(), st.lists(st.integers(), max_size=2))
NOT_JSON_LIST = st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False),
                          st.text(max_size=4), st.none(),
                          st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
PMOD_KEYS = ("field", "n", "lo", "hi", "dims", "steps")


def _corrupt(obj, kind, draw):
    """Make one malformed change to a valid PMOD of the module I[(0,0),(1,1)]."""
    step = draw(st.sampled_from(obj["steps"]))
    if kind == "dim":
        i = draw(st.integers(0, len(obj["dims"]) - 1))
        obj["dims"][i] = draw(st.one_of(NOT_INT, st.integers(max_value=-1)))
    elif kind == "corner":
        draw(st.sampled_from((obj["lo"], obj["hi"])))[draw(st.integers(0, 1))] = draw(NOT_INT)
    elif kind == "n":
        obj["n"] = draw(st.one_of(NOT_INT, st.integers().filter(lambda n: n != 2)))
    elif kind == "field":
        obj["field"] = draw(st.one_of(st.text(max_size=6), st.integers(), st.none()).filter(
            lambda t: not _is_field_tag(t)))
    elif kind == "missing_key":
        del obj[draw(st.sampled_from(PMOD_KEYS))]
    elif kind == "steps":
        obj["steps"] = draw(NOT_JSON_LIST)
    elif kind == "step_record":
        obj["steps"][obj["steps"].index(step)] = draw(st.one_of(NOT_JSON_LIST.filter(
            lambda x: not isinstance(x, dict)), st.lists(st.integers(), max_size=2)))
    elif kind == "step_key":
        del step[draw(st.sampled_from(("v", "axis", "matrix")))]
    elif kind == "vertex":
        step["v"] = draw(st.one_of(NOT_INT, st.lists(st.integers(-3, 3), max_size=3)).filter(
            lambda v: v != step["v"]))
    elif kind == "axis":
        step["axis"] = draw(st.one_of(NOT_INT, st.integers().filter(lambda k: k not in (0, 1))))
    elif kind == "ragged":
        lengths = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3).filter(
            lambda ls: len(set(ls)) > 1))
        step["matrix"] = [["1"] * n for n in lengths]
    elif kind == "matrix":
        step["matrix"] = draw(st.one_of(NOT_JSON_LIST, st.lists(NOT_JSON_LIST.filter(
            lambda x: not isinstance(x, list)), min_size=1, max_size=2)))
    elif kind == "scalar":
        step["matrix"] = [[draw(st.one_of(NOT_INT, st.floats(), st.text(max_size=4)).filter(
            lambda x: not _is_rational(x)))]]


class TestMalformedPmod:
    BASE = pmod_to_json(rect_to_module(RectDecomp(Q, GridBox((0, 0), (1, 1)),
                                                  [Rectangle((0, 0), (1, 1))])))
    KINDS = ("dim", "corner", "n", "field", "missing_key", "steps", "step_record",
             "step_key", "vertex", "axis", "ragged", "matrix", "scalar")

    def test_base_is_valid(self, tmp_path, capsys):
        p = str(tmp_path / "m.json")
        dump(self.BASE, p)
        assert run(capsys, ["verify", "indec", "--in", p])[0] == 0

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_2_with_message(self, tmp_path, capsys, data):
        obj = json.loads(json.dumps(self.BASE))
        _corrupt(obj, data.draw(st.sampled_from(self.KINDS)), data.draw)
        p = str(tmp_path / "m.json")
        with open(p, "w") as fh:
            json.dump(obj, fh)
        code, _, err = run(capsys, ["verify", "indec", "--in", p])
        assert code == 2 and err.startswith("error:") and len(err) > len("error: \n")


LONG_INT = "<5000-digit int>"


def _set_scalar(value):
    def change(obj):
        obj["steps"][0]["matrix"] = [[value]]
    return change


def _one_vertex(n, kind):
    """A PMOD or RECTS file with n axes holding one vertex, lo = hi = 0."""
    zeros = [0] * n
    if kind == "pmod":
        return {"field": "Q", "n": n, "lo": zeros, "hi": zeros, "dims": [1], "steps": []}
    return {"field": "Q", "n": n, "lo": zeros, "hi": zeros, "rects": [{"b": zeros, "d": zeros}]}


class TestMistypedOrOversizedInput:
    """RECTS and LINE files with mistyped fields, field tags, scalars or
    integers too large to parse quickly, PMOD and RECTS files with more than
    MAX_AXES axes, PMOD files with a vertex dimension above MAX_DIM, string
    manifests whose entries are not paths, and modules or rectangle lists
    that a construction cannot build, and PMOD files that give one step
    twice, exit 2 with a message, and at once."""
    RECTS = {"field": "Q", "n": 1, "lo": [0], "hi": [2], "rects": [{"b": [0], "d": [2], "mult": 1}]}
    LINE = {"axis_maps": [{"scale": 1, "offset": 0}], "insert_axis": {"pos": 1, "value": 0}}
    TABLE_LINE = {"axis_maps": [{"table": [0, 1], "start": 0}], "insert_axis": {"pos": 1, "value": 0}}
    ZERO = {"field": "Q", "n": 1, "lo": [0], "hi": [2], "dims": [0, 0, 0], "steps": []}
    # one vertex at the top or the bottom corner of a 300 x 300 box, and one
    # at the bottom of a long 1D box: every construction's output box exceeds
    # the vertex cap, which must be seen before the projective cover and the
    # rectangle layers are built
    CORNER = {"field": "Q", "n": 2, "lo": [0, 0], "hi": [299, 299], "dims": [0] * 89999 + [1], "steps": []}
    BOTTOM = {**CORNER, "dims": [1] + [0] * 89999}
    LONG = {"field": "Q", "n": 1, "lo": [0], "hi": [13999], "dims": [1] + [0] * 13999, "steps": []}
    POINT = {"field": "Fp:1009", "n": 1, "lo": [0], "hi": [0], "dims": [1], "steps": []}
    STEP = {"field": "Fp:7", "n": 1, "lo": [0], "hi": [1], "dims": [1, 1],
            "steps": [{"v": [0], "axis": 0, "matrix": [[1]]}]}
    CASES = {
        "rects-float-birth": (RECTS, lambda o: o["rects"][0].update(b=[0.5])),
        "rects-float-death": (RECTS, lambda o: o["rects"][0].update(d=[2.0])),
        "rects-not-a-list": (RECTS, lambda o: o.update(rects=5)),
        "rects-empty": (RECTS, lambda o: o.update(rects=[])),
        "rects-record-not-an-object": (RECTS, lambda o: o.update(rects=[[0, 2]])),
        "rects-float-lo": (RECTS, lambda o: o.update(lo=[0.5])),
        "rects-short-hi": (RECTS, lambda o: o.update(hi=[])),
        "rects-bool-mult": (RECTS, lambda o: o["rects"][0].update(mult=True)),
        "rects-float-mult": (RECTS, lambda o: o["rects"][0].update(mult=1.0)),
        "rects-bool-n": (RECTS, lambda o: o.update(n=True)),
        "rects-24-digit-modulus": (RECTS, lambda o: o.update(field="Fp:100000000000000000000117")),
        "pmod-24-digit-modulus": (TestMalformedPmod.BASE,
                                  lambda o: o.update(field="Fp:100000000000000000000117")),
        "pmod-exponent-scalar": (TestMalformedPmod.BASE, _set_scalar("1e1000000")),
        "pmod-decimal-scalar": (TestMalformedPmod.BASE, _set_scalar("0.5")),
        "pmod-padded-scalar": (TestMalformedPmod.BASE, _set_scalar(" 1")),
        "pmod-5000-digit-int": (TestMalformedPmod.BASE, lambda o: o["dims"].__setitem__(0, LONG_INT)),
        "rects-huge-mult": (RECTS, lambda o: o["rects"][0].update(mult=10**12)),
        # m rectangles through one vertex give m x m step matrices; the chain
        # is refused before it is built
        "rects-mult-3000-s4": (RECTS, lambda o: o["rects"][0].update(mult=3000), "s4"),
        "rects-mult-400-min3": (RECTS, lambda o: o["rects"][0].update(mult=400)),
        "line-float-scale": (LINE, lambda o: o["axis_maps"][0].update(scale=1.5)),
        "line-bool-offset": (LINE, lambda o: o["axis_maps"][0].update(offset=True)),
        "line-bool-start": (TABLE_LINE, lambda o: o["axis_maps"][0].update(start=False)),
        "line-float-table-entry": (TABLE_LINE, lambda o: o["axis_maps"][0].update(table=[0, 1.0])),
        "line-bool-pos": (LINE, lambda o: o["insert_axis"].update(pos=True)),
        "line-float-value": (LINE, lambda o: o["insert_axis"].update(value=0.0)),
        "zero-module-candy": (ZERO, lambda o: None, "candy"),
        "zero-module-sprime": (ZERO, lambda o: None, "sprime"),
        "zero-module-sdual": (ZERO, lambda o: None, "sdual"),
        "zero-module-gen4": (ZERO, lambda o: None, "gen4"),
        "zero-module-string": (ZERO, lambda o: None, "string"),
        "over-cap-candy": (CORNER, lambda o: None, "candy"),
        "over-cap-gen4": (CORNER, lambda o: None, "gen4"),
        "over-cap-sdual": (CORNER, lambda o: None, "sdual"),
        "over-cap-bottom-sprime": (BOTTOM, lambda o: None, "sprime"),
        "over-cap-bottom-gen4": (BOTTOM, lambda o: None, "gen4"),
        "long-candy": (LONG, lambda o: None, "candy"),
        "long-gen4": (LONG, lambda o: None, "gen4"),
        "pmod-dim-3000": (POINT, lambda o: o.update(dims=[3000])),
        "pmod-dim-million": (POINT, lambda o: o.update(dims=[10**6])),
        "pmod-step-twice": (STEP, lambda o: o["steps"].append({"v": [0], "axis": 0, "matrix": [[3]]})),
        "manifest-int-path": ({"modules": [0]}, lambda o: None, "manifest"),
        "manifest-bool-path": ({"modules": [True]}, lambda o: None, "manifest"),
        **{f"pmod-{n}-axes": (_one_vertex(n, "pmod"), lambda o: None) for n in (MAX_AXES + 1, 100, 400, 800)},
        **{f"rects-{n}-axes": (_one_vertex(n, "rects"), lambda o: None, "min3rect") for n in (MAX_AXES + 1, 800)},
    }

    @staticmethod
    def _argv(obj, p, tmp_path, verb=None):
        """The command that reads the file p, whose content is obj."""
        out = str(tmp_path / "out.json")
        if verb == "string":
            manifest = str(tmp_path / "list.json")
            dump({"modules": [p]}, manifest)
            return ["string", "--list", manifest, "--out", out]
        if verb == "manifest":
            return ["string", "--list", p, "--out", out]
        if verb is not None:
            return ["construct", "--method", verb, "--in", p, "--out", out]
        if "rects" in obj:
            return ["construct", "--method", "min3", "--in", p, "--out", out]
        if "axis_maps" in obj:
            module = str(tmp_path / "module.json")
            dump(TestMalformedPmod.BASE, module)
            return ["restrict", "--in", module, "--line", p, "--out", out]
        return ["verify", "indec", "--in", p]

    def test_bases_are_valid(self, tmp_path, capsys):
        for base, *verb in ((self.RECTS,), (self.LINE,), (self.TABLE_LINE,),
                            (_one_vertex(MAX_AXES, "pmod"),), (_one_vertex(MAX_AXES, "rects"), "min3rect"),
                            (self.STEP,)):
            p = str(tmp_path / "in.json")
            dump(base, p)
            assert run(capsys, self._argv(base, p, tmp_path, *verb))[0] == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_message(self, tmp_path, capsys, case):
        base, change, *verb = self.CASES[case]
        obj = json.loads(json.dumps(base))
        change(obj)
        p = str(tmp_path / "in.json")
        with open(p, "w") as fh:
            # json.dumps cannot write an int this long, so a placeholder stands in
            fh.write(json.dumps(obj).replace(f'"{LONG_INT}"', "9" * 5000))
        argv = self._argv(obj, p, tmp_path, *verb)
        t0 = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("error:") and len(err) > len("error: \n")
        assert time.perf_counter() - t0 < 1.0

    def test_step_given_twice_is_named(self, tmp_path, capsys):
        obj = json.loads(json.dumps(self.STEP))
        obj["steps"].append({"v": [0], "axis": 0, "matrix": [[3]]})
        p = str(tmp_path / "in.json")
        dump(obj, p)
        code, out, err = run(capsys, ["barcode", "--in", p])
        assert code == 2 and out == "" and "step at (0,) axis 0 is given twice" in err

    # dims [2, 2] joined by an identity: decomposable, found by random trials
    TWICE = pmod_to_json(rect_to_module(RectDecomp(Q, GridBox((0,), (1,)), [Rectangle((0,), (1,))] * 2)))

    @pytest.mark.parametrize("kind", ["indec", "iso"])
    @pytest.mark.parametrize("trials", [-3, 0, 1])
    def test_trials_below_one(self, tmp_path, capsys, kind, trials):
        p = str(tmp_path / "in.json")
        dump(self.TWICE, p)
        argv = ["verify", kind, "--in", p, "--trials", str(trials)] + (["--with", p] if kind == "iso" else [])
        code, out, err = run(capsys, argv)
        if trials >= 1:
            assert code != 2 and err == ""
        else:
            assert code == 2 and out == "" and err.startswith("error: --trials")


class TestMismatchedModules:
    def _files(self, tmp_path):
        a = rect_to_module(RectDecomp(Q, GridBox((0,), (1,)), [Rectangle((0,), (1,))]))
        longer = rect_to_module(RectDecomp(Q, GridBox((0,), (2,)), [Rectangle((0,), (1,))]))
        over_f2 = rect_to_module(RectDecomp(F2, GridBox((0,), (1,)), [Rectangle((0,), (1,))]))
        paths = []
        for name, M in (("a", a), ("longer", longer), ("f2", over_f2)):
            paths.append(str(tmp_path / f"{name}.json"))
            dump(pmod_to_json(M), paths[-1])
        return paths

    def test_iso_gives_2(self, tmp_path, capsys):
        a, longer, over_f2 = self._files(tmp_path)
        for other, why in ((longer, "boxes"), (over_f2, "fields")):
            code, _, err = run(capsys, ["verify", "iso", "--in", a, "--with", other])
            assert code == 2 and err.startswith("error:") and why in err

    def test_hom_gives_2(self, tmp_path, capsys):
        a, longer, over_f2 = self._files(tmp_path)
        for other, why in ((longer, "boxes"), (over_f2, "fields")):
            code, _, err = run(capsys, ["hom", "--a", a, "--b", other])
            assert code == 2 and err.startswith("error:") and why in err


class TestDeterminism:
    def test_same_seed_same_output(self, tmp_path, rng, capsys):
        M = rand_module(rng, F2, GridBox((0,), (2,)), max_dim=2)
        p = str(tmp_path / "m.json")
        dump(pmod_to_json(M), p)
        outs = []
        for _ in range(2):
            code, text, _ = run(capsys, ["verify", "indec", "--in", p,
                                         "--seed", "7"])
            outs.append((code, text))
        assert outs[0] == outs[1]

    def test_same_output_across_processes(self, tmp_path):
        # V+V has pairs of equal intervals in every layer, so the interval
        # decompositions must break ties the same way in every process
        F = Field.prime(1009)
        V = rect_to_module(RectDecomp(F, GridBox((0, 0), (2, 2)), [Rectangle((0, 0), (2, 1))]))
        p = str(tmp_path / "vv.json")
        dump(pmod_to_json(direct_sum(V, V)), p)
        src = os.path.dirname(os.path.dirname(persistgrid.__file__))
        outs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-m", "persistgrid.cli", "verify", "indec",
                                   "--in", p, "--seed", "7"],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 1, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]
