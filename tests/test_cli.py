import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import persistgrid
from persistgrid import (Field, GridBox, Rectangle, RectDecomp, barcode_1d, direct_sum,
                         rect_to_module)
from persistgrid.cli import MAX_TRIALS, build_parser, main
from persistgrid.grid import MAX_AXES, MAX_DIM
from persistgrid.io import FormatError, dump, load, pmod_from_json, pmod_to_json, rects_from_json, rects_to_json
from persistgrid.linalg import Matrix
from persistgrid.sampling import rand_module, rand_rect_decomp, rand_two_rows_with_gap

from oracles import checked_pmod2_from_json, checked_pmod_from_json, pmod_to_json_v1

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

    @pytest.mark.parametrize("method", ["sprime", "sdual", "gen4", "candy", "s4", "min3", "min3rect", "string"])
    def test_restrict_along_an_output_line_gives_the_input(self, tmp_path, rng, method):
        """Outputs are written on their coarsest grid with table LINEs over
        the input's box: restrict returns a PMOD input byte for byte, and
        the barcode of a RECTS input on its box."""
        mod, line, res = (str(tmp_path / f"{x}.json") for x in ("m", "l", "w"))
        if method in ("s4", "min3", "min3rect"):
            R = rand_rect_decomp(rng, F2, 1, 3)
            src = str(tmp_path / "r.json")
            dump(rects_to_json(R), src)
            assert main(["construct", "--method", method, "--in", src, "--out", mod, "--line-out", line]) == 0
            assert main(["restrict", "--in", mod, "--line", line, "--out", res]) == 0
            W = pmod_from_json(load(res))
            assert W.box == R.box and barcode_1d(W) == R.barcode()
            return
        srcs = []
        for i, box in enumerate((GridBox((0,), (2,)), GridBox((0, 0), (1, 1)))):
            srcs.append(str(tmp_path / f"v{i}.json"))
            dump(pmod_to_json(rand_module(rng, Q, box, max_dim=2)), srcs[-1])
        if method == "string":
            srcs = srcs[:1] * 2
            dump({"modules": srcs}, str(tmp_path / "list.json"))
            assert main(["string", "--list", str(tmp_path / "list.json"), "--out", mod]) == 0
            lines = load(mod)["embeddings"]
            dump(load(mod)["module"], mod)
        for i, src in enumerate(srcs):
            if method == "string":
                dump(lines[i], line)
            else:
                assert main(["construct", "--method", method, "--in", src, "--out", mod, "--line-out", line]) == 0
                if method == "candy":
                    dump(load(mod)["module"], mod)
            assert main(["restrict", "--in", mod, "--line", line, "--out", res]) == 0
            with open(src, "rb") as a, open(res, "rb") as b:
                assert a.read() == b.read()

    def test_string_reads_relative_entries_beside_the_manifest(self, tmp_path, rng, monkeypatch):
        """A relative manifest entry names a file in the manifest's
        directory, wherever the command runs; an absolute one is read as
        given."""
        sub = tmp_path / "in"
        sub.mkdir()
        for name in ("a", "b"):
            dump(pmod_to_json(rand_module(rng, F2, GridBox((0,), (1,)), max_dim=1)), str(sub / f"{name}.json"))
        dump({"modules": ["a.json", str(sub / "b.json")]}, str(sub / "rel.json"))
        dump({"modules": [str(sub / "a.json"), str(sub / "b.json")]}, str(sub / "abs.json"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["string", "--list", "../in/rel.json", "--out", "rel-out.json"]) == 0
        assert main(["string", "--list", str(sub / "abs.json"), "--out", "abs-out.json"]) == 0
        assert load("rel-out.json") == load("abs-out.json")

    def test_string_of_three_2x2_modules(self, tmp_path, capsys):
        """Three random 2x2 F_1009 modules string into one candy within the
        vertex cap: each embedding restricts back to its input byte for
        byte, and verify candy passes."""
        rng = random.Random(0)
        srcs = [str(tmp_path / f"v{i}.json") for i in range(3)]
        for src in srcs:
            dump(pmod_to_json(rand_module(rng, Field.prime(1009), GridBox((0, 0), (1, 1)), max_dim=2)), src)
        manifest, strung, mod, line, res = (str(tmp_path / f"{x}.json") for x in ("list", "s", "m", "l", "w"))
        dump({"modules": srcs}, manifest)
        code, _, err = run(capsys, ["string", "--list", manifest, "--out", strung])
        assert code == 0, err
        code, text, _ = run(capsys, ["verify", "candy", "--in", strung])
        assert code == 0 and json.loads(text)["ok"]
        dump(load(strung)["module"], mod)
        for src, e in zip(srcs, load(strung)["embeddings"], strict=True):
            dump(e, line)
            assert main(["restrict", "--in", mod, "--line", line, "--out", res]) == 0
            with open(src, "rb") as a, open(res, "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("method, kind, size, max_dim, seed", [("candy", "candy", 6, 2, 2),
                                                                   ("gen4", "indec", 12, 1, 1)],
                             ids=["candy-6x6", "gen4-12x12"])
    def test_builds_beyond_the_stacked_layout(self, tmp_path, capsys, method, kind, size, max_dim, seed):
        """A 6x6 candy and gen4 on a 12x12 input build on their corner grids,
        whose stacked layouts pass the vertex cap, and pass verify."""
        V = rand_module(random.Random(seed), Field.prime(1009), GridBox((0, 0), (size - 1, size - 1)),
                        max_dim=max_dim)
        src, out = str(tmp_path / "v.json"), str(tmp_path / "out.json")
        dump(pmod_to_json(V), src)
        assert main(["construct", "--method", method, "--in", src, "--out", out]) == 0
        code, _, err = run(capsys, ["verify", kind, "--in", out])
        assert code == 0, err

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

    def test_shared_step_matrices_are_never_mutated(self, tmp_path, capsys, monkeypatch):
        """The reader gives equal step records one Matrix object; no verb may
        write into a matrix a module read from a file holds."""
        read = []

        def recording(obj):
            M = pmod_from_json(obj)
            read.append((M, {vk: [list(r) for r in m.rows] for vk, m in M.steps.items()}))
            return M

        monkeypatch.setattr(persistgrid.io, "pmod_from_json", recording)
        V = rect_to_module(RectDecomp(Q, GridBox((0,), (3,)), [Rectangle((0,), (3,)), Rectangle((1,), (2,))]))
        src, a, am, line, b = (str(tmp_path / f"{name}.json") for name in ("v", "a", "am", "line", "b"))
        dump(pmod_to_json(V), src)
        assert main(["construct", "--method", "candy", "--in", src, "--out", a, "--line-out", line]) == 0
        dump(load(a)["module"], am)
        C = recording(load(am))
        ident = [vk for vk, m in C.steps.items() if m == Matrix.identity(Q, 1)]
        assert len(ident) > 1 and all(C.steps[vk] is C.steps[ident[0]] for vk in ident)
        for argv in (["construct", "--method", "gen4", "--in", src, "--out", b],
                     ["construct", "--method", "candy", "--in", src, "--out", b],
                     ["restrict", "--in", am, "--line", line, "--out", b],
                     ["concat", "--a", a, "--b", a, "--out", b],
                     ["verify", "candy", "--in", b],
                     ["verify", "indec", "--in", am],
                     ["verify", "iso", "--in", am, "--with", am],
                     ["hom", "--a", am, "--b", am, "--basis"]):
            assert run(capsys, argv)[0] == 0
        assert len(read) > 10
        for M, rows in read:
            assert {vk: m.rows for vk, m in M.steps.items()} == rows


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

    @pytest.mark.parametrize("a, b, code, reason", [
        # [0,1]+[1,2] and [0,2]+[1,1]: equal dims 1, 2, 1 on [0,2]
        ([(0, 1), (1, 2)], [(0, 2), (1, 1)], 1, "barcodes differ"),
        ([], [], 0, "both zero"),
    ])
    def test_iso_on_equal_dims_1d(self, tmp_path, capsys, a, b, code, reason):
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for p, bars in zip(paths, (a, b)):
            R = RectDecomp(Q, GridBox((0,), (2,)), [Rectangle((s,), (e,)) for s, e in bars])
            dump(pmod_to_json(rect_to_module(R)), p)
        got, text, _ = run(capsys, ["verify", "iso", "--in", paths[0], "--with", paths[1]])
        assert got == code
        assert json.loads(text) == {"isomorphic": code == 0, "reason": reason, "has_witness": code == 0}

    def test_iso_without_a_certificate_gives_3(self, tmp_path, capsys):
        # two isomorphic modules over F_2 (a change of basis at (2, 0) maps
        # one onto the other) with few invertible homs between them: the 24
        # trials find none, and the four Hom dimensions agree, so nothing is
        # proved.  On 2 x 1, the interval (step 1) and two points (step 0)
        # share their dims and gave 3 too, until their Hom dimensions
        # (1, 1, 1, 2) proved them non-isomorphic.
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for p, x in zip(paths, (1, 0)):
            dump({"version": 2, "field": "Fp:2", "n": 2, "lo": [0, 0], "hi": [2, 1],
                  "dims": [[0, 0, 2], [1, 0, 1], [1, 1, 1], [2, 0, 2]],
                  "matrices": [[[0, 1]], [[1], [x]], [[0]]], "steps": [0, 1, 2]}, p)
        code, text, _ = run(capsys, ["verify", "iso", "--in", paths[0], "--with", paths[1]])
        assert code == 3
        assert json.loads(text) == {"isomorphic": None, "reason": "no invertible element found in 24 trials",
                                    "has_witness": False}

    def test_iso_without_with_gives_2(self, tmp_path, capsys):
        p = str(tmp_path / "m.json")
        dump(TestMistypedOrOversizedInput.POINT, p)
        code, _, err = run(capsys, ["verify", "iso", "--in", p])
        assert code == 2 and err == "error: verify iso needs --with\n"

    def test_zero_candy_gives_1(self, tmp_path, capsys):
        p = str(tmp_path / "c.json")
        zero = {"field": "Q", "n": 2, "lo": [0, 0], "hi": [1, 0], "dims": [0, 0], "steps": []}
        dump({"module": zero, "ul": [0, 0], "lr": [1, 0]}, p)
        code, text, _ = run(capsys, ["verify", "candy", "--in", p])
        assert code == 1 and json.loads(text) == {"ok": False, "messages": ["zero module"]}

    @pytest.mark.parametrize("b_field, b_n, a_n, message", [
        ("Q", 2, 2, "a common field"),
        ("Fp:7", 3, 2, "a common ambient dimension"),
        ("Fp:7", 1, 1, "at least two dimensions"),
    ])
    def test_concat_of_unlike_candies_gives_2(self, tmp_path, capsys, b_field, b_n, a_n, message):
        """The all-identity module on the unit cube of each dimension, with
        its candy corners: the candies differ only as the case names."""
        paths = []
        for name, tag, n in (("a", "Fp:7", a_n), ("b", b_field, b_n)):
            box = GridBox((0,) * n, (1,) * n)
            M = rect_to_module(RectDecomp(Field.from_json(tag), box, [Rectangle(box.lo, box.hi)]))
            paths.append(str(tmp_path / f"{name}.json"))
            dump({"module": pmod_to_json(M), "ul": [0] * (n - 1) + [1], "lr": [1] * (n - 1) + [0]}, paths[-1])
        code, _, err = run(capsys, ["concat", "--a", paths[0], "--b", paths[1], "--out", str(tmp_path / "o.json")])
        assert code == 2 and err == f"error: concatenation needs {message}\n"

    @pytest.mark.parametrize("method", ["sprime", "sdual", "candy"])
    def test_zero_module_construction_gives_2(self, tmp_path, capsys, method):
        p = str(tmp_path / "m.json")
        dump(TestMistypedOrOversizedInput.ZERO, p)
        code, _, err = run(capsys, ["construct", "--method", method, "--in", p, "--out", str(tmp_path / "o.json")])
        assert code == 2 and err == "error: zero module\n"

    @pytest.mark.parametrize("insert, message", [
        ({"pos": 2, "value": 9}, "the embedding misses the module box entirely"),
        ({"pos": 3, "value": 0}, "bad line embedding: insert position out of range"),
    ])
    def test_restrict_along_a_bad_line_gives_2(self, tmp_path, capsys, insert, message):
        """A line into 3D space, given one axis map: inserting 9 on the last
        axis misses the module's box 0..1 there, and position 3 is past the
        last."""
        self._restrict_gives_2(tmp_path, capsys, [{"scale": 1, "offset": 0}] * 2, insert, message)

    def test_restrict_along_a_table_line_off_the_box_gives_2(self, tmp_path, capsys):
        """A table whose values 5, 6 on the first axis lie past the box 0..1."""
        maps = [{"table": [5, 6], "start": 0}, {"scale": 1, "offset": 0}]
        self._restrict_gives_2(tmp_path, capsys, maps, {"pos": 2, "value": 0},
                               "the embedding misses the module box entirely")

    @staticmethod
    def _restrict_gives_2(tmp_path, capsys, maps, insert, message):
        """restrict of the all-identity module on the unit cube along a line
        with these axis maps and insert position exits 2 with message."""
        module, line = str(tmp_path / "m.json"), str(tmp_path / "l.json")
        box = GridBox((0, 0, 0), (1, 1, 1))
        dump(pmod_to_json(rect_to_module(RectDecomp(Q, box, [Rectangle(box.lo, box.hi)]))), module)
        dump({"axis_maps": maps, "insert_axis": insert}, line)
        code, _, err = run(capsys, ["restrict", "--in", module, "--line", line, "--out", str(tmp_path / "o.json")])
        assert code == 2 and err == f"error: {message}\n"

    def test_candy_with_corners_of_rank_2_gives_1(self, tmp_path, capsys):
        """The rank-2 all-identity module on a 2 x 2 box: its corners are
        where a candy's are, but of dimension 2, and End(M) is 2 x 2 matrices."""
        box = GridBox((0, 0), (1, 1))
        M = rect_to_module(RectDecomp(Q, box, [Rectangle(box.lo, box.hi)] * 2))
        p = str(tmp_path / "c.json")
        dump({"module": pmod_to_json(M), "ul": [0, 1], "lr": [1, 0]}, p)
        code, text, _ = run(capsys, ["verify", "candy", "--in", p])
        assert code == 1 and json.loads(text) == {
            "ok": False, "messages": ["upper-left corner has dimension 2, want 1",
                                      "lower-right corner has dimension 2, want 1", "end_dim = 4, want 1"]}

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
PMOD2_KEYS = ("version", "field", "n", "lo", "hi", "dims", "matrices", "steps")


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


def _corrupt2(obj, kind, draw):
    """Make one malformed change to a valid version-2 PMOD of the module
    I[(0,0),(1,1)], whose table has the one matrix [["1"]]."""
    if kind == "dim_record":
        # a coordinate outside [0, 1], or a dimension outside [1, MAX_DIM]
        rec, i = draw(st.sampled_from(obj["dims"])), draw(st.integers(0, 2))
        bad = st.one_of(st.integers(max_value=-1), st.integers(2, 5)) if i < 2 else \
            st.one_of(st.integers(max_value=0), st.integers(MAX_DIM + 1))
        rec[i] = draw(st.one_of(NOT_INT, bad))
    elif kind == "dims_order":
        obj["dims"].insert(draw(st.integers(0, 3)), list(draw(st.sampled_from(obj["dims"][1:]))))
    elif kind == "dims":
        obj["dims"] = draw(st.one_of(NOT_JSON_LIST, st.lists(st.integers(), min_size=1, max_size=2)))
    elif kind == "corner":
        draw(st.sampled_from((obj["lo"], obj["hi"])))[draw(st.integers(0, 1))] = draw(NOT_INT)
    elif kind == "n":
        obj["n"] = draw(st.one_of(NOT_INT, st.integers().filter(lambda n: n != 2)))
    elif kind == "field":
        obj["field"] = draw(st.one_of(st.text(max_size=6), st.integers(), st.none()).filter(
            lambda t: not _is_field_tag(t)))
    elif kind == "version":
        obj["version"] = draw(st.one_of(NOT_INT, st.integers().filter(lambda v: v != 2)))
    elif kind == "missing_key":
        del obj[draw(st.sampled_from(PMOD2_KEYS))]
    elif kind == "matrices":
        obj["matrices"] = draw(NOT_JSON_LIST)
    elif kind == "matrix":
        obj["matrices"][0] = draw(st.one_of(NOT_JSON_LIST, st.lists(NOT_JSON_LIST.filter(
            lambda x: not isinstance(x, list)), min_size=1, max_size=2)))
    elif kind == "ragged":
        obj["matrices"][0] = [["1"] * n for n in draw(st.lists(st.integers(0, 3), min_size=2, max_size=3).filter(
            lambda ls: len(set(ls)) > 1))]
    elif kind == "scalar":
        obj["matrices"][0] = [[draw(st.one_of(NOT_INT, st.floats(), st.text(max_size=4)).filter(
            lambda x: not _is_rational(x)))]]
    elif kind == "unreferenced":
        obj["matrices"].append(draw(st.one_of(NOT_JSON_LIST, st.just([["1"]]))))
    elif kind == "steps":
        obj["steps"] = draw(st.one_of(NOT_JSON_LIST, st.lists(NOT_JSON_LIST, min_size=4, max_size=4).filter(
            lambda ls: any(type(x) is not int or x != 0 for x in ls))))
    elif kind == "index":
        obj["steps"][draw(st.integers(0, 3))] = draw(st.one_of(NOT_INT, st.integers().filter(lambda i: i != 0)))
    elif kind == "count":
        obj["steps"] = obj["steps"][:draw(st.integers(0, 3))] if draw(st.booleans()) else obj["steps"] + [0]


I_SQUARE = rect_to_module(RectDecomp(Q, GridBox((0, 0), (1, 1)), [Rectangle((0, 0), (1, 1))]))


def _corrupted(base, corrupt, kinds, draw) -> dict:
    obj = json.loads(json.dumps(base))
    corrupt(obj, draw(st.sampled_from(kinds)), draw)
    return obj


def _refused_by_cli(tmp_path, capsys, obj) -> None:
    p = str(tmp_path / "m.json")
    with open(p, "w") as fh:
        json.dump(obj, fh)
    code, _, err = run(capsys, ["verify", "indec", "--in", p])
    assert code == 2 and err.startswith("error:") and len(err) > len("error: \n")


def _refused_by_readers(obj, checking_reader) -> None:
    for read in (pmod_from_json, checking_reader):
        with pytest.raises(FormatError):
            read(json.loads(json.dumps(obj)))


class TestMalformedPmod:
    """Older-form files, written by the oracle writer, with one corruption."""
    BASE = pmod_to_json_v1(I_SQUARE)
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
        _refused_by_cli(tmp_path, capsys, _corrupted(self.BASE, _corrupt, self.KINDS, data.draw))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_checking_reader_also_rejects(self, data):
        """The four-pass reference reader refuses every corruption too."""
        _refused_by_readers(_corrupted(self.BASE, _corrupt, self.KINDS, data.draw), checked_pmod_from_json)


class TestMalformedPmod2:
    """Version-2 files, as pmod_to_json writes them, with one corruption."""
    BASE = pmod_to_json(I_SQUARE)
    KINDS = ("dim_record", "dims_order", "dims", "corner", "n", "field", "version", "missing_key", "matrices",
             "matrix", "ragged", "scalar", "unreferenced", "steps", "index", "count")

    def test_base_is_valid(self, tmp_path, capsys):
        p = str(tmp_path / "m.json")
        dump(self.BASE, p)
        assert run(capsys, ["verify", "indec", "--in", p])[0] == 0

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_2_with_message(self, tmp_path, capsys, data):
        _refused_by_cli(tmp_path, capsys, _corrupted(self.BASE, _corrupt2, self.KINDS, data.draw))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_checking_reader_also_rejects(self, data):
        """The fact-by-fact reference reader refuses every corruption too."""
        _refused_by_readers(_corrupted(self.BASE, _corrupt2, self.KINDS, data.draw), checked_pmod2_from_json)


LONG_INT = "<5000-digit int>"


def _set_scalar(value):
    def change(obj):
        obj["steps"][0]["matrix"] = [[value]]
    return change


def _set_table_scalar(value):
    def change(obj):
        obj["matrices"][0] = [[value]]
    return change


# one fault each in a version-2 file of I[(0,0),(1,1)]: four live vertices,
# the table [[["1"]]] and the steps [0, 0, 0, 0], the last on (1, 0) axis 1
PMOD2_FAULTS = {
    "index-out-of-range": lambda o: o["steps"].__setitem__(0, 1),
    "negative-index": lambda o: o["steps"].__setitem__(0, -1),
    "bool-index": lambda o: o["steps"].__setitem__(0, False),
    "one-step-short": lambda o: o["steps"].pop(),
    "one-step-long": lambda o: o["steps"].append(0),
    "repeated-vertex": lambda o: o["dims"].insert(1, [0, 0, 1]),
    "unsorted-vertices": lambda o: o["dims"].reverse(),
    "vertex-outside-the-box": lambda o: o["dims"].append([2, 1, 1]),
    "zero-dimension": lambda o: o["dims"][0].__setitem__(2, 0),
    "dimension-over-max": lambda o: o["dims"][0].__setitem__(2, MAX_DIM + 1),
    "shape-mismatch": lambda o: o.update(matrices=[[["1", "0"]]]),
    "unreferenced-matrix": lambda o: o["matrices"].append([["2"]]),
    "non-commuting-square": lambda o: (o["matrices"].append([["0"]]), o["steps"].__setitem__(3, 1)),
    "unknown-version": lambda o: o.update(version=3),
    "v1-step-records": lambda o: o.update(steps=TestMalformedPmod.BASE["steps"]),
    "exponent-scalar": _set_table_scalar("1e1000000"),
    "decimal-scalar": _set_table_scalar("0.5"),
    "padded-scalar": _set_table_scalar(" 1"),
}


def _one_vertex(n, kind):
    """A PMOD or RECTS file with n axes holding one vertex, lo = hi = 0."""
    zeros = [0] * n
    if kind == "pmod":
        return {"field": "Q", "n": n, "lo": zeros, "hi": zeros, "dims": [1], "steps": []}
    return {"field": "Q", "n": n, "lo": zeros, "hi": zeros, "rects": [{"b": zeros, "d": zeros}]}


class TestMistypedOrOversizedInput:
    """RECTS and LINE files with mistyped fields, RECTS files that give one
    box corner without the other, LINE files with no axis map, field tags,
    scalars or integers too large to parse quickly, field tags spelled other than as
    `Fp:<p>` in ASCII digits without a leading zero, PMOD and RECTS files with more than
    MAX_AXES axes, PMOD files with a vertex dimension above MAX_DIM, string
    manifests whose entries are not paths, and modules or rectangle lists
    that a construction cannot build, PMOD files that give one step twice,
    version-2 PMOD files with a bad step index or count, dims record, table
    entry or square, and --out paths that cannot be written exit 2 with a
    message, and at once."""
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
    # two one-point bars far apart: the caps count the corner grid that is
    # built, whose axis keeps every coordinate of the input's box (scaled
    # for min3), not the stacked layout the paper fills between the bars
    BARS = {"field": "Q", "n": 1, "rects": [{"b": [0], "d": [0]}, {"b": [1], "d": [1]}]}
    # a 3D point: each half of its candy fits the cap, but the two glued
    # along V do not
    POINT_3D = {**POINT, "n": 3, "lo": [0, 0, 0], "hi": [0, 0, 0], "dims": [6]}
    CAP_MESSAGES = {"bars-40000-apart-min3": "3 layers of 40005 vertices exceed the cap 100000",
                    "bars-30000-apart-s4": "4 layers of 30004 vertices exceed the cap 100000",
                    "bars-150-distinct-s4": "4 layers of 448 vertices with up to 150 rectangles each exceed "
                                            "31600000 step scalars",
                    "long-dim-2-gen4": "4 layers of 25002 vertices exceed the cap 100000",
                    "pmod-candy-of-3d-point": "box with 109503 vertices exceeds the cap 100000"}
    STEP = {"field": "Fp:7", "n": 1, "lo": [0], "hi": [1], "dims": [1, 1],
            "steps": [{"v": [0], "axis": 0, "matrix": [[1]]}]}
    # two equal records, whose matrix the reader parses once
    TWO_STEPS = {"field": "Fp:7", "n": 1, "lo": [0], "hi": [2], "dims": [1, 1, 1],
                 "steps": [{"v": [0], "axis": 0, "matrix": [[1]]}, {"v": [1], "axis": 0, "matrix": [[1]]}]}
    # a record between two zero-dimensional vertices, which the module drops
    DEAD_STEP = {"field": "Q", "n": 1, "lo": [0], "hi": [2], "dims": [1, 0, 0],
                 "steps": [{"v": [1], "axis": 0, "matrix": []}]}
    # a repeated record must be checked as fully as the first one
    NAMED = {
        "pmod-bool-after-int-scalar": (TWO_STEPS, lambda o: o["steps"][1].update(matrix=[[True]]), "bad scalar"),
        "pmod-float-after-int-scalar": (TWO_STEPS, lambda o: o["steps"][1].update(matrix=[[1.0]]), "bad scalar"),
        "pmod-dead-step-twice": (DEAD_STEP, lambda o: o["steps"].append(dict(o["steps"][0])),
                                 "step at (1,) axis 0 is given twice"),
    }
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
        "rects-lo-without-hi": (RECTS, lambda o: o.pop("hi"), "s4"),
        "rects-hi-without-lo": (RECTS, lambda o: o.pop("lo"), "s4"),
        "rects-24-digit-modulus": (RECTS, lambda o: o.update(field="Fp:100000000000000000000117")),
        "pmod-24-digit-modulus": (TestMalformedPmod.BASE,
                                  lambda o: o.update(field="Fp:100000000000000000000117")),
        "pmod-field-tag-underscore": (POINT, lambda o: o.update(field="Fp:1_009")),
        "pmod-field-tag-space": (POINT, lambda o: o.update(field="Fp: 7")),
        "pmod-field-tag-plus": (POINT, lambda o: o.update(field="Fp:+7")),
        "pmod-field-tag-leading-zero": (POINT, lambda o: o.update(field="Fp:007")),
        "pmod-field-tag-arabic-indic-digit": (POINT, lambda o: o.update(field="Fp:\u0663")),
        "pmod-exponent-scalar": (TestMalformedPmod.BASE, _set_scalar("1e1000000")),
        "pmod-decimal-scalar": (TestMalformedPmod.BASE, _set_scalar("0.5")),
        "pmod-padded-scalar": (TestMalformedPmod.BASE, _set_scalar(" 1")),
        "pmod-5000-digit-int": (TestMalformedPmod.BASE, lambda o: o["dims"].__setitem__(0, LONG_INT)),
        "rects-huge-mult": (RECTS, lambda o: o["rects"][0].update(mult=10**12)),
        # m rectangles through one vertex give m x m step matrices; the chain
        # is refused before it is built
        "rects-mult-3000-s4": (RECTS, lambda o: o["rects"][0].update(mult=3000), "s4"),
        "rects-mult-400-min3": (RECTS, lambda o: o["rects"][0].update(mult=400)),
        # 100 000 simple summands at one point all want the same first
        # coordinate; choosing them must not take quadratic time
        "rects-mult-100000-min3": (RECTS, lambda o: o["rects"][0].update(d=[0], mult=100_000)),
        "line-float-scale": (LINE, lambda o: o["axis_maps"][0].update(scale=1.5)),
        "line-bool-offset": (LINE, lambda o: o["axis_maps"][0].update(offset=True)),
        "line-bool-start": (TABLE_LINE, lambda o: o["axis_maps"][0].update(start=False)),
        "line-float-table-entry": (TABLE_LINE, lambda o: o["axis_maps"][0].update(table=[0, 1.0])),
        "line-bool-pos": (LINE, lambda o: o["insert_axis"].update(pos=True)),
        "line-float-value": (LINE, lambda o: o["insert_axis"].update(value=0.0)),
        # on a 1D module this would restrict to zero axes
        "line-no-axis-maps": (LINE, lambda o: o.update(axis_maps=[], insert_axis={"pos": 0, "value": 0}),
                              "restrict1d"),
        # two axis maps: a line into a 3D module, given a 2D one
        "line-wrong-axis-count": (LINE, lambda o: o.update(axis_maps=o["axis_maps"] * 2,
                                                            insert_axis={"pos": 2, "value": 0})),
        "zero-module-candy": (ZERO, lambda o: None, "candy"),
        "zero-module-sprime": (ZERO, lambda o: None, "sprime"),
        "zero-module-sdual": (ZERO, lambda o: None, "sdual"),
        "zero-module-gen4": (ZERO, lambda o: None, "gen4"),
        "zero-module-string": (ZERO, lambda o: None, "string"),
        "zero-module-indec": (ZERO, lambda o: None),
        "over-cap-candy": (CORNER, lambda o: None, "candy"),
        "over-cap-gen4": (CORNER, lambda o: None, "gen4"),
        "over-cap-sdual": (CORNER, lambda o: None, "sdual"),
        "over-cap-bottom-sprime": (BOTTOM, lambda o: None, "sprime"),
        "over-cap-bottom-gen4": (BOTTOM, lambda o: None, "gen4"),
        "long-candy": (LONG, lambda o: None, "candy"),
        # four layers of V's box fit, but the stretched axis adds two runs
        "long-dim-2-gen4": (LONG, lambda o: o.update(hi=[24999], dims=[2] + [0] * 24999), "gen4"),
        "bars-40000-apart-min3": (BARS, lambda o: o["rects"][1].update(b=[40000], d=[40000]), "min3"),
        "bars-30000-apart-s4": (BARS, lambda o: o["rects"][1].update(b=[30000], d=[30000]), "s4"),
        # the coarse stack fits the vertex cap, its 150 x 150 steps do not
        "bars-150-distinct-s4": (BARS, lambda o: o.update(rects=[{"b": [i], "d": [i]} for i in range(150)]), "s4"),
        "pmod-candy-of-3d-point": (POINT_3D, lambda o: None, "candy"),
        "pmod-dim-3000": (POINT, lambda o: o.update(dims=[3000])),
        "pmod-dim-million": (POINT, lambda o: o.update(dims=[10**6])),
        "pmod-step-twice": (STEP, lambda o: o["steps"].append({"v": [0], "axis": 0, "matrix": [[3]]})),
        "manifest-int-path": ({"modules": [0]}, lambda o: None, "manifest"),
        "manifest-bool-path": ({"modules": [True]}, lambda o: None, "manifest"),
        **{case: (base, change) for case, (base, change, _) in NAMED.items()},
        **{f"pmod2-{fault}": (TestMalformedPmod2.BASE, change) for fault, change in PMOD2_FAULTS.items()},
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
        if "axis_maps" in obj:
            module = str(tmp_path / "module.json")
            dump(TestMistypedOrOversizedInput.POINT if verb == "restrict1d" else TestMalformedPmod.BASE, module)
            return ["restrict", "--in", module, "--line", p, "--out", out]
        if verb is not None:
            return ["construct", "--method", verb, "--in", p, "--out", out]
        if "rects" in obj:
            return ["construct", "--method", "min3", "--in", p, "--out", out]
        return ["verify", "indec", "--in", p]

    def test_bases_are_valid(self, tmp_path, capsys):
        for base, *verb in ((self.RECTS,), (self.LINE,), (self.TABLE_LINE,),
                            (_one_vertex(MAX_AXES, "pmod"),), (_one_vertex(MAX_AXES, "rects"), "min3rect"),
                            (self.STEP,), (self.TWO_STEPS,), (self.DEAD_STEP,), (self.BARS, "min3"),
                            (self.BARS, "s4"), (self.POINT_3D, "sprime"), (self.POINT_3D, "sdual")):
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

    @pytest.mark.parametrize("case", sorted(CAP_MESSAGES))
    def test_caps_count_the_built_box(self, tmp_path, capsys, case):
        base, change, verb = self.CASES[case]
        obj = json.loads(json.dumps(base))
        change(obj)
        p = str(tmp_path / "in.json")
        dump(obj, p)
        code, out, err = run(capsys, self._argv(obj, p, tmp_path, verb))
        assert code == 2 and out == "" and err == f"error: {self.CAP_MESSAGES[case]}\n"

    # points whose candy halves each fit the cap but whose glued box does
    # not, which the halves' corner grids show before either is built
    OVERSIZED_CANDIES = {"4d-point-of-dim-5": ({**POINT, "n": 4, "lo": [0] * 4, "hi": [0] * 4, "dims": [5]}, 1172889),
                         "3d-point-of-dim-10": ({**POINT_3D, "dims": [10]}, 533871)}

    @pytest.mark.parametrize("case", sorted(OVERSIZED_CANDIES))
    def test_oversized_candy_is_refused_at_once(self, tmp_path, capsys, case):
        base, count = self.OVERSIZED_CANDIES[case]
        p = str(tmp_path / "in.json")
        dump(base, p)
        t0 = time.perf_counter()
        code, out, err = run(capsys, ["construct", "--method", "candy", "--in", p, "--out", str(tmp_path / "c.json")])
        assert time.perf_counter() - t0 < 0.2
        assert code == 2 and out == "" and err == f"error: box with {count} vertices exceeds the cap 100000\n"

    @pytest.mark.parametrize("case", sorted(OVERSIZED_CANDIES))
    def test_oversized_candy_sweeps_no_surjection(self, tmp_path, capsys, monkeypatch, case):
        """Both halves' covers are made to plan their grids; neither
        surjection is, as the glued box is refused before a half is built."""
        base, count = self.OVERSIZED_CANDIES[case]
        p = str(tmp_path / "in.json")
        dump(base, p)
        covers, cover = [], persistgrid.constructions.projective_cover
        monkeypatch.setattr(persistgrid.constructions, "projective_cover", lambda V: covers.append(cover(V)) or covers[-1])
        code, out, err = run(capsys, ["construct", "--method", "candy", "--in", p, "--out", str(tmp_path / "c.json")])
        assert code == 2 and out == "" and err == f"error: box with {count} vertices exceeds the cap 100000\n"
        assert len(covers) == 2 and not any("comps" in vars(c) for c in covers)

    # inputs whose stacked layout passes the vertex cap (the candy's, glued,
    # has 176436 vertices) but whose corner grid fits
    WIDE_HALVES = {"field": "Fp:1009", "n": 3, "lo": [0, 0, 0], "hi": [1, 0, 1], "dims": [1, 1, 0, 1],
                   "steps": [{"v": [0, 0, 0], "axis": 2, "matrix": [[0]]},
                             {"v": [0, 0, 1], "axis": 0, "matrix": [[0]]}]}
    FITS = {"bars-20000-apart-min3": (BARS, lambda o: o["rects"][1].update(b=[20000], d=[20000]), "min3"),
            "long-gen4": (LONG, lambda o: None, "gen4"),
            "pmod-candy-of-wide-halves": (WIDE_HALVES, lambda o: None, "candy")}

    @pytest.mark.parametrize("case", sorted(FITS))
    def test_built_box_fits(self, tmp_path, case):
        """The output restricts along its line back to the input."""
        base, change, verb = self.FITS[case]
        obj = json.loads(json.dumps(base))
        change(obj)
        p, mod, line, res = (str(tmp_path / f"{x}.json") for x in ("in", "m", "l", "w"))
        dump(obj, p)
        assert main(["construct", "--method", verb, "--in", p, "--out", mod, "--line-out", line]) == 0
        if verb == "candy":
            dump(load(mod)["module"], mod)
        assert main(["restrict", "--in", mod, "--line", line, "--out", res]) == 0
        W = pmod_from_json(load(res))
        if "rects" in obj:
            R = rects_from_json(obj)
            assert W.box == R.box and barcode_1d(W) == R.barcode()
        else:
            assert W == pmod_from_json(obj)

    def test_step_given_twice_is_named(self, tmp_path, capsys):
        obj = json.loads(json.dumps(self.STEP))
        obj["steps"].append({"v": [0], "axis": 0, "matrix": [[3]]})
        p = str(tmp_path / "in.json")
        dump(obj, p)
        code, out, err = run(capsys, ["barcode", "--in", p])
        assert code == 2 and out == "" and "step at (0,) axis 0 is given twice" in err

    @pytest.mark.parametrize("case", sorted(NAMED))
    def test_repeated_record_fault_is_named(self, tmp_path, capsys, case):
        base, change, message = self.NAMED[case]
        obj = json.loads(json.dumps(base))
        change(obj)
        p = str(tmp_path / "in.json")
        dump(obj, p)
        code, out, err = run(capsys, ["barcode", "--in", p])
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("verb", ["construct", "restrict", "concat", "string"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, verb, where):
        """An --out path that cannot be opened for writing is refused like
        an unreadable input, not with a traceback."""
        module, candy, line, manifest = (str(tmp_path / f"{name}.json") for name in ("v", "c", "line", "list"))
        dump(TestMalformedPmod.BASE, module)
        dump(self.LINE, line)
        dump({"modules": [module]}, manifest)
        assert main(["construct", "--method", "candy", "--in", module, "--out", candy]) == 0
        out = str(tmp_path / "no" / "such" / "o.json") if where == "missing-directory" else str(tmp_path)
        argv = {"construct": ["construct", "--method", "candy", "--in", module],
                "restrict": ["restrict", "--in", module, "--line", line],
                "concat": ["concat", "--a", candy, "--b", candy],
                "string": ["string", "--list", manifest]}[verb]
        code, _, err = run(capsys, argv + ["--out", out])
        assert code == 2 and err.startswith(f"error: cannot write {out}")

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

    @pytest.mark.parametrize("kind", ["indec", "iso"])
    def test_trials_above_the_bound(self, tmp_path, capsys, kind):
        """Over MAX_TRIALS is refused before the input, which does not exist
        yet, is read; the bound itself is accepted."""
        p = str(tmp_path / "in.json")
        argv = ["verify", kind, "--in", p] + (["--with", p] if kind == "iso" else [])
        code, out, err = run(capsys, argv + ["--trials", str(MAX_TRIALS + 1)])
        assert code == 2 and out == "" and err.startswith("error: --trials") and str(MAX_TRIALS) in err
        dump(self.TWICE, p)
        code, _, err = run(capsys, argv + ["--trials", str(MAX_TRIALS)])
        assert code != 2 and err == ""


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


def main_by_nested_parse(argv) -> int:
    """main as the top-level parser alone parses argv, the verb's subparser
    running inside it: the reference for main's one parse."""
    args = build_parser()[0].parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


# one valid argv per verb, then malformed ones; {name} is a file of the
# argv_files fixture
ARGVS = [
    ["construct", "--method", "min3", "--in", "{rects}", "--out", "{out}", "--line-out", "{line_out}"],
    ["restrict", "--in", "{mod}", "--line", "{line}", "--out", "{out}"],
    ["barcode", "--in", "{mod1}"],
    ["verify", "indec", "--in", "{mod}", "--seed", "3", "--field", "F1009"],
    ["hom", "--a", "{mod}", "--b", "{mod}", "--basis"],
    ["concat", "--a", "{candy}", "--b", "{candy}", "--out", "{out}"],
    ["string", "--list", "{manifest}", "--out", "{out}"],
    [],
    ["-h"],
    *([verb, "-h"] for verb in ("construct", "restrict", "barcode", "verify", "hom", "concat", "string")),
    ["frobnicate", "--in", "{mod}"],
    ["--in", "{mod}"],
    ["barcode"],
    ["verify", "indec"],
    ["construct", "--method", "s5", "--in", "{rects}", "--out", "{out}"],
    ["verify", "indecomposable", "--in", "{mod}"],
    ["barcode", "--in", "{mod1}", "--bogus"],
    ["barcode", "--in", "{mod1}", "extra", "--bogus", "x"],
    ["barcode", "--in"],
    ["verify", "indec", "--in", "{mod}", "--seed"],
    ["verify", "indec", "--in", "{mod}", "--seed", "x"],
    ["hom", "--a", "{mod}", "--b", "{mod}", "--basis=yes"],
]


@pytest.fixture
def argv_files(tmp_path):
    f = Field.prime(1009)
    names = ("rects", "mod", "line", "mod1", "candy", "manifest", "out", "line_out")
    files = {name: str(tmp_path / f"{name}.json") for name in names}
    dump(rects_to_json(rand_rect_decomp(random.Random(5), f, 1, 2, hi=2)), files["rects"])
    assert main(["construct", "--method", "min3", "--in", files["rects"], "--out", files["mod"],
                 "--line-out", files["line"]]) == 0
    dump(pmod_to_json(rand_module(random.Random(6), f, GridBox((0,), (2,)), max_dim=2)), files["mod1"])
    assert main(["construct", "--method", "candy", "--in", files["mod1"], "--out", files["candy"]]) == 0
    dump({"modules": [files["mod1"]]}, files["manifest"])
    return files


class TestOneParse:
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_main_parses_as_the_nested_parse(self, argv_files, capsys, argv):
        """main parses a verb's argv with that verb's parser alone; its exit
        code, output and messages are those of the top-level parser running
        the verb's parser nested, argparse's refusals included."""
        argv = [a.format(**argv_files) for a in argv]
        capsys.readouterr()
        got = []
        for run_main in (main_by_nested_parse, main):
            try:
                code = run_main(list(argv))
            except SystemExit as e:
                code = ("exit", e.code)
            got.append((code, *capsys.readouterr()))
        assert got[0] == got[1]


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

    def test_written_files_are_the_same_across_processes(self, tmp_path, rng):
        """The PMOD writer orders by vertex and by first use, never by hash."""
        p = str(tmp_path / "v.json")
        dump(pmod_to_json(rand_module(rng, Q, GridBox((0, 0), (1, 1)), max_dim=2)), p)
        src = os.path.dirname(os.path.dirname(persistgrid.__file__))
        outs = []
        for hashseed in ("1", "2"):
            out = str(tmp_path / f"candy.{hashseed}.json")
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-m", "persistgrid.cli", "construct", "--method", "candy",
                                   "--in", p, "--out", out], capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1] and json.loads(outs[0])["module"]["version"] == 2


class TestNoCyclicGarbage:
    """A verb's caches hold no reference cycle, so they are freed by
    reference counting when the verb returns: the cyclic collector, saving
    everything it finds, finds no persistgrid object after any verb."""

    @staticmethod
    def _cyclic_persistgrid_garbage(argv, capsys):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code = main(argv)
            gc.collect()
            found = Counter(type(o).__qualname__ for o in gc.garbage
                            if type(o).__module__.startswith("persistgrid"))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        return code, found

    def test_verbs_leave_no_cyclic_garbage(self, tmp_path, capsys):
        rng = random.Random(5)
        F = Field.prime(1009)
        paths = {name: str(tmp_path / f"{name}.json") for name in ("v", "m", "w", "candy", "list", "out")}
        dump(pmod_to_json(rand_module(rng, F, GridBox((0,), (3,)), max_dim=2)), paths["v"])
        M = rand_module(rng, F, GridBox((0, 0), (2, 2)), max_dim=2)
        dump(pmod_to_json(M), paths["m"])
        dump(pmod_to_json(direct_sum(M, M)), paths["w"])
        dump({"modules": [paths["v"], paths["v"]]}, paths["list"])
        assert main(["construct", "--method", "candy", "--in", paths["v"], "--out", paths["candy"]]) == 0
        verbs = [
            (["verify", "candy", "--in", paths["candy"]], 0),
            (["verify", "indec", "--in", paths["m"]], 1),
            (["verify", "iso", "--in", paths["w"], "--with", paths["w"]], 0),
            (["hom", "--a", paths["m"], "--b", paths["w"], "--basis"], 0),
            (["construct", "--method", "candy", "--in", paths["m"], "--out", paths["out"]], 0),
            (["string", "--list", paths["list"], "--out", paths["out"]], 0),
        ]
        for argv, code in verbs:
            assert self._cyclic_persistgrid_garbage(argv, capsys) == (code, {}), argv
