"""A seeded fuzz gate for the CLI's exit-code contract.

PMOD, RECTS, candy, LINE and `string` manifest files drawn by the seeded
samplers are mutated one node at a time, by a fixed list of operators, and
fed to the verbs that read them, beside the unmutated files those verbs
also read.  Every run exits 0 or 2, or, under `verify`, 1 (property
violated) or 3 (inconclusive); on exit 2 stdout is empty and stderr starts
with `error:`.  No run raises, and each finishes within PER_CALL_S."""

import contextlib
import copy
import io as stdio
import json
import random
import signal

from persistgrid import Field, GridBox, candy_wrap, min3
from persistgrid.cli import main
from persistgrid.io import candy_to_json, line_to_json, pmod_to_json, rects_to_json
from persistgrid.sampling import rand_module, rand_rect_decomp, rand_two_rows_with_gap

from oracles import pmod_to_json_v1

SEED = 21
RUNS = 2000
PER_CALL_S = 5
# values a node is replaced by: wrong JSON types, out-of-range and
# over-long numbers, malformed scalars and field tags, ragged rows
VALUES = [None, True, 1.5, float("nan"), -1, 0, 2, 317, 10**30, -10**30, "", "x", "1/0", "1e999999",
          "Fp:4", "Q", [], [0], [[]], [[1, 2], [3]], {}, {"x": 1}]


def _nodes(obj, path=()):
    """The path of every node below the root, parents first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _replace(parent, key, rng):
    parent[key] = copy.deepcopy(rng.choice(VALUES))


def _delete(parent, key, rng):
    del parent[key]


def _duplicate(parent, key, rng):
    """A list entry twice in a row; a dict value as a list of two copies."""
    if isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [copy.deepcopy(parent[key])] * 2


OPERATORS = [_replace, _delete, _duplicate]


def mutate(obj, rng):
    """A copy of obj with one operator applied at one node, and its name.
    The node's depth is drawn first, so the few shallow nodes are hit as
    often as the many matrix entries."""
    obj = copy.deepcopy(obj)
    by_depth = {}
    for path in _nodes(obj):
        by_depth.setdefault(len(path), []).append(path)
    path = rng.choice(rng.choice(list(by_depth.values())))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    op = rng.choice(OPERATORS)
    op(parent, path[-1], rng)
    return obj, f"{op.__name__[1:]} at {list(path)}"


def inputs():
    """(kind, file contents, {name: contents} of the unmutated files beside
    it) of the seeded inputs: a 3x2 PMOD over F_1009, 1D PMODs over Q in
    both forms, a RECTS file, a candy, the LINE of a min3 output beside that
    output, the output beside its LINE, a `string` manifest beside the two
    1D modules it names, and a two-row PMOD over F_1009 with a gap, which
    `verify tworows` splits; the last is drawn last, after the others."""
    rng = random.Random(SEED)
    F, Q = Field.prime(1009), Field.rationals()
    M2 = rand_module(rng, F, GridBox((0, 0), (2, 1)), max_dim=2)
    M1 = rand_module(rng, Q, GridBox((0,), (3,)), max_dim=2)
    C = candy_wrap(rand_module(rng, F, GridBox((0,), (1,)), max_dim=2))
    R = rand_rect_decomp(rng, Q, 1, 3, hi=3)
    built = min3(R)
    out, line = pmod_to_json(built.M), line_to_json(built.line)
    modules = {"m0.json": pmod_to_json(M1),
               "m1.json": pmod_to_json(rand_module(rng, Q, GridBox((0,), (2,)), max_dim=2))}
    return [("pmod", pmod_to_json(M2), {}), ("pmod", pmod_to_json(M1), {}), ("pmod", pmod_to_json_v1(M1), {}),
            ("rects", rects_to_json(R), {}), ("candy", candy_to_json(C), {}),
            ("line", line, {"MOD": out}), ("built", out, {"LINE": line}),
            ("manifest", {"modules": sorted(modules)}, modules),
            ("pmod", pmod_to_json(rand_two_rows_with_gap(rng, F)), {})]


# the argv tails of each kind's verbs; IN is the mutated file, SAME the
# unmutated one, OUT a file to write, and any other name a file beside IN
VERBS = {
    "pmod": [["barcode", "--in", "IN"], ["verify", "indec", "--in", "IN"], ["verify", "tworows", "--in", "IN"],
             ["verify", "iso", "--in", "IN", "--with", "SAME"], ["hom", "--a", "IN", "--b", "SAME"],
             *(["construct", "--method", m, "--in", "IN", "--out", "OUT"]
               for m in ("sprime", "sdual", "gen4", "candy"))],
    "rects": [["construct", "--method", m, "--in", "IN", "--out", "OUT"] for m in ("s4", "min3", "min3rect")],
    "candy": [["verify", "candy", "--in", "IN"], ["concat", "--a", "IN", "--b", "SAME", "--out", "OUT"]],
    "line": [["restrict", "--in", "MOD", "--line", "IN", "--out", "OUT"]],
    "built": [["restrict", "--in", "IN", "--line", "LINE", "--out", "OUT"]],
    "manifest": [["string", "--list", "IN", "--out", "OUT"]],
}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run(argv):
    """main(argv) under a PER_CALL_S alarm: (exit code, stdout, stderr)."""
    out, err = stdio.StringIO(), stdio.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, PER_CALL_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    files = {name: str(tmp_path / f"{name}.json") for name in ("IN", "SAME", "OUT")}
    codes = {}
    cases = inputs()
    for _, _, beside in cases:
        for name, content in beside.items():
            files[name] = str(tmp_path / name)
            with open(files[name], "w") as fh:
                json.dump(content, fh)
    for r in range(RUNS):
        kind, original, _ = cases[r % len(cases)]
        argv = VERBS[kind][r // len(cases) % len(VERBS[kind])]
        obj, how = mutate(original, rng)
        for name, content in (("IN", obj), ("SAME", original)):
            with open(files[name], "w") as fh:
                json.dump(content, fh)
        argv = [files.get(a, a) for a in argv]
        what = f"run {r}: {' '.join(argv[:2])} on a {kind} file, {how}"
        try:
            code, out, err = run(argv)
        except _Timeout:
            raise AssertionError(f"{what}: no exit within {PER_CALL_S} s")
        except Exception as e:
            raise AssertionError(f"{what}: raised {e!r}") from e
        allowed = {0, 1, 2, 3} if argv[0] == "verify" else {0, 2}
        assert code in allowed, f"{what}: exit {code}"
        if code == 2:
            assert out == "" and err.startswith("error:"), f"{what}: stdout {out!r}, stderr {err!r}"
        codes[code] = codes.get(code, 0) + 1
    # the mutants reach past the readers: some runs succeed and some refuse
    assert codes.get(0) and codes.get(2)
