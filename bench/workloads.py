"""Seeded inputs and CLI pipelines for the benchmark workloads.

An *item* is one pipeline on one input: a list of CLI calls, each with the
exit codes it may return, plus an exact check of what the calls produced.
Inputs are drawn with `persistgrid.sampling` from the workload seed and
written as JSON files; the CLI sees only those files.  Checks run outside
the timed region and use the library directly.

Exit codes come from the CLI contract: 0 certified / success, 1 property
violated, 3 inconclusive.  A verdict call that exits 3 counts as an
inconclusive verdict, not as a failure.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import Counter

from persistgrid import (Field, GridBox, RectDecomp, direct_sum, end_dim,
                         projective_cover, rect_to_module, restrict)
from persistgrid import io as pgio
from persistgrid.sampling import rand_module, rand_rect_decomp

Q = Field.rationals()
FP = Field.prime(1009)
BOX3 = GridBox((0, 0), (2, 2))
VERIFY_SEED = "7"  # fixed --seed of every randomized verdict call


class Item:
    """One pipeline on one input.

    steps: (argv, allowed exit codes, counts as a verdict) per CLI call.
    outputs: files the calls write, hashed into the item's output digest.
    check(codes, stdouts) returns a failure message, or None when every
    output is exactly right.
    """

    __slots__ = ("id", "kind", "steps", "outputs", "check")

    def __init__(self, id, kind, steps, outputs, check):
        self.id = id
        self.kind = kind
        self.steps = steps
        self.outputs = outputs
        self.check = check


class Pool:
    """Writes the inputs of one workload into a work directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "in"), exist_ok=True)
        os.makedirs(os.path.join(root, "out"), exist_ok=True)

    def write(self, name: str, obj: dict) -> str:
        path = os.path.join(self.root, "in", name)
        pgio.dump(obj, path)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.root, "out", name)


# ---------------------------------------------------------------------------
# exact checks


def _same(A, B) -> bool:
    return A.box == B.box and A.dims == B.dims and A.steps == B.steps


def _barcode_of(text: str) -> Counter:
    obj = json.loads(text)
    return Counter({(tuple(r["b"]), tuple(r["d"])): r["mult"] for r in obj["rects"]})


def _roundtrip(mod_path: str, line_path: str, box):
    """The construction restricted to the input's own box (library path;
    the CLI restrict keeps the embedding's preimage box)."""
    M = pgio.pmod_from_json(pgio.load(mod_path))
    L = pgio.line_from_json(pgio.load(line_path))
    return restrict(M, L, source_box=box)


def _rect_roundtrip_ok(W, R: RectDecomp) -> bool:
    """W equals the module of R up to the order of R's summands."""
    return any(_same(W, rect_to_module(RectDecomp(R.field, R.box, list(p))))
               for p in itertools.permutations(R.summands))


def _indec_ok(code: int, text: str, want: str) -> str | None:
    if code == 3:
        return None
    status = json.loads(text)["status"]
    return None if status == want else f"verdict {status}, want {want}"


# ---------------------------------------------------------------------------
# item builders


def _construct(method, src, mod, line):
    return (["construct", "--method", method, "--in", src, "--out", mod, "--line-out", line], (0,), False)


def _restrict(mod, line, out):
    return (["restrict", "--in", mod, "--line", line, "--out", out], (0,), False)


def _indec(path, codes):
    return (["verify", "indec", "--in", path, "--seed", VERIFY_SEED], codes + (3,), True)


def barcode_item(pool, i, R, method):
    """1D barcode -> construct -> restrict -> barcode -> verify indec."""
    src = pool.write(f"{i}.rects.json", pgio.rects_to_json(R))
    mod, line, w = pool.out(f"{i}.M.json"), pool.out(f"{i}.L.json"), pool.out(f"{i}.W.json")
    steps = [_construct(method, src, mod, line), _restrict(mod, line, w),
             (["barcode", "--in", w], (0,), False), _indec(mod, (0,))]
    want = R.barcode()

    def check(codes, outs):
        if _barcode_of(outs[2]) != want:
            return "roundtrip barcode differs from the input barcode"
        return _indec_ok(codes[3], outs[3], "IndecomposableCertified")

    return Item(i, f"{method}-1d", steps, [mod, line, w], check)


def module_item(pool, i, V, method, R=None):
    """2D input -> construct -> restrict -> verify indec; the roundtrip is
    checked through the library on the input's own box."""
    obj = pgio.rects_to_json(R) if R is not None else pgio.pmod_to_json(V)
    src = pool.write(f"{i}.in.json", obj)
    mod, line, w = pool.out(f"{i}.M.json"), pool.out(f"{i}.L.json"), pool.out(f"{i}.W.json")
    steps = [_construct(method, src, mod, line), _restrict(mod, line, w), _indec(mod, (0,))]

    def check(codes, outs):
        W = _roundtrip(mod, line, (R or V).box)
        if not (_rect_roundtrip_ok(W, R) if R is not None else _same(W, V)):
            return "restriction to the input box differs from the input"
        return _indec_ok(codes[2], outs[2], "IndecomposableCertified")

    return Item(i, f"{method}-2d", steps, [mod, line, w], check)


def sum_item(pool, i, V, W):
    """V+V -> verify indec; hom V -> V+V; verify iso of V+W against W+V."""
    VV = direct_sum(V, V)
    pv = pool.write(f"{i}.V.json", pgio.pmod_to_json(V))
    pvv = pool.write(f"{i}.VV.json", pgio.pmod_to_json(VV))
    pvw = pool.write(f"{i}.VW.json", pgio.pmod_to_json(direct_sum(V, W)))
    pwv = pool.write(f"{i}.WV.json", pgio.pmod_to_json(direct_sum(W, V)))
    steps = [_indec(pvv, (1,)),
             (["hom", "--a", pv, "--b", pvv], (0,), False),
             (["verify", "iso", "--in", pvw, "--with", pwv, "--seed", VERIFY_SEED], (0, 3), True)]
    want_end = []

    def check(codes, outs):
        if codes[0] == 1:
            verdict = json.loads(outs[0])
            if verdict["status"] != "DecomposableCertified":
                return f"verdict {verdict['status']} on V+V"
            got = Counter()
            for part in verdict["witness"]["summand_dims"]:
                got.update(part)
            if got != Counter({str(v): d for v, d in VV.dims.items()}):
                return "witness summand dims do not add up to dims(V+V)"
        if not want_end:
            want_end.append(end_dim(V))
        if json.loads(outs[1])["dim"] != 2 * want_end[0]:
            return "dim Hom(V, V+V) != 2 dim End(V)"
        if codes[2] == 0 and json.loads(outs[2])["isomorphic"] is not True:
            return "V+W and W+V not certified isomorphic"
        return None

    return Item(i, "sum", steps, [], check)


def candy_item(pool, i, src):
    """module -> construct --method candy -> verify candy; returns the item
    and the candy file it writes."""
    C, L = pool.out(f"{i}.candy.json"), pool.out(f"{i}.L.json")
    steps = [(["construct", "--method", "candy", "--in", src, "--out", C, "--line-out", L], (0,), False),
             (["verify", "candy", "--in", C], (0,), False)]
    return Item(i, "candy", steps, [C, L], _candy_ok(1)), C


def concat_item(pool, i, ca, cb):
    """candy A, candy B -> concat -> verify candy."""
    C = pool.out(f"{i}.concat.json")
    steps = [(["concat", "--a", ca, "--b", cb, "--out", C], (0,), False),
             (["verify", "candy", "--in", C], (0,), False)]
    return Item(i, "concat", steps, [C], _candy_ok(1))


def _candy_ok(at):
    def check(codes, outs):
        return None if json.loads(outs[at])["ok"] is True else "verify candy did not pass"
    return check


def string_item(pool, i, mods, srcs):
    """string of three modules; each embedding restricts back to its input."""
    manifest = pool.write(f"{i}.manifest.json", {"modules": srcs})
    S = pool.out(f"{i}.string.json")
    steps = [(["string", "--list", manifest, "--out", S], (0,), False)]

    def check(codes, outs):
        obj = pgio.load(S)
        M = pgio.pmod_from_json(obj["module"])
        for emb, V in zip(obj["embeddings"], mods):
            if not _same(restrict(M, pgio.line_from_json(emb), source_box=V.box), V):
                return "a string embedding does not restrict back to its input"
        return None

    return Item(i, "string", steps, [S], check)


# ---------------------------------------------------------------------------
# workloads


def sized(make, size, want, tries=100000):
    """Draw make() until size(x) == want.

    Each generator round walks a fixed schedule of input sizes, so every
    seed gets the same mix of sizes and only the inputs themselves vary:
    the per-seed cost of a pass stays close to the workload's stated size.
    """
    for _ in range(tries):
        x = make()
        if size(x) == want:
            return x
    raise RuntimeError(f"no input of size {want} in {tries} draws")


def certify_fp(pool, rng, n):
    """n rounds of the four certify kinds over F_1009, interleaved.  Sizes
    per round r: bars 1 + r % 5 with total length above the median every
    other cycle, rectangles 1 + r % 3 with total area likewise, gen4 input
    total dimension 3 + r % 4, and dim End(V) from SUM_END_DIMS for the
    V+V item."""
    field = FP
    items = []
    for r in range(n):
        R = sized(lambda: rand_rect_decomp(rng, field, 1, 5, 0, 6), _extent, (1 + r % 5, (r // 5) % 2 == 1))
        items.append(barcode_item(pool, len(items), R, "min3"))
        R = sized(lambda: rand_rect_decomp(rng, field, 2, 3, 0, 3), _extent, (1 + r % 3, (r // 3) % 2 == 1))
        items.append(module_item(pool, len(items), None, "min3rect", R=R))
        V = sized(lambda: rand_module(rng, field, BOX3, max_dim=1), _total, 3 + r % 4)
        items.append(module_item(pool, len(items), V, "gen4"))
        V = sized(lambda: rand_module(rng, field, BOX3, max_dim=2, total_cap=7), end_dim,
                  SUM_END_DIMS[r % len(SUM_END_DIMS)])
        W = rand_module(rng, field, BOX3, max_dim=2, total_cap=7)
        items.append(sum_item(pool, len(items), V, W))
    return items


# median total volume of a rect_decomp draw, by rank and number of
# rectangles (bars on [0,6], rectangles on [0,3]^2)
MEDIAN_VOLUME = {1: {1: 2, 2: 5, 3: 7, 4: 10, 5: 12}, 2: {1: 2, 2: 5, 3: 8}}


def _extent(R):
    """(rectangles, total volume above the median for that many): the
    construction's cost grows with both."""
    volume = 0
    for x in R.summands:
        volume += math.prod(d - b + 1 for b, d in zip(x.b, x.d))
    return len(R.summands), volume > MEDIAN_VOLUME[R.box.n][len(R.summands)]


def _total(V):
    return V.total_dim()


def _shape(V):
    """(total dimension, generators): the generators of V are the summands
    of its projective cover, so they set the size of every construction."""
    return V.total_dim(), len(projective_cover(V).decomp)


# dim End(V) of the V+V items, cycled: the hom and splitting work grows
# with dim End(V+V) = 4 dim End(V)
SUM_END_DIMS = (4, 5, 6, 7)


def candy(pool, rng, n):
    """n pairs of small modules sharing field, box and shape (total
    dimension, generators).  Pairs cycle through 1D width 4 with dims <= 2
    over Q, the 2x1 interval over F_1009, and 1D over F_1009.  1D totals
    cycle through 2..6 and their generator counts alternate.  Every third
    pair, from the first on, also strings itself with a third module."""
    items = []
    for r in range(n):
        if r % 3 == 1:
            field, box, max_dim, shape = FP, GridBox((0, 0), (1, 0)), 1, (2, 1)
        else:
            total = 2 + (r // 3) % 5
            field, box, max_dim = (Q if r % 3 == 0 else FP), GridBox((0,), (3,)), 2
            shape = (total, (1 if total == 2 else 2) + (r // 15) % 2)
        mods = [sized(lambda: rand_module(rng, field, box, max_dim=max_dim), _shape, shape)
                for _ in range(3 if r % 3 == 0 else 2)]
        srcs = [pool.write(f"{r}.{j}.pmod.json", pgio.pmod_to_json(V)) for j, V in enumerate(mods)]
        candies = []
        for src in srcs[:2]:
            item, path = candy_item(pool, len(items), src)
            items.append(item)
            candies.append(path)
        items.append(concat_item(pool, len(items), *candies))
        if len(mods) == 3:
            items.append(string_item(pool, len(items), mods, srcs))
    return items


WORKLOADS = {"certify_fp": certify_fp, "candy": candy}


def build(name: str, root: str, seed: int, rounds: int) -> list[Item]:
    """The workload's items for this seed, with their input files written."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](Pool(root), rng, rounds)
