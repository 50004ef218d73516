"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the library at desk scale and
prints a single CRITERION line on the real stdout so the verdicts are visible
even under pytest's capture.  All checks are exact; no tolerances.
"""

import random
import sys
import time
from collections import Counter

from persistgrid import (Field, GridBox, barcode_1d, build_S, build_S_dprime,
                         build_S_prime, candy_wrap, check_candy, concat,
                         decompose_two_rows, end_dim, gen4,
                         iso_certificate, min3, min3_rect, restrict,
                         string_candies, try_split)
from persistgrid.sampling import (enumerate_modules, interval_multisets,
                                  rand_module, rand_rect_decomp,
                                  rand_two_rows_with_barcode,
                                  rand_two_rows_with_gap)

from oracles import decomposable_by_idempotents, local_dim

Q = Field.rationals()
F2 = Field.prime(2)


def report(capsys, k, ok, detail, t0):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail}, {time.time() - t0:.1f}s)"
    with capsys.disabled():
        print(line)
        sys.stdout.flush()
    assert ok, line


def modules_equal(A, B):
    return A.dims == B.dims and A.steps == B.steps


def test_criterion_1_four_layer_realization_1d(capsys):
    t0 = time.time()
    rng = random.Random(1001)
    ok, count = True, 0
    for _ in range(50):
        V = rand_rect_decomp(rng, Q, 1, 5, hi=6)
        r = build_S(V)
        W = restrict(r.M, r.line)
        good = (r.layer_count == 4 and end_dim(r.M) == 1
                and barcode_1d(W) == V.barcode())
        ok = ok and good
        count += 1
    report(capsys, 1, ok and count == 50, f"{count} random 1D inputs", t0)


def test_criterion_2_cover_stacks_and_dual(capsys):
    t0 = time.time()
    rng = random.Random(1002)
    checked = 0
    ok = True
    for i in range(30):
        if i % 2 == 0:
            V = rand_module(rng, Q, GridBox((0,), (4,)), max_dim=2, total_cap=10)
        else:
            V = rand_module(rng, Q, GridBox((0, 0), (2, 2)), max_dim=1, total_cap=10)
        for build in (build_S_prime, build_S_dprime):
            r = build(V)
            if end_dim(r.M) != 1:
                ok = False
            W = restrict(r.M, r.line, source_box=V.box)
            if V.n == 1:
                good = barcode_1d(W) == barcode_1d(V)
            else:
                good = iso_certificate(W, V, trials=20).isomorphic is True
            ok = ok and good
        checked += 1
    report(capsys, 2, ok and checked == 30, f"{checked} modules, both stack variants", t0)


def test_criterion_3_candy_wrap_concat_string(capsys):
    t0 = time.time()
    rng = random.Random(1003)
    ok = True
    candies = []
    for i in range(6):
        f = Q if i % 2 else F2
        box = GridBox((0,), (2,)) if i < 3 else GridBox((0, 0), (1, 1))
        V = rand_module(rng, f, box, max_dim=1)
        C = candy_wrap(V)
        layers = {v[-1] for v in C.module.dims}
        ok = ok and layers == set(range(-4, 5))
        ok = ok and C.module.dim(C.ul) == 1 and C.module.dim(C.lr) == 1
        ok = ok and end_dim(C.module) == 1
        candies.append((f, C))
    for (fa, A), (fb, B) in zip(candies, candies[1:]):
        if fa != fb:
            continue
        C = concat(A, B)
        ok = ok and check_candy(C.module, C.ul, C.lr).ok
    mods = [rand_module(rng, F2, GridBox((0,), (2,)), max_dim=1) for _ in range(3)]
    res = string_candies(mods)
    ok = ok and check_candy(res.candy.module, res.candy.ul, res.candy.lr).ok
    for emb, v in zip(res.embeddings, mods):
        ok = ok and modules_equal(restrict(res.candy.module, emb, source_box=v.box), v)
    report(capsys, 3, ok, "6 candies, pairwise concat, string of 3", t0)


def test_criterion_4_three_layers_exhaustive_1d(capsys):
    t0 = time.time()
    ok, count = True, 0
    for V in interval_multisets(Q, 0, 3, 6):
        r = min3(V)
        W = restrict(r.M, r.line, source_box=V.box)
        good = (r.layer_count == 3 and local_dim(r.M) == 1
                and barcode_1d(W) == V.barcode())
        ok = ok and good
        count += 1
    report(capsys, 4, ok and count > 0, f"all {count} interval multisets", t0)


def test_criterion_5_two_layer_impossibility(capsys):
    t0 = time.time()
    rng = random.Random(1005)
    target = Counter({((0,), (1,)): 1, ((3,), (4,)): 1})
    ok, count = True, 0
    for _ in range(200):
        M = rand_two_rows_with_barcode(rng, F2, 5, target)
        v = try_split(M)
        if v.status == "DecomposableCertified":
            count += 1
            continue
        split = decompose_two_rows(M)
        nz = [s for s in split.summands if sum(s.dims.values())]
        ok = ok and len(nz) >= 2
        count += 1
    report(capsys, 5, ok and count == 200, f"{count} forced-barcode 2-layer modules", t0)


def test_criterion_6_gap_decomposition(capsys):
    t0 = time.time()
    rng = random.Random(1006)
    ok, count = True, 0
    for _ in range(500):
        M = rand_two_rows_with_gap(rng, F2, max_width=6)
        split = decompose_two_rows(M)
        nz = [s for s in split.summands if sum(s.dims.values())]
        good = len(nz) >= 2
        total = split.iso.source
        good = good and all(total.dim(v) == M.dim(v) for v in M.box.vertices())
        good = good and bool(split.iso.validate()) and split.iso.is_invertible()
        ok = ok and good
        count += 1
    report(capsys, 6, ok and count == 500, f"{count} gapped two-row modules", t0)


def test_criterion_7_three_and_four_layers_2d(capsys):
    t0 = time.time()
    rng = random.Random(1007)
    ok = True
    for _ in range(30):
        V = rand_rect_decomp(rng, Q, 2, 4, hi=4)
        r = min3_rect(V)
        good = r.layer_count == 3
        bp, dp = r.meta["bprime"], r.meta["dprime"]
        m = len(bp)
        for i in range(m - 1):
            good = good and bp[i][0] < bp[i + 1][0] and dp[i + 1][0] < dp[i][0]
        good = good and all(x <= y for x, y in zip(bp[-1], dp[-1]))
        tilde = r.meta["chain"][2]
        for t, b, d in zip(tilde, bp, dp):
            good = good and all(x <= y for x, y in zip(t.b, b))
            good = good and all(x <= y for x, y in zip(b, t.d))
            good = good and all(x <= y for x, y in zip(t.d, d))
        good = good and local_dim(r.M) == 1
        ok = ok and good
    for _ in range(20):
        V = rand_module(rng, Q, GridBox((0, 0), (2, 2)), max_dim=1)
        r = gen4(V)
        good = r.layer_count == 4 and local_dim(r.M) == 1
        W = restrict(r.M, r.line, source_box=V.box)
        good = good and iso_certificate(W, V, trials=20).isomorphic is True
        ok = ok and good
    report(capsys, 7, ok, "30 rectangle + 20 general 2D inputs", t0)


def test_criterion_8_split_oracle_equivalence(capsys):
    t0 = time.time()
    ok, count = True, 0
    for w, h in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]:
        box = GridBox((0, 0), (w - 1, h - 1))
        for M in enumerate_modules(F2, box, max_dim=1):
            if sum(M.dims.values()) == 0:
                continue
            v = try_split(M)
            oracle = decomposable_by_idempotents(M)
            good = v.status == ("DecomposableCertified" if oracle
                                else "IndecomposableCertified")
            ok = ok and good
            count += 1
    report(capsys, 8, ok and count > 0, f"{count} enumerated F_2 modules", t0)
