#!/usr/bin/env python3
"""persistgrid benchmark: one workload per process, driven through the CLI.

    python3 bench/run.py --workload certify_fp --seed 1 --seconds 45 --trace 0

One caller in one thread calls `persistgrid.cli.main(argv)` in-process, in a
closed loop: each call waits for the previous one.  Inputs are generated
from the seed during set-up and written as JSON files under `.bench_work/`;
the timed part only calls the CLI.  Every item's outputs are checked
exactly, outside the timed region.

--trace 0 times every item once, scaled to a reference machine speed (see
speed.py), and prints the end-to-end metrics.  --trace 1 generates a third
as many items, runs each untraced and then with a span on every traced
library function, then once more counting calls and scalar operations, and
prints the per-layer metrics.  The last line of stdout is one JSON object;
the lines before it and the report in `.bench_out/` give the details.  The exit code is 0 when
every output check passed, 1 when one failed, 2 when the benchmark cannot
run at all.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REPORTS = os.path.join(ROOT, ".bench_out")

# generator rounds per second of --seconds: one timed pass over the items
# takes about --seconds on a 2-core x86 VM with Python 3.11 when the host
# is busy.  A traced run runs each item three times, so it makes a third
# of the rounds.
RATE = {"certify_fp": 2.67, "candy": 1.8}
TRACE_DIVISOR = 3
WARMUP = 4  # items run once, untimed, before the timed pass
SETUP_REPEATS = 3
SETUP_SAMPLES = 5  # speed kernel runs before and after each set-up

# wrappers that must record calls on a workload, or the traced run fails:
# a zero here means a wrapper missed an import site or the workload lost
# the role it was chosen for
EXPECTED = {
    "certify_fp": ["cli.main", "verify.try_split", "verify.iso_certificate", "verify.hom_basis",
                   "homspace.build", "linalg.coprime_split", "constructions.min3",
                   "constructions.min3_rect", "constructions.gen4", "covers.projective_cover",
                   "rectangles.barcode_1d", "grid.restrict"],
    "candy": ["cli.main", "constructions.candy_wrap", "constructions.build_S_prime",
              "constructions.build_S_dprime", "constructions.concat",
              "constructions.string_candies", "verify.check_candy", "homspace.build",
              "grid.slice_layers", "rectangles.interval_decompose_1d", "io.candy_from_json"],
}

# shares of traced item time reported for every workload: each layer, and
# the functions the workloads were chosen for
SHARES = {"io": ["io."], "grid": ["grid."], "linalg": ["linalg."], "rectangles": ["rectangles."],
          "covers": ["covers."], "homspace": ["homspace."], "verify": ["verify."],
          "constructions": ["constructions."], "verify.try_split": ["verify.try_split"],
          "homspace.build": ["homspace.build"], "io.pmod_from_json": ["io.pmod_from_json"]}
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, start-up excluded."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import persistgrid, persistgrid.cli, persistgrid.sampling; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout)


def setup(workloads, name: str, seed: int, rounds: int, work: str):
    """Set up SETUP_REPEATS times; returns the items and the median set-up
    seconds (import + seeded generation + writing the input files) at the
    reference speed, from speed kernel samples before and after each."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        cal = [speed.sample() for _ in range(SETUP_SAMPLES)]
        t_import = import_seconds()
        t0 = time.perf_counter()
        items = workloads.build(name, work, seed, rounds)
        dt = t_import + time.perf_counter() - t0
        cal += [speed.sample() for _ in range(SETUP_SAMPLES)]
        times.append(dt * speed.factor(cal))
    return items, statistics.median(times)


def input_digest(work: str) -> str:
    h = hashlib.sha256()
    inputs = os.path.join(work, "in")
    for fn in sorted(os.listdir(inputs)):
        h.update(fn.encode())
        with open(os.path.join(inputs, fn), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Tally:
    """What the items of one run did."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.inconclusive = 0
        self.failures = []
        self.digests = {}  # item id -> {output digest: passed its check}
        self.kind_s = Counter()  # timed seconds per item kind
        self.cpu_s = 0.0
        self.item_ms = {}  # item id -> latencies in ms


def run_item(item, main, tally: Tally, probe=None) -> float:
    """Run one item, check it, and return its latency in seconds.  A probe
    (span tracer or counter) records only while its current_item is set."""
    codes, outs = [], []
    err = None
    sink = io.StringIO()
    if probe is not None:
        probe.current_item = item.id
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for argv, allowed, _ in item.steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
                code = main(argv)
            codes.append(code)
            outs.append(buf.getvalue())
            if code not in allowed:
                err = f"{argv[0]} exited {code}: {sink.getvalue().strip()[-200:]}"
                break
    except (Exception, SystemExit):
        err = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    dt = time.perf_counter() - t0
    tally.cpu_s += time.process_time() - c0
    if probe is not None:
        probe.current_item = -1
    tally.attempted += 1
    for (_, _, is_verdict), code in zip(item.steps, codes):
        if is_verdict:
            tally.verdicts += 1
            tally.inconclusive += code == 3
    h = hashlib.sha256(repr(codes).encode())
    for text in outs:
        h.update(text.encode())
    for path in item.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    digest = h.hexdigest()
    seen = tally.digests.setdefault(item.id, {})
    # the check is a function of the outputs hashed here, so outputs that
    # already passed need no second check
    if err is None and not seen.get(digest):
        try:
            err = item.check(codes, outs)
        except Exception:
            err = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    seen[digest] = err is None
    if err is not None:
        tally.failed += 1
        tally.failures.append(f"item {item.id} ({item.kind}): {err}")
    tally.latencies.append(dt)
    tally.kind_s[item.kind] += dt
    tally.item_ms.setdefault(item.id, []).append(round(dt * 1e3, 3))
    return dt


def run_timed(items, main, tally: Tally):
    """Runs WARMUP items untimed, then every item once, timed; returns
    each item's latency at the reference speed, its measured latency, and
    the median scale factor of the run.

    The speed kernel runs between items.  An item's latency is scaled by
    the kernel's median time over the four samples around it (see
    speed.py).
    """
    for item in items[:WARMUP]:
        run_item(item, main, tally)
    cal = [speed.sample()]
    raw = []
    for item in items:
        raw.append(run_item(item, main, tally))
        cal.append(speed.sample())
    factors = [speed.factor(cal[max(0, k - 1):k + 3]) for k in range(len(raw))]
    return [dt * f for dt, f in zip(raw, factors)], raw, statistics.median(factors)


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least ten
    items beyond it (the maximum when there are fewer than ten items)."""
    xs = sorted(latencies)
    n = len(xs)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, xs[math.ceil(n * q / 100.0) - 1]  # nearest rank
    return 100.0, xs[-1]


def compare_digests(path: str, inputs: str, tally: Tally) -> dict:
    """Items whose output digest varied inside this run, or differs from
    the last run on the same inputs (reported, not gated)."""
    now = {str(k): sorted(v) for k, v in tally.digests.items()}
    within = sorted(int(k) for k, v in now.items() if len(v) > 1)
    across = None
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        if before.get("inputs") == inputs:
            across = sorted(int(k) for k, v in now.items() if set(before["items"].get(k, v)) != set(v))
    with open(path, "w") as fh:
        json.dump({"inputs": inputs, "items": now}, fh, sort_keys=True)
    return {"differ_within_run": within, "differ_from_previous_run": across}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "persistgrid", "cli.py")):
        fail(f"no persistgrid sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import workloads
        from persistgrid.cli import main as cli_main
    except ImportError as e:
        fail(f"cannot import persistgrid: {e}")

    rounds = max(1, round(RATE[args.workload] * args.seconds / (TRACE_DIVISOR if args.trace else 1)))
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(REPORTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds:g}"
    try:
        items, setup_s = setup(workloads, args.workload, args.seed, rounds, work)
        digest = input_digest(work)
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "items_per_pass": len(items), "input_sha256": digest,
                   "kinds": dict(sorted(Counter(it.kind for it in items).items()))}
        tally = Tally()
        if args.trace:
            metrics = traced_run(args, items, cli_main, tally, details, tag)
        else:
            lat, raw, scale = run_timed(items, cli_main, tally)
            q, tail_s = tail(lat)
            details.update(item_tail_percentile=q, items_timed=len(lat),
                           fail_ratio=tally.failed / tally.attempted,
                           inconclusive_ratio=tally.inconclusive / tally.verdicts if tally.verdicts else 0.0,
                           verdicts=tally.verdicts, inconclusive=tally.inconclusive,
                           timed_s=sum(tally.latencies), cpu_s=tally.cpu_s, speed_factor=scale,
                           unscaled={"items_per_s": len(raw) / sum(raw),
                                     "item_p50_ms": statistics.median(raw) * 1e3,
                                     "item_tail_ms": tail(raw)[1] * 1e3},
                           setup_s_process=time.perf_counter() - t_start)
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_s": (len(lat) / sum(lat), "items/s"),
                "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "item_tail_ms": (tail_s * 1e3, "ms"),
                "pass_ratio": (1.0 - tally.failed / tally.attempted, "1"),
                "conclusive_ratio": (1.0 - tally.inconclusive / tally.verdicts if tally.verdicts else 1.0, "1"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        details["determinism"] = compare_digests(os.path.join(REPORTS, f"{tag}.digests.json"), digest, tally)
        details["failures"] = tally.failures[:20]
        details["kind_s"] = dict(sorted(tally.kind_s.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"details": details, "metrics": {k: v[0] for k, v in metrics.items()},
              "items": {it.id: {"kind": it.kind, "ms": tally.item_ms.get(it.id)} for it in items}}
    with open(os.path.join(REPORTS, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for key in sorted(details):
        print(f"# {key}: {json.dumps(details[key])}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if tally.failed == 0 else 1


def traced_run(args, items, cli_main, tally: Tally, details: dict, tag: str) -> dict:
    """Each item runs untraced and then traced, back to back, so the pair
    sees the same machine state and their difference is the tracing
    overhead; then every item runs once more under the counter."""
    import tracing

    cli = sys.modules["persistgrid.cli"]
    spans = tracing.SpanTracer()
    untraced = traced = 0.0
    for item in items:
        untraced += run_item(item, cli_main, tally)
        spans.install()
        try:
            traced += run_item(item, cli.main, tally, spans)
        finally:
            spans.uninstall()
    spans.write(os.path.join(REPORTS, f"{tag}.spans.bin"))

    counter = tracing.CallCounter()
    counter.install()
    try:
        for item in items:
            run_item(item, cli.main, tally, counter)
    finally:
        counter.uninstall()

    per_fn = spans.per_function()
    metrics = {}
    for name in tracing.TRACED_NAMES:
        calls, self_s = per_fn[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, value in counter.metrics().items():
        metrics[name] = (value, tracing.EXTRA_COUNTS[name])

    zero = [n for n in EXPECTED[args.workload] if per_fn[n][0] == 0]
    repeat = {n: (per_fn[n][0], counter.counts[n + ".calls"]) for n in tracing.TRACED_NAMES}
    details.update(
        untraced_items_s=untraced, traced_items_s=traced, trace_overhead_s=traced - untraced,
        spans=len(spans.start),
        shares={k: spans.inside(p) / traced for k, p in SHARES.items()},
        calls_not_repeated={n: v for n, v in repeat.items() if v[0] != v[1]},
        calls_repeated_exactly=sorted(n for n, v in repeat.items() if v[0] == v[1] and v[0]),
    )
    if zero:
        tally.failed += 1
        tally.failures.append(f"traced calls: expected but zero {zero}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
