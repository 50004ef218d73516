"""The benchmark's per-layer tracer (bench/tracing.py) wraps package
functions by name.  Installing its call counter must find every name it
wraps, count one split trial per `verify._try_element` call, and
uninstalling must restore the originals.  One round of each benchmark
workload must pass its checks under both of its wrappers."""

import importlib.util
import os
import random

import persistgrid.cli  # every layer the tracer looks up
from persistgrid import Field, io, min3
from persistgrid.cli import main
from persistgrid.homspace import Context
from persistgrid.sampling import rand_rect_decomp

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_call_counter_wraps_and_restores():
    tracing = load_bench("tracing")
    verify = persistgrid.verify
    originals = {"try_element": verify._try_element, "hom": Context.__dict__["hom"],
                 **{op: Field.__dict__[op] for op in tracing.FIELD_OPS}}
    # min3 output with a local End(M) of dimension 2: its first draw
    # certifies it
    M = min3(rand_rect_decomp(random.Random(24), Field.prime(1009), 1, 5, hi=4)).M
    counter = tracing.CallCounter()
    counter.install()
    try:
        assert verify._try_element is not originals["try_element"]
        assert Context.__dict__["hom"] is not originals["hom"]
        assert all(Field.__dict__[op] is not originals[op] for op in tracing.FIELD_OPS)
        counter.current_item = 0
        v = verify.try_split(M, seed=7, trials=24)
        counter.current_item = -1
    finally:
        counter.uninstall()
    assert v.status == "IndecomposableCertified" and v.end_dim == 2
    assert counter.metrics()["verify.split_trials"] == 1
    assert counter.counts["verify.try_split.calls"] == 1
    assert verify._try_element is originals["try_element"]
    assert Context.__dict__["hom"] is originals["hom"]
    assert all(Field.__dict__[op] is originals[op] for op in tracing.FIELD_OPS)


# io calls of one run of each verb: (load, pmod_from_json, rects_from_json,
# candy_from_json, dump); a candy's module is read by pmod_from_json
IO_NAMES = ("load", "pmod_from_json", "rects_from_json", "candy_from_json", "dump")
VERB_IO = {
    "construct": (1, 0, 1, 0, 2),
    "restrict": (2, 1, 0, 0, 1),
    "barcode": (1, 1, 0, 0, 0),
    "verify": (1, 1, 0, 1, 0),
    "hom": (2, 2, 0, 0, 0),
    "concat": (2, 2, 0, 2, 1),
    "string": (2, 1, 0, 0, 1),
}


def test_call_counter_sees_every_cli_read_and_write(tmp_path, capsys):
    """The CLI looks io's readers and writers up at each call, so the
    tracer's wrappers on io count every file each verb reads and writes."""
    tracing = load_bench("tracing")
    f = Field.prime(1009)
    V = rand_rect_decomp(random.Random(5), f, 1, 2, hi=2)
    rects, mod, line, out, candy, manifest = (
        str(tmp_path / f"{name}.json") for name in ("rects", "mod", "line", "out", "candy", "list"))
    io.dump(io.rects_to_json(V), rects)
    io.dump({"modules": ["mod.json"]}, manifest)
    argvs = {
        "construct": ["construct", "--method", "min3", "--in", rects, "--out", mod, "--line-out", line],
        "restrict": ["restrict", "--in", mod, "--line", line, "--out", out],
        "barcode": ["barcode", "--in", out],
        "verify": ["verify", "candy", "--in", candy],
        "hom": ["hom", "--a", mod, "--b", mod],
        "concat": ["concat", "--a", candy, "--b", candy, "--out", out],
        "string": ["string", "--list", manifest, "--out", out],
    }
    counter = tracing.CallCounter()
    counter.install()
    try:
        for verb, argv in argvs.items():
            if verb == "verify":  # a candy to read, made outside the count
                assert main(["construct", "--method", "candy", "--in", out, "--out", candy, "--field", "Fp:1009"]) == 0
            counter.counts.clear()
            counter.current_item = 0
            assert main(argv + ["--field", "Fp:1009"]) == 0, verb
            counter.current_item = -1
            got = tuple(counter.counts[f"io.{name}.calls"] for name in IO_NAMES)
            assert got == VERB_IO[verb], verb
    finally:
        counter.uninstall()
    capsys.readouterr()
    assert not any(hasattr(getattr(io, name), "__wrapped__") for name in IO_NAMES)


def test_every_workload_runs_under_both_tracers(tmp_path, monkeypatch):
    """The benchmark's traced run fails before it measures anything when a
    traced name cannot be resolved or has no reference to wrap, when an
    extra counter cannot read its call's arguments or result, or when a
    function the run expects on a workload records no call.  One round of
    each workload, every item run once under each tracer as bench/run.py
    runs it, shows none of these happens."""
    monkeypatch.syspath_prepend(BENCH)  # run.py imports speed beside it
    run, workloads, tracing = (load_bench(name) for name in ("run", "workloads", "tracing"))
    for name, expected in run.EXPECTED.items():
        items = workloads.build(name, str(tmp_path / name), 1, 1)
        spans, counter = tracing.SpanTracer(), tracing.CallCounter()
        for probe in (spans, counter):
            tally = run.Tally()
            probe.install()
            try:
                for item in items:
                    run.run_item(item, persistgrid.cli.main, tally, probe)
            finally:
                probe.uninstall()
            assert tally.attempted == len(items) and tally.failures == [], (name, type(probe).__name__)
        per_fn = spans.per_function()
        assert [n for n in expected if not per_fn[n][0]] == [], name
        assert [n for n in expected if not counter.counts[n + ".calls"]] == [], name
        assert set(counter.metrics()) == set(tracing.EXTRA_COUNTS)
