"""The benchmark's per-layer tracer (bench/tracing.py) wraps package
functions by name.  Installing its call counter must find every name it
wraps, count one split trial per `verify._try_element` call, and
uninstalling must restore the originals."""

import importlib.util
import os
import random

import persistgrid.cli  # every layer the tracer looks up
from persistgrid import Field, io, min3
from persistgrid.cli import main
from persistgrid.homspace import Context
from persistgrid.sampling import rand_rect_decomp

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_call_counter_wraps_and_restores():
    tracing = load_tracing()
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
    tracing = load_tracing()
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
