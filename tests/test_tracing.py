"""The benchmark's per-layer tracer (bench/tracing.py) wraps package
functions by name.  Installing its call counter must find every name it
wraps, count one split trial per `verify._try_element` call, and
uninstalling must restore the originals."""

import importlib.util
import os
import random

import persistgrid.cli  # every layer the tracer looks up
from persistgrid import Field, min3
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
    # min3 output with a local End(M) of dimension 2: no trial splits it
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
    assert counter.metrics()["verify.split_trials"] == 24
    assert counter.counts["verify.try_split.calls"] == 1
    assert verify._try_element is originals["try_element"]
    assert Context.__dict__["hom"] is originals["hom"]
    assert all(Field.__dict__[op] is originals[op] for op in tracing.FIELD_OPS)
