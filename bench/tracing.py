"""Per-layer tracing of persistgrid from outside the library.

The layers are the package modules.  Each traced public function is
replaced, at every place the package holds a reference to it (module
globals, method tables such as `cli.RECT_METHODS`, class attributes), by a
wrapper.  The library source is never edited.

Two wrapper kinds, used in separate passes over the same items:

* `SpanTracer` records one span per call: name, start, end, parent span and
  item id, kept in flat arrays in memory and written out at the end.  Self
  time is a span's duration minus the time its child spans cover.
* `CallCounter` only counts: calls of the traced functions, every scalar
  operation of `fields.Field`, and the extra layer counters (bytes through
  io, rref cells, sparse nonzeros, hom-cache lookups, split trials).  Kept
  apart so that counting every scalar operation does not inflate span times.

Wrappers are installed only in the traced run and removed afterwards.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

# layer -> [(attribute path inside persistgrid.<layer>, metric name)]
TRACED = {
    "cli": [("main", "main")],
    "io": [("load", "load"), ("dump", "dump"), ("pmod_from_json", "pmod_from_json"),
           ("pmod_to_json", "pmod_to_json"), ("rects_from_json", "rects_from_json"),
           ("candy_from_json", "candy_from_json")],
    "grid": [("PersModule.validate", "validate"), ("restrict", "restrict"),
             ("PersModule.composite", "composite"), ("slice_layers", "slice_layers"),
             ("stack", "stack"), ("ModMorphism.validate", "morphism_validate")],
    "linalg": [("Matrix.rref", "rref"), ("Matrix.__matmul__", "matmul"),
               ("nullspace_sparse", "nullspace_sparse"),
               ("minimal_polynomial", "minimal_polynomial"), ("coprime_split", "coprime_split")],
    "rectangles": [("barcode_1d", "barcode_1d"), ("interval_decompose_1d", "interval_decompose_1d"),
                   ("realize", "realize"), ("rect_to_module", "rect_to_module")],
    "covers": [("projective_cover", "projective_cover")],
    "homspace": [("HomSpace._build", "build"), ("Context.express", "express"),
                 ("Context.compose", "compose"), ("Context.materialize", "materialize")],
    "verify": [("try_split", "try_split"), ("iso_certificate", "iso_certificate"),
               ("check_candy", "check_candy"), ("hom_basis", "hom_basis")],
    "constructions": [("build_S_prime", "build_S_prime"),
                      ("build_S_dprime", "build_S_dprime"), ("min3", "min3"),
                      ("min3_rect", "min3_rect"), ("gen4", "gen4"), ("candy_wrap", "candy_wrap"),
                      ("concat", "concat"), ("string_candies", "string_candies")],
}
# Not traced, because no workload calls them and they would read 0 on every
# run: covers.injective_envelope (no CLI path calls it; build_S_dprime
# dualizes a projective cover instead); verify.local_dim, verify.end_algebra
# and HomSpace.coords_in_basis (Q certification only); constructions.build_S
# (the s4 method).

TRACED_NAMES = [f"{layer}.{name}" for layer, fns in TRACED.items() for _, name in fns]
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")
# extra layer counters and their units
EXTRA_COUNTS = {"io.bytes_read": "B", "io.bytes_written": "B", "linalg.rref.cells": "count",
                "linalg.nullspace_sparse.nnz": "count", "fields.ops": "count",
                "fields.inv.calls": "count", "homspace.hom_lookups": "count",
                "homspace.hom_builds": "count", "homspace.cache_hit_ratio": "1",
                "verify.split_trials": "count", "verify.split_yield": "1"}


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "persistgrid" or k.startswith("persistgrid."))]


class _Patches:
    """Replaces one object by another at every site in the package."""

    def __init__(self):
        self._undo = []

    def function(self, orig, new) -> int:
        sites = 0
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((vars(mod), key, mod, orig))
                    setattr(mod, key, new)
                    sites += 1
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dk, dv in list(val.items()):
                        if dv is orig:
                            self._undo.append((val, dk, None, orig))
                            val[dk] = new
                            sites += 1
        return sites

    def attribute(self, cls, name, new):
        self._undo.append((None, name, cls, cls.__dict__[name]))
        setattr(cls, name, new)

    def undo(self):
        for table, key, owner, orig in reversed(self._undo):
            if owner is not None:
                setattr(owner, key, orig)
            else:
                table[key] = orig
        self._undo.clear()


def _resolve(layer: str, path: str):
    mod = sys.modules[f"persistgrid.{layer}"]
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return None, path, getattr(mod, path)


def _install(patches: _Patches, make_wrapper):
    """Wrap every traced function; make_wrapper(name, fn) -> wrapper."""
    for layer, fns in TRACED.items():
        for path, short in fns:
            cls, attr, orig = _resolve(layer, path)
            wrapper = make_wrapper(f"{layer}.{short}", orig)
            if cls is not None:
                patches.attribute(cls, attr, wrapper)
            elif patches.function(orig, wrapper) == 0:
                raise RuntimeError(f"no reference to {layer}.{path} found to wrap")


class SpanTracer:
    """Records a span around every call of a traced function."""

    def __init__(self):
        self.names = list(TRACED_NAMES)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1  # spans are recorded only while an item runs
        self._stack = []
        self._patches = _Patches()

    def install(self):
        _install(self._patches, self._wrap)

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, name, fn):
        nid = self.name_id[name]
        names, starts, ends, parents, items = self.name, self.start, self.end, self.parent, self.item
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            item = self.current_item
            if item < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def per_function(self) -> dict:
        """{name: (calls, self seconds)} over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += (self.end[i] - self.start[i]) - child[i]
        return {nm: (calls[k], self_s[k]) for k, nm in enumerate(self.names)}

    def inside(self, prefixes) -> float:
        """Seconds spent inside any traced function whose name starts with
        one of the prefixes, counting nested calls once."""
        n = len(self.start)
        match = [any(self.names[k].startswith(p) for p in prefixes) for k in range(len(self.names))]
        covered = [False] * n  # some ancestor matches
        total = 0.0
        for i in range(n):
            p = self.parent[i]
            covered[i] = p >= 0 and (covered[p] or match[self.name[p]])
            if match[self.name[i]] and not covered[i]:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str):
        """One JSON header line, then the raw arrays in header order."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["item", "i"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.item):
                arr.tofile(fh)


class CallCounter:
    """Counts calls, scalar operations and the extra layer counters."""

    def __init__(self):
        self.counts = Counter()
        self.current_item = -1  # counts only while an item runs
        self._patches = _Patches()
        self._builds = 0

    def install(self):
        c = self.counts
        _install(self._patches, self._wrap)
        from persistgrid.fields import Field
        for op in FIELD_OPS:
            self._patches.attribute(Field, op, self._count_op(op, Field.__dict__[op]))
        verify = sys.modules["persistgrid.verify"]
        try_element = verify._try_element

        def trial(*args, **kwargs):
            if self.current_item >= 0:
                c["verify.split_trials"] += 1
            return try_element(*args, **kwargs)

        self._patches.function(try_element, trial)
        from persistgrid.homspace import Context
        hom = Context.__dict__["hom"]

        def lookup(ctx, M, N):
            if self.current_item < 0:
                return hom(ctx, M, N)
            before = self._builds
            out = hom(ctx, M, N)
            c["homspace.hom_lookups"] += 1
            c["homspace.cache_hits"] += self._builds == before
            return out

        self._patches.attribute(Context, "hom", lookup)

    def uninstall(self):
        self._patches.undo()

    def _count_op(self, op, fn):
        c = self.counts
        key = "fields.inv.calls" if op == "inv" else None

        def counted(*args):
            if self.current_item >= 0:
                c["fields.ops"] += 1
                if key:
                    c[key] += 1
            return fn(*args)

        return counted

    def _wrap(self, name, fn):
        c = self.counts
        calls = name + ".calls"
        extra = _EXTRA.get(name)

        def counted(*args, **kwargs):
            if self.current_item < 0:
                return fn(*args, **kwargs)
            c[calls] += 1
            if name == "homspace.build":
                self._builds += 1
            out = fn(*args, **kwargs)
            if extra is not None:
                extra(c, args, out)
            return out

        counted.__wrapped__ = fn
        return counted

    def metrics(self) -> dict:
        c = self.counts
        out = {k: c[k] for k in ("io.bytes_read", "io.bytes_written", "linalg.rref.cells",
                                 "linalg.nullspace_sparse.nnz", "fields.ops", "fields.inv.calls",
                                 "homspace.hom_lookups", "verify.split_trials")}
        out["homspace.hom_builds"] = c["homspace.build.calls"]
        out["homspace.cache_hit_ratio"] = c["homspace.cache_hits"] / c["homspace.hom_lookups"] if c["homspace.hom_lookups"] else 0.0
        out["verify.split_yield"] = c["verify.decomposable"] / c["verify.split_trials"] if c["verify.split_trials"] else 0.0
        return out


def _bytes_read(c, args, out):
    c["io.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(c, args, out):
    c["io.bytes_written"] += os.path.getsize(args[1])


def _rref_cells(c, args, out):
    c["linalg.rref.cells"] += args[0].nrows * args[0].ncols


def _nnz(c, args, out):
    c["linalg.nullspace_sparse.nnz"] += sum(1 for row in args[0] for v in row.values() if v != 0)


def _verdict(c, args, out):
    c["verify.decomposable"] += out.status == "DecomposableCertified"


_EXTRA = {"io.load": _bytes_read, "io.dump": _bytes_written, "linalg.rref": _rref_cells,
          "linalg.nullspace_sparse": _nnz, "verify.try_split": _verdict}
