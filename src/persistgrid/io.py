"""JSON serialization for modules, rectangle lists, line embeddings, and
candy modules.

Scalars travel as exact strings ("3/4") over the rationals and as residue
integers over prime fields, so files round-trip without precision loss.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain

from .constructions import CandyModule
from .fields import Field
from .grid import (MAX_AXES, MAX_DIM, MAX_VERTICES, AxisEmbedding, GridBox, PersModule, check_squares, live_arrows,
                   vsucc)
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle

_INT, _LIST, _SCALAR = {int}, {list}, {int, str}  # JSON types of integers, matrix rows, scalars


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def _require(obj, keys, what):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {obj!r}")
    for k in keys:
        if k not in obj:
            raise FormatError(f"{what} is missing the field {k!r}")


def _vector(x, n: int, what: str) -> tuple:
    """A list of n integers (JSON booleans excluded) as a tuple."""
    if not isinstance(x, list) or len(x) != n or not _INT.issuperset(map(type, x)):
        raise FormatError(f"{what} must be a list of {n} integers, got {x!r}")
    return tuple(x)


def _axis_count(n) -> int:
    if type(n) is not int or not 1 <= n <= MAX_AXES:
        raise FormatError(f"bad axis count n={n!r}, want 1 to {MAX_AXES}")
    return n


def _check_int(x, what: str) -> None:
    """JSON booleans and floats are not integers here."""
    if type(x) is not int:
        raise FormatError(f"{what} must be an integer, got {x!r}")


def field_from_json(tag) -> Field:
    try:
        return Field.from_json(tag)
    except (ValueError, TypeError, AttributeError) as e:
        raise FormatError(str(e))


# ---------------------------------------------------------------------------
# PMOD


def pmod_to_json(M: PersModule) -> dict:
    """A version-2 PMOD, a function of the module's content alone: `dims`
    lists [v..., d] per live vertex, increasing; `matrices` each distinct
    step once, by first use; `steps` its index per arrow of live_arrows(dims)."""
    f, steps, dims = M.field, M.steps, dict(sorted(M.dims.items()))
    table, seen, index = {}, {}, []  # formatted rows -> position; id(m) -> (m, position)
    for v, k, w in live_arrows(dims, M.n):
        m = steps.get((v, k)) or Matrix.zero(f, dims[w], dims[v])
        if (hit := seen.get(id(m))) is None:  # holding m keeps its id from being reused
            hit = seen[id(m)] = (m, table.setdefault(tuple(tuple(map(f.fmt, row)) for row in m.rows), len(table)))
        index.append(hit[1])
    return {"version": 2, "field": f.to_json(), "n": M.n, "lo": list(M.box.lo), "hi": list(M.box.hi),
            "dims": [[*v, d] for v, d in dims.items()], "matrices": [list(map(list, rows)) for rows in table],
            "steps": index}


def pmod_from_json(obj: dict) -> PersModule:
    """The module a PMOD describes, each fact of the file checked once.  A
    file without `version` is the older form, which _pmod_v1 maps onto the
    table and arrow order of version 2."""
    _require(obj, ("field", "n", "lo", "hi", "dims", "steps"), "PMOD")
    if type(version := obj.get("version", 1)) is not int or version not in (1, 2):
        raise FormatError(f"unknown PMOD version {version!r}, want 1 or 2")
    f = field_from_json(obj["field"])
    n = _axis_count(obj["n"])
    try:
        box = GridBox(_vector(obj["lo"], n, "lo"), _vector(obj["hi"], n, "hi"))
    except ValueError as e:
        raise FormatError(str(e))
    return (_pmod_v2 if version == 2 else _pmod_v1)(obj, f, box)


def _pmod_v2(obj: dict, f: Field, box: GridBox) -> PersModule:
    _require(obj, ("matrices",), "PMOD")
    n, recs, table, index = box.n, obj["dims"], obj["matrices"], obj["steps"]
    if not (isinstance(recs, list) and _LIST.issuperset(map(type, recs)) and {n + 1}.issuperset(map(len, recs))
            and _INT.issuperset(map(type, chain.from_iterable(recs)))):
        raise FormatError(f"dims must be a list of [v..., d] records of {n + 1} integers")
    verts, ds = [tuple(r[:n]) for r in recs], [r[n] for r in recs]
    if recs and not (verts == sorted(set(verts)) and 1 <= min(ds) and max(ds) <= MAX_DIM
                     and all(a <= min(c) and max(c) <= b for a, b, c in zip(box.lo, box.hi, zip(*verts)))):
        j = next(j for j, v in enumerate(verts) if j and verts[j - 1] >= v or not box.contains(v)
                 or not 1 <= ds[j] <= MAX_DIM)
        raise FormatError(f"bad dims record {recs[j]}: want vertices of the box in increasing order, "
                          f"each of dimension 1 to {MAX_DIM}")
    if not (isinstance(table, list) and isinstance(index, list) and _INT.issuperset(map(type, index))):
        raise FormatError("matrices must be a list, and steps a list of integer indices into it")
    dims = dict(zip(verts, ds))
    arrows = list(live_arrows(dims, n))
    if len(index) != len(arrows):
        raise FormatError(f"steps gives {len(index)} indices for the {len(arrows)} arrows between live vertices")
    if bad := set(index) ^ set(range(len(table))):
        raise FormatError(f"index {min(bad)} is out of range or unused: steps must use each of the "
                          f"{len(table)} matrices and no other index")
    return _assemble(f, box, dims, arrows, table, index)


def _pmod_v1(obj: dict, f: Field, box: GridBox) -> PersModule:
    """One dimension per box vertex and one record {v, axis, matrix} per step.
    Equal records between live vertices share a table entry; one touching a
    zero-dimensional vertex is checked and dropped."""
    n = box.n
    if not isinstance(obj["dims"], list) or len(obj["dims"]) != box.count:
        raise FormatError(f"dims must be a list of one entry for each of the {box.count} box vertices")
    if not _INT.issuperset(map(type, obj["dims"])) or min(obj["dims"]) < 0 or max(obj["dims"]) > MAX_DIM:
        for v, d in zip(box.vertices(), obj["dims"]):
            if type(d) is not int or not 0 <= d <= MAX_DIM:
                raise FormatError(f"bad dimension {d!r} at {v}, want 0 to {MAX_DIM}")
    dims = {v: d for v, d in zip(box.vertices(), obj["dims"]) if d}
    if not isinstance(obj["steps"], list):
        raise FormatError(f"steps must be a list, got {obj['steps']!r}")
    at, table, position = {}, [], {}  # (v, k) -> table index, None for a dropped record
    for rec in obj["steps"]:
        _require(rec, ("v", "axis", "matrix"), "step record")
        v, k, rows = _vector(rec["v"], n, "step vertex"), rec["axis"], rec["matrix"]
        if type(k) is not int or not 0 <= k < n:
            raise FormatError(f"bad axis {k!r}")
        dv, dw = dims.get(v, 0), dims.get(vsucc(v, k), 0)
        if not (dv or box.contains(v)) or v[k] == box.hi[k]:
            raise FormatError(f"step at {v} axis {k} leaves the box")
        if (v, k) in at:
            raise FormatError(f"step at {v} axis {k} is given twice")
        if dv and dw:
            # only rows of int and str scalars key the table safely: True == 1.0 == 1
            flat = (isinstance(rows, list) and _LIST.issuperset(map(type, rows))
                    and _SCALAR.issuperset(map(type, chain.from_iterable(rows))))
            at[(v, k)] = position.setdefault(tuple(map(tuple, rows)) if flat else object(), len(table))
            if at[(v, k)] == len(table):
                table.append(rows)
            continue
        m, at[(v, k)] = _matrix(f, rows, v, k), None
        # [] is the one spelling of the zero map into a zero-dimensional head
        if (m.nrows, m.ncols) != (dw, dv) and (dw or rows):
            raise FormatError(f"step at {v} axis {k} has shape {m.nrows}x{m.ncols}, expected {dw}x{dv}")
    arrows = list(live_arrows(dims, n))
    if (gap := next(((v, k) for v, k, _ in arrows if (v, k) not in at), None)) is not None:
        raise FormatError(f"missing step at {gap[0]} axis {gap[1]}")
    return _assemble(f, box, dims, arrows, table, [at[v, k] for v, k, _ in arrows])


def _matrix(f: Field, rows, v: tuple, k: int) -> Matrix:
    if not isinstance(rows, list) or not _LIST.issuperset(map(type, rows)):
        raise FormatError(f"step at {v} axis {k}: matrix must be a list of rows")
    try:
        return Matrix(f, [[f.parse(x) for x in row] for row in rows])
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise FormatError(f"bad scalar or ragged rows in step at {v} axis {k}: {e}")


def _assemble(f: Field, box: GridBox, dims: dict, arrows: list, table: list, index: list) -> PersModule:
    """The module whose step on arrows[j] is table[index[j]], read in one
    walk over the arrows: each entry parsed at its first arrow into one
    shared Matrix, each shape checked, and each vertex's steps and its
    successors' steps recorded for grid.check_squares, the square check of
    PersModule.validate, which runs last."""
    n, mats, steps = box.n, {}, {}
    out, succ = {v: [None] * n for v in dims}, {v: [None] * n for v in dims}
    for (v, k, w), i in zip(arrows, index):
        if (m := mats.get(i)) is None:
            m = mats[i] = _matrix(f, table[i], v, k)
        if m.nrows != dims[w] or m.ncols != dims[v]:
            raise FormatError(f"step at {v} axis {k} has shape {m.nrows}x{m.ncols}, expected {dims[w]}x{dims[v]}")
        steps[(v, k)] = out[v][k] = m
        succ[v][k] = out[w]
    if not (rep := check_squares(out, succ.values(), mats.values(), n)):
        raise FormatError(f"module is not commutative: {rep.message}")
    return PersModule(f, box, dims, steps)


# ---------------------------------------------------------------------------
# RECTS


def barcode_to_json(field: Field, bc: Counter) -> dict:
    n = len(next(iter(bc))[0]) if bc else 1
    return {
        "field": field.to_json(),
        "n": n,
        "rects": [
            {"b": list(b), "d": list(d), "mult": m}
            for (b, d), m in sorted(bc.items())
        ],
    }


def rects_to_json(R: RectDecomp) -> dict:
    return {**barcode_to_json(R.field, R.barcode()), "n": R.n, "lo": list(R.box.lo), "hi": list(R.box.hi)}


def rects_from_json(obj: dict) -> RectDecomp:
    _require(obj, ("field", "n", "rects"), "RECTS")
    f = field_from_json(obj["field"])
    n = _axis_count(obj["n"])
    if not isinstance(obj["rects"], list) or not obj["rects"]:
        raise FormatError(f"rects must be a nonempty list, got {obj['rects']!r}")
    rects = []
    for rec in obj["rects"]:
        _require(rec, ("b", "d"), "rectangle record")
        b, d = _vector(rec["b"], n, "rectangle corner b"), _vector(rec["d"], n, "rectangle corner d")
        mult = rec.get("mult", 1)
        if type(mult) is not int or mult < 1:
            raise FormatError(f"bad multiplicity {mult!r}")
        if len(rects) + mult > MAX_VERTICES:
            raise FormatError(f"more than {MAX_VERTICES} rectangles in total")
        try:
            rects.extend([Rectangle(b, d)] * mult)
        except ValueError as e:
            raise FormatError(str(e))
    if ("lo" in obj) != ("hi" in obj):
        raise FormatError("RECTS gives one of the box corners lo, hi without the other")
    try:
        if "lo" in obj:
            box = GridBox(_vector(obj["lo"], n, "lo"), _vector(obj["hi"], n, "hi"))
        else:
            box = GridBox(
                tuple(min(r.b[k] for r in rects) for k in range(n)),
                tuple(max(r.d[k] for r in rects) for k in range(n)),
            )
        return RectDecomp(f, box, rects)
    except ValueError as e:
        raise FormatError(str(e))


# ---------------------------------------------------------------------------
# LINE and candy


def line_to_json(L: AxisEmbedding) -> dict:
    maps = []
    for am in L.axis_maps:
        if am[0] == "affine":
            maps.append({"scale": am[1], "offset": am[2]})
        else:
            maps.append({"table": am[2], "start": am[1]})
    return {"axis_maps": maps, "insert_axis": {"pos": L.insert_pos, "value": L.insert_value}}


def line_from_json(obj: dict) -> AxisEmbedding:
    _require(obj, ("axis_maps", "insert_axis"), "LINE")
    maps, ins = obj["axis_maps"], obj["insert_axis"]
    if not isinstance(maps, list) or not maps:
        raise FormatError(f"axis_maps must be a nonempty list, got {maps!r}")
    for am in maps:
        affine = isinstance(am, dict) and "scale" in am
        _require(am, ("scale", "offset") if affine else ("table",), "axis map")
        for key in ("scale", "offset") if affine else ("start",):
            _check_int(am.get(key, 0), key)
        if not affine and (not isinstance(am["table"], list) or any(type(x) is not int for x in am["table"])):
            raise FormatError(f"table must be a list of integers, got {am['table']!r}")
    _require(ins, ("pos", "value"), "insert_axis")
    for key in ("pos", "value"):
        _check_int(ins[key], key)
    try:
        return AxisEmbedding([("affine", am["scale"], am["offset"]) if "scale" in am
                              else ("table", am.get("start", 0), am["table"]) for am in maps],
                             ins["pos"], ins["value"])
    except ValueError as e:
        raise FormatError(f"bad line embedding: {e}")


def candy_to_json(C: CandyModule) -> dict:
    out = {"module": pmod_to_json(C.module), "ul": list(C.ul), "lr": list(C.lr)}
    return out if C.line is None else {**out, "line": line_to_json(C.line)}


def candy_from_json(obj: dict) -> CandyModule:
    _require(obj, ("module", "ul", "lr"), "candy")
    if not isinstance(obj["module"], dict):
        raise FormatError(f"a candy's module must be a JSON object, got {obj['module']!r}")
    M = pmod_from_json(obj["module"])
    ul, lr = _vector(obj["ul"], M.n, "ul"), _vector(obj["lr"], M.n, "lr")
    line = line_from_json(obj["line"]) if "line" in obj else None
    return CandyModule(M, ul, lr, line)


# ---------------------------------------------------------------------------
# files


def load(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}")
    except (ValueError, RecursionError) as e:  # bad syntax, over-long ints, deep nesting
        raise FormatError(f"{path} is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return obj


def dump(obj: dict, path: str) -> None:
    """Write obj as one line of sorted-key JSON (`indent` would force json's pure-Python encoder)."""
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e}")
