"""JSON serialization for modules, rectangle lists, line embeddings, and
candy modules.

Scalars travel as exact strings ("3/4") over the rationals and as residue
integers over prime fields, so files round-trip without precision loss.
"""

from __future__ import annotations

import json
from collections import Counter

from .constructions import CandyModule
from .fields import Field
from .grid import MAX_AXES, MAX_DIM, MAX_VERTICES, AxisEmbedding, GridBox, PersModule, vsucc
from .linalg import Matrix
from .rectangles import RectDecomp, Rectangle


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
    if not isinstance(x, list) or len(x) != n or any(type(a) is not int for a in x):
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
    """Every arrow between positive-dimension vertices is written, an
    omitted (zero) one as an explicit zero matrix, so the reader accepts it."""
    f = M.field
    dims = [M.dim(v) for v in M.box.vertices()]
    steps = []
    for v, k in sorted((v, k) for v, k, _ in M.arrows()):
        steps.append({
            "v": list(v),
            "axis": k,
            "matrix": [[f.fmt(x) for x in row] for row in M.step(v, k).rows],
        })
    return {
        "field": f.to_json(),
        "n": M.n,
        "lo": list(M.box.lo),
        "hi": list(M.box.hi),
        "dims": dims,
        "steps": steps,
    }


def pmod_from_json(obj: dict) -> PersModule:
    _require(obj, ("field", "n", "lo", "hi", "dims", "steps"), "PMOD")
    f = field_from_json(obj["field"])
    n = _axis_count(obj["n"])
    try:
        box = GridBox(_vector(obj["lo"], n, "lo"), _vector(obj["hi"], n, "hi"))
    except ValueError as e:
        raise FormatError(str(e))
    if not isinstance(obj["dims"], list) or len(obj["dims"]) != box.count:
        raise FormatError(f"dims must be a list of one entry for each of the {box.count} box vertices")
    dims = {}
    for v, d in zip(box.vertices(), obj["dims"]):
        if type(d) is not int or not 0 <= d <= MAX_DIM:
            raise FormatError(f"bad dimension {d!r} at {v}, want 0 to {MAX_DIM}")
        if d:
            dims[v] = d
    if not isinstance(obj["steps"], list):
        raise FormatError(f"steps must be a list, got {obj['steps']!r}")
    steps = {}
    for rec in obj["steps"]:
        _require(rec, ("v", "axis", "matrix"), "step record")
        v = _vector(rec["v"], n, "step vertex")
        k = rec["axis"]
        if type(k) is not int or not 0 <= k < n:
            raise FormatError(f"bad axis {k!r}")
        if not box.contains(v) or v[k] == box.hi[k]:
            raise FormatError(f"step at {v} axis {k} leaves the box")
        if (v, k) in steps:
            raise FormatError(f"step at {v} axis {k} is given twice")
        rows = rec["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise FormatError(f"step at {v} axis {k}: matrix must be a list of rows")
        try:
            m = Matrix(f, [[f.parse(x) for x in row] for row in rows])
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise FormatError(f"bad scalar or ragged rows in step at {v} axis {k}: {e}")
        # the constructor checks the shape of every step between two
        # positive-dimension vertices and drops the others, which must be empty
        dv, dw = dims.get(v, 0), dims.get(vsucc(v, k), 0)
        if not (dv and dw) and (m.nrows, m.ncols) != (dw, dv):
            raise FormatError(f"step at {v} axis {k} has shape {m.nrows}x{m.ncols}, expected {dw}x{dv}")
        steps[(v, k)] = m
    try:
        M = PersModule(f, box, dims, steps)
    except ValueError as e:
        raise FormatError(str(e))
    # steps between two positive-dimension vertices may not be omitted
    for v, k, _ in M.arrows():
        if (v, k) not in M.steps:
            raise FormatError(f"missing step at {v} axis {k}")
    rep = M.validate()
    if not rep:
        raise FormatError(f"module is not commutative: {rep.message}")
    return M


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
    try:
        if "lo" in obj and "hi" in obj:
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
    if not isinstance(maps, list):
        raise FormatError(f"axis_maps must be a list, got {maps!r}")
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
    out = {
        "module": pmod_to_json(C.module),
        "ul": list(C.ul),
        "lr": list(C.lr),
    }
    if C.line is not None:
        out["line"] = line_to_json(C.line)
    return out


def candy_from_json(obj: dict) -> CandyModule:
    _require(obj, ("module", "ul", "lr"), "candy")
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
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
