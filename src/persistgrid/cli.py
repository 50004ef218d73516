"""Command-line front end.

Verbs: construct, restrict, barcode, verify, hom, concat, string.
Exit codes: 0 success, 1 property violated, 2 malformed input,
3 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io
from .constructions import (build_S, build_S_dprime, build_S_prime, candy_wrap,
                            concat, gen4, min3, min3_rect, string_candies)
from .grid import restrict
from .homspace import Context
from .io import FormatError
from .rectangles import barcode_1d
from .verify import (check_candy, decompose_two_rows, hom_basis,
                     iso_certificate, try_split)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_MALFORMED = 2
EXIT_INCONCLUSIVE = 3

RECT_METHODS = {"s4": build_S, "min3": min3, "min3rect": min3_rect}
MODULE_METHODS = {"sprime": build_S_prime, "sdual": build_S_dprime, "gen4": gen4}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=1, sort_keys=True))


def _check_field(args, *objs, candy=False):
    """Refuse input whose field tag is not --field.  A PMOD or RECTS file
    keeps its tag at the top level, a candy under `module`."""
    if getattr(args, "field", None) is None:
        return
    want = args.field
    for obj in objs:
        if candy:
            obj = obj.get("module")
            if not isinstance(obj, dict):
                raise FormatError("a candy file needs a 'module' object")
        got = obj.get("field")
        if got != want:
            raise FormatError(f"--field {want} does not match the file's field {got}")


def _load_pair(oa: dict, ob: dict):
    """Two modules that a hom or iso check can compare."""
    M, N = io.pmod_from_json(oa), io.pmod_from_json(ob)
    if M.field != N.field:
        raise FormatError(f"the modules are over different fields, {M.field} and {N.field}")
    if M.box != N.box:
        raise FormatError(f"the modules are on different boxes, {M.box.lo}..{M.box.hi} and {N.box.lo}..{N.box.hi}")
    return M, N


def _or_format_error(fn, *args):
    """fn(*args), with a ValueError turned into FormatError: input that a
    construction cannot build (a zero module, an output box over the vertex
    cap) is malformed input, not a violated property."""
    try:
        return fn(*args)
    except ValueError as e:
        raise FormatError(str(e))


def cmd_construct(args) -> int:
    obj = io.load(args.infile)
    _check_field(args, obj)
    if args.method == "candy":
        C = _or_format_error(candy_wrap, io.pmod_from_json(obj))
        io.dump(io.candy_to_json(C), args.out)
        if args.line_out:
            io.dump(io.line_to_json(C.line), args.line_out)
        return EXIT_OK
    if args.method in RECT_METHODS:
        res = _or_format_error(RECT_METHODS[args.method], io.rects_from_json(obj))
    elif args.method in MODULE_METHODS:
        res = _or_format_error(MODULE_METHODS[args.method], io.pmod_from_json(obj))
    else:
        raise FormatError(f"unknown method {args.method}")
    io.dump(io.pmod_to_json(res.M), args.out)
    if args.line_out:
        io.dump(io.line_to_json(res.line), args.line_out)
    return EXIT_OK


def cmd_restrict(args) -> int:
    obj = io.load(args.infile)
    _check_field(args, obj)
    M = io.pmod_from_json(obj)
    L = io.line_from_json(io.load(args.line))
    io.dump(io.pmod_to_json(_or_format_error(restrict, M, L)), args.out)
    return EXIT_OK


def cmd_barcode(args) -> int:
    obj = io.load(args.infile)
    _check_field(args, obj)
    M = io.pmod_from_json(obj)
    if M.n != 1:
        raise FormatError("barcode needs a 1D module")
    _emit(io.barcode_to_json(M.field, barcode_1d(M)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.kind in ("indec", "iso") and args.trials < 1:
        raise FormatError(f"--trials must be at least 1, got {args.trials}")
    obj = io.load(args.infile)
    _check_field(args, obj, candy=args.kind == "candy")
    if args.kind == "indec":
        M = io.pmod_from_json(obj)
        verdict = try_split(M, seed=args.seed, trials=args.trials)
        _emit(verdict.to_json())
        if verdict.status == "IndecomposableCertified":
            return EXIT_OK
        if verdict.status == "DecomposableCertified":
            return EXIT_VIOLATED
        return EXIT_INCONCLUSIVE
    if args.kind == "candy":
        C = io.candy_from_json(obj)
        rep = check_candy(C.module, C.ul, C.lr)
        _emit(rep.to_json())
        return EXIT_OK if rep.ok else EXIT_VIOLATED
    if args.kind == "iso":
        if not args.withfile:
            raise FormatError("verify iso needs --with")
        other = io.load(args.withfile)
        _check_field(args, other)
        M, N = _load_pair(obj, other)
        rep = iso_certificate(M, N, seed=args.seed, trials=args.trials)
        _emit(rep.to_json())
        if rep.isomorphic is True:
            return EXIT_OK
        if rep.isomorphic is False:
            return EXIT_VIOLATED
        return EXIT_INCONCLUSIVE
    if args.kind == "tworows":
        split = _or_format_error(decompose_two_rows, io.pmod_from_json(obj))
        report = {
            "gap": list(split.gap),
            "summand_dims": [sum(s.dims.values()) for s in split.summands],
        }
        _emit(report)
        return EXIT_OK
    raise FormatError(f"unknown verify kind {args.kind}")


def cmd_hom(args) -> int:
    oa, ob = io.load(args.a), io.load(args.b)
    _check_field(args, oa, ob)
    M, N = _load_pair(oa, ob)
    basis = hom_basis(M, N, Context())
    out = {"dim": len(basis)}
    if args.basis:
        out["basis"] = [
            {repr(list(v)): [[M.field.fmt(x) for x in row] for row in m.rows]
             for v, m in sorted(g.comps.items())}
            for g in basis
        ]
    _emit(out)
    return EXIT_OK


def cmd_concat(args) -> int:
    oa, ob = io.load(args.a), io.load(args.b)
    _check_field(args, oa, ob, candy=True)
    C = _or_format_error(concat, io.candy_from_json(oa), io.candy_from_json(ob))
    io.dump(io.candy_to_json(C), args.out)
    return EXIT_OK


def cmd_string(args) -> int:
    manifest = io.load(args.list)
    paths = manifest.get("modules")
    # a non-string entry would reach open() as a file descriptor
    if not isinstance(paths, list) or not paths or not all(isinstance(p, str) for p in paths):
        raise FormatError("manifest needs a nonempty 'modules' array of path strings")
    mods = []
    for p in paths:
        obj = io.load(p)
        _check_field(args, obj)
        mods.append(io.pmod_from_json(obj))
    res = _or_format_error(string_candies, mods)
    out = io.candy_to_json(res.candy)
    out["embeddings"] = [io.line_to_json(e) for e in res.embeddings]
    io.dump(out, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(prog="persistgrid",
                                description="Exact persistence-module constructions and certification")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--field", help="require this exact field tag on all inputs")

    c = sub.add_parser("construct")
    c.add_argument("--method", required=True,
                   choices=["s4", "sprime", "sdual", "candy", "min3", "min3rect", "gen4"])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--line-out", dest="line_out")
    common(c)
    c.set_defaults(fn=cmd_construct)

    r = sub.add_parser("restrict")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--line", required=True)
    r.add_argument("--out", required=True)
    common(r)
    r.set_defaults(fn=cmd_restrict)

    b = sub.add_parser("barcode")
    b.add_argument("--in", dest="infile", required=True)
    common(b)
    b.set_defaults(fn=cmd_barcode)

    v = sub.add_parser("verify")
    v.add_argument("kind", choices=["indec", "candy", "iso", "tworows"])
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--with", dest="withfile")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=24)
    common(v)
    v.set_defaults(fn=cmd_verify)

    h = sub.add_parser("hom")
    h.add_argument("--a", required=True)
    h.add_argument("--b", required=True)
    h.add_argument("--basis", action="store_true")
    common(h)
    h.set_defaults(fn=cmd_hom)

    cc = sub.add_parser("concat")
    cc.add_argument("--a", required=True)
    cc.add_argument("--b", required=True)
    cc.add_argument("--out", required=True)
    common(cc)
    cc.set_defaults(fn=cmd_concat)

    s = sub.add_parser("string")
    s.add_argument("--list", required=True)
    s.add_argument("--out", required=True)
    common(s)
    s.set_defaults(fn=cmd_string)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
