"""Command-line front end.

Verbs: construct, restrict, barcode, verify, hom, concat, string.
Exit codes: 0 success, 1 property violated, 2 malformed input,
3 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import io
from .constructions import (CandyModule, build_S, build_S_dprime, build_S_prime, candy_wrap,
                            concat, gen4, min3, min3_rect, string_candies)
from .grid import coarsen, restrict
from .io import FormatError
from .rectangles import barcode_1d
from .verify import (DECOMPOSABLE, INCONCLUSIVE, INDECOMPOSABLE, TRIALS, check_candy, decompose_two_rows,
                     hom_basis, iso_certificate, try_split)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_MALFORMED = 2
EXIT_INCONCLUSIVE = 3
# every failed split trial is kept for the locality certificate, so the
# trial count bounds both its time and its memory
MAX_TRIALS = 1000
# each verdict to its exit code: a try_split status, a candy report's ok, or
# an iso report's isomorphic, whose None means no certificate was found
EXIT_OF = {INDECOMPOSABLE: EXIT_OK, DECOMPOSABLE: EXIT_VIOLATED, INCONCLUSIVE: EXIT_INCONCLUSIVE,
           True: EXIT_OK, False: EXIT_VIOLATED, None: EXIT_INCONCLUSIVE}

RECT_METHODS = {"s4": build_S, "min3": min3, "min3rect": min3_rect}
MODULE_METHODS = {"sprime": build_S_prime, "sdual": build_S_dprime, "gen4": gen4}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=1, sort_keys=True))


def _read(args, path: str, parse):
    """The file at path parsed by parse, an io reader (pmod_from_json,
    rects_from_json or candy_from_json); refused unless its field, for a
    candy its module's, is --field when that is given.  Callers name the
    reader as io.<name> at each call, never bound once (as a default
    argument, say), so that a wrapper put on an io attribute sees every read."""
    obj = parse(io.load(path))
    got = (obj.module if isinstance(obj, CandyModule) else obj).field.to_json()
    if args.field is not None and got != args.field:
        raise FormatError(f"--field {args.field} does not match the file's field {got}")
    return obj


def _or_format_error(fn, *args):
    """fn(*args), with a ValueError turned into FormatError: input that a
    construction cannot build (a zero module, an output box over the vertex
    cap) or a pair that hom_basis or iso_certificate cannot compare (over
    different fields or on different boxes) is malformed input, not a
    violated property."""
    try:
        return fn(*args)
    except ValueError as e:
        raise FormatError(str(e))


def _coarsest(M, lines, corners=()):
    """M on its coarsest grid (grid.coarsen) keeping every coordinate that a
    (line, box) pair of lines hits on its box; each line followed by the
    coarsening, and the images of corners."""
    keep = [set() for _ in range(M.n)]
    for L, box in lines:
        for k, ys in enumerate(L.hits(box)):
            keep[k].update(ys)
    coarse, grid = coarsen(M, keep)
    return coarse, [grid.down(L, box) for L, box in lines], [grid.floor(v) for v in corners]


def cmd_construct(args) -> int:
    V = _read(args, args.infile, io.rects_from_json if args.method in RECT_METHODS else io.pmod_from_json)
    if args.method == "candy":
        C = _or_format_error(candy_wrap, V)
        M, line, corners = C.module, C.line, (C.ul, C.lr)
    else:
        res = _or_format_error((RECT_METHODS | MODULE_METHODS)[args.method], V)
        M, line, corners = res.M, res.line, ()
    M, (line,), corners = _coarsest(M, [(line, V.box)], corners)
    out = io.candy_to_json(CandyModule(M, *corners, line)) if args.method == "candy" else io.pmod_to_json(M)
    io.dump(out, args.out)
    if args.line_out:
        io.dump(io.line_to_json(line), args.line_out)
    return EXIT_OK


def cmd_restrict(args) -> int:
    M = _read(args, args.infile, io.pmod_from_json)
    L = io.line_from_json(io.load(args.line))
    io.dump(io.pmod_to_json(_or_format_error(restrict, M, L)), args.out)
    return EXIT_OK


def cmd_barcode(args) -> int:
    M = _read(args, args.infile, io.pmod_from_json)
    if M.n != 1:
        raise FormatError("barcode needs a 1D module")
    _emit(io.barcode_to_json(M.field, barcode_1d(M)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.kind in ("indec", "iso") and not 1 <= args.trials <= MAX_TRIALS:
        raise FormatError(f"--trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    if args.kind == "candy":
        C = _read(args, args.infile, io.candy_from_json)
        rep = check_candy(C.module, C.ul, C.lr)
        _emit(rep.to_json())
        return EXIT_OF[rep.ok]
    M = _read(args, args.infile, io.pmod_from_json)
    if args.kind == "indec":
        rep = _or_format_error(try_split, M, args.seed, args.trials)
        _emit(rep.to_json())
        return EXIT_OF[rep.status]
    if args.kind == "iso":
        if not args.withfile:
            raise FormatError("verify iso needs --with")
        rep = _or_format_error(iso_certificate, M, _read(args, args.withfile, io.pmod_from_json),
                               args.seed, args.trials)
        _emit(rep.to_json())
        return EXIT_OF[rep.isomorphic]
    split = _or_format_error(decompose_two_rows, M)
    _emit({"gap": list(split.gap), "summand_dims": [sum(s.dims.values()) for s in split.summands]})
    return EXIT_OK


def cmd_hom(args) -> int:
    M, N = _read(args, args.a, io.pmod_from_json), _read(args, args.b, io.pmod_from_json)
    basis = _or_format_error(hom_basis, M, N)
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
    C = _or_format_error(concat, _read(args, args.a, io.candy_from_json), _read(args, args.b, io.candy_from_json))
    M, _, (ul, lr) = _coarsest(C.module, [], (C.ul, C.lr))
    io.dump(io.candy_to_json(CandyModule(M, ul, lr)), args.out)
    return EXIT_OK


def cmd_string(args) -> int:
    manifest = io.load(args.list)
    paths = manifest.get("modules")
    # a non-string entry would reach open() as a file descriptor
    if not isinstance(paths, list) or not paths or not all(isinstance(p, str) for p in paths):
        raise FormatError("manifest needs a nonempty 'modules' array of path strings")
    # each path is relative to the manifest
    mods = [_read(args, os.path.join(os.path.dirname(args.list), p), io.pmod_from_json) for p in paths]
    res = _or_format_error(string_candies, mods)
    C = res.candy
    M, lines, (ul, lr) = _coarsest(C.module, [(e, V.box) for e, V in zip(res.embeddings, mods)], (C.ul, C.lr))
    # one module strings to its own candy, whose line is its embedding
    out = io.candy_to_json(CandyModule(M, ul, lr, lines[0] if C.line else None))
    out["embeddings"] = [io.line_to_json(e) for e in lines]
    io.dump(out, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subparser per verb, built once per process."""
    p = argparse.ArgumentParser(prog="persistgrid",
                                description="Exact persistence-module constructions and certification")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--field", help="require this exact field tag on all inputs")

    c = sub.add_parser("construct")
    c.add_argument("--method", required=True, choices=[*RECT_METHODS, *MODULE_METHODS, "candy"])
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
    v.add_argument("--trials", type=int, default=TRIALS)
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
    return p, sub.choices


def main(argv=None) -> int:
    """Run one verb, its argv parsed by its own parser, leftovers refused as the top-level
    parser refuses them; any other argv (none, -h, an unknown verb) goes to the top-level parser."""
    top, verbs = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in verbs:
        args, rest = verbs[argv[0]].parse_known_args(argv[1:])
        if rest:
            top.error(f"unrecognized arguments: {' '.join(rest)}")
    else:
        args = top.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
