"""Pinned outputs of the two splitting paths, `verify tworows` and
`verify indec` on V + V, and a check that the two-row split builds no
rectangle module.

The pinned strings were recorded from the implementation that rebuilt each
two-row summand out of rectangle modules and split V + V through its own
kernel-basis routine; the one block-basis routine must reproduce them byte
for byte.  The F_2 pins `indec 0` and `indec 4` were recorded again when the
F_p split began taking the least irreducible's primary part of the whole
minimal polynomial, x^2 (x + 1)^4 and x^2 (x + 1)(x^2 + x + 1), whose factor
x the squarefree part f / gcd(f, f') had lost.  Every `indec` pin but the
one over Q was recorded again when the F_p split began taking the primary
part over the first distinct-degree class, or over one Cantor-Zassenhaus
split of it, instead of the least irreducible's: the summands changed,
while each status and end_dim stayed."""

import hashlib
import json
import random
import sys

import pytest

from persistgrid import Field, GridBox, decompose_two_rows, direct_sum
from persistgrid.cli import main
from persistgrid.io import dump, pmod_to_json
from persistgrid.sampling import rand_module, rand_two_rows_with_gap

from oracles import pmod_to_json_v1

FIELDS = (Field.prime(2), Field.prime(3), Field.rationals(), Field.prime(1009))
TWOROWS_SEEDS = range(6)
SUM_CASES = [(seed, GridBox((0,), (3,)) if seed % 2 else GridBox((0, 0), (2, 1))) for seed in range(6)]


def two_rows_input(seed):
    return rand_two_rows_with_gap(random.Random(seed), FIELDS[seed % 4], max_width=6)


def sum_input(seed, box):
    V = rand_module(random.Random(100 + seed), FIELDS[seed % 4], box, max_dim=2, total_cap=6)
    return direct_sum(V, V)


def _stdout(capsys, tmp_path, M, argv):
    p = str(tmp_path / "m.json")
    dump(pmod_to_json(M), p)
    capsys.readouterr()
    code = main([*argv, "--in", p])
    return code, capsys.readouterr().out


def summand_digest(split) -> str:
    """sha256 of the older-form PMOD texts of the three two-row summands."""
    text = "\n".join(json.dumps(pmod_to_json_v1(s), sort_keys=True) for s in split.summands)
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(capsys, tmp_path) -> dict:
    out = {}
    for seed in TWOROWS_SEEDS:
        M = two_rows_input(seed)
        out[f"tworows {seed}"] = _stdout(capsys, tmp_path, M, ["verify", "tworows"])
        out[f"tworows {seed} summands"] = summand_digest(decompose_two_rows(M))
    for seed, box in SUM_CASES:
        out[f"indec {seed}"] = _stdout(capsys, tmp_path, sum_input(seed, box), ["verify", "indec", "--seed", str(seed)])
    return out


PINNED = {'indec 0': (1,
                      '{\n'
                      ' "end_dim": 20,\n'
                      ' "reason": "splitting endomorphism found",\n'
                      ' "status": "DecomposableCertified",\n'
                      ' "witness": {\n'
                      '  "summand_dims": [\n'
                      '   {\n'
                      '    "(1, 0)": 2,\n'
                      '    "(2, 0)": 4,\n'
                      '    "(2, 1)": 2\n'
                      '   },\n'
                      '   {\n'
                      '    "(0, 1)": 2\n'
                      '   }\n'
                      '  ]\n'
                      ' }\n'
                      '}\n'),
          'indec 1': (1,
                      '{\n'
                      ' "end_dim": 28,\n'
                      ' "reason": "splitting endomorphism found",\n'
                      ' "status": "DecomposableCertified",\n'
                      ' "witness": {\n'
                      '  "summand_dims": [\n'
                      '   {\n'
                      '    "(0,)": 1,\n'
                      '    "(2,)": 1\n'
                      '   },\n'
                      '   {\n'
                      '    "(0,)": 3,\n'
                      '    "(2,)": 3,\n'
                      '    "(3,)": 2\n'
                      '   }\n'
                      '  ]\n'
                      ' }\n'
                      '}\n'),
          'indec 2': (1,
                      '{\n'
                      ' "end_dim": 32,\n'
                      ' "reason": "splitting endomorphism found",\n'
                      ' "status": "DecomposableCertified",\n'
                      ' "witness": {\n'
                      '  "summand_dims": [\n'
                      '   {\n'
                      '    "(0, 0)": 1,\n'
                      '    "(0, 1)": 1\n'
                      '   },\n'
                      '   {\n'
                      '    "(0, 0)": 3,\n'
                      '    "(0, 1)": 1,\n'
                      '    "(1, 0)": 2,\n'
                      '    "(2, 0)": 4\n'
                      '   }\n'
                      '  ]\n'
                      ' }\n'
                      '}\n'),
          'indec 3': (1,
                      '{\n'
                      ' "end_dim": 32,\n'
                      ' "reason": "splitting endomorphism found",\n'
                      ' "status": "DecomposableCertified",\n'
                      ' "witness": {\n'
                      '  "summand_dims": [\n'
                      '   {\n'
                      '    "(0,)": 1,\n'
                      '    "(2,)": 2\n'
                      '   },\n'
                      '   {\n'
                      '    "(0,)": 3,\n'
                      '    "(2,)": 2\n'
                      '   }\n'
                      '  ]\n'
                      ' }\n'
                      '}\n'),
          'indec 4': (1,
                      '{\n'
                      ' "end_dim": 24,\n'
                      ' "reason": "splitting endomorphism found",\n'
                      ' "status": "DecomposableCertified",\n'
                      ' "witness": {\n'
                      '  "summand_dims": [\n'
                      '   {\n'
                      '    "(1, 0)": 2,\n'
                      '    "(2, 0)": 2,\n'
                      '    "(2, 1)": 2\n'
                      '   },\n'
                      '   {\n'
                      '    "(1, 0)": 2\n'
                      '   }\n'
                      '  ]\n'
                      ' }\n'
                      '}\n'),
          'indec 5': (1,
                      '{\n'
                      ' "end_dim": 20,\n'
                      ' "reason": "splitting endomorphism found",\n'
                      ' "status": "DecomposableCertified",\n'
                      ' "witness": {\n'
                      '  "summand_dims": [\n'
                      '   {\n'
                      '    "(0,)": 4,\n'
                      '    "(1,)": 2,\n'
                      '    "(2,)": 2\n'
                      '   },\n'
                      '   {\n'
                      '    "(2,)": 2\n'
                      '   }\n'
                      '  ]\n'
                      ' }\n'
                      '}\n'),
          'tworows 0': (0, '{\n "gap": [\n  1,\n  0\n ],\n "summand_dims": [\n  3,\n  0,\n  7\n ]\n}\n'),
          'tworows 0 summands': '35ee77fec8bf3e9dd8529dcefb71ef4c0839be30991e962151e520eb43e698f0',
          'tworows 1': (0, '{\n "gap": [\n  0,\n  1\n ],\n "summand_dims": [\n  0,\n  2,\n  3\n ]\n}\n'),
          'tworows 1 summands': '02c73604ce93e1d7079676b465054151974768ce87a9399f33517fad1e9c298e',
          'tworows 2': (0, '{\n "gap": [\n  2,\n  0\n ],\n "summand_dims": [\n  4,\n  0,\n  7\n ]\n}\n'),
          'tworows 2 summands': '10c52290d880dd38f2729da194456f6dadf159024b7df9635b4ec737a359a9b8',
          'tworows 3': (0, '{\n "gap": [\n  2,\n  0\n ],\n "summand_dims": [\n  5,\n  3,\n  0\n ]\n}\n'),
          'tworows 3 summands': '7c6d074486b3f27b95a976559003597f1954aa09b8fe9ca5aed59e871ceeb5fe',
          'tworows 4': (0, '{\n "gap": [\n  1,\n  0\n ],\n "summand_dims": [\n  2,\n  1,\n  2\n ]\n}\n'),
          'tworows 4 summands': '3fe35126e985e6c624296c62a77210c70bbcc3ef6e663c156e730e44ef0e5fc4',
          'tworows 5': (0, '{\n "gap": [\n  2,\n  1\n ],\n "summand_dims": [\n  5,\n  1,\n  7\n ]\n}\n'),
          'tworows 5 summands': 'caffc890d790e84efbf94451d07be18c66e309a41692d4444160abf6fec9923d'}


def test_outputs_are_pinned(capsys, tmp_path):
    assert outputs(capsys, tmp_path) == PINNED


@pytest.mark.parametrize("seed", TWOROWS_SEEDS)
def test_two_row_split_builds_no_rectangle_module(monkeypatch, seed):
    M = two_rows_input(seed)

    def refuse(*args, **kwargs):
        raise AssertionError("the two-row split built a rectangle module")

    for name, mod in list(sys.modules.items()):
        if name == "persistgrid" or name.startswith("persistgrid."):
            for attr in ("rect_to_module", "realize"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    split = decompose_two_rows(M)
    assert sum(1 for s in split.summands if not s.is_zero()) >= 2
