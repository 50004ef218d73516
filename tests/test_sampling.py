"""The seeded draws of persistgrid.sampling, pinned: the benchmark's inputs
and many test inputs come from them, so a reordered walk over a module's
arrows would change them silently."""

import hashlib
import json
import random

import pytest

from persistgrid import Field, GridBox
from persistgrid.io import rects_to_json
from persistgrid.sampling import enumerate_modules, rand_module, rand_rect_decomp

from oracles import pmod_to_json_v1

FIELDS = {"F1009": Field.prime(1009), "Q": Field.rationals()}
BOXES = {"3x3": GridBox((0, 0), (2, 2)), "2x2x2": GridBox((0, 0, 0), (1, 1, 1))}


def digest(objs) -> str:
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("field, box, want", [
    ("F1009", "3x3", "3bebff0bb80de4d043f9473d4bac8ac95eae9500ebe29baa283056d495e86983"),
    ("F1009", "2x2x2", "7ef72904a6f6a2caf64c035ff1389c4857019374ee65d915a06e227696ca007a"),
    ("Q", "3x3", "4326dc4769697a94094125eaecfc7a9bf2881c98c3974551622e81d0815947aa"),
    ("Q", "2x2x2", "cef91001d374266ea5e581a221df7f352fceb29bf770e5291e698902b93635ca"),
])
def test_rand_module_draws_are_pinned(field, box, want):
    """Older-form PMOD files of the modules drawn with seeds 0-4."""
    f, b = FIELDS[field], BOXES[box]
    assert digest([pmod_to_json_v1(rand_module(random.Random(s), f, b)) for s in range(5)]) == want


@pytest.mark.parametrize("field, n, want", [
    ("F1009", 2, "1b7a0e119cd7d9fc8c57a91c7ecb595b4a75c5920984078f4cbacf30d3ed6427"),
    ("F1009", 3, "66a21aced2321326eb236dc52303838315080de471248cd171cbc46e57cb7d2a"),
    ("Q", 2, "d16fef98949763292f6a10adf0a0cf67725031f672f320bbe02a1fef7ae76518"),
    ("Q", 3, "7b240cb11cc9baa3f6b3720e897428ddf1a722b5701cad9014d66a3559bcb7eb"),
])
def test_rand_rect_decomp_draws_are_pinned(field, n, want):
    """RECTS files of the decompositions drawn with seeds 0-4, up to four
    rectangles in [0, 3]^n."""
    f = FIELDS[field]
    assert digest([rects_to_json(rand_rect_decomp(random.Random(s), f, n, 4, 0, 3)) for s in range(5)]) == want


def test_enumeration_count_is_pinned():
    """Every commutative module of dimensions <= 1 on a 2x2 box over F_2."""
    assert sum(1 for _ in enumerate_modules(Field.prime(2), GridBox((0, 0), (1, 1)))) == 39
