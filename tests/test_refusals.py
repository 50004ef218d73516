"""Library refusals that no other test reaches: each raises its exception
type with a message that names the fault."""

import random

import pytest

from persistgrid import (AxisEmbedding, Field, GridBox, ModMorphism, RectDecomp, Rectangle,
                         interval_decompose_1d, min3_rect, pad, rect_to_module, slice_layers, stack,
                         string_candies)
from persistgrid.constructions import separate_and_shift, verticalize
from persistgrid.grid import pullback
from persistgrid.linalg import Matrix, Poly, coprime_split, minimal_polynomial
from persistgrid.rectangles import hom_leq
from persistgrid.sampling import enumerate_modules

Q = Field.rationals()
F2 = Field.prime(2)
LINE = GridBox((0,), (2,))
SQUARE = GridBox((0, 0), (1, 1))


def interval(field, box, b, d):
    return rect_to_module(RectDecomp(field, box, [Rectangle(b, d)]))


M = interval(Q, LINE, (0,), (1,))
N = interval(Q, LINE, (1,), (2,))
M2 = interval(Q, SQUARE, (0, 0), (1, 1))

REFUSALS = {
    # grid
    "box lo/hi lengths": (lambda: GridBox((0,), (1, 1)), ValueError, "different lengths"),
    "composite of x > y": (lambda: M.composite((1,), (0,)), ValueError, "is not <="),
    "compose of morphisms that do not meet":
        (lambda: ModMorphism.identity(M).compose(ModMorphism.identity(N)), ValueError, "composition mismatch"),
    "unknown axis map": (lambda: AxisEmbedding([("shear", 1, 0)], 0, 0), ValueError, "unknown axis map"),
    "table map outside its domain":
        (lambda: AxisEmbedding([("table", 0, [0, 2])], 0, 0).apply((2,)), ValueError, "outside the table domain"),
    "translate by a wrong length":
        (lambda: AxisEmbedding.layer(1, 0, 0).translate((1,)), ValueError, "translation length"),
    "pullback image leaves the box":
        (lambda: pullback(M, lambda x: (x[0] + 1,), LINE), ValueError, "escapes the module box"),
    "pad to a smaller box": (lambda: pad(M, GridBox((0,), (1,))), ValueError, "does not contain"),
    "stack of no layers": (lambda: stack([], []), ValueError, "at least one layer"),
    "stack with a link too many":
        (lambda: stack([M], [ModMorphism.identity(M)]), ValueError, "exactly one link"),
    "stack with a link between other modules":
        (lambda: stack([M, M], [ModMorphism.identity(N)]), ValueError, "does not connect layers 0 -> 1"),
    "slice_layers of a 1D module": (lambda: slice_layers(M), ValueError, "n >= 2"),
    # linalg
    "matmul shape mismatch":
        (lambda: Matrix.identity(Q, 2) @ Matrix.identity(Q, 3), ValueError, "shape mismatch 2x2 @ 3x3"),
    "inverse of a non-square matrix": (lambda: Matrix.zero(Q, 2, 3).inverse(), ValueError, "non-square"),
    "polynomial division by zero":
        (lambda: Poly(Q, [1, 1]).divmod(Poly(Q, [])), ZeroDivisionError, "division by zero"),
    "minimal polynomial of a non-square matrix":
        (lambda: minimal_polynomial(Matrix.zero(Q, 2, 3)), ValueError, "non-square"),
    "coprime split of a constant":
        (lambda: coprime_split(Poly(F2, [1]), random.Random(0)), ValueError, "degree >= 1"),
    # fields
    "non-prime modulus": (lambda: Field.prime(4), ValueError, "not prime"),
    "inverse of 0 over Q": (lambda: Q.inv(Q.zero), ZeroDivisionError, "inverse of 0"),
    "inverse of 0 over F_p": (lambda: Field.prime(5).inv(10), ZeroDivisionError, "inverse of 0"),
    "elements of Q": (lambda: Q.elements(), ValueError, "infinite"),
    # rectangles
    "hom_leq across dimensions":
        (lambda: hom_leq(Rectangle((0,), (1,)), Rectangle((0, 0), (1, 1))), ValueError, "different dimensions"),
    "rectangle of the wrong dimension":
        (lambda: RectDecomp(Q, SQUARE, [Rectangle((0,), (1,))]), ValueError, "does not match box"),
    "rectangle outside the box":
        (lambda: RectDecomp(Q, LINE, [Rectangle((0,), (3,))]), ValueError, "escapes box"),
    "interval decomposition in 2D": (lambda: interval_decompose_1d(M2), ValueError, "needs a 1D module"),
    # constructions
    "separate_and_shift of nothing":
        (lambda: separate_and_shift(RectDecomp(Q, LINE, [])), ValueError, "empty rectangle decomposition"),
    "verticalize with odd b + d'":
        (lambda: verticalize(RectDecomp(Q, LINE, [Rectangle((0,), (1,))]), [(1,)]), ValueError, "parity"),
    "string of no candies": (lambda: string_candies([]), ValueError, "at least one module"),
    "min3_rect of nothing": (lambda: min3_rect(RectDecomp(Q, LINE, [])), ValueError, "empty rectangle decomposition"),
    # sampling
    "enumeration with dims 2":
        (lambda: next(enumerate_modules(F2, SQUARE, max_dim=2)), NotImplementedError, "dims <= 1"),
}


@pytest.mark.parametrize("case", REFUSALS, ids=list(REFUSALS))
def test_refused_with_a_message(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
