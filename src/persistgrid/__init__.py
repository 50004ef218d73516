"""Exact-arithmetic persistence modules over finite grids in Z^n.

Builds (n+1)-dimensional indecomposable modules containing a given nD
module as a hyperplane restriction, and certifies indecomposability,
isomorphism, and two-row decompositions exactly over Q or F_p.
"""

from .fields import DEFAULT_PRIME, Field
from .grid import (AxisEmbedding, GridBox, ModMorphism, PersModule, direct_sum,
                   dualize, pad, restrict, slice_layers, stack)
from .rectangles import (RectDecomp, Rectangle, barcode_1d, interval_decompose_1d,
                         realize, rect_to_module)
from .covers import projective_cover
from .homspace import Context, HomSpace, end_dim, hom_dim
from .verify import (IndecVerdict, check_candy, decompose_two_rows, end_algebra,
                     hom_basis, iso_certificate, try_split)
from .constructions import (BuildResult, CandyModule, build_S, build_S_dprime,
                            build_S_prime, candy_wrap, concat, gen4, min3,
                            min3_rect, string_candies)

__all__ = [
    "DEFAULT_PRIME", "Field",
    "AxisEmbedding", "GridBox", "ModMorphism", "PersModule", "direct_sum",
    "dualize", "pad", "restrict", "slice_layers", "stack",
    "RectDecomp", "Rectangle", "barcode_1d",
    "interval_decompose_1d", "realize", "rect_to_module",
    "projective_cover",
    "Context", "HomSpace", "end_dim", "hom_dim",
    "IndecVerdict", "check_candy", "decompose_two_rows", "end_algebra",
    "hom_basis", "iso_certificate", "try_split",
    "BuildResult", "CandyModule", "build_S", "build_S_dprime", "build_S_prime",
    "candy_wrap", "concat", "gen4", "min3", "min3_rect", "string_candies",
]

__version__ = "0.1.0"
