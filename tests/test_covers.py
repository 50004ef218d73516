import random

from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import Field, GridBox, ModMorphism, Rectangle, RectDecomp, projective_cover, rect_to_module
from persistgrid.sampling import rand_module

Q = Field.rationals()
F2 = Field.prime(2)


def test_cover_of_rectangle_is_itself_extended():
    box = GridBox((0,), (3,))
    V = rect_to_module(RectDecomp(Q, box, [Rectangle((1,), (2,))]))
    cov = projective_cover(V)
    assert [r.b for r in cov.decomp.summands] == [(1,)]
    assert all(r.d == box.hi for r in cov.decomp.summands)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_cover_surjective_and_natural(seed):
    rng = random.Random(seed)
    f = [Q, F2][seed % 2]
    n = 1 + seed % 2
    box = GridBox((0,) * n, (2,) * n)
    V = rand_module(rng, f, box, max_dim=2)
    cov = projective_cover(V)
    p = ModMorphism(rect_to_module(cov.decomp), V, cov.comps)
    assert p.validate()
    for v in V.dims:
        assert p.comp(v).rank() == V.dim(v)  # pointwise onto
    # projective summands reach the far corner of the box
    assert all(r.d == box.hi for r in cov.decomp.summands)
    # minimality: generator count at x equals dim of the top (coker of incoming)
    for r in cov.decomp.summands:
        assert V.dim(r.b) > 0


def test_cover_deterministic(rng):
    box = GridBox((0, 0), (2, 2))
    V = rand_module(rng, Q, box, max_dim=2)
    a = projective_cover(V)
    b = projective_cover(V)
    assert [(r.b, r.d) for r in a.decomp.summands] == [(r.b, r.d) for r in b.decomp.summands]
    assert a.comps == b.comps
