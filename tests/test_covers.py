import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistgrid import Field, GridBox, ModMorphism, Rectangle, RectDecomp, projective_cover, rect_to_module
from persistgrid.grid import PersModule, dualize, vpred
from persistgrid.linalg import Matrix
from persistgrid.sampling import rand_module

from oracles import cover_comps_by_composites

Q = Field.rationals()
F2 = Field.prime(2)
F1009 = Field.prime(1009)


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
    n = 1 + seed % 3
    box = GridBox((0,) * n, (2,) * n if n < 3 else (1,) * n)
    V = rand_module(rng, f, box, max_dim=2)
    cov = projective_cover(V)
    p = ModMorphism(rect_to_module(cov.decomp), V, cov.comps)
    assert p.validate()
    for v in V.dims:
        assert p.comp(v).rank() == V.dim(v)  # pointwise onto
    # projective summands reach the far corner of the box
    assert all(r.d == box.hi for r in cov.decomp.summands)
    # minimality: the summands born at x span the cokernel of the images
    # of the steps from the live predecessors
    born = {}
    for r in cov.decomp.summands:
        born[r.b] = born.get(r.b, 0) + 1
    for x, d in V.dims.items():
        incoming = [V.step(v, k).rows for k in range(n) if V.dim(v := vpred(x, k)) > 0]
        rank = Matrix(f, [sum(rows, []) for rows in zip(*incoming)]).rank() if incoming else 0
        assert born.pop(x, 0) == d - rank
    assert not born  # no summand is born at a dead vertex


def test_cover_deterministic(rng):
    box = GridBox((0, 0), (2, 2))
    V = rand_module(rng, Q, box, max_dim=2)
    a = projective_cover(V)
    b = projective_cover(V)
    assert [(r.b, r.d) for r in a.decomp.summands] == [(r.b, r.d) for r in b.decomp.summands]
    assert a.comps == b.comps


def exact(comps: dict) -> list:
    """comps in key order, each scalar with its type."""
    return [(w, [[(type(a), a) for a in row] for row in m.rows]) for w, m in comps.items()]


@pytest.mark.parametrize("field", [F2, F1009, Q], ids=str)
@pytest.mark.parametrize("hi", [(2,), (1, 1), (2, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
                         ids=lambda hi: "x".join(str(h + 1) for h in hi))
def test_sweep_equals_composites(field, hi):
    """The swept surjection equals the composite rule, values and key
    order, on random modules and on their duals, whose covers S'' takes."""
    rng = random.Random(f"{field} {hi}")
    box = GridBox((0,) * len(hi), hi)
    for _ in range(25):
        V = rand_module(rng, field, box, max_dim=2)
        for M in (V, dualize(V)):
            cov = projective_cover(M)
            assert exact(cov.comps) == exact(cover_comps_by_composites(M, cov))


def test_generators_alone_make_no_surjection(rng, monkeypatch):
    V = rand_module(rng, Q, GridBox((0, 0), (2, 2)), max_dim=2)
    calls = []
    monkeypatch.setattr(PersModule, "composite", lambda *a: calls.append(a))
    monkeypatch.setattr(Matrix, "mul_vec", lambda *a: calls.append(a))
    cov = projective_cover(V)
    assert len(cov.decomp) > 0
    assert "comps" not in vars(cov) and calls == []


def test_surjection_is_made_once(rng):
    cov = projective_cover(rand_module(rng, F1009, GridBox((0, 0), (2, 1)), max_dim=2))
    assert cov.comps is cov.comps
