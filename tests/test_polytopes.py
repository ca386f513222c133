"""Exact polytope plumbing: hulls, facet/vertex enumeration, ordering."""

import random
from fractions import Fraction

import pytest

from minksimplex.errors import DegenerateInputError, DimensionError, MixedModeError
from minksimplex.linalg import Hyperplane, Vec
from minksimplex.polytopes import (
    contains,
    convex_hull_2d,
    facet_hyperplanes,
    minimal_halfspaces,
    polar_pair,
    vertex_enumerate,
)
from minksimplex.scalars import Rat

from conftest import fvec, vec


def test_facet_hyperplanes_square():
    pts = [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
    hyps = facet_hyperplanes(pts)
    assert len(hyps) == 4
    for p in pts:
        # every vertex is on the boundary, never strictly outside
        assert all(h.eval(p) <= 0 for h in hyps)
        assert any(h.eval(p) == 0 for h in hyps)
    assert contains(hyps, vec(0, 0), strict=True)
    assert contains(hyps, vec(1, 0))
    assert not contains(hyps, vec(1, 0), strict=True)
    assert not contains(hyps, vec(2, 0))


def test_facet_hyperplanes_tetrahedron():
    pts = [vec(0, 0, 0), vec(2, 0, 0), vec(0, 2, 0), vec(0, 0, 2)]
    hyps = facet_hyperplanes(pts)
    assert len(hyps) == 4
    centroid = vec(Rat(1, 2), Rat(1, 2), Rat(1, 2))
    assert contains(hyps, centroid, strict=True)


def test_hull_roundtrip_v_to_h_to_v():
    rng = random.Random("roundtrip")
    for _ in range(25):
        pts = []
        while len(set(p.coords for p in pts)) < 4:
            pts = [vec(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(7)]
        try:
            hyps = facet_hyperplanes(pts)
        except DegenerateInputError:
            continue  # collinear draw
        back = vertex_enumerate(hyps)
        assert sorted(back, key=Vec.key) == sorted(convex_hull_2d(pts), key=Vec.key)
        for p in pts:
            assert contains(hyps, p)


def test_vertex_enumerate_takes_exact_halfspaces_only():
    square = [Hyperplane(Vec((float(a), float(b))), 1.0) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    with pytest.raises(MixedModeError):
        vertex_enumerate(square)


def test_facets_and_polar_pair_take_exact_points_only():
    square = [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
    floats = [Vec((float(a), float(b))) for a, b in square]
    mixed = [Vec((0, 0)), Vec((1, 0)), Vec((0.5, 1.0))]
    for points in (floats, mixed):
        with pytest.raises(MixedModeError):
            facet_hyperplanes(points)
        with pytest.raises(MixedModeError):
            polar_pair(points)


def test_facets_and_polar_pair_reject_empty_input():
    with pytest.raises(DegenerateInputError):
        facet_hyperplanes([])
    with pytest.raises(DegenerateInputError):
        polar_pair([])
    with pytest.raises(DegenerateInputError):
        vertex_enumerate([])


def test_vertex_enumerate_drops_redundant_rows():
    square = [
        Hyperplane(vec(1, 0), Rat(1)),
        Hyperplane(vec(-1, 0), Rat(1)),
        Hyperplane(vec(0, 1), Rat(1)),
        Hyperplane(vec(0, -1), Rat(1)),
        Hyperplane(vec(1, 1), Rat(3)),  # slack everywhere
    ]
    verts = vertex_enumerate(square)
    assert len(verts) == 4
    kept = minimal_halfspaces(square)
    assert len(kept) == 4
    assert all(h.normal != vec(1, 1) for h in kept)


def test_convex_hull_2d_orders_a_polygon_ccw():
    # the one exact polygon order: counterclockwise from the
    # lexicographically least vertex, whatever the input order
    pts = [vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)]
    ordered = convex_hull_2d(list(reversed(pts)))
    assert ordered[0] == vec(-1, 0)
    idx = ordered.index(vec(1, 0))
    cyc = ordered[idx:] + ordered[:idx]
    assert cyc == [vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)]


def test_convex_hull_2d():
    pts = [vec(0, 0), vec(4, 0), vec(4, 4), vec(0, 4),
           vec(2, 2), vec(1, 1), vec(4, 0)]  # interior + duplicate
    hull = convex_hull_2d(pts)
    assert len(hull) == 4
    assert set(h.coords for h in hull) == {(0, 0), (4, 0), (4, 4), (0, 4)}
    # collinear midpoints are not extreme
    hull2 = convex_hull_2d([vec(0, 0), vec(2, 0), vec(4, 0), vec(4, 4)])
    assert vec(2, 0) not in hull2


def test_convex_hull_2d_ccw_order():
    hull = convex_hull_2d([vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1), vec(0, 0)])
    n = len(hull)
    assert n == 4
    for i in range(n):
        a, b, c = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
        u, w = b - a, c - b
        assert u[0] * w[1] - u[1] * w[0] > 0


def _hull_by_edges(points) -> list:
    """Brute-force oracle in Fractions: walk from the lexicographically
    least point along directed edges (a, b) with every point on the left
    of a -> b or on the segment [a, b]."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def on_edge(a, b, q) -> bool:
        c = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        return c > 0 or c == 0 and all(min(s, t) <= u <= max(s, t) for s, t, u in zip(a, b, q))

    out = [pts[0]]
    while True:
        b = next(b for b in pts if b != out[-1] and all(on_edge(out[-1], b, q) for q in pts))
        if b == out[0]:
            return out
        out.append(b)


def test_convex_hull_2d_takes_pairs_and_vecs_alike():
    rng = random.Random("hull-pairs")
    for trial in range(300):
        n = rng.randint(1, 12)
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        if trial % 3 == 0:  # a run of collinear points and repeats
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            pts += [(k * a, k * b + 1) for k in range(-2, 3)] + pts[:2]
        hull = convex_hull_2d(pts)
        assert hull == _hull_by_edges(pts)
        assert all(type(c) is int for p in hull for c in p)
        assert [tuple(v) for v in convex_hull_2d([vec(*p) for p in pts])] == hull
        floats = [(x / 7, y / 3) for x, y in pts]
        assert convex_hull_2d(floats) == [v.coords for v in convex_hull_2d([fvec(*p) for p in floats])]


def test_convex_hull_2d_keeps_the_lanes_apart():
    with pytest.raises(MixedModeError):
        convex_hull_2d([vec(0, 0), fvec(1, 0), vec(0, 1)])
    with pytest.raises(MixedModeError):
        convex_hull_2d([fvec(0, 0), vec(1, 0), fvec(0, 1), fvec(1, 1)])


def test_convex_hull_2d_needs_planar_points():
    for pts in ([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)]):
        with pytest.raises(DimensionError):
            convex_hull_2d(pts)


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateInputError):
        facet_hyperplanes([vec(0, 0), vec(1, 1), vec(2, 2)])
    with pytest.raises(DegenerateInputError):
        facet_hyperplanes([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
