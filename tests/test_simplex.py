"""Simplex anatomy: facets, medians, heights, widths, derived bodies."""

import random
from fractions import Fraction

import pytest

from minksimplex.errors import DegenerateInputError, DimensionError, MixedModeError
from minksimplex.linalg import Vec, affine_rank
from minksimplex.norms import PNormBall, euclidean_ball
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex, hyperplane_through

from conftest import (
    CUBE,
    DIAMOND,
    HEXAGON,
    HYPERCUBE,
    SQUARE,
    random_rational_simplex,
    random_symmetric_polygon,
    vec,
)


def tri(*pts) -> Simplex:
    return Simplex([vec(*p) for p in pts])


T345 = tri((0, 0), (4, 0), (0, 3))


def test_constructor_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        tri((0, 0), (1, 1), (2, 2))
    with pytest.raises(DimensionError):
        Simplex([vec(0, 0), vec(1, 0)])


def test_constructor_rejects_mixed_dimensions_and_modes():
    with pytest.raises(DimensionError):
        Simplex([vec(0, 0), vec(1, 0, 0), vec(0, 1)])
    # an int-only vertex is exact, so it may not join float vertices
    for pts in (
        [Vec((0, 0)), Vec((1.0, 0.0)), Vec((0.0, 1.0))],
        [Vec((0.0, 0.0)), Vec((1, 0)), Vec((0, 1))],
    ):
        with pytest.raises(MixedModeError):
            Simplex(pts)


def test_centroid_and_facets():
    assert T345.centroid == vec(Rat(4, 3), 1)
    assert T345.facet_vertices(0) == (vec(4, 0), vec(0, 3))
    assert T345.facet_centroid(0) == vec(2, Rat(3, 2))
    # facet hyperplane i excludes vertex i and is negative inside
    for i in range(3):
        h = T345.facet_hyperplanes[i]
        assert h.eval(T345.vertices[i]) < 0
        for v in T345.facet_vertices(i):
            assert h.eval(v) == 0
    assert T345.contains(T345.centroid, strict=True)
    assert T345.contains(vec(0, 0))
    assert not T345.contains(vec(0, 0), strict=True)
    assert not T345.contains(vec(4, 3))


def test_facet_centroid_is_the_facet_vertex_sum_over_d():
    rng = random.Random("facet-centroid")
    for d in (2, 3, 4):
        for _ in range(10):
            T = random_rational_simplex(rng, d)
            F = Simplex([Vec([float(c) for c in v]) for v in T.vertices])
            for S in (T, F):
                for i in range(d + 1):
                    pts = S.facet_vertices(i)
                    total = pts[0]
                    for v in pts[1:]:
                        total = total + v
                    assert S.facet_centroid(i) == total / d
                    assert S.median_vector(i) == total / d - S.vertices[i]


def test_medians_and_sides():
    assert T345.median_vector(0) == vec(2, Rat(3, 2))
    assert T345.median_length(0, SQUARE) == 2
    assert T345.median_length(0, DIAMOND) == Rat(7, 2)
    assert T345.side_lengths(DIAMOND) == [4, 3, 7]
    assert sorted(T345.side_lengths(SQUARE)) == [3, 4, 4]
    e = euclidean_ball(2)
    assert T345.side_lengths(e) == pytest.approx([4.0, 3.0, 5.0])


def test_heights_euclidean():
    e = euclidean_ball(2)
    # 3-4-5 right triangle: altitudes 3, 4 and 12/5
    hs = T345.heights(e)
    assert hs[0] == pytest.approx(12.0 / 5.0)
    assert hs[1] == pytest.approx(4.0)
    assert hs[2] == pytest.approx(3.0)
    assert T345.min_width(e) == pytest.approx(12.0 / 5.0)


def test_heights_exact_max_norm():
    hs = T345.heights(SQUARE)
    # facet 0 plane is 3x + 4y = 12 with h_B((3,4)) = 7
    assert hs == [Rat(12, 7), 4, 3]
    assert T345.min_width(SQUARE) == Rat(12, 7)


def width_in_direction(simplex: Simplex, ball, a: Vec):
    ht = max(a.dot(v) for v in simplex.vertices)
    hm = max((-a).dot(v) for v in simplex.vertices)
    return (ht + hm) / ball.support(a)


def test_min_width_against_direction_grid():
    rng = random.Random("width-oracle")
    span = range(-6, 7)
    grid = [vec(a, b) for a in span for b in span if (a, b) != (0, 0)]
    for k in range(12):
        ball = random_symmetric_polygon(rng)
        simplex = random_rational_simplex(rng, 2)
        w = simplex.min_width(ball)
        # no sampled direction beats the reported minimum, and some
        # facet normal attains it
        assert all(width_in_direction(simplex, ball, a) >= w for a in grid)
        attained = [
            width_in_direction(simplex, ball, h.normal)
            for h in simplex.facet_hyperplanes
        ]
        assert w in attained


def test_medial_hyperplane_bisects_height():
    for i in range(3):
        m = T345.medial_hyperplane(i)
        h = T345.facet_hyperplanes[i]
        assert m.normal == h.normal
        # vertex and facet sit on opposite sides at equal offsets
        assert m.eval(T345.vertices[i]) == -m.eval(T345.facet_vertices(i)[0])
        # edge midpoints toward A_i lie on it
        for v in T345.facet_vertices(i):
            assert m.eval((T345.vertices[i] + v) / 2) == 0


def test_quasi_medial_hyperplanes():
    qm = T345.quasi_medial_hyperplanes()
    assert set(qm) == {(0, 1), (0, 2), (1, 2)}
    h = qm[(0, 1)]
    # contains the opposite ridge (vertex 2) and the {0,1} midpoint
    assert h.eval(T345.vertices[2]) == 0
    assert h.eval(T345.edge_midpoint(0, 1)) == 0
    with pytest.raises(DimensionError):
        T345.quasi_medial_hyperplane(1, 1)


def test_medial_polytope_planar():
    mp = T345.medial_polytope
    assert mp.contains(T345.centroid, strict=True)
    for v in T345.vertices:
        assert not mp.contains(v)
    verts = mp.vertices()
    # medial triangle of a triangle: the three edge midpoints
    assert sorted(verts, key=Vec.key) == sorted(
        [vec(2, 0), vec(0, Rat(3, 2)), vec(2, Rat(3, 2))], key=Vec.key
    )


def test_medial_polytope_vertices_build_no_halfspace(monkeypatch):
    # drawing reads the edge midpoints; the halfspaces wait for contains()
    built = []
    medial_hyperplane = Simplex.medial_hyperplane
    monkeypatch.setattr(Simplex, "medial_hyperplane", lambda T, i: built.append(i) or medial_hyperplane(T, i))
    T = tri((0, 0), (4, 0), (0, 3))
    assert len(T.medial_polytope.vertices()) == 3
    assert built == []
    assert T.medial_polytope.contains(T.centroid, strict=True)
    assert built == [0, 1, 2] and len(T.medial_polytope.halfspaces) == 6


def test_medial_polytope_tetrahedron():
    T = Simplex([vec(0, 0, 0), vec(2, 0, 0), vec(0, 2, 0), vec(0, 0, 2)])
    mp = T.medial_polytope
    assert mp.contains(T.centroid, strict=True)
    for v in T.vertices:
        assert not mp.contains(v)
    # truncating all four corners of a tetrahedron leaves an octahedron
    assert len(mp.vertices()) == 6


def test_barycentric_objects_match_their_direct_constructions():
    # quasi-medial hyperplanes, heights and dual vertices all come from
    # the facets' barycentric scales; each equals its direct formula
    rng = random.Random("barycentric")
    balls = {2: SQUARE, 3: CUBE, 4: HYPERCUBE}
    for d in (2, 3, 4):
        for _ in range(5):
            T = random_rational_simplex(rng, d)
            g, dual = T.centroid, T.dual_simplex()
            for i, h in enumerate(T.facet_hyperplanes):
                gap = h.offset - h.normal.dot(T.vertices[i])
                assert T.height(i, balls[d]) == gap / balls[d].support(h.normal)
                assert dual.vertices[i] == h.normal / (h.offset - h.normal.dot(g))
            for (i, j), qm in T.quasi_medial_hyperplanes().items():
                ridge = [v for k, v in enumerate(T.vertices) if k not in (i, j)]
                assert qm.same_set(hyperplane_through([*ridge, T.edge_midpoint(i, j)]))


def test_float_medial_polytope_vertices_are_the_edge_midpoints():
    # {0 <= lambda_i <= 1/2} has a vertex exactly where two coordinates
    # are 1/2; at each midpoint the two cuts it lies on are tight
    rng = random.Random("float-medial")
    for d in (2, 3, 4):
        for _ in range(20):
            T = Simplex([Vec([rng.uniform(-10, 10) for _ in range(d)]) for _ in range(d + 1)])
            mp = T.medial_polytope
            mids = [(T.vertices[i] + T.vertices[j]) * 0.5 for i, j in T.edges()]
            assert mp.vertices() == mids
            for (i, j), m in zip(T.edges(), mids):
                for k in (i, j):
                    assert T.medial_hyperplane(k).eval(m) == pytest.approx(0.0, abs=1e-9)
            assert mp.contains(T.centroid, strict=True)


def test_dual_simplex_bipolarity():
    rng = random.Random("dual")
    for d in (2, 3):
        for _ in range(6):
            T = random_rational_simplex(rng, d)
            D = T.dual_simplex()
            # dual lives in centroid-origin coordinates and contains o
            assert D.contains(vec(*([0] * d)), strict=True)
            DD = D.dual_simplex().translate(T.centroid)
            assert DD == T.translate(Vec(tuple(Rat(0) for _ in range(d))))


def test_median_triangle():
    Tm = T345.median_triangle()
    assert Tm.centroid == T345.centroid
    sides = [Tm.vertices[1] - Tm.vertices[0], Tm.vertices[2] - Tm.vertices[1],
             Tm.vertices[0] - Tm.vertices[2]]
    medians = [T345.median_vector(i) for i in range(3)]
    assert sides[0] == medians[0] and sides[1] == medians[1]
    # the three medians close up: third side is minus the third median
    assert sides[2] == -(medians[0] + medians[1])
    with pytest.raises(DimensionError):
        Simplex([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]).median_triangle()


def test_iterated_median_triangle_homothety():
    rng = random.Random("medmed")
    for _ in range(8):
        T = random_rational_simplex(rng, 2)
        g = T.centroid
        Tmm = T.median_triangle().median_triangle()
        assert Tmm.centroid == g
        image = sorted(((v - g) * Rat(-3, 4) for v in T.vertices), key=Vec.key)
        got = sorted((w - g for w in Tmm.vertices), key=Vec.key)
        assert got == image


def test_shrink_vertex():
    S = T345.shrink_vertex(0, Rat(1, 4))
    assert S.vertices[1:] == T345.vertices[1:]
    assert T345.contains(S.vertices[0], strict=True)
    # heights toward the moved vertex drop by exactly the fraction
    assert S.height(0, SQUARE) == T345.height(0, SQUARE) * Rat(3, 4)
    with pytest.raises(ValueError):
        T345.shrink_vertex(0, Rat(3, 2))


def test_translate_scale_equivariance():
    t = vec(5, -2)
    moved = T345.translate(t)
    assert moved.centroid == T345.centroid + t
    assert moved.side_lengths(SQUARE) == T345.side_lengths(SQUARE)
    assert moved.heights(HEXAGON) == T345.heights(HEXAGON)
    doubled = T345.scale(2)
    assert doubled.side_lengths(DIAMOND) == [s * 2 for s in T345.side_lengths(DIAMOND)]
    with pytest.raises(DegenerateInputError):
        T345.scale(0)


def test_hyperplane_through():
    h = hyperplane_through([vec(1, 0), vec(0, 1)])
    assert h.eval(vec(1, 0)) == 0 and h.eval(vec(0, 1)) == 0
    with pytest.raises(DimensionError):
        hyperplane_through([vec(0, 0), vec(1, 1), vec(2, 2)])
    with pytest.raises(DegenerateInputError):
        hyperplane_through([vec(0, 0, 0), vec(1, 1, 0), vec(2, 2, 0)])


def test_float_simplex_with_smooth_ball():
    T = Simplex([vec(0, 0).to_float(), vec(4, 0).to_float(), vec(0, 3).to_float()])
    ball = PNormBall(2, 2.0)
    assert T.min_width(ball) == pytest.approx(2.4)
    assert T.centroid.coords == pytest.approx((4.0 / 3.0, 1.0))


def test_simplex_in_cube_norm():
    T = Simplex([vec(0, 0, 0), vec(2, 0, 0), vec(0, 2, 0), vec(0, 0, 2)])
    assert T.heights(CUBE)[0] == Rat(2, 3)
    assert affine_rank(T.vertices) == 3


# -- the Fraction cofactor reference for the integer adjugate ----------


def _fraction_det(rows) -> Fraction:
    """Laplace expansion along the first row, all in Fraction."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * c * _fraction_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, c in enumerate(rows[0])
    )


def _fraction_hyperplane(points):
    """hyperplane_through's cofactor normal and offset in Fraction."""
    p0 = [Fraction(c) for c in points[0]]
    rows = [[Fraction(c) - a for c, a in zip(p, p0)] for p in points[1:]]
    d = len(p0)
    normal = [(-1) ** i * _fraction_det([r[:i] + r[i + 1 :] for r in rows]) for i in range(d)]
    return normal, sum(n * c for n, c in zip(normal, p0))


def _fraction_facets(vertices):
    """(normal, offset, s) per facet: the facet's Fraction hyperplane,
    s along the edge to the nearest facet vertex, flipped to s > 0."""
    out = []
    for i, a in enumerate(vertices):
        facet = [v for k, v in enumerate(vertices) if k != i]
        normal, offset = _fraction_hyperplane(facet)
        edge = min(
            ([Fraction(c) - Fraction(x) for c, x in zip(v, a)] for v in facet),
            key=lambda e: max(map(abs, e)),
        )
        s = sum(n * e for n, e in zip(normal, edge))
        assert s != 0
        if s < 0:
            normal, offset, s = [-n for n in normal], -offset, -s
        out.append((normal, offset, s))
    return out


def _mixed_denominator_simplex(rng, d) -> Simplex:
    while True:
        verts = [
            vec(*(Rat(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(d)))
            for _ in range(d + 1)
        ]
        try:
            return Simplex(verts)
        except DegenerateInputError:
            continue


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_facets_match_fraction_cofactors(d):
    rng = random.Random(f"adjugate-oracle-{d}")
    for _ in range(40):
        T = _mixed_denominator_simplex(rng, d)
        ref = _fraction_facets(T.vertices)
        for h, (normal, offset, _) in zip(T.facet_hyperplanes, ref):
            assert list(h.normal.coords) == normal and h.offset == offset
        if d == 2:
            for ball in (SQUARE, HEXAGON):
                assert T.heights(ball) == [s / ball.support(Vec(n)) for n, _, s in ref]
        for (i, j), qm in T.quasi_medial_hyperplanes().items():
            (ni, bi, si), (nj, bj, sj) = ref[i], ref[j]
            assert list(qm.normal.coords) == [x / si - y / sj for x, y in zip(ni, nj)]
            assert qm.offset == bi / si - bj / sj
        dual = T.dual_simplex().vertices
        assert [list(v.coords) for v in dual] == [[c * (d + 1) / s for c in n] for n, _, s in ref]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_hyperplane_through_matches_fraction_cofactors(d):
    rng = random.Random(f"hyperplane-oracle-{d}")
    checked = 0
    while checked < 40:
        pts = [
            vec(*(Rat(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(d)))
            for _ in range(d)
        ]
        normal, offset = _fraction_hyperplane(pts)
        if not any(normal):
            continue
        h = hyperplane_through(pts)
        assert list(h.normal.coords) == normal and h.offset == offset
        checked += 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_affinely_dependent_input_still_raises(d):
    rng = random.Random(f"dependent-{d}")
    for _ in range(10):
        pts = [
            vec(*(Rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)))
            for _ in range(d)
        ]
        if len({p.coords for p in pts}) < d:
            continue
        # a point on the line through the first two, off both of them
        t = Rat(rng.randint(2, 9), rng.choice((-3, -2, 1, 2, 3)))
        on_line = pts[0] + (pts[1] - pts[0]) * t
        if on_line.coords in {p.coords for p in pts}:
            continue
        with pytest.raises(DegenerateInputError, match="affinely dependent"):
            Simplex([*pts, on_line])
        # d points of which three are collinear (in the plane: two coincide)
        with pytest.raises(DegenerateInputError, match="affinely dependent"):
            hyperplane_through([pts[0], pts[0]] if d == 2 else [*pts[:-1], on_line])
