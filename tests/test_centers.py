"""Inspheres, exspheres, bisectors, and the Euler-line points.

Independent oracles: the Euclidean orthocenter from intersecting
altitudes, the classical 3-4-5 in/exradii, and a Chebyshev-style linear
program that maximizes the inscribed radius directly.
"""

import random

import pytest

from minksimplex.centers import (
    EulerLine,
    bisector,
    euler_line,
    exsphere,
    exspheres,
    facet_bisector,
    feuerbach_sphere,
    incenter,
)
from minksimplex.circumcenter import polytopal_circumcenters, smooth_circumcenters
from minksimplex.construct import quasiregular_simplex
from minksimplex.errors import DegenerateInputError, MixedModeError
from minksimplex.feasibility import FeasibilityProblem, lp_max
from minksimplex.linalg import Hyperplane, Vec, affine_rank, cross2
from minksimplex.norms import PNormBall, euclidean_ball, point_hyperplane_distance
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

from conftest import (
    CUBE,
    DIAMOND,
    HEXAGON,
    SQUARE,
    fvec,
    random_rational_simplex,
    random_symmetric_polygon,
    random_symmetric_polytope_3d,
    vec,
)

T345 = Simplex([vec(0, 0), vec(4, 0), vec(0, 3)])
T345F = Simplex([fvec(0, 0), fvec(4, 0), fvec(0, 3)])


def chebyshev_incenter(simplex, ball):
    """LP oracle: maximize rho over {<a_j, x> + h(a_j) rho <= b_j}."""
    d = simplex.dim
    prob = FeasibilityProblem(d + 1)
    for h in simplex.facet_hyperplanes:
        prob.add_le((*h.normal.coords, ball.support(h.normal)), h.offset)
    value, witness, attained = lp_max(prob, tuple([Rat(0)] * d + [Rat(1)]))
    assert attained
    return Vec(witness[:d]), value


def test_incenter_max_norm_345():
    ins = incenter(T345, SQUARE)
    assert ins.center == vec(Rat(6, 7), Rat(6, 7))
    assert ins.radius == Rat(6, 7)
    assert ins.flipped_facet is None


def test_incenter_euclidean_345():
    ins = incenter(T345F, euclidean_ball(2))
    assert ins.center.coords == pytest.approx((1.0, 1.0), abs=1e-12)
    assert ins.radius == pytest.approx(1.0, abs=1e-12)


def test_exspheres_euclidean_345():
    # classical escribed circles: centers (6,6), (-2,2), (3,-3) with
    # radii area/(s - side) = 6, 2, 3 beyond the facets opposite the
    # right-angle, the long leg, and the short leg respectively
    exp = {0: ((6.0, 6.0), 6.0), 1: ((-2.0, 2.0), 2.0), 2: ((3.0, -3.0), 3.0)}
    got = exspheres(T345F, euclidean_ball(2))
    for i, (center, radius) in exp.items():
        sphere = got[i]
        assert sphere is not None and sphere.flipped_facet == i
        assert sphere.center.coords == pytest.approx(center, abs=1e-12)
        assert sphere.radius == pytest.approx(radius, abs=1e-12)


def test_incenter_agrees_with_chebyshev_lp():
    rng = random.Random("lp-incenter")
    for d, maker in ((2, random_symmetric_polygon), (3, random_symmetric_polytope_3d)):
        for _ in range(8):
            ball = maker(rng)
            simplex = random_rational_simplex(rng, d, span=3)
            ins = incenter(simplex, ball)
            c, rho = chebyshev_incenter(simplex, ball)
            assert ins.center == c
            assert ins.radius == rho


def test_insphere_tangency_exact():
    rng = random.Random("tangency")
    for _ in range(10):
        ball = random_symmetric_polygon(rng)
        simplex = random_rational_simplex(rng, 2, span=3)
        ins = incenter(simplex, ball)
        assert simplex.contains(ins.center, strict=True)
        for h in simplex.facet_hyperplanes:
            assert point_hyperplane_distance(ball, ins.center, h) == ins.radius


def test_exsphere_tangency_and_position():
    rng = random.Random("ex-tangency")
    produced = 0
    for _ in range(10):
        ball = random_symmetric_polygon(rng)
        simplex = random_rational_simplex(rng, 2, span=3)
        for i, sphere in exspheres(simplex, ball).items():
            if sphere is None:
                continue
            produced += 1
            for h in simplex.facet_hyperplanes:
                assert point_hyperplane_distance(ball, sphere.center, h) == sphere.radius
            # center lies beyond the flipped facet, outside the simplex
            assert simplex.facet_hyperplanes[i].eval(sphere.center) > 0
            assert not simplex.contains(sphere.center)
    assert produced > 15


def test_exsphere_index_validation():
    with pytest.raises(IndexError):
        exsphere(T345, SQUARE, 5)


def test_bisector_of_coordinate_planes():
    h1 = Hyperplane(vec(1, 0), Rat(0))
    h2 = Hyperplane(vec(0, 1), Rat(0))
    for ball in (SQUARE, DIAMOND, HEXAGON):
        b = bisector(h1, h2, ball)
        # equal support values make the bisector the diagonal x = y
        assert b.same_set(Hyperplane(vec(1, -1), Rat(0)))
    b = bisector(h1, h2, euclidean_ball(2))
    assert b.eval(fvec(2, 2)) == pytest.approx(0.0)
    assert b.eval(fvec(2, 1)) != pytest.approx(0.0)


def test_bisector_parallel_hyperplanes_degenerate():
    h1 = Hyperplane(vec(1, 0), Rat(0))
    h2 = Hyperplane(vec(2, 0), Rat(2))
    with pytest.raises(DegenerateInputError):
        bisector(h1, h2, SQUARE)
    with pytest.raises(ValueError):
        bisector(h1, Hyperplane(vec(0, 1), Rat(0)), SQUARE, signs=(1, 0))


def test_bisector_points_are_equidistant():
    rng = random.Random("bisector-sample")
    for _ in range(10):
        ball = random_symmetric_polygon(rng)
        h1 = Hyperplane(vec(rng.randint(1, 3), rng.randint(-2, 2)), Rat(rng.randint(0, 2)))
        h2 = Hyperplane(vec(rng.randint(-2, 2), rng.randint(1, 3)), Rat(rng.randint(0, 2)))
        try:
            b = bisector(h1, h2, ball)
        except DegenerateInputError:
            continue
        # sample points of the bisector hyperplane and compare distances
        n = b.normal
        k = 0 if n[0] != 0 else 1
        for other in (Rat(-2), Rat(0), Rat(3)):
            coords = [Rat(0), Rat(0)]
            coords[1 - k] = other
            coords[k] = (b.offset - n[1 - k] * other) / n[k]
            p = Vec(tuple(coords))
            assert b.eval(p) == 0
            assert point_hyperplane_distance(ball, p, h1) == point_hyperplane_distance(ball, p, h2)


def test_incenter_lies_on_internal_bisectors():
    ins = incenter(T345, SQUARE)
    for i in range(3):
        for j in range(i + 1, 3):
            b = facet_bisector(T345, SQUARE, i, j)
            assert b.eval(ins.center) == 0
            # the bisector carries the shared ridge (opposite vertex)
            k = 3 - i - j
            assert b.eval(T345.vertices[k]) == 0
    # external bisector misses the incenter but still holds the ridge
    ext = facet_bisector(T345, SQUARE, 0, 1, external=True)
    assert ext.eval(ins.center) != 0
    assert ext.eval(T345.vertices[2]) == 0


# -- euler line --------------------------------------------------------


def euclidean_orthocenter(a: Vec, b: Vec, c: Vec) -> Vec:
    """Altitude-intersection oracle, solved by hand from
    (x - a).(c - b) = 0 and (x - b).(c - a) = 0."""
    from minksimplex.linalg import solve_linear

    u = c - b
    w = c - a
    sol = solve_linear(
        [[float(u[0]), float(u[1])], [float(w[0]), float(w[1])]],
        [float(u.dot(a)), float(w.dot(b))],
    )
    assert sol.status == "unique"
    return Vec(sol.point)


def test_monge_point_is_euclidean_orthocenter():
    A, B, C = fvec(0, 0), fvec(4, 0), fvec(1, 3)
    T = Simplex([A, B, C])
    oracle = euclidean_orthocenter(A, B, C)
    assert oracle.coords == pytest.approx((1.0, 1.0))
    # euclidean circumcenter of this triangle, from perpendicular
    # bisectors x = 2 and x + 3y = 5, is (2, 1) with radius sqrt(5)
    m = fvec(2, 1)
    r = 5.0 ** 0.5
    line = euler_line(T, euclidean_ball(2), m, r)
    assert line.monge.coords == pytest.approx(tuple(map(float, oracle.coords)), abs=1e-9)


def test_euler_line_exact_345_max_norm():
    m, r = vec(2, 1), Rat(2)
    line = euler_line(T345, SQUARE, m, r)
    g = T345.centroid
    assert line.centroid == g
    assert line.concurrence == vec(0, 1)
    # in the plane the monge point coincides with the concurrence point
    assert line.monge == line.concurrence
    assert line.feuerbach_center == vec(1, 1)
    assert line.feuerbach_radius == Rat(1)
    assert not line.collapsed
    # all derived points are collinear with G and M
    for p in (line.concurrence, line.monge, line.feuerbach_center):
        assert cross2(p - g, m - g) == 0
    # an int radius stays in the exact lane
    int_line = euler_line(T345, SQUARE, m, 2)
    assert int_line == line
    assert type(int_line.radius) is type(int_line.feuerbach_radius) is type(Rat(1))


def test_feuerbach_touches_facet_centroids():
    sphere = feuerbach_sphere(T345, SQUARE, vec(2, 1), Rat(2))
    assert sphere.center == vec(1, 1)
    assert sphere.radius == Rat(1)
    for i in range(3):
        assert SQUARE.gauge(T345.facet_centroid(i) - sphere.center) == sphere.radius


def test_feuerbach_sphere_on_a_pnorm_ball():
    ball = PNormBall(2, 3.0)
    piece = smooth_circumcenters(T345F, ball).pieces[0]
    sphere = feuerbach_sphere(T345F, ball, piece.center, piece.radius)
    assert sphere.radius == pytest.approx(piece.radius / 2, rel=1e-12)
    for i in range(3):
        g = sphere.gauge_from_center(T345F.facet_centroid(i))
        assert float(g) == pytest.approx(sphere.radius, rel=1e-9)


def test_collapsed_float_euler_line_contains_only_its_centroid():
    ball = PNormBall(2, 3.0)
    T = quasiregular_simplex(ball).simplex
    g = T.centroid
    line = euler_line(T, ball, g, ball.gauge(T.vertices[0] - g))
    assert line.collapsed
    assert line.contains(g)
    assert line.contains(line.monge) and line.contains(line.feuerbach_center)
    assert not line.contains(g + fvec(0, 1e-3))


def test_exact_euler_line_contains_is_affine_rank_at_most_1():
    # the int rank test of contains() against affine_rank([G, M, P]) <= 1
    # on lattice triples: P on the line, P at G or M, and P anywhere
    rng = random.Random("euler-contains")
    seen = {True: 0, False: 0}

    def point(d):
        q = rng.choice((1, 2, 3, 7))
        return vec(*(Rat(rng.randint(-9, 9), q) for _ in range(d)))

    for d in (2, 3, 4):
        for _ in range(40):
            g, m = point(d), point(d)
            line = EulerLine(g, m, Rat(1), g, g, Rat(1), g, (), "exact")
            t = Rat(rng.randint(-9, 9), rng.choice((1, 2, 5)))
            for p in (g + (m - g) * t, g, m, point(d), g + point(d) - point(d)):
                want = p == g if g == m else affine_rank([g, m, p]) <= 1
                assert line.contains(p) == want
                seen[want] += 1
    assert min(seen.values()) > 50


def test_euler_line_keeps_the_exact_lane_exact():
    with pytest.raises(MixedModeError):
        euler_line(T345, SQUARE, fvec(2, 1), 2.0)


def test_euler_points_division_ratios():
    rng = random.Random("euler-ratio")
    checked = 0
    for d, maker in ((2, random_symmetric_polygon), (3, random_symmetric_polytope_3d)):
        for _ in range(12):
            ball = maker(rng)
            simplex = random_rational_simplex(rng, d, span=3)
            cset = polytopal_circumcenters(simplex, ball)
            for p in cset.pieces:
                line = euler_line(simplex, ball, p.center, p.radius)
                m, g = line.circumcenter, line.centroid
                # F divides [M, P] in the ratio 1 : d - 1
                assert (line.feuerbach_center - m) * Rat(d) == line.concurrence - m
                # P - G = -d (M - G): the concurrence point mirrors M
                assert line.concurrence - g == (m - g) * Rat(-d)
                # lines through the vertices hit P
                for i in range(d + 1):
                    dirv = simplex.facet_centroid(i) - m
                    assert line.concurrence == simplex.vertices[i] + dirv * Rat(d)
                checked += 1
    assert checked > 10


def test_euler_collapse_iff_centroid_is_circumcenter():
    rng = random.Random("collapse")
    seen_collapsed = seen_proper = 0
    for _ in range(15):
        ball = random_symmetric_polygon(rng)
        T = quasiregular_simplex(ball).simplex
        cset = polytopal_circumcenters(T, ball)
        for p in cset.pieces:
            line = euler_line(T, ball, p.center, p.radius)
            if p.center == T.centroid:
                seen_collapsed += 1
                assert line.collapsed
                assert line.concurrence == line.centroid
                assert line.monge == line.centroid
                assert line.feuerbach_center == line.centroid
            else:
                seen_proper += 1
                assert not line.collapsed
    assert seen_collapsed > 5
    line = euler_line(T345, SQUARE, vec(2, 1), Rat(2))
    assert not line.collapsed


def test_euler_line_rejects_non_circumcenter():
    with pytest.raises(DegenerateInputError):
        euler_line(T345, SQUARE, vec(0, 0), Rat(1))


def test_translation_equivariance():
    t = vec(7, -5)
    moved = T345.translate(t)
    ins0 = incenter(T345, DIAMOND)
    ins1 = incenter(moved, DIAMOND)
    assert ins1.center == ins0.center + t
    assert ins1.radius == ins0.radius
    ex0 = exspheres(T345, DIAMOND)
    ex1 = exspheres(moved, DIAMOND)
    for i in range(3):
        assert (ex0[i] is None) == (ex1[i] is None)
        if ex0[i] is not None:
            assert ex1[i].center == ex0[i].center + t
            assert ex1[i].radius == ex0[i].radius


def test_euler_line_3d_collapsed_cube_instance():
    from minksimplex.circumcenter import cube_edge_midpoint_instance

    inst = cube_edge_midpoint_instance()
    line = euler_line(inst.simplex, inst.ball, vec(0, 0, 0), Rat(1))
    assert line.collapsed
    assert line.feuerbach_radius == Rat(1, 3)
    for i in range(4):
        assert inst.ball.gauge(inst.simplex.facet_centroid(i) - line.feuerbach_center) == Rat(1, 3)
