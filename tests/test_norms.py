"""Norm axioms, duality, Birkhoff orthogonality, Radon curves, chords.

Property tests run exact on polytopal balls; smooth p-norm checks use
the float tolerances from config.
"""

import itertools
import math
import random
import sys
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minksimplex import norms
from minksimplex.config import EPS_BISECT, EPS_REL
from minksimplex.errors import (
    DegenerateInputError,
    DimensionError,
    MixedModeError,
    NonConvergenceError,
)
from minksimplex.linalg import Hyperplane, Vec
from minksimplex.norms import (
    Ball,
    PNormBall,
    PolytopeBall,
    birkhoff_orthogonal,
    chord_through,
    euclidean_ball,
    is_radon,
    isoperimetrix,
    lp_gradient,
    lp_norm,
    point_hyperplane_distance,
    radon_polygon,
    root_in_bracket,
)
from minksimplex.scalars import Rat

from conftest import (
    CROSSPOLYTOPE, CUBE, DIAMOND, HEXAGON, OCTAHEDRON, SQUARE, fvec,
    random_symmetric_polygon, random_symmetric_polytope_3d, vec,
)

EXACT_BALLS = [SQUARE, DIAMOND, HEXAGON, CUBE, OCTAHEDRON, CROSSPOLYTOPE]

rationals = st.builds(Rat, st.integers(-24, 24), st.integers(1, 9))


def int_vec(dim: int, bound: int = 9):
    return st.tuples(*[st.integers(-bound, bound)] * dim).map(lambda t: vec(*t))


@st.composite
def symmetric_polygons(draw):
    pts = draw(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=2,
            max_size=5,
        )
    )
    gens = [vec(x, y) for x, y in pts if (x, y) != (0, 0)]
    assume(len(gens) >= 2)
    try:
        return PolytopeBall.from_vertices(gens + [-g for g in gens])
    except (DegenerateInputError, DimensionError):
        assume(False)


@pytest.mark.parametrize("ball", EXACT_BALLS, ids=lambda b: repr(b))
def test_gauge_axioms_exact(ball):
    @given(int_vec(ball.dim), int_vec(ball.dim), rationals)
    @settings(max_examples=40, deadline=None)
    def inner(x, y, t):
        gx = ball.gauge(x)
        assert (gx == 0) == x.is_zero()
        assert ball.gauge(-x) == gx
        assert ball.gauge(x.scale(t)) == abs(t) * gx
        assert ball.gauge(x + y) <= gx + ball.gauge(y)

    inner()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
def test_gauge_axioms_smooth(p):
    ball = PNormBall(2, p)

    @given(int_vec(2), int_vec(2), st.integers(-12, 12))
    @settings(max_examples=40, deadline=None)
    def inner(x, y, t):
        fx, fy = x.to_float(), y.to_float()
        gx = ball.gauge(fx)
        assert ball.gauge(-fx) == pytest.approx(gx)
        assert ball.gauge(fx.scale(float(t))) == pytest.approx(abs(t) * gx)
        assert ball.gauge(fx + fy) <= gx + ball.gauge(fy) + 1e-12

    inner()


@given(symmetric_polygons())
@settings(max_examples=30, deadline=None)
def test_bipolarity(ball):
    assert ball.dual().dual() == ball


@given(symmetric_polygons(), st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
@settings(max_examples=40, deadline=None)
def test_support_is_dual_gauge(ball, a):
    av = vec(*a)
    assert ball.support(av) == ball.dual().gauge(av)


@given(symmetric_polygons(), st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
       st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
@settings(max_examples=40, deadline=None)
def test_dual_pairing_inequality(ball, xt, at):
    x, a = vec(*xt), vec(*at)
    assert a.dot(x) <= ball.gauge(x) * ball.support(a)


def test_vertices_and_normals_are_calibrated():
    for ball in EXACT_BALLS:
        for v in ball.vertices:
            assert ball.gauge(v) == 1
        for n in ball.normals:
            assert ball.support(n) == 1


def test_polytope_gauge_rejects_float_input():
    with pytest.raises(MixedModeError):
        SQUARE.gauge(fvec(1.0, 0.0))
    with pytest.raises(MixedModeError):
        PolytopeBall.from_vertices([fvec(1, 0), fvec(-1, 0), fvec(0, 1), fvec(0, -1)])


def test_polytope_rejects_normals_of_another_dimension():
    square = [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
    normals = [vec(1, 0, 7), vec(0, 1, 7), vec(-1, 0, -7), vec(0, -1, -7)]
    with pytest.raises(DimensionError):
        PolytopeBall(square, normals)
    with pytest.raises(DimensionError):
        PolytopeBall(square, [vec(1, 0), vec(-1, 0), vec(0, 1, 0), vec(0, -1, 0)])


def test_pnorm_parameter_validation():
    with pytest.raises(DegenerateInputError):
        PNormBall(2, 1.0)
    with pytest.raises(DegenerateInputError):
        PNormBall(2, math.inf)
    assert euclidean_ball(3).p == 2.0
    assert PNormBall(2, 3.0).dual().p == pytest.approx(1.5)
    assert PNormBall(2, 3.0).dual().dual().p == pytest.approx(3.0)
    # p / (p - 1) rounds to 1.0 here; the dual stays a p-norm
    assert PNormBall(2, 1e308).dual().p > 1


def test_known_gauges():
    assert SQUARE.gauge(vec(3, -2)) == 3
    assert DIAMOND.gauge(vec(3, -2)) == 5
    assert HEXAGON.gauge(vec(1, 1)) == 1
    assert HEXAGON.gauge(vec(1, -1)) == 2
    assert euclidean_ball(2).gauge(fvec(3, 4)) == pytest.approx(5.0)
    assert PNormBall(2, 3.0).gauge(fvec(1, 1)) == pytest.approx(2.0 ** (1.0 / 3.0))


@pytest.mark.parametrize("p, big", [(1000.0, 1000.0), (3.0, 1e300)])
def test_pnorm_large_powers_and_coordinates(p, big):
    # x = (big, 1): |x|^p alone overflows a float, the norms do not
    ball = PNormBall(2, p)
    x = fvec(big, 1.0)
    q = p / (p - 1.0)
    gauge, support, grad = ball.gauge(x), ball.support(x), ball.gauge_gradient(x)
    assert all(math.isfinite(v) for v in (gauge, support, *grad))
    # (big^p + 1)^(1/p) = big (1 + big^-p)^(1/p), likewise for q
    assert gauge == pytest.approx(big * math.exp(math.log1p(big ** -p) / p), rel=EPS_REL)
    assert support == pytest.approx(big * math.exp(math.log1p(big ** -q) / q), rel=EPS_REL)
    # the gradient is the dual unit vector that attains <grad, x> = gauge(x)
    assert grad[0] == pytest.approx(1.0, rel=EPS_REL) and 0.0 <= grad[1] <= EPS_REL
    assert ball.dual().gauge(fvec(*grad)) == pytest.approx(1.0, rel=EPS_REL)
    assert grad[0] * big + grad[1] == pytest.approx(gauge, rel=EPS_REL)


def test_duality_square_diamond():
    assert SQUARE.dual() == DIAMOND
    assert DIAMOND.dual() == SQUARE
    assert CUBE.dual() == OCTAHEDRON


def test_dual_is_built_once_and_involutive():
    for ball in EXACT_BALLS:
        polar = ball.dual()
        assert ball.dual() is polar and polar.dual() is ball


def seeded_balls(rng):
    """from_vertices and from_halfspaces balls in 2-4D, their duals and
    the isoperimetrices of the planar ones."""
    balls = [*EXACT_BALLS, random_symmetric_polygon(rng), random_symmetric_polytope_3d(rng)]
    balls += [PolytopeBall.from_halfspaces([Hyperplane(n, Rat(1)) for n in b.vertices]) for b in list(balls)]
    balls += [b.dual() for b in list(balls)]
    balls += [isoperimetrix(b) for b in balls if b.dim == 2]
    return balls


def test_sorted_rows_are_closed_under_negation(rng):
    for ball in seeded_balls(rng):
        for rows, _ in (ball._vertex_rows, ball._normal_rows):
            assert len(rows) % 2 == 0
            assert all(rows[k] == tuple(-c for c in rows[-1 - k]) for k in range(len(rows))), ball


def test_max_dot_over_half_the_rows_is_the_full_max(rng):
    for ball in seeded_balls(rng):
        for rows, _ in (ball._vertex_rows, ball._normal_rows):
            for _ in range(20):
                X = [rng.randint(-50, 50) for _ in range(ball.dim)]
                assert norms._max_dot(rows, X) == max(sum(map(mul, r, X)) for r in rows)


def test_a_repeated_vertex_needs_its_negative_repeated():
    square = [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
    with pytest.raises(DegenerateInputError, match="vertex set is not centrally symmetric"):
        PolytopeBall([*square, vec(1, 1), vec(1, 1)], SQUARE.normals)
    assert PolytopeBall([*square, vec(1, 1), vec(-1, -1)], SQUARE.normals).gauge(vec(3, 1)) == 3


def test_isoperimetrix_planar():
    assert isoperimetrix(SQUARE) == DIAMOND
    assert isoperimetrix(DIAMOND) == SQUARE
    # the hexagon is Radon: its isoperimetrix is homothetic to it
    iso = isoperimetrix(HEXAGON)
    lam = HEXAGON.gauge(iso.vertices[0])
    assert sorted((v / lam for v in iso.vertices), key=Vec.key) == list(HEXAGON.vertices)
    with pytest.raises(DimensionError):
        isoperimetrix(CUBE)
    # l_q balls are invariant under quarter turns
    assert isoperimetrix(PNormBall(2, 3.0)) == PNormBall(2, 3.0).dual()


def test_is_radon_classification():
    assert is_radon(HEXAGON)
    assert not is_radon(SQUARE)
    assert not is_radon(DIAMOND)
    assert is_radon(euclidean_ball(2))
    assert not is_radon(PNormBall(2, 3.0))
    with pytest.raises(DimensionError):
        is_radon(CUBE)


def test_radon_polygon_builder():
    assert radon_polygon() == HEXAGON
    custom = radon_polygon(
        [vec(1, 0), vec(1, Rat(1, 2)), vec(Rat(1, 3), 1), vec(0, 1)]
    )
    assert is_radon(custom)
    # arc {(1,0),(1,1/2),(1/3,1),(0,1)} contributes polar points (1,0),
    # (3/5,4/5), (0,1); after the quarter turn only (-4/5,3/5) is new,
    # so the full curve has 5 antipodal vertex pairs
    assert len(custom.vertices) == 10
    assert vec(Rat(-4, 5), Rat(3, 5)) in custom.vertices
    with pytest.raises(DegenerateInputError):
        radon_polygon([vec(1, 0), vec(1, 1)])


def test_birkhoff_euclidean_matches_inner_product():
    ball = euclidean_ball(2)
    assert birkhoff_orthogonal(ball, fvec(1, 0), fvec(0, 1))
    assert birkhoff_orthogonal(ball, fvec(3, 4), fvec(-4, 3))
    assert not birkhoff_orthogonal(ball, fvec(1, 0), fvec(1, 1))


@pytest.mark.parametrize("lam", [1e-12, 1.0, 1e12])
def test_birkhoff_smooth_is_scale_free_in_y(lam):
    # orthogonality does not change under y -> lam y, so a short y is
    # not orthogonal to everything
    ball = PNormBall(2, 3.0)
    assert birkhoff_orthogonal(ball, fvec(1, 0), fvec(0, lam))
    assert not birkhoff_orthogonal(ball, fvec(1, 0), fvec(lam, 0))


def test_birkhoff_asymmetry_in_max_norm():
    # gauge((1,1) + t(0,1)) = max(1, |1+t|) >= 1 with equality near 0,
    # so (1,1) is Birkhoff orthogonal to (0,1); the reverse direction
    # fails because gauge((0,1) - (1,1)/2) = 1/2 < 1.
    assert birkhoff_orthogonal(SQUARE, vec(1, 1), vec(0, 1))
    assert not birkhoff_orthogonal(SQUARE, vec(0, 1), vec(1, 1))


@pytest.mark.parametrize("ball", [HEXAGON, radon_polygon([vec(1, 0), vec(1, Rat(1, 2)), vec(Rat(1, 3), 1), vec(0, 1)])])
def test_birkhoff_symmetric_on_radon_balls(ball):
    @given(int_vec(2, 5), int_vec(2, 5))
    @settings(max_examples=60, deadline=None)
    def inner(x, y):
        assume(not x.is_zero() and not y.is_zero())
        assert birkhoff_orthogonal(ball, x, y) == birkhoff_orthogonal(ball, y, x)

    inner()


def test_non_radon_has_asymmetric_pair():
    # existence half of the planar Radon characterization, by search
    for ball in (SQUARE, DIAMOND):
        span = range(-3, 4)
        pairs = [
            (vec(a, b), vec(c, d))
            for a in span for b in span for c in span for d in span
            if (a, b) != (0, 0) and (c, d) != (0, 0)
        ]
        assert any(
            birkhoff_orthogonal(ball, x, y) and not birkhoff_orthogonal(ball, y, x)
            for x, y in pairs
        )


def crossing_birkhoff(ball, x, y) -> bool:
    """The slope-crossing rule: t -> gauge(x + t y) is the max of the
    lines <n, x> + t <n, y>, so its minimum is the largest of the flat
    lines and of the crossings of a rising with a falling line; x is
    orthogonal to y when that minimum is gauge(x)."""
    lines = [(n.dot(x), n.dot(y)) for n in ball.normals]
    values = [c for c, s in lines if s == 0]
    values += [
        (cj * -sk + ck * sj) / (sj - sk)
        for cj, sj in lines if sj > 0 for ck, sk in lines if sk < 0
    ]
    return max(values) == ball.gauge(x)


def random_rational_ball(rng, d):
    while True:
        half = [vec(*(Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)))
                for _ in range(d + rng.randint(0, 2))]
        try:
            return PolytopeBall.from_vertices(half + [-v for v in half])
        except DegenerateInputError:
            continue


def test_birkhoff_norming_functionals_match_slope_crossings():
    # random directions, vertices, edge midpoints and edge directions
    # (two vertices sharing d - 1 facets), on random rational balls
    rng = random.Random("birkhoff-crossings")
    outcomes = []
    for d in (2, 2, 3, 3, 4):
        for _ in range(3):
            ball = random_rational_ball(rng, d)
            verts = ball.vertices
            tight = [{k for k, n in enumerate(ball.normals) if n.dot(v) == 1} for v in verts]
            edges = [(a, b) for (a, ta), (b, tb) in itertools.combinations(zip(verts, tight), 2)
                     if len(ta & tb) >= d - 1]

            def rand():
                return vec(*(Rat(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)))

            xs = [rand() for _ in range(4)] + list(verts[:6])
            xs += [(a + b) / 2 for a, b in edges[:6]]
            ys = [rand() for _ in range(4)] + list(verts[:4]) + [b - a for a, b in edges[:6]]
            for x in xs:
                for y in ys:
                    if x.is_zero() or y.is_zero():
                        continue
                    got = birkhoff_orthogonal(ball, x, y)
                    assert got == crossing_birkhoff(ball, x, y), (ball, x, y)
                    outcomes.append(got)
    assert len(outcomes) > 1500 and 0.05 < sum(outcomes) / len(outcomes) < 0.95


def test_birkhoff_zero_vectors_are_orthogonal():
    assert birkhoff_orthogonal(SQUARE, vec(0, 0), vec(1, 1))
    assert birkhoff_orthogonal(SQUARE, vec(1, 1), vec(0, 0))


def test_point_hyperplane_distance():
    h = Hyperplane(vec(1, 0), Rat(2))
    assert point_hyperplane_distance(SQUARE, vec(0, 0), h) == 2
    # in the diamond norm, h_B((1,0)) = 1 as well
    assert point_hyperplane_distance(DIAMOND, vec(0, 0), h) == 2
    # scaled normal leaves the distance unchanged
    h2 = Hyperplane(vec(3, 0), Rat(6))
    assert point_hyperplane_distance(SQUARE, vec(0, 0), h2) == 2


def test_ball_translate_contains():
    b = Ball(SQUARE, vec(2, 1), Rat(3, 2))
    assert b.contains(vec(2, 1), strict=True)
    assert b.contains(vec(Rat(7, 2), 1))
    assert not b.contains(vec(Rat(7, 2), 1), strict=True)
    assert not b.contains(vec(4, 1))
    with pytest.raises(MixedModeError):
        Ball(SQUARE, fvec(0, 0), Rat(1))
    with pytest.raises(DegenerateInputError):
        Ball(SQUARE, vec(0, 0), Rat(0))


@given(symmetric_polygons(), st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=40, deadline=None)
def test_chord_through_polytopal(ball, pt, dt):
    d = vec(*dt)
    assume(not d.is_zero())
    x = vec(*pt)
    g = ball.gauge(x)
    center = vec(1, -2)
    radius = Rat(5, 2)
    # place the base point strictly inside the translate
    p = center if g == 0 else center + x.scale(radius / (2 * g))
    tm, tp = chord_through(Ball(ball, center, radius), p, d)
    assert tm < 0 < tp
    for t in (tm, tp):
        assert ball.gauge(p + d.scale(t) - center) == radius


def test_chord_through_smooth():
    b = Ball(euclidean_ball(2), fvec(0, 0), 1.0)
    tm, tp = chord_through(b, fvec(0.5, 0.0), fvec(1.0, 0.0))
    assert tm == pytest.approx(-1.5, rel=EPS_REL, abs=1e-12)
    assert tp == pytest.approx(0.5, rel=EPS_REL, abs=1e-12)
    # off-axis chord of the p=4 ball lands on the boundary
    ball4 = PNormBall(2, 4.0)
    b4 = Ball(ball4, fvec(0.1, 0.2), 1.25)
    tm, tp = chord_through(b4, fvec(0.3, 0.1), fvec(1.0, 2.0))
    for t in (tm, tp):
        end = fvec(0.3 + t, 0.1 + 2 * t)
        assert ball4.gauge(end - fvec(0.1, 0.2)) == pytest.approx(1.25, abs=1e-9)


def bisection_chord_end(rel, dirs, p, r):
    """Reference: double a bracket, then bisect it to EPS_BISECT."""

    def g(t):
        return lp_norm([a + t * b for a, b in zip(rel, dirs)], p) - r

    hi = 1.0
    while g(hi) <= 0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > EPS_BISECT * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def random_chords(n, seed=2024):
    """(ball, base point, direction) with d in 2-4, p in 1.01-500 and
    coordinates scaled by up to 1e300; the base point lies anywhere
    strictly inside, so some chords graze the sphere."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        d = rng.randint(2, 4)
        p = math.exp(rng.uniform(math.log(1.01), math.log(500.0)))
        s = 10.0 ** rng.uniform(0.0, 300.0)
        center = fvec(*(rng.gauss(0.0, 1.0) * s for _ in range(d)))
        radius = rng.uniform(0.2, 3.0) * s
        x = [rng.gauss(0.0, 1.0) for _ in range(d)]
        k = rng.uniform(0.0, 0.999) * radius / lp_norm(x, p)
        base = fvec(*(c + k * xi for c, xi in zip(center, x)))
        u = s * 10.0 ** rng.uniform(-2.0, 2.0)
        direction = fvec(*(rng.gauss(0.0, 1.0) * u for _ in range(d)))
        out.append((Ball(PNormBall(d, p), center, radius), base, direction))
    return out


CHORDS = random_chords(300)


def test_smooth_chords_match_bisection():
    for ball, base, direction in CHORDS:
        p, r = ball.unit.p, ball.radius
        rel = [a - c for a, c in zip(base, ball.center)]
        dirs = list(direction)
        tm, tp = chord_through(ball, base, direction)
        assert tm < 0 < tp
        for t, sgn in ((tp, 1.0), (tm, -1.0)):
            ref = sgn * bisection_chord_end(rel, [sgn * c for c in dirs], p, r)
            end = [a + t * b for a, b in zip(rel, dirs)]
            norm = lp_norm(end, p)
            assert norm == pytest.approx(r, rel=EPS_REL)
            # a root is only defined to the rounding of the norm, a few
            # ulps of r, over the slope g'(t); for chords that do not
            # graze the sphere r / |g'(t)| is about |t|
            slope = abs(sum(g * c for g, c in zip(lp_gradient(end, p, norm), dirs)))
            assert abs(t - ref) <= 1e-14 * max(1.0, abs(t), r / slope)


def test_smooth_chord_needs_few_norm_evaluations():
    # counts the calls of _chord_end's g, which in 2D and 3D evaluates
    # the norm without calling lp_norm
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "g" and frame.f_code.co_filename == norms.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        for ball, base, direction in CHORDS:
            chord_through(ball, base, direction)
    finally:
        sys.setprofile(None)
    # doubling and bisection to EPS_BISECT took about 104 per chord; g(0)
    # is taken once per chord outside g and is not counted
    assert calls / len(CHORDS) <= 24


def general_chord_end(rel, dirs, p, r, g0):
    """Reference for norms._chord_end: the same bracket doubling and
    root_in_bracket, with g taken by the general lp_norm."""

    def g(t):
        return lp_norm([a + t * b for a, b in zip(rel, dirs)], p) - r

    lo, g_lo, hi = 0.0, g0, 1.0
    for _ in range(200):
        g_hi = g(hi)
        if g_hi >= 0.0:
            return root_in_bracket(g, lo, hi, g_lo, g_hi)
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
    raise NonConvergenceError("chord bracket expansion failed")


def chord_end_cases():
    """(rel, dirs, p, r) in 2D and 3D: seeded points and directions at
    scales 1e-300 to 1e300, entries 0.0 and -0.0, axis directions, and
    directions whose rel + t * dirs overflows at t = 1."""
    rng = random.Random("chord-end-bits")
    cases = []
    for d in (2, 3):
        for p in (1.01, 1.5, 2.0, 3.0, 4.0, 50.0, 300.0, 1e6):
            for s in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300):
                for k in range(4):
                    rel = [rng.gauss(0.0, 1.0) * s for _ in range(d)]
                    dirs = [rng.gauss(0.0, 1.0) * s * 10.0 ** rng.uniform(-2.0, 2.0) for _ in range(d)]
                    if k == 1:
                        rel[rng.randrange(d)] = rng.choice((0.0, -0.0))
                        dirs[rng.randrange(d)] = rng.choice((0.0, -0.0))
                    elif k == 2:
                        axis = rng.randrange(d)
                        dirs = [dirs[axis] if j == axis else rng.choice((0.0, -0.0)) for j in range(d)]
                    r = lp_norm(rel, p) / rng.uniform(0.05, 0.999) or s
                    cases.append((rel, dirs, p, r))
            big = [1e308, -0.0, 0.0][:d]
            cases.append((big, [1e308] * d, p, 1.7e308))
            cases.append(([0.0] * d, [-1.7e308] + [1e308] * (d - 1), p, 1.0))
    return cases


def chord_end_outcome(end, rel, dirs, p, r):
    try:
        return end(rel, dirs, p, r, lp_norm(rel, p) - r).hex()
    except NonConvergenceError as exc:
        return str(exc)


def test_unrolled_chord_end_has_the_general_bits():
    overflows = 0
    for rel, dirs, p, r in chord_end_cases():
        overflows += lp_norm([a + b for a, b in zip(rel, dirs)], p) == math.inf
        for w in (dirs, [-c for c in dirs]):
            assert chord_end_outcome(norms._chord_end, rel, w, p, r) == chord_end_outcome(
                general_chord_end, rel, w, p, r
            ), (rel, w, p, r)
    # the big = inf exit at t = 1, in both dimensions at every p
    assert overflows >= 16


def test_unreachable_chord_end_raises():
    ball = Ball(PNormBall(2, 3.0), fvec(0, 0), 1.0)
    # 200 doublings reach t = 2^200, still inside the ball
    with pytest.raises(NonConvergenceError):
        chord_through(ball, fvec(0, 0), fvec(1e-80, 0))


def test_root_in_bracket_moves_both_ends():
    # on x^8 - 1/2 plain false position keeps the right end for good
    # and creeps up from the left for over 100,000 steps; the
    # Illinois halving moves the kept end
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return x ** 8 - 0.5

    root = root_in_bracket(f, 0.0, 2.0, -0.5, 255.5)
    assert root == pytest.approx(0.5 ** 0.125, abs=2 * EPS_BISECT)
    assert calls <= 40
    assert root_in_bracket(f, 0.0, 2.0, 0.0, 255.5) == 0.0
    with pytest.raises(DegenerateInputError):
        root_in_bracket(f, 1.0, 2.0, 0.5, 255.5)


def test_chord_requires_interior_base():
    with pytest.raises(DegenerateInputError):
        chord_through(Ball(SQUARE, vec(0, 0), Rat(1)), vec(1, 0), vec(0, 1))
    with pytest.raises(DegenerateInputError):
        chord_through(Ball(SQUARE, vec(0, 0), Rat(1)), vec(0, 0), vec(0, 0))
