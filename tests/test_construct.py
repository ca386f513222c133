"""Construction of inscribed centered simplices and equilateral
triangles, across ball kinds, dimensions, and seeding strategies."""

import hashlib
import math
import random
from operator import mul

import pytest

from minksimplex import construct
from minksimplex.circumcenter import is_ag_quasiregular
from minksimplex.construct import (
    bisected_chord,
    equilateral_triangle,
    quasiregular_simplex,
)
from minksimplex.config import EPS_REL
from minksimplex.errors import DegenerateInputError, VerificationError
from minksimplex.linalg import Vec, unit_vec
from minksimplex.norms import PNormBall, PolytopeBall, euclidean_ball
from minksimplex.polytopes import vertex_rays
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

from conftest import (
    CROSSPOLYTOPE,
    CUBE,
    DIAMOND,
    HEXAGON,
    HYPERCUBE,
    OCTAHEDRON,
    SQUARE,
    fvec,
    random_symmetric_polygon,
    random_symmetric_polytope_3d,
    vec,
)

EXACT_BALLS = [SQUARE, DIAMOND, HEXAGON, CUBE, OCTAHEDRON, HYPERCUBE, CROSSPOLYTOPE]
SEEDS = [None, 0, 1, 2, 3, 4]


def assert_valid_construction(c):
    ball, T = c.ball, c.simplex
    d = ball.dim
    assert len(T.vertices) == d + 1
    if ball.mode == "exact":
        assert T.centroid == Vec(tuple(Rat(0) for _ in range(d)))
        for v in T.vertices:
            assert ball.gauge(v) == 1
    else:
        assert all(abs(float(x)) <= 1e-9 for x in T.centroid.coords)
        for v in T.vertices:
            assert float(ball.gauge(v)) == pytest.approx(1.0, abs=1e-9)
    assert is_ag_quasiregular(T, ball)


@pytest.mark.parametrize("ball", EXACT_BALLS, ids=lambda b: repr(b))
@pytest.mark.parametrize("seed", SEEDS)
def test_postconditions_exact(ball, seed):
    c = quasiregular_simplex(ball, seed=seed)
    assert_valid_construction(c)
    # picks carry the audit trail: one chord per placed vertex through
    # the running target, which stays strictly inside the ball
    assert len(c.picks) == ball.dim - 1
    for pick in c.picks:
        assert ball.gauge(pick.vertex) == 1
        assert ball.gauge(pick.far_end) == 1
        assert ball.gauge(pick.target_after) < 1


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [None, 0, 3])
def test_postconditions_smooth(dim, seed):
    c = quasiregular_simplex(euclidean_ball(dim), seed=seed)
    assert_valid_construction(c)
    c4 = quasiregular_simplex(PNormBall(dim, 4.0), seed=seed)
    assert_valid_construction(c4)


def test_smooth_simplex_needs_few_chords(monkeypatch):
    calls = 0
    chord_through = construct.chord_through

    def counted(*args):
        nonlocal calls
        calls += 1
        return chord_through(*args)

    monkeypatch.setattr(construct, "chord_through", counted)
    builds = 0
    for d in (2, 3, 4):
        for p in (1.5, 2.0, 2.5, 3.0, 4.0):
            for seed in (None, 0, 1, 2, 3):
                assert_valid_construction(quasiregular_simplex(PNormBall(d, p), seed=seed))
                builds += 1
    # bisecting the closing chord's angle took about 31 per simplex
    assert calls / builds <= 16


@pytest.mark.parametrize("ball, draws", [(CUBE, 3), (PNormBall(3, 3.0), 1)], ids=["cube", "p3-3d"])
def test_seeded_candidates_are_drawn_when_tried(monkeypatch, ball, draws):
    # level 3 takes the first seeded candidate whose chord it can use;
    # drawing all 32 up front made 32 draws on both balls
    calls = 0
    seeded_direction = construct._seeded_direction

    def counted(*args):
        nonlocal calls
        calls += 1
        return seeded_direction(*args)

    monkeypatch.setattr(construct, "_seeded_direction", counted)
    assert_valid_construction(quasiregular_simplex(ball, seed=0))
    assert calls == draws


def test_postconditions_random_balls():
    rng = random.Random("construct-balls")
    for _ in range(6):
        assert_valid_construction(quasiregular_simplex(random_symmetric_polygon(rng)))
        assert_valid_construction(
            quasiregular_simplex(random_symmetric_polytope_3d(rng), seed=rng.randint(0, 99))
        )


@pytest.mark.parametrize("ball", [SQUARE, CUBE, HYPERCUBE], ids=lambda b: repr(b))
def test_bitexact_reproducibility(ball):
    for seed in SEEDS:
        a = quasiregular_simplex(ball, seed=seed)
        b = quasiregular_simplex(ball, seed=seed)
        assert a.simplex.vertices == b.simplex.vertices
        assert a.picks == b.picks
        assert a.closing_chord == b.closing_chord


def test_seeds_reach_distinct_simplices_in_3d():
    results = {
        tuple(v.coords for v in quasiregular_simplex(CUBE, seed=s).simplex.vertices)
        for s in SEEDS
    }
    assert len(results) >= 2


def test_euclidean_triangle_is_regular():
    c = quasiregular_simplex(euclidean_ball(2), anchor=fvec(1, 0))
    got = sorted(
        (tuple(float(x) for x in v.coords) for v in c.simplex.vertices)
    )
    h = math.sqrt(3.0) / 2.0
    want = sorted([(1.0, 0.0), (-0.5, h), (-0.5, -h)])
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-12)


def test_anchor_is_respected():
    anchor = vec(1, 1)
    c = quasiregular_simplex(HEXAGON, anchor=anchor)
    assert c.simplex.vertices[0] == anchor
    with pytest.raises(DegenerateInputError):
        quasiregular_simplex(HEXAGON, anchor=vec(2, 0))
    # smooth anchors are normalized onto the sphere instead
    c = quasiregular_simplex(euclidean_ball(2), anchor=fvec(3, 4))
    assert c.simplex.vertices[0].coords == pytest.approx((0.6, 0.8))


def test_closing_chord_is_bisected_by_its_target():
    c = quasiregular_simplex(CUBE, seed=2)
    r, s = c.closing_chord
    # the last two vertices average to the final running target
    target = c.picks[-1].target_after
    assert (r + s) / 2 == target


def test_prescribed_vertices_can_be_uncompletable():
    # the schedule matters: three prescribed unit vectors in the
    # euclidean 4-ball admit no completion to an inscribed centered
    # simplex, because the two missing vertices would need to average
    # to a point of gauge 11/10, and a chord midpoint never leaves the
    # ball.  exact arithmetic on the prescribed rationals:
    prescribed = [
        (Rat(3, 5), Rat(4, 5), Rat(0), Rat(0)),
        (Rat(3, 5), Rat(-4, 5), Rat(0), Rat(0)),
        (Rat(1), Rat(0), Rat(0), Rat(0)),
    ]
    total = tuple(sum(col) for col in zip(*prescribed))
    midpoint = tuple(-c / 2 for c in total)
    assert midpoint == (Rat(-11, 10), Rat(0), Rat(0), Rat(0))
    # euclidean gauge of (-11/10, 0, 0, 0) is exactly 11/10 > 1
    sq = sum(c * c for c in midpoint)
    assert sq == Rat(121, 100) and sq > 1
    # the builder never walks into this: its running targets stay
    # strictly inside (checked per pick in the postcondition tests),
    # and the full construction still succeeds in the same ball
    assert_valid_construction(quasiregular_simplex(euclidean_ball(4)))


def test_bisected_chord_postcondition():
    # direct check of the closing-step helper on a planar section
    target = vec(Rat(1, 4), Rat(1, 8))
    frame = [unit_vec(2, 0), unit_vec(2, 1)]
    r, s = bisected_chord(HEXAGON, target, frame)
    assert (r + s) / 2 == target
    assert HEXAGON.gauge(r) == 1 and HEXAGON.gauge(s) == 1


# -- equilateral triangles --------------------------------------------


@pytest.mark.parametrize("ball", [SQUARE, DIAMOND, HEXAGON], ids=lambda b: repr(b))
def test_equilateral_exact(ball):
    tri = equilateral_triangle(ball)
    sides = tri.side_lengths(ball)
    assert sides == [1, 1, 1]


def test_equilateral_anchored():
    tri = equilateral_triangle(HEXAGON, anchor=vec(0, 1))
    assert tri.vertices[1] == vec(0, 1)
    assert tri.side_lengths(HEXAGON) == [1, 1, 1]
    with pytest.raises(DegenerateInputError):
        equilateral_triangle(HEXAGON, anchor=vec(3, 3))
    with pytest.raises(DegenerateInputError):
        equilateral_triangle(CUBE)


def test_equilateral_smooth():
    tri = equilateral_triangle(euclidean_ball(2))
    for s in tri.side_lengths(euclidean_ball(2)):
        assert float(s) == pytest.approx(1.0, abs=1e-9)
    tri = equilateral_triangle(PNormBall(2, 3.0), anchor=fvec(0, 2))
    for s in tri.side_lengths(PNormBall(2, 3.0)):
        assert float(s) == pytest.approx(1.0, abs=1e-9)


def test_zero_float_anchor_is_refused():
    # both constructors share one anchor rule: a zero float anchor has
    # no multiple on the unit sphere
    for build in (equilateral_triangle, quasiregular_simplex):
        with pytest.raises(DegenerateInputError, match="anchor must be nonzero"):
            build(PNormBall(2, 3.0), anchor=fvec(0.0, 0.0))


def test_on_sphere_is_exact_or_within_eps_rel():
    assert construct._on_sphere(SQUARE, vec(1, "1/2"))
    assert not construct._on_sphere(SQUARE, vec("1/2", "1/2"))
    ball = PNormBall(2, 2.0)
    assert construct._on_sphere(ball, fvec(1.0 + EPS_REL / 2, 0.0))
    assert not construct._on_sphere(ball, fvec(1.0 + 2 * EPS_REL, 0.0))
    assert not construct._on_sphere(ball, fvec(1.0 - 2 * EPS_REL, 0.0))
    nan = fvec(math.nan, 0.0)
    assert math.isnan(ball.gauge(nan)) and not construct._on_sphere(ball, nan)


@pytest.mark.parametrize("ball, to_vec", [(SQUARE, vec), (PNormBall(2, 2.0), fvec)])
def test_verify_inscribed_rejects_in_both_lanes(ball, to_vec):
    # centroid 0 with gauge(2, 0) = 2; then all three on the sphere with
    # centroid (0, 1/3)
    off = Simplex([to_vec(2, 0), to_vec(-1, 1), to_vec(-1, -1)])
    with pytest.raises(VerificationError, match="vertex off the unit sphere"):
        construct._verify_inscribed(ball, off)
    shifted = Simplex([to_vec(1, 0), to_vec(0, 1), to_vec(-1, 0)])
    with pytest.raises(VerificationError, match="centroid missed the ball center"):
        construct._verify_inscribed(ball, shifted)


def test_equilateral_random_polygons():
    rng = random.Random("equi")
    for _ in range(10):
        ball = random_symmetric_polygon(rng)
        tri = equilateral_triangle(ball)
        assert tri.side_lengths(ball) == [1, 1, 1]


def _strs(v):
    return tuple(str(c) for c in v.coords)


# Outputs of the constructor before the section polygon moved to integer
# rows: the exact values must not change.
PINNED_SIMPLICES = [
    (SQUARE, None, [("-1", "-1"), ("1", "0"), ("0", "1")]),
    (SQUARE, 1, [("-1", "-1"), ("1", "0"), ("0", "1")]),
    (DIAMOND, None, [("-1", "0"), ("1/2", "-1/2"), ("1/2", "1/2")]),
    (HEXAGON, 2, [("-1", "-1"), ("1", "0"), ("0", "1")]),
    (CUBE, None, [("-1", "-1", "-1"), ("1/3", "-1/3", "1"), ("1/3", "1/3", "-1"), ("1/3", "1", "1")]),
    (CUBE, 0, [("-1", "-1", "-1"), ("1/3", "-1/9", "1"), ("1/3", "1/9", "-1"), ("1/3", "1", "1")]),
    (CUBE, 1, [("-1", "-1", "-1"), ("1/3", "1", "-1/9"), ("1/3", "1", "1/9"), ("1/3", "-1", "1")]),
    (OCTAHEDRON, None, [("-1", "0", "0"), ("1/3", "-2/3", "0"), ("1/3", "1/3", "-1/3"), ("1/3", "1/3", "1/3")]),
    (OCTAHEDRON, 1, [("-1", "0", "0"), ("1/3", "-1/6", "-1/2"), ("1/3", "1/2", "1/6"), ("1/3", "-1/3", "1/3")]),
    (OCTAHEDRON, 3, [("-1", "0", "0"), ("1/3", "-1/3", "-1/3"), ("1/3", "1/3", "-1/3"), ("1/3", "0", "2/3")]),
    (HYPERCUBE, None, [("-1", "-1", "-1", "-1"), ("1/4", "1", "1/4", "1/4"), ("1/4", "0", "1", "1/4"),
                       ("1/4", "0", "3/4", "1"), ("1/4", "0", "-1", "-1/2")]),
    (HYPERCUBE, 1, [("-1", "-1", "-1", "-1"), ("1/4", "1/2", "1", "-1/4"), ("1/4", "1/6", "7/18", "1"),
                    ("1/4", "1/6", "11/18", "1"), ("1/4", "1/6", "-1", "-3/4")]),
    (HYPERCUBE, 3, [("-1", "-1", "-1", "-1"), ("1/4", "1", "1", "0"), ("1/4", "0", "-1", "-1/6"),
                    ("1/4", "0", "1", "1/6"), ("1/4", "0", "0", "1")]),
]


@pytest.mark.parametrize("ball, seed, expected", PINNED_SIMPLICES)
def test_quasiregular_simplex_pinned(ball, seed, expected):
    c = quasiregular_simplex(ball, seed=seed)
    assert [_strs(v) for v in c.simplex.vertices] == expected


R = Rat
PINNED_CHORDS = [
    # the closing chord comes from two parallel edges of the section
    # polygon (its edge-pair system has a line of solutions)
    (SQUARE, (0, R(-1, 2)), ((1, 1), (1, -1)), ("-1", "-1"), ("1", "0")),
    (HEXAGON, (0, R(-1, 2)), ((1, 1), (1, -1)), ("-1", "-1"), ("1", "0")),
    (SQUARE, (R(1, 4), R(1, 5)), ((1, 0), (0, 1)), ("1", "-3/5"), ("-1/2", "1")),
    (DIAMOND, (R(1, 4), R(1, 5)), ((1, 0), (0, 1)), ("9/20", "-11/20"), ("1/20", "19/20")),
    (DIAMOND, (R(1, 3), 0), ((1, 1), (1, -1)), ("1/3", "2/3"), ("1/3", "-2/3")),
    (HEXAGON, (R(1, 3), 0), ((1, 1), (1, -1)), ("2/3", "1"), ("0", "-1")),
    (HEXAGON, (R(1, 4), R(1, 5)), ((2, 1), (0, 1)), ("2/5", "-3/5"), ("1/10", "1")),
    (CUBE, (R(1, 3), 0, R(1, 5)), ((1, 0, 0), (0, 1, 1)), ("1", "-4/5", "-3/5"), ("-1/3", "4/5", "1")),
    (CUBE, (R(1, 3), R(-1, 9), 0), ((0, 1, 0), (0, 0, 1)), ("1/3", "-1", "-1"), ("1/3", "7/9", "1")),
    (OCTAHEDRON, (0, R(1, 4), 0), ((1, 1, 0), (0, 0, 1)), ("0", "1/4", "-3/4"), ("0", "1/4", "3/4")),
    (OCTAHEDRON, (R(1, 3), 0, R(-1, 6)), ((0, 1, 0), (1, 0, 2)), ("1/3", "-1/2", "-1/6"), ("1/3", "1/2", "-1/6")),
    (HYPERCUBE, (R(1, 4), 0, 0, R(1, 3)), ((1, 0, 0, 0), (0, 1, 1, 0)),
     ("-1/2", "-1", "-1", "1/3"), ("1", "1", "1", "1/3")),
    (HYPERCUBE, (R(1, 4), R(1, 8), R(-1, 2), 0), ((0, 0, 1, 0), (0, 1, 0, 1)),
     ("1/4", "1", "0", "7/8"), ("1/4", "-3/4", "-1", "-7/8")),
]


@pytest.mark.parametrize("ball, origin, frame, r, s", PINNED_CHORDS)
def test_bisected_chord_exact_pinned(ball, origin, frame, r, s):
    ends = construct._bisected_chord_exact(ball, vec(*origin), [vec(*f) for f in frame])
    assert (_strs(ends[0]), _strs(ends[1])) == (r, s)


def _mask_walk_section(ball, origin, frame):
    """Oracle for construct._section_polygon: the same kernel rows and
    vertices, ordered by walking from the lexicographically least vertex
    to the neighbours it shares a tight kernel row with, the first step
    turning counterclockwise."""
    (v1, v2), O, Do = frame, origin.X, origin.D
    rows_n, s_n = ball._normal_rows
    rows = []
    for N in rows_n:
        c1 = sum(map(mul, N, v1.X)) * v2.D * Do
        c2 = sum(map(mul, N, v2.X)) * v1.D * Do
        h = (s_n * Do - sum(map(mul, N, O))) * v1.D * v2.D
        if c1 or c2:
            rows.append((c1, c2, -h))
    rays = vertex_rays(rows, 2)
    L = math.lcm(*(y[2] for y, _ in rays))
    pts = [(y[0] * (L // y[2]), y[1] * (L // y[2])) for y, _ in rays]
    order = [min(range(len(pts)), key=pts.__getitem__)]
    while len(order) < len(pts):
        cur = order[-1]
        nxt = [j for j, (_, m) in enumerate(rays) if m & rays[cur][1] and j not in order]
        if len(nxt) == 2:
            (ox, oy), (px, py), (qx, qy) = pts[cur], pts[nxt[0]], pts[nxt[1]]
            if (px - ox) * (qy - oy) < (py - oy) * (qx - ox):
                nxt.reverse()
        order.append(nxt[0])
    return [pts[i] for i in order], L


def test_section_polygon_matches_the_mask_walk():
    rng = random.Random("section-polygon")
    balls = EXACT_BALLS + [random_symmetric_polygon(rng) for _ in range(4)]
    balls += [random_symmetric_polytope_3d(rng) for _ in range(4)]
    checked = 0
    for ball in balls:
        d = ball.dim
        for _ in range(6):
            frame = [
                vec(*(R(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d))) for _ in range(2)
            ]
            (a, b) = frame
            if all(a[i] * b[j] == a[j] * b[i] for i in range(d) for j in range(d)):
                continue  # not a 2-plane
            x = vec(*(rng.randint(-3, 3) for _ in range(d)))
            if x.is_zero():
                continue
            origin = x * (R(rng.randint(0, 9), 10) / ball.gauge(x))
            assert construct._section_polygon(ball, origin, frame) == _mask_walk_section(
                ball, origin, frame
            )
            checked += 1
    assert checked >= 60


def _float_lane_text(c):
    """The float outputs as their reprs, so a changed last bit or a lost
    sign of zero shows: every vertex coordinate, every pick direction,
    then the closing chord's ends."""
    parts = [repr(x) for v in c.simplex.vertices for x in v.coords]
    parts += [repr(x) for p in c.picks for x in p.direction.coords]
    parts += [repr(x) for v in c.closing_chord for x in v.coords]
    return " ".join(parts)


# sha256 prefixes of _float_lane_text per (dimension, p) and seed.  Seed
# 3 draws level-3 directions with -0.0 entries in 3D and 4D, so the pins
# also cover the sign of zero.
PINNED_FLOAT_LANE = [
    (2, 1.3, {None: "ac037501a8906d85", 0: "ac037501a8906d85", 3: "ac037501a8906d85", 7: "ac037501a8906d85"}),
    (2, 3.0, {None: "54abe35f21e6664b", 0: "54abe35f21e6664b", 3: "54abe35f21e6664b", 7: "54abe35f21e6664b"}),
    (2, 40.0, {None: "b75d5a1f987584ce", 0: "b75d5a1f987584ce", 3: "b75d5a1f987584ce", 7: "b75d5a1f987584ce"}),
    (3, 1.3, {None: "f2eb55b70523cdc5", 0: "cdbecf44039f4ddd", 3: "b77d394bf4aa4090", 7: "64307636e7372c4d"}),
    (3, 3.0, {None: "8bc5b63419f7e31a", 0: "8341f2f645764907", 3: "40a2bec93ff53049", 7: "99ef0f14066f24ee"}),
    (3, 40.0, {None: "75b37f8454ca3ef5", 0: "10a312e0270caa21", 3: "332ee430584825b9", 7: "78106b38d8661ad1"}),
    (4, 1.3, {None: "d62f1a5d3c49e492", 0: "0a4b099994e4ba96", 3: "3323c7e13d022ac5", 7: "79ee84945dbaeda0"}),
    (4, 3.0, {None: "f84baee6b2e42b08", 0: "814c8d5b2f9b17b7", 3: "1f536627c23150ba", 7: "ce87e3a6be4d9163"}),
    (4, 40.0, {None: "40b8bc741f34a507", 0: "0a9ec79f0ff42b93", 3: "369c8ee661ff0220", 7: "2dbf81e71d1b829d"}),
]


@pytest.mark.parametrize(
    "dim, p, seed, digest",
    [(d, p, s, h) for d, p, pins in PINNED_FLOAT_LANE for s, h in pins.items()],
)
def test_quasiregular_simplex_float_lane_pinned(dim, p, seed, digest):
    text = _float_lane_text(quasiregular_simplex(PNormBall(dim, p), seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
