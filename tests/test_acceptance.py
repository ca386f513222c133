"""Acceptance gate: one test per shipped guarantee, one line per verdict.

Each test here states a user-facing property of the package at corpus
scale.  Module-level tests elsewhere cover the same ground in finer
grain; this file is the contract.  Sizes and tolerances are fixed and
must not be loosened: exact-mode checks compare rationals with ==,
smooth-mode repeats allow 1e-7 relative (1e-12 for the pinned
Euclidean triangle).
"""

import json
import random

import pytest

from minksimplex.centers import euler_line, exspheres, incenter
from minksimplex.circumcenter import (
    MULTIPLE,
    SINGLETON,
    circumcenters,
    cube_edge_midpoint_instance,
    in_medial_polytope,
    in_vertex_facet_cone,
    is_ag_quasiregular,
    on_vertex_side_of_medial,
)
from minksimplex.cli import main
from minksimplex.construct import quasiregular_simplex
from minksimplex.equivalence import duality_bridge_holds, planted_generator
from minksimplex.linalg import Vec, affine_rank, general_position
from minksimplex.norms import (
    PolytopeBall,
    birkhoff_orthogonal,
    euclidean_ball,
    is_radon,
    point_hyperplane_distance,
    PNormBall,
)
from minksimplex.scalars import Rat
from minksimplex.scene import parse_scene, scene_to_dict
from minksimplex.simplex import Simplex

from conftest import (
    CROSSPOLYTOPE,
    CUBE,
    DIAMOND,
    HEXAGON,
    HYPERCUBE,
    OCTAHEDRON,
    SQUARE,
    chebyshev_incenter,
    fvec,
    random_rational_simplex,
    random_symmetric_polygon,
    random_symmetric_polytope_3d,
    vec,
)


def twentyfour_cell():
    coords = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Rat(0)] * 4
                    v[i], v[j] = Rat(si), Rat(sj)
                    coords.append(Vec(v))
    return PolytopeBall.from_vertices(coords)


def ball_pool_2d(rng, extra=8):
    pool = [SQUARE, DIAMOND, HEXAGON]
    pool += [random_symmetric_polygon(rng, pairs=rng.randint(2, 6)) for _ in range(extra)]
    return pool


def ball_pool_3d(rng, extra=8):
    pool = [CUBE, OCTAHEDRON]
    pool += [random_symmetric_polytope_3d(rng, pairs=rng.randint(3, 5)) for _ in range(extra)]
    return pool


def boundary_point(ball, center, radius, rng):
    """A rational point with gauge distance exactly `radius` from `center`."""
    d = ball.dim
    while True:
        u = Vec([Rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)])
        if not u.is_zero():
            return center + u * (radius / ball.gauge(u))


def sphere_simplex(ball, center, radius, rng):
    for _ in range(64):
        pts = [boundary_point(ball, center, radius, rng) for _ in range(ball.dim + 1)]
        if general_position(pts):
            return Simplex(pts)
    raise AssertionError("could not sample a simplex on the sphere")


@pytest.fixture(scope="module")
def circumcenter_corpus():
    """1,000 exact instances: 850 planar, 150 in three-space."""
    rng = random.Random("acceptance-corpus")
    pool2 = ball_pool_2d(rng, extra=12)
    pool3 = ball_pool_3d(rng, extra=8)
    corpus = []
    for i in range(1000):
        d = 3 if i >= 850 else 2
        pool = pool3 if d == 3 else pool2
        ball = pool[rng.randrange(len(pool))]
        simplex = random_rational_simplex(rng, d, span=4)
        corpus.append((simplex, ball, circumcenters(simplex, ball)))
    return corpus


def test_criterion_01_exact_circumcenter_witnesses(circumcenter_corpus):
    # every enumerated witness is a circumcenter on the nose, and a
    # rational grid scan over 50 planar instances finds nothing the
    # enumeration missed
    witnesses = 0
    for simplex, ball, cset in circumcenter_corpus:
        for piece in cset.pieces:
            for v in simplex.vertices:
                assert ball.gauge(v - piece.center) == piece.radius
            witnesses += 1
    assert witnesses > 100

    rng = random.Random("acceptance-grid")
    engineered = [
        (Simplex([vec(-2, 0), vec(2, 0), vec(0, 2)]), SQUARE),
        (Simplex([vec(0, 0), vec(4, 0), vec(0, 3)]), SQUARE),
        (Simplex([vec(-2, 0), vec(2, 0), vec(0, 2)]), DIAMOND),
    ]
    pool = ball_pool_2d(rng, extra=5)
    instances = list(engineered)
    while len(instances) < 50:
        # integer vertices keep circumcenters on small denominators, so
        # the quarter-step grid actually lands on them
        pts = [vec(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
        if not general_position(pts):
            continue
        instances.append((Simplex(pts), pool[rng.randrange(len(pool))]))

    step = Rat(1, 4)
    lo = Rat(-25, 4)
    hits = 0
    for simplex, ball in instances:
        cset = circumcenters(simplex, ball)
        a, b, c = simplex.vertices
        for ix in range(51):
            x = lo + ix * step
            for iy in range(51):
                m = Vec((x, lo + iy * step))
                g = ball.gauge(a - m)
                if g == 0 or g != ball.gauge(b - m):
                    continue
                if g != ball.gauge(c - m):
                    continue
                assert cset.covers(m, g), (simplex.vertices, m)
                hits += 1
    assert hits > 0


def test_criterion_02_medial_side_location_dichotomy(circumcenter_corpus):
    # a circumcenter sits on the vertex side of the i-th medial
    # hyperplane exactly when it is not in the i-th vertex-facet cone;
    # circumcenters inside the simplex land in the medial polytope
    pairs = 0
    side_count = 0
    inside = 0
    for simplex, ball, cset in circumcenter_corpus:
        for piece in cset.pieces:
            for i in range(simplex.dim + 1):
                side = on_vertex_side_of_medial(simplex, i, piece.center)
                cone = in_vertex_facet_cone(simplex, i, ball, piece.center, piece.radius)
                assert side == (not cone)
                pairs += 1
                side_count += side
            if simplex.contains(piece.center):
                inside += 1
                assert in_medial_polytope(simplex, piece.center)
    assert pairs > 500
    assert 0 < side_count < pairs
    assert inside > 10


def test_criterion_03_interior_circumcenter_is_unique():
    # planar: a circumcenter strictly inside the medial triangle is the
    # only circumcenter
    rng = random.Random("acceptance-interior")
    pool = ball_pool_2d(rng, extra=10)
    checked = 0
    for i in range(500):
        ball = pool[i % len(pool)]
        base = quasiregular_simplex(ball, seed=i // len(pool)).simplex
        shift = vec(Rat(rng.randint(-8, 8), 2), Rat(rng.randint(-8, 8), 2))
        T = base.scale(Rat(rng.randint(1, 6), 2)).translate(shift)
        center = T.centroid
        assert in_medial_polytope(T, center, strict=True)
        cset = circumcenters(T, ball)
        assert cset.classification == SINGLETON
        assert len(cset.pieces) == 1
        assert cset.pieces[0].center == center
        assert cset.pieces[0].affine_dim == 0
        checked += 1
    assert checked == 500


def test_criterion_04_cube_norm_edge_midpoint_fixture():
    # the cube-norm tetrahedron with two vertices on one edge midline:
    # centroid at the origin, all vertices on the unit sphere, and at
    # least two circumcenters separated parallel to the last edge
    fx = cube_edge_midpoint_instance()
    T, ball = fx.simplex, fx.ball
    assert T.centroid == Vec((Rat(0), Rat(0), Rat(0)))
    for v in T.vertices:
        assert ball.gauge(v) == 1
    cset = circumcenters(T, ball)
    assert cset.classification == MULTIPLE
    centers = cset.distinct_centers(2)
    assert len(centers) >= 2
    cd = T.vertices[3] - T.vertices[2]
    assert cd.coords[0] == 0 and cd.coords[1] == 0 and cd.coords[2] != 0
    diff = centers[1] - centers[0]
    assert diff.coords[0] == 0 and diff.coords[1] == 0 and diff.coords[2] != 0


def _check_euler_exact(simplex, ball, m, r):
    d = simplex.dim
    e = euler_line(simplex, ball, m, r)
    g = simplex.centroid
    share = Rat(r) / d if not isinstance(r, float) else r / d
    for i in range(d + 1):
        assert ball.gauge(simplex.facet_centroid(i) - e.feuerbach_center) == share
    points = [m, g, e.monge, e.concurrence, e.feuerbach_center]
    assert affine_rank(points) <= 1
    assert (e.feuerbach_center - m) * Rat(d) == e.concurrence - m
    for i in range(d + 1):
        assert simplex.vertices[i] + (simplex.facet_centroid(i) - m) * Rat(d) == e.concurrence
    coincide = all(p == m for p in points)
    assert coincide == (m == g)


def test_criterion_05_euler_line_and_feuerbach_ratios():
    # for a verified circumcenter M with radius r: the facet centroids
    # lie at gauge r/d from the Feuerbach center, the five derived
    # points are collinear, F divides [M, P] in ratio 1:(d-1), the d+1
    # vertex-to-facet-centroid lines concur at P, and the points
    # collapse exactly when M is the centroid
    rng = random.Random("acceptance-euler")
    pools = {
        2: ball_pool_2d(rng, extra=6),
        3: ball_pool_3d(rng, extra=4),
        4: [HYPERCUBE, CROSSPOLYTOPE, twentyfour_cell()],
    }
    checked = 0
    for i in range(460):
        d = (2, 2, 3, 3, 4)[i % 5]
        pool = pools[d]
        ball = pool[rng.randrange(len(pool))]
        m = Vec([Rat(rng.randint(-8, 8), 2) for _ in range(d)])
        r = Rat(rng.randint(1, 12), 2)
        T = sphere_simplex(ball, m, r, rng)
        _check_euler_exact(T, ball, m, r)
        checked += 1
    # collapsed instances: the centroid itself is the circumcenter
    for i in range(40):
        d = 2 if i % 2 == 0 else 3
        pool = pools[d]
        ball = pool[i % len(pool)]
        T = quasiregular_simplex(ball, seed=i).simplex
        m = T.centroid
        _check_euler_exact(T, ball, m, ball.gauge(T.vertices[0] - m))
        checked += 1
    assert checked == 500

    # smooth repeats, 1e-7 relative
    rel = 1e-7
    for i in range(60):
        d = (2, 3, 4)[i % 3]
        p = (2.0, 3.0, 4.0)[(i // 3) % 3]
        ball = PNormBall(d, p)
        m = Vec([rng.uniform(-4, 4) for _ in range(d)])
        r = rng.uniform(0.5, 5.0)
        pts = []
        while len(pts) < d + 1:
            u = Vec([rng.uniform(-1, 1) for _ in range(d)])
            if max(abs(c) for c in u.coords) > 1e-3:
                pts.append(m + u * (r / ball.gauge(u)))
        if not general_position(pts):
            continue
        T = Simplex(pts)
        e = euler_line(T, ball, m, r)
        share = r / d
        for j in range(d + 1):
            got = ball.gauge(T.facet_centroid(j) - e.feuerbach_center)
            assert abs(got - share) <= rel * share
        assert e.contains(e.monge, tol=rel)
        assert e.contains(e.feuerbach_center, tol=rel)
        assert e.contains(e.concurrence, tol=rel)
        for a, b in zip(((e.feuerbach_center - m) * d).coords, (e.concurrence - m).coords):
            assert abs(a - b) <= rel * max(1.0, abs(b))
        assert not e.collapsed


def test_criterion_06_quasiregular_constructor():
    # every constructed simplex is centered, on-sphere, nondegenerate,
    # and has its centroid as a circumcenter; deterministic runs are
    # bit-for-bit reproducible
    rng = random.Random("acceptance-construct")
    balls = (
        [euclidean_ball(2), SQUARE, DIAMOND]
        + [random_symmetric_polygon(rng, pairs=rng.randint(2, 6)) for _ in range(10)]
        + [euclidean_ball(3), CUBE, OCTAHEDRON]
        + [random_symmetric_polytope_3d(rng, pairs=rng.randint(3, 5)) for _ in range(10)]
        + [euclidean_ball(4), HYPERCUBE, CROSSPOLYTOPE, twentyfour_cell()]
    )
    runs = 0
    strategies = [None] + list(range(5))
    plan = [(ball, s) for ball in balls for s in strategies]
    k = 0
    while len(plan) < 500:
        plan.append((balls[3 + k % 10], 5 + k // 10))  # extra seeds, planar randoms
        k += 1
    for ball, strategy in plan:
        built = quasiregular_simplex(ball) if strategy is None else quasiregular_simplex(ball, seed=strategy)
        T = built.simplex
        exact = built.mode == "exact"
        if exact:
            assert all(c == 0 for c in T.centroid.coords)
            assert all(ball.gauge(v) == 1 for v in T.vertices)
        else:
            assert all(abs(c) <= 1e-9 for c in T.centroid.coords)
            assert all(abs(ball.gauge(v) - 1.0) <= 1e-9 for v in T.vertices)
        assert general_position(T.vertices)
        assert is_ag_quasiregular(T, ball)
        if strategy is None:
            again = quasiregular_simplex(ball)
            assert again.simplex.vertices == T.vertices
            assert again.closing_chord == built.closing_chord
        runs += 1
    assert runs >= 500

    # anchored planar Euclidean run lands on the regular triangle
    built = quasiregular_simplex(euclidean_ball(2), anchor=fvec(1, 0))
    got = sorted(built.simplex.vertices, key=lambda v: (v.coords[1], v.coords[0]))
    expect = [(-0.5, -(3 ** 0.5) / 2), (1.0, 0.0), (-0.5, (3 ** 0.5) / 2)]
    for v, (ex, ey) in zip(got, expect):
        assert abs(v.coords[0] - ex) <= 1e-12
        assert abs(v.coords[1] - ey) <= 1e-12


def test_criterion_07_equivalence_campaigns(tmp_path):
    # per family: 200 planted positives interleaved with 200 rejected
    # negatives, every report's agreement flag true, exit code 0; the
    # two six-way families mirror each other through polarity
    campaigns = [
        ("41", HEXAGON), ("41", CUBE),
        ("42", DIAMOND),
        ("43", SQUARE), ("43", OCTAHEDRON),
        ("44", HEXAGON),
        ("r41", HEXAGON),
    ]
    for k, (family, ball) in enumerate(campaigns):
        doc = {"dimension": ball.dim, "ball": {"type": "polytope-v", "vertices": [
            [str(c) for c in v.coords] for v in ball.vertices]}}
        src = tmp_path / f"scene{k}.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / f"out{k}.json"
        code = main([
            "verify", "--theorem", family, "--trials", "400", "--seed", str(k),
            "--in", str(src), "--out", str(out),
        ])
        assert code == 0, (family, ball.dim)
        payload = json.loads(out.read_text())
        assert payload["all_agree"] is True
        # the paired family files two reports per trial
        assert payload["trials"] == (800 if family == "44" else 400)
        for report in payload["reports"]:
            assert report["agreement"] is True

    rng = random.Random("acceptance-bridge")
    bridges = 0
    for i in range(200):
        kind = ("equal_heights", "ag_quasiregular", "equilateral")[i % 3]
        if kind == "equilateral":
            ball, d = HEXAGON, 2
        elif i % 2 == 0:
            ball, d = (SQUARE, 2) if i % 4 == 0 else (CUBE, 3)
        else:
            ball, d = (HEXAGON, 2) if i % 4 == 1 else (OCTAHEDRON, 3)
        T = planted_generator(kind, ball, d, rng.randrange(1 << 30))
        assert duality_bridge_holds(T, ball)
        bridges += 1
    assert bridges == 200


def test_criterion_08_insphere_baseline():
    # Euclidean right triangle with legs 3 and 4: incenter (1,1) with
    # radius 1, escribed radii 2, 3, 6; then 300 random exact instances
    # against the direct radius-maximization oracle
    T = Simplex([fvec(0, 0), fvec(4, 0), fvec(0, 3)])
    E = euclidean_ball(2)
    ins = incenter(T, E)
    assert tuple(ins.center.coords) == (1.0, 1.0) and ins.radius == 1.0
    exp = {0: ((6.0, 6.0), 6.0), 1: ((-2.0, 2.0), 2.0), 2: ((3.0, -3.0), 3.0)}
    for i, (center, radius) in exp.items():
        sphere = exspheres(T, E)[i]
        assert tuple(sphere.center.coords) == center and sphere.radius == radius
        assert sphere.flipped_facet == i

    rng = random.Random("acceptance-insphere")
    pool2 = ball_pool_2d(rng, extra=6)
    pool3 = ball_pool_3d(rng, extra=4)
    for i in range(300):
        d = 3 if i % 4 == 0 else 2
        ball = (pool3 if d == 3 else pool2)[rng.randrange(len(pool3 if d == 3 else pool2))]
        T = random_rational_simplex(rng, d, span=4)
        ins = incenter(T, ball)
        for h in T.facet_hyperplanes:
            assert point_hyperplane_distance(ball, ins.center, h) == ins.radius
        assert T.contains(ins.center, strict=True)
        center, radius = chebyshev_incenter(T, ball)
        assert ins.center == center and ins.radius == radius


def test_criterion_09_norm_layer_properties():
    # 10,000 exact checks of the gauge axioms and polarity identities,
    # plus the planar orthogonality-symmetry characterization
    disc = PolytopeBall.from_vertices([
        vec(sx * a, sy * b)
        for (a, b) in ((1, 0), (Rat(4, 5), Rat(3, 5)), (Rat(3, 5), Rat(4, 5)), (0, 1))
        for sx in (1, -1) for sy in (1, -1)
    ])
    rng = random.Random("acceptance-norms")
    pool = [disc, SQUARE, DIAMOND] + [
        random_symmetric_polygon(rng, pairs=rng.randint(2, 6)) for _ in range(10)
    ]
    checks = 0
    for ball in pool:
        dual = ball.dual()
        assert dual.dual().vertices == ball.vertices
        checks += 1
    for i in range(2000):
        ball = pool[i % len(pool)]
        dual = ball.dual()
        x = vec(Rat(rng.randint(-40, 40), rng.randint(1, 5)), Rat(rng.randint(-40, 40), rng.randint(1, 5)))
        y = vec(Rat(rng.randint(-40, 40), rng.randint(1, 5)), Rat(rng.randint(-40, 40), rng.randint(1, 5)))
        lam = Rat(rng.randint(-12, 12), rng.randint(1, 4))
        assert ball.gauge(x * lam) == abs(lam) * ball.gauge(x)
        checks += 1
        assert ball.gauge(-x) == ball.gauge(x)
        checks += 1
        assert ball.gauge(x + y) <= ball.gauge(x) + ball.gauge(y)
        checks += 1
        assert ball.support(x) == dual.gauge(x)
        checks += 1
        dot = sum(a * b for a, b in zip(x.coords, y.coords))
        assert dot <= ball.gauge(x) * ball.support(y)
        checks += 1
    assert checks >= 10000

    span = range(-3, 4)
    grid = [vec(a, b) for a in span for b in span if (a, b) != (0, 0)]
    for ball in pool:
        # asymmetric pairs on polygons live at vertex and edge
        # directions, so seed the search with both
        n = len(ball.vertices)
        dirs = list(grid) + list(ball.vertices) + list(ball.normals) + [
            ball.vertices[i] + ball.vertices[(i + 1) % n] for i in range(n)
        ]
        if is_radon(ball):
            sym = all(
                birkhoff_orthogonal(ball, y, x)
                for x in dirs for y in dirs
                if birkhoff_orthogonal(ball, x, y)
            )
            assert sym
        else:
            assert any(
                birkhoff_orthogonal(ball, x, y) and not birkhoff_orthogonal(ball, y, x)
                for x in dirs for y in dirs
            )


def test_criterion_10_cli_round_trip(tmp_path, monkeypatch):
    # scene documents normalize to a fixed point under parse/serialize,
    # and a corrupted verification predicate trips exit code 3
    rng = random.Random("acceptance-cli")
    for i in range(100):
        d = 2 if i % 3 else 3
        if i % 2 == 0:
            ball_src = random_symmetric_polygon(rng) if d == 2 else random_symmetric_polytope_3d(rng)
            ball = {"type": "polytope-v", "vertices": [
                [str(c) for c in v.coords] for v in ball_src.vertices]}
        else:
            ball = {"type": "pnorm", "p": rng.choice([1.5, 2.0, 3.0, 7.0])}
        doc = {"dimension": d, "ball": ball}
        if i % 4 < 2:
            T = random_rational_simplex(rng, d, span=4)
            fmt = (lambda c: str(c)) if i % 2 == 0 else (lambda c: float(c))
            doc["simplex"] = [[fmt(c) for c in v.coords] for v in T.vertices]
        if i % 5 == 0:
            doc["points"] = {"M": [1] * d, "Q": [0] * d}
        first = scene_to_dict(parse_scene(json.dumps(doc)))
        second = scene_to_dict(parse_scene(json.dumps(first)))
        assert first == second

    import minksimplex.equivalence as eq

    src = tmp_path / "scene.json"
    src.write_text(json.dumps({
        "dimension": 2,
        "ball": {"type": "polytope-v", "vertices": [
            [1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]},
    }))
    monkeypatch.setattr(eq, "quasiregular", lambda T, B: (False, {}))
    code = main([
        "verify", "--theorem", "43", "--trials", "4", "--seed", "0",
        "--in", str(src), "--out", str(tmp_path / "out.json"),
    ])
    assert code == 3
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["disagreements"]
