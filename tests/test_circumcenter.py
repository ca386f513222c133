"""Circumcenter enumeration and the location theorems.

The enumeration is validated against a brute-force oracle: scan a
rational grid, test the circumcenter definition pointwise by direct
gauge comparison, and require every grid hit to be covered by some
enumerated piece.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import minksimplex.circumcenter as circumcenter_module
from minksimplex.circumcenter import (
    EMPTY,
    MULTIPLE,
    SINGLETON,
    UNKNOWN,
    CircumcenterSet,
    circumcenters,
    cube_edge_midpoint_instance,
    in_beyond_facet_cone,
    in_medial_polytope,
    in_vertex_facet_cone,
    is_ag_quasiregular,
    is_circumcenter,
    medial_interior_uniqueness,
    on_vertex_side_of_medial,
    polytopal_circumcenters,
    smooth_circumcenters,
)
from minksimplex.config import EPS_MERGE
from minksimplex.construct import quasiregular_simplex
from minksimplex.errors import DegenerateInputError, MixedModeError
from minksimplex.feasibility import FeasibilityProblem, feasible
from minksimplex.linalg import Hyperplane, Vec, solve_linear
from minksimplex.norms import PNormBall, PolytopeBall, euclidean_ball
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
    vec,
)


def grid_circumcenters(simplex, ball, span=4, steps_per_unit=2):
    """Brute-force oracle: every grid point whose vertex gauges all
    agree, with its common radius."""
    q = steps_per_unit
    axis = [Rat(k, q) for k in range(-span * q, span * q + 1)]
    hits = []
    for x in axis:
        for y in axis:
            m = Vec((x, y))
            gs = {ball.gauge(a - m) for a in simplex.vertices}
            if len(gs) == 1:
                r = gs.pop()
                if r > 0:
                    hits.append((m, r))
    return hits


T345 = Simplex([vec(0, 0), vec(4, 0), vec(0, 3)])


def test_max_norm_hypotenuse_triangle():
    cset = polytopal_circumcenters(T345, SQUARE)
    assert cset.classification == MULTIPLE
    # hand check: any (2, y) with 1 <= y <= 2 has all three gauges 2
    for y in (Rat(1), Rat(3, 2), Rat(2)):
        assert cset.covers(vec(2, y), Rat(2))
    # and the diagonal ray (r, r) for r >= 2 keeps all gauges at r
    assert cset.covers(vec(3, 3), Rat(3))
    assert not cset.covers(vec(2, Rat(5, 2)), Rat(2))
    for p in cset.pieces:
        assert is_circumcenter(T345, SQUARE, p.center, p.radius)


def integer_triangle(rng):
    while True:
        try:
            return Simplex(
                [vec(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            )
        except Exception:
            continue


def test_enumeration_covers_grid_oracle():
    rng = random.Random("cover-grid")
    total_hits = 0
    nonempty = 0
    for k in range(30):
        ball = random_symmetric_polygon(rng)
        # integer vertices make half-integer grid hits likely
        simplex = integer_triangle(rng)
        cset = polytopal_circumcenters(simplex, ball)
        for p in cset.pieces:
            assert is_circumcenter(simplex, ball, p.center, p.radius)
        hits = grid_circumcenters(simplex, ball, span=5)
        total_hits += len(hits)
        if hits:
            nonempty += 1
            assert cset.classification != EMPTY
        for m, r in hits:
            assert cset.covers(m, r)
    # the sample has to actually exercise the oracle
    assert total_hits > 0 and nonempty >= 3


def test_engineered_grid_hits():
    # isoceles triangle in the max norm puts circumcenters on the grid
    T = Simplex([vec(-2, 0), vec(2, 0), vec(0, 2)])
    hits = grid_circumcenters(T, SQUARE, span=3)
    assert (vec(0, 0), Rat(2)) in hits
    cset = polytopal_circumcenters(T, SQUARE)
    for m, r in hits:
        assert cset.covers(m, r)


def test_singleton_classification():
    ball = HEXAGON
    T = quasiregular_simplex(ball).simplex
    cset = polytopal_circumcenters(T, ball)
    assert cset.classification == SINGLETON
    assert cset.pieces[0].center == T.centroid


def test_empty_classification_exists():
    rng = random.Random("find-empty")
    for _ in range(200):
        ball = random_symmetric_polygon(rng)
        simplex = random_rational_simplex(rng, 2, span=3)
        if polytopal_circumcenters(simplex, ball).classification == EMPTY:
            return
    pytest.fail("no empty circumcenter set in 200 random planar instances")


def test_polytopal_rejects_float_simplex():
    with pytest.raises(MixedModeError):
        polytopal_circumcenters(
            Simplex([fvec(0, 0), fvec(1, 0), fvec(0, 1)]), SQUARE
        )


def test_cube_edge_midpoint_instance():
    inst = cube_edge_midpoint_instance()
    T, ball = inst.simplex, inst.ball
    assert T.centroid == vec(0, 0, 0)
    for v in T.vertices:
        assert ball.gauge(v) == 1
    assert is_ag_quasiregular(T, ball)
    cset = polytopal_circumcenters(T, ball)
    assert cset.classification == MULTIPLE
    # translates along the designated direction stay circumscribed
    for t in (Rat(-1, 2), Rat(-1, 4), Rat(1, 4), Rat(1, 2)):
        assert cset.covers(inst.translation_direction * t, Rat(1))
    assert not cset.covers(inst.translation_direction, Rat(1))
    two = cset.distinct_centers(2)
    assert len(two) == 2
    diff = two[1] - two[0]
    # difference is a nonzero multiple of the translation direction
    assert diff[0] == 0 and diff[1] == 0 and diff[2] != 0


def test_cube_edge_midpoint_pieces_pinned():
    inst = cube_edge_midpoint_instance()
    cset = polytopal_circumcenters(inst.simplex, inst.ball)
    assert cset.classification == MULTIPLE
    assert len(cset.pieces) == 12
    assert [p.affine_dim for p in cset.pieces] == [1, 0, 0, 1, 0, 2, 1, 0, 1, 2, 1, 1]


# -- piece merge against a containment oracle --------------------------


def cube_normals(d):
    return [tuple(s if k == i else 0 for k in range(d)) for i in range(d) for s in (1, -1)]


def cross_normals(d):
    return list(itertools.product((1, -1), repeat=d))


def h_ball(normals):
    return PolytopeBall.from_halfspaces([Hyperplane(vec(*n), Rat(1)) for n in normals])


def assignment_problem(simplex, ball, assignment):
    """(M, r) with <n_k, A_i - M> <= r for every vertex and facet,
    equality where facet k = assignment[i], and r > 0."""
    d = simplex.dim
    prob = FeasibilityProblem(d + 1)
    for i, a in enumerate(simplex.vertices):
        for k, n in enumerate(ball.normals):
            row = (*(-c for c in n.coords), Rat(-1))
            if k == assignment[i]:
                prob.add_eq(row, -n.dot(a))
            else:
                prob.add_le(row, -n.dot(a))
    prob.add_le((*(Rat(0),) * d, Rat(-1)), Rat(0), strict=True)
    return prob


def contains(big, small) -> bool:
    """sol(small) lies in sol(big): small with the negation of any row of
    big is empty."""
    negations = [(tuple(s * c for c in coeffs), s * rhs, True)
                 for coeffs, rhs in big.equalities for s in (1, -1)]
    negations += [(tuple(-c for c in row.coeffs), -row.rhs, not row.strict)
                  for row in big.inequalities]
    for coeffs, rhs, strict in negations:
        probe = FeasibilityProblem(small.n_vars, list(small.equalities), list(small.inequalities))
        probe.add_le(coeffs, rhs, strict)
        if feasible(probe, with_dim=False).feasible:
            return False
    return True


def same_set(p, q) -> bool:
    return contains(p, q) and contains(q, p)


def touchable_facets(vertices, normals):
    """Facet k can touch A_i only if A_i maximizes <n_k, .> over the
    vertices."""
    def dot(n, a):
        return sum(x * y for x, y in zip(n, a))

    return [
        [k for k, n in enumerate(normals) if all(dot(n, a) >= dot(n, b) for b in vertices)]
        for a in vertices
    ]


def lattice_simplex(rng, normals, assignments):
    """A simplex with vertices in {-2, ..., 2}^d whose count of candidate
    assignments lies in the given range: enough to merge, few enough
    for the oracle's two-sided probes."""
    d = len(normals[0])
    while True:
        verts = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d + 1)]
        if math.prod(map(len, touchable_facets(verts, normals))) in assignments:
            try:
                return Simplex([vec(*v) for v in verts])
            except DegenerateInputError:
                continue


def test_merged_pieces_match_containment_oracle():
    rng = random.Random("merge-oracle")
    # dimension: (instances per ball, candidate assignment counts)
    plan = {2: (6, range(2, 9)), 3: (2, range(4, 19)), 4: (2, range(4, 9))}
    merged = positive = 0
    for normals in (cube_normals(2), cross_normals(2), cube_normals(3), cross_normals(3),
                    cube_normals(4)):
        ball = h_ball(normals)
        count, assignments = plan[ball.dim]
        for _ in range(count):
            simplex = lattice_simplex(rng, normals, assignments)
            pieces = polytopal_circumcenters(simplex, ball).pieces
            problems = [assignment_problem(simplex, ball, p.assignment) for p in pieces]
            for p, prob in zip(pieces, problems):
                assert prob.holds_at((*p.center.coords, p.radius))
            for p, q in itertools.combinations(problems, 2):
                assert not same_set(p, q)
            found = 0
            for assignment in itertools.product(*touchable_facets(simplex.vertices, ball.normals)):
                prob = assignment_problem(simplex, ball, assignment)
                res = feasible(prob, with_dim=False)
                if not res.feasible:
                    continue
                found += 1
                assert sum(
                    q.holds_at(res.witness) and same_set(q, prob) for q in problems
                ) == 1
            merged += found > len(pieces)
            positive += any(p.affine_dim > 0 for p in pieces)
    assert merged >= 5 and positive >= 5


def test_piece_problems_describe_their_assignment_sets():
    # the kept problems carry the incidence table's scaled integer rows
    # in place of the rational ones; each must cut out the same set
    rng = random.Random("piece-problems")
    inst = cube_edge_midpoint_instance()
    instances = [(inst.simplex, inst.ball)]
    for normals in (cube_normals(3), cross_normals(3)):
        ball = h_ball(normals)
        instances += [(lattice_simplex(rng, normals, range(4, 19)), ball) for _ in range(5)]
    checked = 0
    for simplex, ball in instances:
        for piece in polytopal_circumcenters(simplex, ball).pieces:
            rows = [(*c, b) for c, b in piece.problem.equalities]
            rows += [(*row.coeffs, row.rhs) for row in piece.problem.inequalities]
            assert all(type(v) is int for row in rows for v in row)
            assert same_set(piece.problem, assignment_problem(simplex, ball, piece.assignment))
            checked += 1
    assert checked >= 25


def test_point_pieces_have_distinct_centers_and_tight_sets():
    # every piece is keyed by its tight (vertex, facet) pairs; a point
    # piece's tight rows have rank d + 1, so distinct point pieces must
    # differ both in center and in tight pairs, here taken on Fractions
    rng = random.Random("point-keys")
    inst = cube_edge_midpoint_instance()
    instances = [(inst.simplex, inst.ball)]
    plan = {2: range(2, 9), 3: range(4, 19)}
    for normals in (cube_normals(2), cross_normals(2), cube_normals(3), cross_normals(3)):
        ball = h_ball(normals)
        instances += [(lattice_simplex(rng, normals, plan[ball.dim]), ball) for _ in range(6)]
    points = 0
    for simplex, ball in instances:
        pieces = [p for p in polytopal_circumcenters(simplex, ball).pieces if p.affine_dim == 0]
        keys = []
        for p in pieces:
            m = [Fraction(c) for c in p.center.coords]
            keys.append(frozenset(
                (i, k)
                for i, a in enumerate(simplex.vertices) for k, n in enumerate(ball.normals)
                if sum(Fraction(x) * (Fraction(y) - z) for x, y, z in zip(n.coords, a.coords, m))
                == Fraction(p.radius)
            ))
        assert len({p.center for p in pieces}) == len(pieces)
        assert len(set(keys)) == len(pieces)
        points += len(pieces)
    assert points >= 20


def test_distinct_centers_probes_segments():
    cset = polytopal_circumcenters(T345, SQUARE)
    centers = cset.distinct_centers(3)
    assert len(centers) == 3
    assert len({c.coords for c in centers}) == 3
    for c in centers:
        assert is_circumcenter(T345, SQUARE, c)


# -- location results ------------------------------------------------


def iter_piece_instances(rng, count, d=2):
    made = 0
    while made < count:
        if d == 2:
            ball = random_symmetric_polygon(rng)
        else:
            from conftest import random_symmetric_polytope_3d

            ball = random_symmetric_polytope_3d(rng)
        simplex = random_rational_simplex(rng, d, span=3)
        cset = polytopal_circumcenters(simplex, ball)
        if not cset.pieces:
            continue
        made += 1
        yield simplex, ball, cset


def test_vertex_side_iff_not_in_cone():
    rng = random.Random("side-vs-cone")
    pairs = 0
    side_count = 0
    for d in (2, 3):
        for simplex, ball, cset in iter_piece_instances(rng, 20, d):
            for p in cset.pieces:
                for i in range(d + 1):
                    side = on_vertex_side_of_medial(simplex, i, p.center)
                    cone = in_vertex_facet_cone(simplex, i, ball, p.center, p.radius)
                    assert side == (not cone)
                    pairs += 1
                    side_count += side
    assert pairs > 100
    # both outcomes must occur in the sample
    assert 0 < side_count < pairs


def test_circumcenter_inside_simplex_lies_in_medial_polytope():
    rng = random.Random("cor-medial")
    inside = 0
    for d in (2, 3):
        for simplex, ball, cset in iter_piece_instances(rng, 25, d):
            for p in cset.pieces:
                if simplex.contains(p.center):
                    inside += 1
                    assert in_medial_polytope(simplex, p.center)
    assert inside > 5


def test_in_medial_polytope_is_barycentric_0_to_half():
    # the lazily built halfspaces against {0 <= lambda_i <= 1/2}, with
    # barycentric coordinates solved for directly, on the points of this
    # file: T345's vertices, edge midpoints and centroid, grid points and
    # the circumcenter pieces of the square ball
    points = [*T345.vertices, *T345.medial_polytope.vertices(), T345.centroid, vec(2, 1), vec(1, 1)]
    points += [Vec((Rat(x, 2), Rat(y, 2))) for x in range(-2, 10) for y in range(-2, 8)]
    points += [p.center for p in polytopal_circumcenters(T345, SQUARE).pieces]
    for p in points:
        rows = [[*(a[k] for a in T345.vertices)] for k in range(2)] + [[1, 1, 1]]
        lam = solve_linear(rows, [*p.coords, 1]).point
        for strict in (False, True):
            want = all(0 < x < Rat(1, 2) if strict else 0 <= x <= Rat(1, 2) for x in lam)
            assert in_medial_polytope(T345, p, strict=strict) == want
    assert in_medial_polytope(T345, vec(2, 1)) and not in_medial_polytope(T345, vec(4, 0))


def long_edge_hexagon():
    # wide hexagon: the top and bottom edges are long and horizontal
    return PolytopeBall.from_vertices(
        [vec(4, 0), vec(3, 1), vec(-3, 1), vec(-4, 0), vec(-3, -1), vec(3, -1)]
    )


def test_beyond_cone_forces_medial_incidence():
    ball = long_edge_hexagon()
    rng = random.Random("beyond")
    hits = 0
    checked = 0
    for trial in range(40):
        # triangles with one horizontal side, apex above
        bx = rng.randint(2, 6)
        ax = rng.randint(-3, 3)
        ay = rng.randint(1, 3)
        try:
            T = Simplex([vec(ax, ay), vec(-bx, 0), vec(bx, 0)])
        except Exception:
            continue
        cset = polytopal_circumcenters(T, ball)
        for p in cset.pieces:
            for i in range(3):
                checked += 1
                if in_beyond_facet_cone(T, i, ball, p.center, p.radius):
                    hits += 1
                    m = T.medial_hyperplane(i)
                    assert m.eval(p.center) == 0
    assert checked > 40
    assert hits > 0, "family never hit the beyond-facet cone"


def test_beyond_cone_rejects_far_centers():
    ball = long_edge_hexagon()
    T = Simplex([vec(0, 2), vec(-2, 0), vec(2, 0)])
    # a point on the wrong side of the apex cannot be in the cone over
    # the opposite edge's line
    assert not in_beyond_facet_cone(T, 0, ball, vec(0, 4), Rat(3))


def test_interior_uniqueness_planar():
    rng = random.Random("interior-unique")
    applied = 0
    for _ in range(25):
        ball = random_symmetric_polygon(rng)
        T = quasiregular_simplex(ball).simplex
        report = medial_interior_uniqueness(T, ball)
        if report.applies:
            applied += 1
            assert report.singleton
            assert in_medial_polytope(T, report.interior_witness, strict=True)
    assert applied > 10


def test_interior_uniqueness_negative_case():
    # segment circumcenter set: no strict-interior witness can exist
    report = medial_interior_uniqueness(T345, SQUARE)
    assert not report.applies
    assert report.computed.classification == MULTIPLE


# -- smooth mode ------------------------------------------------------


def test_smooth_euclidean_right_triangle():
    T = Simplex([fvec(0, 0), fvec(4, 0), fvec(0, 3)])
    cset = smooth_circumcenters(T, euclidean_ball(2))
    assert cset.classification == UNKNOWN
    assert cset.pieces
    m = cset.pieces[0].center
    # circumcenter of a right triangle is the hypotenuse midpoint
    assert m.coords == pytest.approx((2.0, 1.5), abs=1e-9)
    assert cset.pieces[0].radius == pytest.approx(2.5, abs=1e-9)


def test_smooth_p4_center_verifies():
    T = Simplex([fvec(0, 0), fvec(3, 1), fvec(1, 3)])
    ball = PNormBall(2, 4.0)
    cset = smooth_circumcenters(T, ball)
    assert cset.pieces, "newton found nothing"
    for p in cset.pieces:
        assert is_circumcenter(T, ball, p.center, p.radius)
    assert cset.start_failures < 12


def test_smooth_dispatch_and_seed_stability():
    T = Simplex([fvec(0, 0), fvec(4, 0), fvec(0, 3)])
    a = circumcenters(T, euclidean_ball(2))
    b = circumcenters(T, euclidean_ball(2))
    assert [tuple(p.center.coords) for p in a.pieces] == [
        tuple(p.center.coords) for p in b.pieces
    ]


# start failures, piece count and first center of the smooth search;
# stopping starts at a found center leaves them as they were without the
# stop, except the piece counts of "p500" and "one-center-one-piece"
SMOOTH_PINS = [
    pytest.param(
        4.0, [(0, 0), (3, 1), (1, 3)], 4, 1, (1.3708582307620862, 1.3708582307620862), id="p4"
    ),
    pytest.param(2.0, [(0, 0), (4, 0), (0, 3)], 0, 1, (2.0, 1.5), id="euclidean-345"),
    # two starts converge 6e-7 apart: one piece, not two
    pytest.param(500.0, [(0, 0), (40, 0), (0, 30)], 1, 4, (20.0, 10.845039253556708), id="p500"),
    pytest.param(3.0, [(0, 0), (1e300, 1), (0, 1e300)], 0, 1, (5e299, 5e299), id="huge"),
    pytest.param(
        3.0, [(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)], 1, 1,
        (1.0, 1.5, 0.373596391726488), id="p3-3d",
    ),
    # four starts converge within about 1e-8 of one center: one piece
    pytest.param(
        1.1, [(-0.568488, 2.167472), (0.506568, 1.402985), (2.387455, 1.492641)], 4, 1,
        (1.381446839376608, 43.541819234430086), id="one-center-one-piece",
    ),
    # one start first comes within EPS_MERGE of the center with fewer than
    # four of its 80 iterations left and never passes the residual test;
    # stopping it there would count it converged (5 failures, not 6)
    pytest.param(
        1.05,
        [
            (-0.004598, -0.639378, 1.500277),
            (2.18531, -2.876883, 2.648588),
            (-2.592768, -0.77986, -1.539958),
            (-1.974571, -2.52593, 1.812702),
        ],
        6, 1, (0.3266128100429674, -61.9400643714978, -1.2332747425784247), id="late-arrival",
    ),
]


@pytest.mark.parametrize("p, vertices, failures, n_pieces, first", SMOOTH_PINS)
def test_smooth_search_pins(p, vertices, failures, n_pieces, first):
    T = Simplex([fvec(*v) for v in vertices])
    cset = smooth_circumcenters(T, PNormBall(T.dim, p))
    assert cset.start_failures == failures
    assert len(cset.pieces) == n_pieces
    assert cset.pieces[0].center.coords == pytest.approx(first, rel=1e-6)
    rho = EPS_MERGE * max(abs(c) for v in vertices for c in v)
    for a, b in itertools.combinations(cset.pieces, 2):
        assert math.dist(a.center.coords, b.center.coords) > rho


def test_converged_starts_within_eps_merge_are_one_piece(monkeypatch):
    # no start stops early, so the four starts of "one-center-one-piece"
    # each converge; the final distinctness test keeps one of them
    monkeypatch.setattr(circumcenter_module, "_MERGE_RESERVE", 81)
    T = Simplex([fvec(-0.568488, 2.167472), fvec(0.506568, 1.402985), fvec(2.387455, 1.492641)])
    cset = smooth_circumcenters(T, PNormBall(2, 1.1))
    assert cset.start_failures == 4
    assert len(cset.pieces) == 1


def test_is_ag_quasiregular():
    inst = cube_edge_midpoint_instance()
    assert is_ag_quasiregular(inst.simplex, inst.ball)
    assert not is_ag_quasiregular(T345, SQUARE)
    # smooth variant: equilateral triangle in the euclidean norm
    h = 3.0 ** 0.5 / 2.0
    T = Simplex([fvec(1, 0), fvec(-0.5, h), fvec(-0.5, -h)])
    assert is_ag_quasiregular(T, euclidean_ball(2))
