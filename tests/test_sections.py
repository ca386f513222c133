"""Sections of polytope balls by lines and planes, against the per-normal
rational loops they replaced.

PolytopeBall.section_rows clears the section of radius * B by
origin + span(directions) to one integer row per facet.  Exact chords,
the constructor's section polygon and unit-distance walk, and both cone
tests of circumcenter read those rows.  The oracles below are the code
they replaced: loops over ball.normals on rationals, and the
Fourier-Motzkin problem of the vertex-facet cone test.
"""

import random

import pytest

import minksimplex.circumcenter as circumcenter_module
from minksimplex import construct
from minksimplex.circumcenter import in_beyond_facet_cone, in_vertex_facet_cone, polytopal_circumcenters
from minksimplex.errors import DegenerateInputError, DimensionError, MixedModeError, VerificationError
from minksimplex.feasibility import FeasibilityProblem, feasible
from minksimplex.linalg import ExactVec, Hyperplane, solve_linear, unit_vec
from minksimplex.norms import Ball, PolytopeBall, chord_through
from minksimplex.polytopes import convex_hull_2d
from minksimplex.scalars import Rat

from conftest import (
    CROSSPOLYTOPE, CUBE, HEXAGON, HYPERCUBE, OCTAHEDRON, SQUARE, fvec, random_rational_simplex,
    random_symmetric_polygon, random_symmetric_polytope_3d, vec,
)


def rational_vec(rng, d, span=3):
    return vec(*(Rat(rng.randint(-span * q, span * q), q) for q in (rng.randint(1, 4) for _ in range(d))))


def nonzero_vec(rng, d, span=3):
    while True:
        v = rational_vec(rng, d, span)
        if not v.is_zero():
            return v


def random_h_ball(rng, d):
    """{x : |<n, x>| <= b} for the coordinate axes and two rational
    directions, built from its halfspaces."""
    normals = [unit_vec(d, k) for k in range(d)] + [nonzero_vec(rng, d) for _ in range(2)]
    halfspaces = []
    for n in normals:
        b = Rat(rng.randint(1, 5), rng.randint(1, 3))
        halfspaces += [Hyperplane(n, b), Hyperplane(-n, b)]
    return PolytopeBall.from_halfspaces(halfspaces)


def _balls():
    rng = random.Random("sections")
    v_form = [SQUARE, HEXAGON, CUBE, OCTAHEDRON, HYPERCUBE, CROSSPOLYTOPE,
              random_symmetric_polygon(rng), random_symmetric_polytope_3d(rng)]
    # the polar of each V-form ball, given by the halfspaces <v, x> <= 1
    h_form = [PolytopeBall.from_halfspaces([Hyperplane(v, Rat(1)) for v in b.vertices]) for b in v_form]
    return v_form + h_form + [random_h_ball(rng, d) for d in (2, 3, 4)]


BALLS = _balls()
PLANAR = [b for b in BALLS if b.dim == 2]
RADII = (Rat(1), Rat(5, 2), Rat(2, 3))


# -- the rows ------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_section_rows_match_a_fraction_brute_force(k):
    """Each row is a positive multiple of the facet's inequality
    sum_j y_j <n, w_j> <= r - <n, o>, computed on rationals, and a point
    lies in r B exactly when every row holds at its coordinates."""
    assert {b.dim for b in BALLS} == {2, 3, 4}
    rng = random.Random(f"section-rows-{k}")
    checked = 0
    for ball in BALLS:
        d = ball.dim
        for _ in range(5):
            radius, center = rng.choice(RADII), rational_vec(rng, d)
            origin = rational_vec(rng, d) - center
            dirs = [nonzero_vec(rng, d) for _ in range(k)]
            rows = ball.section_rows(origin, dirs, radius)
            assert len(rows) == len(ball.normals)
            for (c, h), n in zip(rows, ball.normals):
                assert all(type(x) is int for x in (*c, h))
                ref, got = [*(n.dot(w) for w in dirs), radius - n.dot(origin)], [*c, h]
                if not any(ref):
                    assert not any(got)
                    continue
                j = next(i for i, x in enumerate(ref) if x)
                scale = Rat(got[j]) / ref[j]
                assert scale > 0 and got == [scale * x for x in ref]
            for _ in range(4):
                y = [Rat(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(k)]
                point = origin
                for yj, w in zip(y, dirs):
                    point = point + yj * w
                inside = all(sum(cj * yj for cj, yj in zip(c, y)) <= h for c, h in rows)
                assert inside == (ball.gauge(point) <= radius)
            checked += 1
    assert checked == 5 * len(BALLS)


def test_section_rows_check_their_inputs():
    with pytest.raises(MixedModeError):
        SQUARE.section_rows(fvec(0, 0), [vec(1, 0)])
    with pytest.raises(MixedModeError):
        SQUARE.section_rows(vec(0, 0), [fvec(1, 0)])
    with pytest.raises(MixedModeError):
        SQUARE.section_rows(vec(0, 0), [vec(1, 0)], 1.5)
    with pytest.raises(DimensionError):
        SQUARE.section_rows(vec(0, 0, 0), [vec(1, 0)])
    with pytest.raises(DimensionError):
        CUBE.section_rows(vec(0, 0, 0), [vec(1, 0, 0), vec(1, 0)])


# -- chords --------------------------------------------------------------


def chord_oracle(ball, p, direction):
    """chord_through's exact branch before section_rows: one rational
    chord parameter per facet normal."""
    if direction.is_zero():
        raise DegenerateInputError("chord direction must be nonzero")
    unit = ball.unit
    rel = p - ball.center
    if unit.gauge(rel) >= ball.radius:
        raise DegenerateInputError("chord base point must be strictly inside")
    tplus = tminus = None
    for n in unit.normals:
        s = n.dot(direction)
        if s == 0:
            continue
        t = (ball.radius - n.dot(rel)) / s
        if s > 0:
            if tplus is None or t < tplus:
                tplus = t
        elif tminus is None or t > tminus:
            tminus = t
    if tplus is None or tminus is None:
        raise VerificationError("a line through a bounded ball must leave it both ways")
    return tminus, tplus


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_exact_chords_match_the_per_normal_loop():
    rng = random.Random("section-chords")
    kinds = set()
    for ball in BALLS:
        d = ball.dim
        for _ in range(25):
            b = Ball(ball, rational_vec(rng, d), rng.choice(RADII))
            p = b.center + rational_vec(rng, d, 1) * Rat(1, 2)
            w = rational_vec(rng, d, 2)
            got, want = outcome(chord_through, b, p, w), outcome(chord_oracle, b, p, w)
            assert got == want
            kinds.add(isinstance(got[0], type))
    assert kinds == {False, True}  # both chords and errors occurred


def test_chord_errors_are_unchanged():
    b = Ball(SQUARE, vec(0, 0), Rat(1))
    # a zero direction is reported before a base point not strictly inside
    with pytest.raises(DegenerateInputError, match="direction must be nonzero"):
        chord_through(b, vec(2, 0), vec(0, 0))
    with pytest.raises(DegenerateInputError, match="strictly inside"):
        chord_through(b, vec(1, 0), vec(0, 1))
    with pytest.raises(MixedModeError):
        chord_through(b, vec(0, 0), fvec(1.0, 0.0))
    with pytest.raises(DimensionError):
        chord_through(b, vec(0, 0), vec(1, 0, 0))


# -- the beyond-facet cone -------------------------------------------------


def beyond_facet_oracle(simplex, i, ball, center, radius):
    """in_beyond_facet_cone before section_rows: the edge line's
    parameter range from one rational bound per normal, the ray from
    A_i through the center rescaled by a linear solve."""
    a = simplex.vertices[i]
    u, v = simplex.facet_vertices(i)
    lo = hi = None
    for n in ball.normals:
        base = n.dot(u - center)
        slope = n.dot(v - u)
        if slope == 0:
            continue
        bound = (radius - base) / slope
        if slope > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    rows = [[u[k] - a[k], v[k] - a[k]] for k in range(2)]
    sol = solve_linear(rows, [center[k] - a[k] for k in range(2)])
    if sol.status != "unique":
        raise DegenerateInputError("vertex lies on the opposite edge's line")
    alpha, beta = sol.point
    lam = alpha + beta
    if lam <= 0:
        return False
    t = beta / lam
    return (lo <= t and t < 0) or (1 < t and t <= hi)


def cone_cases(balls, seed, n_simplices=3):
    """(simplex, i, ball, center, radius): every circumcenter piece's
    center and radius, and the center moved with the radius doubled."""
    rng = random.Random(seed)
    for ball in balls:
        d = ball.dim
        for _ in range(n_simplices):
            simplex = random_rational_simplex(rng, d)
            for piece in polytopal_circumcenters(simplex, ball).pieces:
                for i in range(d + 1):
                    yield simplex, i, ball, piece.center, piece.radius
                    yield simplex, i, ball, piece.center + rational_vec(rng, d, 1), 2 * piece.radius


def test_beyond_facet_cone_matches_the_per_normal_loop():
    verdicts = []
    for simplex, i, ball, center, radius in cone_cases(PLANAR, "section-beyond"):
        got = in_beyond_facet_cone(simplex, i, ball, center, radius)
        assert got == beyond_facet_oracle(simplex, i, ball, center, radius)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


# -- the vertex-facet cone -------------------------------------------------


def vertex_facet_oracle(simplex, i, ball, center, radius):
    """in_vertex_facet_cone before the closed form: feasibility over
    (p, mu) with p = A_i + mu (M - A_i) on the facet plane, in the
    circumball, and mu > 0."""
    d = simplex.dim
    a = simplex.vertices[i]
    h = simplex.facet_hyperplanes[i]
    prob = FeasibilityProblem(d + 1)
    for k in range(d):
        row = [Rat(0)] * (d + 1)
        row[k] = Rat(1)
        row[d] = -(center[k] - a[k])
        prob.add_eq(row, a[k])
    prob.add_eq((*h.normal.coords, Rat(0)), h.offset)
    for n in ball.normals:
        prob.add_le((*n.coords, Rat(0)), radius + n.dot(center))
    row = [Rat(0)] * (d + 1)
    row[d] = Rat(-1)
    prob.add_le(row, Rat(0), strict=True)
    return feasible(prob, with_dim=False).feasible


def counting_feasible(monkeypatch):
    calls = []

    def counted(problem, with_dim=True):
        calls.append(with_dim)
        return feasible(problem, with_dim)

    monkeypatch.setattr(circumcenter_module, "feasible", counted)
    return calls


def test_vertex_facet_cone_matches_the_feasibility_problem(monkeypatch):
    cases = list(cone_cases([b for b in BALLS if b.dim < 4], "section-vertex-facet", 2))
    calls = counting_feasible(monkeypatch)
    verdicts = [in_vertex_facet_cone(*case) for case in cases]
    assert calls == []
    assert verdicts == [vertex_facet_oracle(*case) for case in cases]
    assert True in verdicts and False in verdicts


def test_vertex_facet_cone_misses_a_facet_parallel_to_the_line():
    # M - A_0 runs along the opposite edge, so the line A_0 + mu (M - A_0)
    # never meets that edge's line
    simplex = random_rational_simplex(random.Random("parallel"), 2)
    a, (u, v) = simplex.vertices[0], simplex.facet_vertices(0)
    center = a + (v - u)
    assert not in_vertex_facet_cone(simplex, 0, SQUARE, center, Rat(100))
    assert not vertex_facet_oracle(simplex, 0, SQUARE, center, Rat(100))


def test_vertex_facet_cone_errors_are_unchanged():
    simplex = random_rational_simplex(random.Random("cone-errors"), 2)
    piece = polytopal_circumcenters(simplex, SQUARE).pieces[0]
    with pytest.raises(MixedModeError):
        in_vertex_facet_cone(simplex, 0, SQUARE, piece.center.to_float(), piece.radius)
    with pytest.raises(DimensionError):
        in_vertex_facet_cone(simplex, 0, CUBE, piece.center, piece.radius)


# -- the unit-distance walk ------------------------------------------------


def unit_distance_oracle(ball, u):
    """construct._unit_at_unit_distance_exact before section_rows: one
    rational edge parameter per facet normal, kept when the gauge from
    u is 1 there."""
    hull = convex_hull_2d(ball.vertices)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        dv = b - a
        for n in ball.normals:
            denom = n.dot(dv)
            base = n.dot(a - u)
            if denom == 0:
                if base != 1:
                    continue
                t_candidates = [Rat(0), Rat(1)]
            else:
                t_candidates = [(1 - base) / denom]
            for t in t_candidates:
                if not (0 <= t <= 1):
                    continue
                w = a + t * dv
                if ball.gauge(w - u) == 1:
                    return w
    raise VerificationError("no unit vector at unit distance found")


def test_unit_distance_walk_matches_the_per_normal_loop():
    rng = random.Random("section-unit-distance")
    checked = 0
    for ball in PLANAR:
        anchors = list(ball.vertices)
        for _ in range(4):
            x = nonzero_vec(rng, 2)
            anchors.append(x / ball.gauge(x))
        for u in anchors:
            assert construct._unit_at_unit_distance_exact(ball, u) == unit_distance_oracle(ball, u)
            checked += 1
    assert checked >= 60


def test_line_sections_make_no_per_normal_dot(monkeypatch):
    """Chords, the beyond-facet cone and the unit-distance walk read the
    integer rows: no ExactVec.dot runs inside them."""
    calls = []
    dot = ExactVec.dot
    cases = list(cone_cases([HEXAGON], "section-no-dot", 1))
    monkeypatch.setattr(ExactVec, "dot", lambda self, other: calls.append(1) or dot(self, other))
    chord_through(Ball(HEXAGON, vec(1, 0), Rat(2)), vec(Rat(1, 2), 1), vec(1, 3))
    for case in cases:
        in_beyond_facet_cone(*case)
    construct._unit_at_unit_distance_exact(HEXAGON, HEXAGON.vertices[0])
    assert calls == []
