"""Circumcenter sets of simplices.

Polytopal mode enumerates vertex-to-ball-facet assignments: vertex A_i
touching facet j of the scaled ball pins <n_j, A_i - M> = r together
with the normal-cone inequalities <n_k, A_i - M> <= r, giving one exact
feasibility problem per assignment over the unknowns (M, r).  The union
of the feasible pieces is the complete circumcenter set; pieces may be
points, segments, or unbounded polyhedra.  Every row is read off one
integer incidence table per call, T[i][k] = <N_k, V_i> for the ball's
normals and the simplex's vertices over a common denominator each
(n_k = N_k / s_n, A_i = V_i / s_v): the candidate facets of a vertex are
sign tests on T, and the row of (A_i, facet k), times s_n s_v, is
<(-s_v N_k, -s_n s_v), (M, r)> <= -T[i][k].

Smooth mode runs damped Newton iterations on the gauge differences from
several starts and reports what it finds (a start that comes within
EPS_MERGE of a center already found stops there); its classification is
always "unknown" because root finding proves existence, not
exhaustiveness.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from . import config
from .errors import DegenerateInputError, DimensionError, MixedModeError, ResourceCapError
from .feasibility import FeasibilityProblem, Ineq, feasible
from .linalg import ExactVec, Vec, integer_points, integer_solve, solve_linear
from .norms import Ball, PNormBall, PolytopeBall, UnitBall, lp_gradient, lp_norm
from .scalars import EXACT, Rat
from .simplex import Simplex

EMPTY = "empty"
SINGLETON = "singleton"
MULTIPLE = "multiple"
UNKNOWN = "unknown"


@dataclass
class CircumPiece:
    """One feasible assignment: a polyhedral piece of the circumcenter
    set in (M, r) space (polytopal mode), or a found point (smooth)."""

    center: Vec
    radius: object
    affine_dim: int
    assignment: Optional[tuple] = None
    problem: Optional[FeasibilityProblem] = None

    def holds(self, center: Vec, radius) -> bool:
        if self.problem is None:
            return center == self.center and radius == self.radius
        return self.problem.holds_at((*center.coords, radius))


@dataclass
class CircumcenterSet:
    simplex: Simplex
    ball: UnitBall
    pieces: list
    classification: str
    mode: str
    start_failures: int = 0

    def covers(self, center: Vec, radius) -> bool:
        """Whether some enumerated piece contains the candidate."""
        return any(p.holds(center, radius) for p in self.pieces)

    def distinct_centers(self, want: int = 2) -> list:
        """Up to `want` distinct circumcenters, probing inside
        positive-dimensional pieces when witnesses alone don't suffice."""
        found = {}
        for p in self.pieces:
            found.setdefault(p.center.coords, p.center)
            if len(found) >= want:
                return list(found.values())[:want]
        for p in self.pieces:
            if p.affine_dim < 1 or p.problem is None:
                continue
            n = p.problem.n_vars
            base = (*p.center.coords, p.radius)
            for var in range(n):
                for step in (Rat(1), Rat(1, 4), Rat(1, 16)):
                    for sgn in (1, -1):
                        row = Ineq(tuple(-sgn * (v == var) for v in range(n)), -sgn * base[var] - step)
                        probe = FeasibilityProblem(n, p.problem.equalities, [*p.problem.inequalities, row])
                        res = feasible(probe, with_dim=False)
                        if res.feasible:
                            c = Vec(res.witness[:n - 1])
                            if c.coords not in found:
                                found[c.coords] = c
                                if len(found) >= want:
                                    return list(found.values())[:want]
        return list(found.values())


def _tight_pairs(assignment, n_facets: int, implicit_rows) -> frozenset:
    """Key of a piece: the (vertex i, facet k) pairs whose row
    <n_k, A_i - M> <= r is tight on the whole piece.  All assignments
    share these rows, and a face of a polyhedron is fixed by its tight
    subsystem (Schrijver 1986, 8.3), so two pieces with one key
    coincide.  A point's tight rows have rank d + 1: points share a key
    only when they coincide, and never with a larger piece.
    `implicit_rows` index the inequalities in the order
    polytopal_circumcenters builds them: vertex by vertex, facet by
    facet, skipping assigned facets."""
    rows = [(i, k) for i, j in enumerate(assignment) for k in range(n_facets) if k != j]
    return frozenset(enumerate(assignment)).union(rows[idx] for idx in implicit_rows)


def _point_key(table, dots, P: int) -> Optional[frozenset]:
    """The tight pairs of the point (M, r) = z / P, P > 0, given
    dots[k] = <coeffs_k, z>; None when a row dots[k] <= -T[i][k] P fails."""
    slack = [[c + t[k] * P for k, c in enumerate(dots)] for t in table]
    if max(map(max, slack)) > 0:
        return None
    return frozenset((i, k) for i, row in enumerate(slack) for k, s in enumerate(row) if not s)


def polytopal_circumcenters(simplex: Simplex, ball: PolytopeBall) -> CircumcenterSet:
    if simplex.mode != EXACT:
        raise MixedModeError("polytopal circumcenters need an exact simplex")
    d = simplex.dim
    normals, s_n = ball._normal_rows
    vertices, s_v = integer_points(simplex.vertices)
    n_facets = len(normals)
    # the incidence table T[i][k] = <N_k, V_i> = s_n s_v <n_k, A_i>
    table = [[sum(map(mul, n, v)) for n in normals] for v in vertices]
    # facet j can touch A_i only if <n_j, A_i - A_m> >= 0 for every
    # vertex A_m (subtracting the two touch equalities)
    candidates = [
        [j for j in range(n_facets) if all(t[j] >= u[j] for u in table)] for t in table
    ]
    total = 1
    for opts in candidates:
        total *= len(opts)
    cap = config.max_assignments()
    if total > cap:
        raise ResourceCapError(
            f"{total} facet assignments exceed cap {cap}"
        )

    # rows[i][k] is <n_k, A_i - M> <= r read off the table (see the
    # module docstring); A_i on its assigned facet j makes row j an equality
    coeffs = [(*(-s_v * c for c in n), -s_n * s_v) for n in normals]
    rows = [[Ineq(coeffs[k], -t[k]) for k in range(n_facets)] for t in table]
    positive = Ineq((0,) * d + (-1,), 0, True)  # r > 0

    def assignment_problem(assignment) -> FeasibilityProblem:
        return FeasibilityProblem(
            d + 1,
            [(coeffs[j], -table[i][j]) for i, j in enumerate(assignment)],
            [row for i, j in enumerate(assignment) for k, row in enumerate(rows[i]) if k != j]
            + [positive],
        )

    # every piece is keyed by its tight pairs (_tight_pairs); the first
    # assignment reaching a piece keeps it
    pieces: dict = {}
    for assignment in itertools.product(*candidates):
        sol = integer_solve(
            [(*coeffs[j], -table[i][j]) for i, j in enumerate(assignment)], d + 1
        )
        if sol is None:
            continue
        P, z, basis = sol
        if not basis:
            if P < 0:  # (M, r) = z / P with a positive denominator
                P, z = -P, [-v for v in z]
            if z[d] <= 0:
                continue
            key = _point_key(table, [sum(map(mul, c, z)) for c in coeffs], P)
            if key is not None and key not in pieces:
                center = ExactVec.of_ints(z[:d], P)
                prob = assignment_problem(assignment)
                pieces[key] = CircumPiece(center, Rat(z[d], P), 0, assignment, prob)
            continue
        prob = assignment_problem(assignment)
        res = feasible(prob, with_dim=True)
        if not res.feasible:
            continue
        key = _tight_pairs(assignment, n_facets, res.implicit_rows)
        if key not in pieces:
            center, radius = Vec(res.witness[:d]), res.witness[d]
            pieces[key] = CircumPiece(center, radius, res.affine_dim, assignment, prob)

    merged = list(pieces.values())
    if not merged:
        cls = EMPTY
    elif any(p.affine_dim >= 1 for p in merged):
        cls = MULTIPLE
    else:
        centers = {p.center for p in merged}
        cls = SINGLETON if len(centers) == 1 else MULTIPLE
    return CircumcenterSet(simplex, ball, merged, cls, EXACT)


_N_STARTS = 12  # Newton starts per smooth circumcenter search
_N_STEPS = 80  # Newton iterations per start
# iterations a start near a found center must have left to stop there:
# quadratic convergence from EPS_MERGE reaches 1e-16 in three steps, and
# one more iteration runs the residual test
_MERGE_RESERVE = 4


def smooth_circumcenters(simplex: Simplex, ball: PNormBall) -> CircumcenterSet:
    d = simplex.dim
    A = [[float(c) for c in v.coords] for v in simplex.vertices]
    scale = max(abs(c) for a in A for c in a) or 1.0
    p = ball.p

    rng = random.Random(0)
    centroid = [sum(col) / (d + 1) for col in zip(*A)]
    starts = [centroid]
    for k in range(d):
        for sgn in (1.0, -1.0):
            start = list(centroid)
            start[k] += sgn * 0.4 * scale
            starts.append(start)
    while len(starts) < _N_STARTS:
        starts.append([c + rng.uniform(-0.8, 0.8) * scale for c in centroid])

    rho = config.EPS_MERGE * scale
    solutions = []
    failures = 0
    for m in starts[:_N_STARTS]:
        ok = found = False
        # the step depends on m alone, so an iterate that repeats bit for
        # bit makes the start periodic: it can never pass the residual test
        seen = set()
        for it in range(_N_STEPS):
            if _N_STEPS - it >= _MERGE_RESERVE and any(
                math.dist(known, m) <= rho for known, _ in solutions
            ):
                found = True  # converges to a center already found
                break
            bits = struct.pack(f"{d}d", *m)
            if bits in seen:
                break
            seen.add(bits)
            diffs = [[a - c for a, c in zip(vertex, m)] for vertex in A]
            g = [lp_norm(x, p) for x in diffs]
            if min(g) < config.EPS_COLLAPSE * scale:
                break  # collapsed onto a vertex
            f = [gi - g[0] for gi in g[1:]]
            if max(map(abs, f)) <= config.EPS_ABS * max(1.0, max(g)):
                ok = True
                break
            # row i: d(g_i - g_0)/dm = grad(A_0 - m) - grad(A_i - m),
            # divided with its residual by its largest |entry|: on a flat
            # gauge (large p) a row can shrink under solve_linear's
            # relative zero test while the system is still regular
            grads = [lp_gradient(x, p, gi) for x, gi in zip(diffs, g)]
            rows, rhs = [], []
            for grad, fi in zip(grads[1:], f):
                row = [b - a for a, b in zip(grad, grads[0])]
                big = max(map(abs, row)) or 1.0
                rows.append([c / big for c in row])
                rhs.append(-fi / big)
            sol = solve_linear(rows, rhs)
            if sol.status != "unique":
                break
            step = sol.point
            limit = 2.0 * scale
            norm = math.hypot(*step)
            if norm > limit:
                step = [s * (limit / norm) for s in step]
            m = [c + s for c, s in zip(m, step)]
        if found:
            continue
        if not ok:
            failures += 1
            continue
        r = sum(x / len(g) for x in g)  # mean vertex gauge at the converged m; no overflow
        if r <= config.EPS_ABS * scale:
            failures += 1
            continue
        if all(math.dist(known, m) > rho for known, _ in solutions):
            solutions.append((m, r))

    pieces = [CircumPiece(Vec(m), r, 0) for m, r in solutions]
    return CircumcenterSet(simplex, ball, pieces, UNKNOWN, "float", failures)


def circumcenters(simplex: Simplex, ball: UnitBall) -> CircumcenterSet:
    if isinstance(ball, PolytopeBall):
        return polytopal_circumcenters(simplex, ball)
    return smooth_circumcenters(simplex, ball)


def is_circumcenter(simplex: Simplex, ball: UnitBall, center: Vec, radius=None) -> bool:
    """Direct definition check: all vertex gauges from the center agree
    (and equal the given radius when provided)."""
    g0 = ball.gauge(simplex.vertices[0] - center)
    if ball.mode == EXACT:
        if any(ball.gauge(a - center) != g0 for a in simplex.vertices[1:]):
            return False
        return g0 > 0 and (radius is None or g0 == radius)
    vals = [float(ball.gauge(a - center)) for a in simplex.vertices]
    ref = max(max(vals), config.EPS_TINY)
    if max(vals) - min(vals) > config.EPS_REL * ref:
        return False
    if radius is not None and abs(g0 - float(radius)) > config.EPS_REL * ref:
        return False
    return g0 > 0


def is_ag_quasiregular(simplex: Simplex, ball: UnitBall) -> bool:
    """The centroid is a circumcenter: all vertex gauges from the
    centroid coincide."""
    return is_circumcenter(simplex, ball, simplex.centroid)


# -- location predicates ---------------------------------------------


def on_vertex_side_of_medial(simplex: Simplex, i: int, center: Vec) -> bool:
    """Strictly in the open halfspace of the i-th medial hyperplane
    containing vertex A_i."""
    m = simplex.medial_hyperplane(i)
    side = m.eval(simplex.vertices[i])
    val = m.eval(center)
    return (val < 0) if side < 0 else (val > 0)


def in_vertex_facet_cone(
    simplex: Simplex, i: int, ball: PolytopeBall, center: Vec, radius
) -> bool:
    """Membership of the circumcenter in the cone with apex A_i over
    aff(facet_i) intersected with the circumball, decided by exact
    feasibility over (p, mu) with p = A_i + mu (M - A_i), mu > 0."""
    d = simplex.dim
    a = simplex.vertices[i]
    h = simplex.facet_hyperplanes[i]
    prob = FeasibilityProblem(d + 1)
    # p - mu (M - A_i) = A_i
    for k in range(d):
        row = [Rat(0)] * (d + 1)
        row[k] = Rat(1)
        row[d] = -(center[k] - a[k])
        prob.add_eq(row, a[k])
    # p on the facet plane
    prob.add_eq((*h.normal.coords, Rat(0)), h.offset)
    # p in the circumball: <n, p - M> <= r for every ball facet
    for n in ball.normals:
        prob.add_le((*n.coords, Rat(0)), radius + n.dot(center))
    # mu > 0
    row = [Rat(0)] * (d + 1)
    row[d] = Rat(-1)
    prob.add_le(row, Rat(0), strict=True)
    return feasible(prob, with_dim=False).feasible


def in_beyond_facet_cone(
    simplex: Simplex, i: int, ball: PolytopeBall, center: Vec, radius
) -> bool:
    """Planar variant excluding the facet itself: membership of the
    circumcenter in the cone with apex A_i over the part of the
    opposite edge's line that lies inside the circumball but outside
    the closed edge.  When this holds, the circumcenter is forced onto
    the i-th medial line."""
    if simplex.dim != 2:
        raise DimensionError("beyond-facet cone test is planar")
    a = simplex.vertices[i]
    u, v = simplex.facet_vertices(i)
    # parameter range of {u + t (v - u)} inside the circumball; it
    # contains [0, 1] because both edge endpoints are on the sphere
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
    # rescale the ray from A_i through the center until it hits the
    # edge's line: center - A_i = alpha (u - A_i) + beta (v - A_i)
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


def in_medial_polytope(simplex: Simplex, center: Vec, strict: bool = False) -> bool:
    return simplex.medial_polytope.contains(center, strict)


@dataclass
class InteriorUniquenessReport:
    """Planar check: a circumcenter strictly inside the medial triangle
    forces the whole circumcenter set to be that one point."""

    applies: bool
    singleton: bool
    interior_witness: Optional[Vec]
    computed: CircumcenterSet


def medial_interior_uniqueness(simplex: Simplex, ball: PolytopeBall) -> InteriorUniquenessReport:
    if simplex.dim != 2:
        raise DegenerateInputError("the interior-uniqueness check is planar")
    cset = polytopal_circumcenters(simplex, ball)
    witness = None
    for p in cset.pieces:
        if in_medial_polytope(simplex, p.center, strict=True):
            witness = p.center
            break
    return InteriorUniquenessReport(
        applies=witness is not None,
        singleton=cset.classification == SINGLETON,
        interior_witness=witness,
        computed=cset,
    )


# -- worked instance: cube ball, vertex on an edge midpoint ----------


@dataclass(frozen=True)
class CubeEdgeMidpointInstance:
    ball: PolytopeBall
    simplex: Simplex
    translation_direction: Vec


def cube_edge_midpoint_instance() -> CubeEdgeMidpointInstance:
    """Cube-norm tetrahedron whose circumcenters form a segment.

    Ball: the cube [-1,1]^3.  Vertex A sits on the midpoint of the edge
    {x=1, y=1}; the plane through A and the midpoints of the parallel
    edges is {z=0}.  The section plane {y=-1/3} (two thirds of the way
    from the face {y=1} to {y=-1}) carries the remaining vertices: B on
    the shared face {x=1}, C and D inside the opposite face {x=-1},
    symmetric about {z=0}.  The resulting simplex has centroid o, all
    vertex gauges 1, and every translate of the cube along the CD
    direction (z) within reach keeps all four vertices on its boundary.
    """
    one = Rat(1)
    third = Rat(1, 3)
    half = Rat(1, 2)
    cube = PolytopeBall.from_vertices(
        [Vec((sx * one, sy * one, sz * one)) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    )
    a = Vec((one, one, Rat(0)))
    b = Vec((one, -third, Rat(0)))
    c = Vec((-one, -third, half))
    d = Vec((-one, -third, -half))
    simplex = Simplex([a, b, c, d])
    return CubeEdgeMidpointInstance(cube, simplex, Vec((Rat(0), Rat(0), one)))
