"""Circumcenter sets of simplices.

Polytopal mode enumerates vertex-to-ball-facet assignments: vertex A_i
touching facet j of the scaled ball pins <n_j, A_i - M> = r together
with the normal-cone inequalities <n_k, A_i - M> <= r, giving one exact
feasibility problem per assignment over the unknowns (M, r).  The union
of the feasible pieces is the complete circumcenter set; pieces may be
points, segments, or unbounded polyhedra.

Smooth mode runs damped Newton iterations on the gauge differences from
several starts and reports what it finds; its classification is always
"unknown" because root finding proves existence, not exhaustiveness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import config
from .errors import DegenerateInputError, DimensionError, MixedModeError, ResourceCapError
from .feasibility import FeasibilityProblem, feasible
from .linalg import Vec, solve_linear
from .norms import Ball, PNormBall, PolytopeBall, UnitBall
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
                        probe = FeasibilityProblem(n)
                        probe.equalities = list(p.problem.equalities)
                        probe.inequalities = list(p.problem.inequalities)
                        row = [Rat(0)] * n
                        row[var] = Rat(-sgn)
                        probe.add_le(row, -sgn * base[var] - step)
                        res = feasible(probe, with_dim=False)
                        if res.feasible:
                            c = Vec(res.witness[:n - 1])
                            if c.coords not in found:
                                found[c.coords] = c
                                if len(found) >= want:
                                    return list(found.values())[:want]
        return list(found.values())


def _assignment_problem(simplex: Simplex, ball: PolytopeBall, assignment) -> FeasibilityProblem:
    d = simplex.dim
    normals = ball.normals
    prob = FeasibilityProblem(d + 1)
    for i, j in enumerate(assignment):
        n = normals[j]
        a = simplex.vertices[i]
        prob.add_eq((*(-c for c in n.coords), Rat(-1)), -n.dot(a))
    for i, a in enumerate(simplex.vertices):
        for k, n in enumerate(normals):
            if k == assignment[i]:
                continue
            prob.add_le((*(-c for c in n.coords), Rat(-1)), -n.dot(a))
    prob.add_le((*(Rat(0),) * d, Rat(-1)), Rat(0), strict=True)  # r > 0
    return prob


def _feasible_facets_per_vertex(simplex: Simplex, ball: PolytopeBall) -> list:
    """Facet j can touch vertex A_i only if <n_j, A_i - A_m> >= 0 for all
    other vertices A_m (subtracting the two touch equalities)."""
    out = []
    for i, a in enumerate(simplex.vertices):
        diffs = [a - b for k, b in enumerate(simplex.vertices) if k != i]
        out.append(
            [j for j, n in enumerate(ball.normals) if all(n.dot(v) >= 0 for v in diffs)]
        )
    return out


def _tight_pairs(assignment, n_facets: int, implicit_rows) -> frozenset:
    """Key of a positive-dimensional piece: the (vertex i, facet k) pairs
    whose row <n_k, A_i - M> = r holds on the whole piece.  All
    assignments share these rows, so two nonempty pieces with the same
    key satisfy each other's equalities and coincide.  `implicit_rows`
    index the inequalities in `_assignment_problem` order."""
    rows = [(i, k) for i, j in enumerate(assignment) for k in range(n_facets) if k != j]
    return frozenset(enumerate(assignment)).union(rows[idx] for idx in implicit_rows)


def polytopal_circumcenters(simplex: Simplex, ball: PolytopeBall) -> CircumcenterSet:
    if simplex.mode != EXACT:
        raise MixedModeError("polytopal circumcenters need an exact simplex")
    d = simplex.dim
    normals = ball.normals
    candidates = _feasible_facets_per_vertex(simplex, ball)
    total = 1
    for opts in candidates:
        total *= len(opts)
    cap = config.max_assignments()
    if total > cap:
        raise ResourceCapError(
            f"{total} facet assignments exceed cap {cap}"
        )

    # pieces keyed by (center, radius) for points and by tight pairs
    # otherwise; the first assignment reaching a solution set keeps it
    pieces: dict = {}
    for assignment in itertools.product(*candidates):
        rows = []
        rhs = []
        for i, j in enumerate(assignment):
            n = normals[j]
            rows.append([*(-c for c in n.coords), Rat(-1)])
            rhs.append(-n.dot(simplex.vertices[i]))
        sol = solve_linear(rows, rhs)
        if sol.status == "infeasible":
            continue
        if sol.status == "unique":
            z = sol.point
            center, radius = Vec(z[:d]), z[d]
            if radius <= 0:
                continue
            key = (center.coords, radius)
            if key not in pieces and all(
                ball.gauge(a - center) == radius for a in simplex.vertices
            ):
                prob = _assignment_problem(simplex, ball, assignment)
                pieces[key] = CircumPiece(center, radius, 0, assignment, prob)
            continue
        prob = _assignment_problem(simplex, ball, assignment)
        res = feasible(prob, with_dim=True)
        if not res.feasible:
            continue
        center, radius = Vec(res.witness[:d]), res.witness[d]
        if res.affine_dim == 0:
            key = (center.coords, radius)
        else:
            key = _tight_pairs(assignment, len(normals), res.implicit_rows)
        if key not in pieces:
            pieces[key] = CircumPiece(center, radius, res.affine_dim, assignment, prob)

    merged = list(pieces.values())
    if not merged:
        cls = EMPTY
    elif any(p.affine_dim >= 1 for p in merged):
        cls = MULTIPLE
    else:
        centers = {p.center.coords for p in merged}
        cls = SINGLETON if len(centers) == 1 else MULTIPLE
    return CircumcenterSet(simplex, ball, merged, cls, EXACT)


def smooth_circumcenters(
    simplex: Simplex,
    ball: PNormBall,
    n_starts: int = 12,
    seed: int = 0,
    tol: float = 1e-12,
) -> CircumcenterSet:
    d = simplex.dim
    A = np.array([[float(c) for c in v.coords] for v in simplex.vertices])
    scale = float(np.max(np.abs(A))) or 1.0
    p = ball.p

    def gauges(m: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(A - m) ** p, axis=1) ** (1.0 / p)

    def grad_gauge(x: np.ndarray) -> np.ndarray:
        g = np.sum(np.abs(x) ** p) ** (1.0 / p)
        return np.sign(x) * np.abs(x) ** (p - 1.0) / g ** (p - 1.0)

    rng = random.Random(seed)
    centroid = A.mean(axis=0)
    starts = [centroid]
    for k in range(d):
        for sgn in (1.0, -1.0):
            e = np.zeros(d)
            e[k] = sgn * 0.4 * scale
            starts.append(centroid + e)
    while len(starts) < n_starts:
        starts.append(
            centroid + np.array([rng.uniform(-0.8, 0.8) * scale for _ in range(d)])
        )

    solutions = []
    failures = 0
    for start in starts[:n_starts]:
        m = start.astype(float).copy()
        ok = False
        for _ in range(80):
            g = gauges(m)
            if np.min(g) < 1e-13 * scale:
                break  # collapsed onto a vertex
            f = g[1:] - g[0]
            if np.max(np.abs(f)) <= tol * max(1.0, np.max(g)):
                ok = True
                break
            rows = []
            g0_grad = grad_gauge(A[0] - m)
            for i in range(1, d + 1):
                gi_grad = grad_gauge(A[i] - m)
                rows.append(-gi_grad + g0_grad)
            try:
                step = np.linalg.solve(np.array(rows), -f)
            except np.linalg.LinAlgError:
                break
            limit = 2.0 * scale
            norm = float(np.linalg.norm(step))
            if norm > limit:
                step *= limit / norm
            m = m + step
        if not ok:
            failures += 1
            continue
        g = gauges(m)
        r = float(np.mean(g))
        if r <= 1e-12 * scale:
            failures += 1
            continue
        for known in solutions:
            if np.linalg.norm(known[0] - m) <= 1e-9 * max(1.0, scale):
                break
        else:
            solutions.append((m, r))

    pieces = [
        CircumPiece(Vec(tuple(float(x) for x in m)), r, 0) for m, r in solutions
    ]
    return CircumcenterSet(simplex, ball, pieces, UNKNOWN, "float", failures)


def circumcenters(simplex: Simplex, ball: UnitBall, **kwargs) -> CircumcenterSet:
    if isinstance(ball, PolytopeBall):
        return polytopal_circumcenters(simplex, ball)
    return smooth_circumcenters(simplex, ball, **kwargs)


def is_circumcenter(simplex: Simplex, ball: UnitBall, center: Vec, radius=None) -> bool:
    """Direct definition check: all vertex gauges from the center agree
    (and equal the given radius when provided)."""
    g0 = ball.gauge(simplex.vertices[0] - center)
    if ball.mode == EXACT:
        if any(ball.gauge(a - center) != g0 for a in simplex.vertices[1:]):
            return False
        return g0 > 0 and (radius is None or g0 == radius)
    vals = [float(ball.gauge(a - center)) for a in simplex.vertices]
    ref = max(max(vals), 1e-30)
    if max(vals) - min(vals) > 1e-9 * ref:
        return False
    if radius is not None and abs(g0 - float(radius)) > 1e-9 * ref:
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
