"""Circumcenter sets of simplices.

Polytopal mode: (M, r) is a circumcenter with its radius when
<n_k, A_i - M> <= r for every vertex A_i and ball facet k, with equality
at some k for each i.  The inequalities cut out one polyhedron
Q = {(M, r) : <n_k, M> + r >= h_k}, h_k = max_i <n_k, A_i>, with one row
per facet, as a pair (i, k) whose vertex misses h_k is strict on Q.
Assigning each A_i a facet j_i whose h it attains picks the face of Q
where the rows J = {j_i} are tight; these faces (points, segments or
unbounded pieces) make up the circumcenter set.  Q is pointed, and
r > 0 on it: -n_k is a normal too, so 2r >= h_k + h_-k > 0.  One
double-description run (polytopes._polar_kernel) lists its vertices and
extreme rays with their tight-row masks, and each facet gets the bitset
of the generators tight on it: the face of J is the AND of its facets'
bitsets (empty unless it holds a vertex), its affine dimension the rank
of its generators minus 1.  A face is fixed by the generators it holds
(Ziegler 1995, ch. 2), so a piece is keyed by that bitset and kept by
the first assignment reaching it; its system (its problem) is Q's rows
with J tight, and r > 0.  A point is its vertex, and its system is
built on first read; a larger piece's witness is the Fourier-Motzkin
one (feasibility.feasible) of that system.  Rows come from one integer
table, T[i][k] = <N_k, V_i> (n_k = N_k / s_n, A_i = V_i / s_v): A_i
attains h_k where T[i][k] is its column's maximum top_k, and Q's row k,
times s_n s_v, is <(-s_v N_k, -s_n s_v), (M, r)> <= -top_k.

The location predicates' cone tests read the circumball's integer
section rows (norms.PolytopeBall.section_rows) along one line each.

Smooth mode runs damped Newton iterations on the gauge differences from
several starts and reports what it finds (a start that comes within
EPS_MERGE of a center already found stops there); its classification is
always "unknown" because root finding proves existence, not
exhaustiveness.  With `first` it stops at its first center, pieces[0]
either way, so start_failures counts only the starts that ran.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from math import copysign
from operator import add, and_, mul
from typing import Callable, Optional

from . import config
from .errors import DegenerateInputError, DimensionError, FrozenRecord, MixedModeError, VerificationError
from .feasibility import FeasibilityProblem, Ineq, feasible
from .linalg import ExactVec, Vec, _square_solve, bareiss, cross2, ratio, solve_linear, zero_vec
from .norms import PNormBall, PolytopeBall, UnitBall, line_interval, lp_gradient, lp_norm
from .polytopes import _polar_kernel
from .scalars import EXACT, Rat
from .simplex import Simplex

EMPTY = "empty"
SINGLETON = "singleton"
MULTIPLE = "multiple"
UNKNOWN = "unknown"


class CircumPiece:
    """A polyhedral piece of the circumcenter set in (M, r) space, or a
    found point (smooth).  A polytopal piece is a face of Q keyed by its
    bitset of Q's generators (the AND of its facets' generator bitsets),
    `assignment` the first to reach it and `problem` Q's rows
    with that assignment's facets tight; a point piece is given `system`
    in its place, a function that builds the problem on first read."""

    def __init__(self, center: Vec, radius, affine_dim: int, assignment: Optional[tuple] = None,
                 problem: Optional[FeasibilityProblem] = None, *, system: Optional[Callable] = None):
        self.center, self.radius, self.affine_dim, self.assignment = center, radius, affine_dim, assignment
        self._problem, self._system = problem, system

    @property
    def problem(self) -> Optional[FeasibilityProblem]:
        if self._system is not None:
            self._problem, self._system = self._system(), None
        return self._problem

    def __eq__(self, other) -> bool:
        fields = ("center", "radius", "affine_dim", "assignment", "problem")
        return other.__class__ is CircumPiece and all(getattr(self, f) == getattr(other, f) for f in fields)

    def holds(self, center: Vec, radius) -> bool:
        if self.problem is None:
            return center == self.center and radius == self.radius
        return self.problem.holds_at((*center.coords, radius))


class CircumcenterSet(FrozenRecord):
    def __init__(self, simplex: Simplex, ball: UnitBall, pieces: list, classification: str,
                 start_failures: int = 0):  # smooth: failures among the starts that ran
        self.__dict__.update(simplex=simplex, ball=ball, pieces=pieces, classification=classification,
                             start_failures=start_failures)

    def covers(self, center: Vec, radius) -> bool:
        """Whether some enumerated piece contains the candidate."""
        return any(p.holds(center, radius) for p in self.pieces)

    def distinct_centers(self, want: int = 2) -> list:
        """Up to `want` distinct circumcenters, probing inside
        positive-dimensional pieces when witnesses alone don't suffice."""
        found = {}  # the centers in order of discovery, as dict keys
        for p in self.pieces:
            found.setdefault(p.center)
            if len(found) >= want:
                return list(found)[:want]
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
                            if c not in found:
                                found[c] = None
                                if len(found) >= want:
                                    return list(found)[:want]
        return list(found)


def polytopal_circumcenters(simplex: Simplex, ball: PolytopeBall) -> CircumcenterSet:
    if simplex.mode != EXACT:
        raise MixedModeError("polytopal circumcenters need an exact simplex")
    d = simplex.dim
    normals, s_n = ball._normal_rows
    vertices, s_v, _ = simplex._cleared
    n_facets = len(normals)
    # the incidence table T[i][k] = <N_k, V_i> = s_n s_v <n_k, A_i> and
    # its column maxima, s_n s_v h_k; facet j can touch A_i only where
    # A_i attains h_j
    table = [[sum(map(mul, n, v)) for n in normals] for v in vertices]
    top = [max(col) for col in zip(*table)]
    candidates = [[j for j in range(n_facets) if t[j] == top[j]] for t in table]
    total = math.prod(map(len, candidates))
    config.check_cap("MINKSIMPLEX_MAX_ASSIGNMENTS", total, "facet assignments")

    # Q's rows <coeffs_k, (M, r)> <= -top_k (see the module docstring)
    coeffs = [(*(-s_v * c for c in n), -s_n * s_v) for n in normals]
    positive = Ineq((0,) * d + (-1,), 0, True)  # r > 0

    def system(J: int) -> FeasibilityProblem:
        """Q's rows with the facets of the mask J tight."""
        return FeasibilityProblem(
            d + 1,
            [(coeffs[j], -top[j]) for j in range(n_facets) if J >> j & 1],
            [Ineq(coeffs[k], -top[k]) for k in range(n_facets) if not J >> k & 1] + [positive],
        )

    # the vertices and extreme rays (X, R, D) of Q, (M, r) = (X, R) / D,
    # from its rows <coeffs_k, (X, R)> + top_k D <= 0 and -D <= 0; bit k
    # of a mask is facet k's row, bit g of a face generator g's
    generators = _polar_kernel(
        [(*c, h) for c, h in zip(coeffs, top)] + [(0,) * (d + 1) + (-1,)], d + 1
    ) if total else []
    tight = [sum(1 << g for g, (_, m) in enumerate(generators) if m >> k & 1) for k in range(n_facets)]
    vertex_bits = sum(1 << g for g, (y, _) in enumerate(generators) if y[-1])  # D > 0
    pieces: dict = {}  # face -> the piece of the first assignment reaching it
    for assignment in itertools.product(*candidates):
        face = functools.reduce(and_, map(tight.__getitem__, assignment))
        if not face & vertex_bits or face in pieces:  # empty, or reached before
            continue
        J = sum({1 << j for j in assignment})
        ys = [y for g, (y, _) in enumerate(generators) if face >> g & 1]
        dim = bareiss(ys)[0] - 1
        if dim:
            prob = system(J)
            res = feasible(prob, with_dim=False)
            if not res.feasible:
                raise VerificationError("a nonempty face of Q has an empty assignment system")
            pieces[face] = CircumPiece(Vec(res.witness[:d]), res.witness[d], dim, assignment, prob)
        else:
            (*X, R, D), = ys
            pieces[face] = CircumPiece(ExactVec.of_ints(X, D), Rat(R, D), 0, assignment,
                                      system=functools.partial(system, J))

    merged = list(pieces.values())
    # two vertices of Q differ in M, as r = max_k (h_k - <n_k, M>) on each
    single = len(merged) == 1 and merged[0].affine_dim == 0
    cls = SINGLETON if single else MULTIPLE if merged else EMPTY
    return CircumcenterSet(simplex, ball, merged, cls)


_N_STARTS = 12  # Newton starts per smooth circumcenter search
_N_STEPS = 80  # Newton iterations per start
# iterations a start near a found center must have left to stop there:
# quadratic convergence from EPS_MERGE reaches 1e-16 in three steps, and
# one more iteration runs the residual test
_MERGE_RESERVE = 4
_INF = math.inf


def _newton_pass(A: list, m: list, p: float, collapse: float, eps: float) -> Optional[tuple]:
    """One Newton step's gauges and rows at m, for any dimension: None
    when a vertex gauge is below `collapse` > 0 (m is on a vertex),
    (g, None) when the gauges agree to `eps` times the largest, else
    (g, aug) with aug the [coeffs | rhs] tuples of the step's system.
    Row i is d(g_i - g_0)/dm = grad(A_0 - m) - grad(A_i - m), divided
    with its residual by its largest |entry|: on a flat gauge (large p)
    a row can shrink under the solve's relative zero test while the
    system is still regular."""
    diffs = [[a - c for a, c in zip(vertex, m)] for vertex in A]
    g = [lp_norm(x, p) for x in diffs]
    if min(g) < collapse:
        return None
    f = [gi - g[0] for gi in g[1:]]
    if max(map(abs, f)) <= eps * max(g):
        return g, None
    grads = [lp_gradient(x, p, gi) for x, gi in zip(diffs, g)]
    aug = []
    for grad, fi in zip(grads[1:], f):
        row = [b - a for a, b in zip(grad, grads[0])]
        big = max(map(abs, row)) or 1.0
        aug.append((*(c / big for c in row), -fi / big))
    return g, aug


def _newton_pass_2(A: list, m: list, p: float, collapse: float, eps: float) -> Optional[tuple]:
    """_newton_pass in the plane, unrolled: one pass per vertex takes
    x = A_i - m, |x| and the gauge with lp_norm's operations in its
    order, and the rows take lp_gradient's entries from the kept x and
    |x|, so every value has the general pass's bits."""
    m0, m1 = m
    q, inv = p - 1.0, 1.0 / p
    parts, g = [], []
    for a0, a1 in A:
        x0 = a0 - m0
        x1 = a1 - m1
        y0 = abs(x0)
        y1 = abs(x1)
        big = y1 if y1 > y0 else y0  # max(y0, y1), NaN included
        gi = big * (0.0 + (y0 / big) ** p + (y1 / big) ** p) ** inv if 0.0 < big < _INF else big
        parts.append((x0, x1, y0, y1, gi))
        g.append(gi)
    g0, g1, g2 = g
    if min(g) < collapse:
        return None
    if max(abs(g1 - g0), abs(g2 - g0)) <= eps * max(g):
        return g, None
    x0, x1, y0, y1, _ = parts[0]
    b0 = copysign((y0 / g0) ** q, x0)
    b1 = copysign((y1 / g0) ** q, x1)
    aug = []
    for k in (1, 2):
        x0, x1, y0, y1, gi = parts[k]
        r0 = b0 - copysign((y0 / gi) ** q, x0)
        r1 = b1 - copysign((y1 / gi) ** q, x1)
        big = max(abs(r0), abs(r1)) or 1.0
        aug.append((r0 / big, r1 / big, -(gi - g0) / big))
    return g, aug


def _newton_pass_3(A: list, m: list, p: float, collapse: float, eps: float) -> Optional[tuple]:
    """_newton_pass in space, unrolled as _newton_pass_2 is."""
    m0, m1, m2 = m
    q, inv = p - 1.0, 1.0 / p
    parts, g = [], []
    for a0, a1, a2 in A:
        x0 = a0 - m0
        x1 = a1 - m1
        x2 = a2 - m2
        y0 = abs(x0)
        y1 = abs(x1)
        y2 = abs(x2)
        big = y1 if y1 > y0 else y0  # max(y0, y1, y2), NaN included
        if y2 > big:
            big = y2
        gi = (big * (0.0 + (y0 / big) ** p + (y1 / big) ** p + (y2 / big) ** p) ** inv
              if 0.0 < big < _INF else big)
        parts.append((x0, x1, x2, y0, y1, y2, gi))
        g.append(gi)
    g0, g1, g2, g3 = g
    if min(g) < collapse:
        return None
    if max(abs(g1 - g0), abs(g2 - g0), abs(g3 - g0)) <= eps * max(g):
        return g, None
    x0, x1, x2, y0, y1, y2, _ = parts[0]
    b0 = copysign((y0 / g0) ** q, x0)
    b1 = copysign((y1 / g0) ** q, x1)
    b2 = copysign((y2 / g0) ** q, x2)
    aug = []
    for k in (1, 2, 3):
        x0, x1, x2, y0, y1, y2, gi = parts[k]
        r0 = b0 - copysign((y0 / gi) ** q, x0)
        r1 = b1 - copysign((y1 / gi) ** q, x1)
        r2 = b2 - copysign((y2 / gi) ** q, x2)
        big = max(abs(r0), abs(r1), abs(r2)) or 1.0
        aug.append((r0 / big, r1 / big, r2 / big, -(gi - g0) / big))
    return g, aug


def _solve_rows(aug: list, n: int) -> Optional[tuple]:
    """The point of the float rows aug by solve_linear, when unique."""
    sol = solve_linear([row[:n] for row in aug], [row[n] for row in aug])
    return sol.point if sol.status == "unique" else None


def smooth_circumcenters(simplex: Simplex, ball: PNormBall, *, first: bool = False) -> CircumcenterSet:
    d = simplex.dim
    A = [[float(c) for c in v.coords] for v in simplex.vertices]
    scale = simplex.float_scale()
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

    # a 2D or 3D step takes one unrolled pass and the unrolled square
    # solve, which give the general pass's and solve_linear's bits
    newton_pass = _newton_pass_2 if d == 2 else _newton_pass_3 if d == 3 else _newton_pass
    solve = _square_solve if d in (2, 3) else _solve_rows
    pack = struct.Struct(f"{d}d").pack
    # float_scale refuses a subnormal simplex, so collapse > 0; no iterate
    # holds a NaN, so no gauge is NaN and a zero gauge (m on a vertex)
    # is min(g), below collapse
    collapse, eps, limit = config.EPS_COLLAPSE * scale, config.EPS_ABS, 2.0 * scale
    rho = config.EPS_MERGE * scale
    solutions = []
    failures = 0
    for m in starts[:_N_STARTS]:
        ok = found = False
        # the step depends on m alone, so an iterate that repeats bit for
        # bit makes the start periodic: it can never pass the residual test
        seen = set()
        for it in range(_N_STEPS):
            if solutions and _N_STEPS - it >= _MERGE_RESERVE and any(
                math.dist(known, m) <= rho for known, _ in solutions
            ):
                found = True  # converges to a center already found
                break
            bits = pack(*m)
            if bits in seen:
                break
            seen.add(bits)
            out = newton_pass(A, m, p, collapse, eps)
            if out is None:
                break  # collapsed onto a vertex
            g, aug = out
            if aug is None:
                ok = True
                break
            step = solve(aug, d)
            # an inf or NaN entry would leave m non-finite for good (inf * 0
            # is NaN when clamped), and such a start never converges
            if step is None or not all(map(math.isfinite, step)):
                break  # no unique finite step
            norm = math.hypot(*step)
            if norm > limit:
                step = [s * (limit / norm) for s in step]
            m = [*map(add, m, step)]
        if found:
            continue
        if not ok:
            failures += 1
            continue
        r = sum(x / len(g) for x in g)  # mean vertex gauge at the converged m; no overflow
        # r is inf exactly when a gauge is, and then the residual test's
        # bound EPS_ABS * max(g) was inf too
        if not config.EPS_ABS * scale < r < math.inf:
            failures += 1
            continue
        if all(math.dist(known, m) > rho for known, _ in solutions):
            solutions.append((m, r))
            if first:
                break

    pieces = [CircumPiece(Vec(m), r, 0) for m, r in solutions]
    return CircumcenterSet(simplex, ball, pieces, UNKNOWN, failures)


def circumcenters(simplex: Simplex, ball: UnitBall, *, first: bool = False) -> CircumcenterSet:
    """`first` stops the smooth search at pieces[0].  The polytopal
    enumeration ignores it: its classification needs every piece, and
    each piece's Fourier-Motzkin run checks MINKSIMPLEX_MAX_FM_ROWS."""
    if isinstance(ball, PolytopeBall):
        return polytopal_circumcenters(simplex, ball)
    return smooth_circumcenters(simplex, ball, first=first)


def is_circumcenter(simplex: Simplex, ball: UnitBall, center: Vec, radius=None) -> bool:
    """Direct definition check: all vertex gauges from the center agree
    (and equal the given radius when provided)."""
    g0 = ball.gauge(simplex.vertices[0] - center)
    if ball.mode == EXACT:
        if any(ball.gauge(a - center) != g0 for a in simplex.vertices[1:]):
            return False
        return g0 > 0 and (radius is None or g0 == radius)
    vals = [float(ball.gauge(a - center)) for a in simplex.vertices]
    ref = max(vals)
    if ref - min(vals) > config.EPS_REL * ref:
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
    aff(facet_i) intersected with the circumball: the line
    A_i + mu (M - A_i) = M + (1 - mu)(A_i - M) meets the facet plane at
    mu = -h(A_i) / <a_i, M - A_i> (nowhere when that is 0, as A_i is off
    the plane), and the test is mu > 0 with (1 - mu)(A_i - M) in the
    circumball moved to the origin."""
    a = simplex.vertices[i]
    rows = ball.section_rows(zero_vec(simplex.dim), [a - center], radius)
    facet = simplex.facet_hyperplanes[i]
    slope = facet.normal.dot(center - a)
    mu = -facet.eval(a) / slope if slope else 0
    if mu <= 0:
        return False
    p, q = ratio(1 - mu)
    return all(c * p <= h * q for (c,), h in rows)


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
    lo, hi = (Rat(*e) for e in line_interval(ball.section_rows(u - center, [v - u], radius)))
    # rescale the ray from A_i through the center until it hits the
    # edge's line: center - A_i = alpha (u - A_i) + beta (v - A_i)
    det = cross2(u - a, v - a)
    if det == 0:
        raise DegenerateInputError("vertex lies on the opposite edge's line")
    alpha, beta = cross2(center - a, v - a) / det, cross2(u - a, center - a) / det
    lam = alpha + beta
    if lam <= 0:
        return False
    t = beta / lam
    return (lo <= t and t < 0) or (1 < t and t <= hi)


def in_medial_polytope(simplex: Simplex, center: Vec, strict: bool = False) -> bool:
    return simplex.medial_polytope.contains(center, strict)


class InteriorUniquenessReport(FrozenRecord):
    """Planar check: a circumcenter strictly inside the medial triangle
    forces the whole circumcenter set to be that one point."""

    def __init__(self, applies: bool, singleton: bool, interior_witness: Optional[Vec], computed: CircumcenterSet):
        self.__dict__.update(applies=applies, singleton=singleton, interior_witness=interior_witness,
                             computed=computed)


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


class CubeEdgeMidpointInstance(FrozenRecord):
    def __init__(self, ball: PolytopeBall, simplex: Simplex, translation_direction: Vec):
        self.__dict__.update(ball=ball, simplex=simplex, translation_direction=translation_direction)


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
