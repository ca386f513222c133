"""Unit balls and norm-level operations.

Two ball kinds: centrally symmetric rational polytopes (exact mode)
and smooth p-norm balls for 1 < p < inf (float mode).  Polytopal balls
carry both representations, converted exactly at construction:
vertices, and facet normals n with the ball equal to {x : <n, x> <= 1}.
Polarity then swaps the two lists, which keeps PolytopeBall.dual exact
and involutive.  PolytopeBall.section_rows is the one routine that turns
a polytopal ball's section by a line or a plane into integer rows.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from . import config, polytopes
from .errors import (
    DegenerateInputError,
    DimensionError,
    FrozenRecord,
    MixedModeError,
    NonConvergenceError,
    VerificationError,
)
from .linalg import ExactVec, Hyperplane, Vec, bareiss, integer_points, ratio, solve_linear
from .scalars import EXACT, FLOAT, Rat, is_float, join_modes


def lp_norm(xs: Sequence[float], p: float) -> float:
    """(sum |x_i|^p)^(1/p) of floats.  Each |x_i| is divided by the
    largest before the power (Blue 1978): the largest term is then 1 and
    no power overflows, so the result is finite wherever the norm is."""
    big = max(map(abs, xs))
    if not 0.0 < big < math.inf:
        return big
    total = 0.0
    for c in xs:
        total += (abs(c) / big) ** p
    return big * total ** (1.0 / p)


def lp_gradient(xs: Sequence[float], p: float, norm: float) -> list:
    """Gradient of the l_p norm at xs != 0, given norm = lp_norm(xs, p).
    Each ratio |x_i| / norm is at most 1, so the power cannot overflow."""
    return [math.copysign((abs(c) / norm) ** (p - 1.0), c) for c in xs]


class UnitBall:
    """Common base of the two ball kinds; each defines gauge, support
    and dual."""

    dim: int
    kind: str
    mode: str


class PolytopeBall(UnitBall):
    """Centrally symmetric rational polytope with the origin inside.

    vertices: extreme points, closed under negation.
    normals: facet normals scaled so the ball is {x : <n, x> <= 1};
    also closed under negation.

    Both constructors take one path, polytopes.polar_pair: the normals
    are the vertices of the polar ball.  from_vertices reads the pair
    off conv(points); the H-form ball {x : <n_k, x> <= 1} is the polar
    of conv(n_k), so from_halfspaces reads it off conv(normals) with
    the two lists swapped.

    Each list is also kept as integer rows over one common denominator
    (the lcm of its points' D), computed once per ball and sorted as the
    points are; gauge and support take their max over integer dot
    products and divide once.  Both lists are closed under negation,
    so in that order row k is minus row -1-k, and a max over the rows
    reads only their upper half.  Nothing writes to a ball after it is
    built but its caches (its isoperimetrix, its dual, and the document
    text that `scene` keeps on it), so scenes that spell one ball alike
    may share it.
    """

    kind = "polytope"
    mode = EXACT

    def __init__(
        self,
        vertices: Sequence[Vec],
        normals: Sequence[Vec],
        _rows: Optional[tuple] = None,
    ):
        vertices, normals = tuple(vertices), tuple(normals)
        if not vertices or not normals:
            raise DegenerateInputError("empty polytope data")
        validate = _rows is None
        if validate:
            if any(v.mode != EXACT for v in (*vertices, *normals)):
                raise MixedModeError("polytopal balls take exact coordinates")
            _rows = (integer_points(vertices), integer_points(normals))
        self.vertices, self._vertex_rows = _sorted_by_rows(vertices, _rows[0])
        self.normals, self._normal_rows = _sorted_by_rows(normals, _rows[1])
        self.dim = self.vertices[0].dim
        if validate:
            self._validate()

    # -- construction ------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Sequence[Vec]) -> "PolytopeBall":
        pts = [p if isinstance(p, Vec) else Vec(p) for p in points]
        for p in pts:
            if p.mode != EXACT:
                raise MixedModeError("polytopal balls take exact rational vertices")
        return cls(*polytopes.polar_pair(pts))

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[Hyperplane]) -> "PolytopeBall":
        normals = []
        for h in halfspaces:
            if h.mode != EXACT:
                raise MixedModeError("polytopal balls take exact halfspaces")
            if h.offset <= 0:
                raise DegenerateInputError(
                    "halfspace <a,x> <= b needs b > 0 (origin inside)"
                )
            normals.append(h.normal / h.offset)
        config.check_cap("MINKSIMPLEX_MAX_FACETS", len(normals), "facets")
        # the ball is the polar of conv(normals), bounded exactly when
        # the origin is interior to that hull
        try:
            normals, vertices = polytopes.polar_pair(normals)
        except DegenerateInputError as exc:
            raise DegenerateInputError("halfspace intersection is unbounded") from exc
        return cls(vertices, normals)

    def _validate(self) -> None:
        d = self.dim
        config.check_dim(d)
        config.check_cap("MINKSIMPLEX_MAX_FACETS", len(self.normals), "facets")
        (vrows, s_v), (nrows, s_n) = self._vertex_rows, self._normal_rows
        # negation maps each sorted list onto itself counting repeats,
        # so row k is minus row -1-k, which _max_dot relies on
        if tuple(sorted(tuple(-c for c in v) for v in vrows)) != vrows:
            raise DegenerateInputError("vertex set is not centrally symmetric")
        if tuple(sorted(tuple(-c for c in n) for n in nrows)) != nrows:
            raise DegenerateInputError("facet set is not centrally symmetric")
        if any(len(row) != d for row in (*vrows, *nrows)):
            raise DimensionError("dimension mismatch")
        if bareiss([[*v, s_v] for v in vrows])[0] != d + 1:
            raise DegenerateInputError("polytope is not full-dimensional")
        # gauge(v) = max_k <N_k, V> / (s_n s_v), which is 1 at a vertex
        one = s_n * s_v
        for v, row in zip(self.vertices, vrows):
            if _max_dot(nrows, row) != one:
                raise DegenerateInputError(f"vertex {v} has gauge {self.gauge(v)} != 1")

    # -- operations --------------------------------------------------

    def gauge(self, x: Vec):
        """Minkowski functional: max_j <n_j, x>, exact."""
        return Rat(*self.gauge_ratio(x))

    def support(self, a: Vec):
        """Support function h_B(a) = max over vertices of <a, v>."""
        return Rat(*self._max_ratio(self._vertex_rows, a, "support"))

    def gauge_ratio(self, x: Vec) -> tuple:
        """The gauge as an int pair (p, q), q > 0, for p / q."""
        return self._max_ratio(self._normal_rows, x, "gauge")

    def section_rows(self, origin: Vec, directions: Sequence[Vec], radius=1) -> list:
        """The section of radius * B by origin + span(directions) as one
        integer row (c, h) per facet, in the normals' order: the point
        origin + sum_j y_j w_j lies in radius * B exactly when
        <c, y> <= h on every row.  With origin X_o / D_o, w_j = X_j / D_j,
        radius a / b and facet normal N / s_n,
            c_j = b D_o <N, X_j> prod_{l != j} D_l,
            h = (s_n a D_o - b <N, X_o>) prod_l D_l."""
        for v in (origin, *directions):
            join_modes(EXACT, v.mode)
            if v.dim != self.dim:
                raise DimensionError(f"dimension mismatch {self.dim} vs {v.dim}")
        a, b = ratio(radius)
        P = math.prod(w.D for w in directions)
        O, Do = origin.X, origin.D
        scales = [b * Do * P // w.D for w in directions]
        rows, s_n = self._normal_rows
        return [(tuple(k * sum(map(mul, N, w.X)) for k, w in zip(scales, directions)),
                 (s_n * a * Do - b * sum(map(mul, N, O))) * P) for N in rows]

    def _max_ratio(self, scaled_rows: tuple, x: Vec, what: str) -> tuple:
        if x.mode != EXACT:
            raise MixedModeError(f"polytopal {what} needs exact coordinates")
        if x.dim != self.dim:
            raise DimensionError("dimension mismatch")
        return _max_dot(scaled_rows[0], x.X), x.D * scaled_rows[1]

    @cached_property
    def _isoperimetrix(self) -> "PolytopeBall":
        """The quarter-turned polar ball (planar), built once, from the
        polar's points and integer rows turned by (x, y) -> (-y, x)."""
        rows = [([(-r[1], r[0]) for r in rs], s) for rs, s in (self._normal_rows, self._vertex_rows)]
        return PolytopeBall(map(_rot90, self.normals), map(_rot90, self.vertices), _rows=rows)

    def dual(self) -> "PolytopeBall":
        """Polar ball: vertices and facet normals trade places."""
        return self._dual

    @cached_property
    def _dual(self) -> "PolytopeBall":
        """The polar ball, built once; its own dual is this ball."""
        polar = PolytopeBall(self.normals, self.vertices, _rows=(self._normal_rows, self._vertex_rows))
        polar._dual = self
        return polar

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolytopeBall)
            and self.vertices == other.vertices
            and self.normals == other.normals
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.normals))

    def __repr__(self) -> str:
        return f"PolytopeBall(dim={self.dim}, facets={len(self.normals)})"


def _sorted_by_rows(points: Sequence[Vec], scaled_rows: tuple) -> tuple:
    """The points and their integer rows over one common denominator,
    both in the rows' order, which is the points' Vec.key order."""
    rows, scale = scaled_rows
    order = sorted(range(len(rows)), key=rows.__getitem__)
    return tuple(points[i] for i in order), (tuple(rows[i] for i in order), scale)


def _max_dot(rows: Sequence, X) -> int:
    """max of <r, X> over a ball's sorted integer rows r, for ints X:
    row k is minus row -1-k, so it is the largest |<r, X>| over the
    upper half of the rows."""
    return max(abs(sum(map(mul, r, X))) for r in rows[len(rows) // 2:])


class PNormBall(UnitBall):
    """Smooth l_p ball, 1 < p < inf, float mode.  p = 2 is Euclidean."""

    kind = "smooth-p"
    mode = FLOAT

    def __init__(self, dim: int, p: float):
        p = float(p)
        if not (1.0 < p < math.inf):
            raise DegenerateInputError("p must satisfy 1 < p < inf")
        config.check_dim(dim)
        self.dim = dim
        self.p = p

    def _floats(self, x: Vec) -> tuple:
        if x.dim != self.dim:
            raise DimensionError("dimension mismatch")
        return tuple(map(float, x.coords))

    def gauge(self, x: Vec) -> float:
        # exact input is converted here, at the mode boundary
        return lp_norm(self._floats(x), self.p)

    def support(self, a: Vec) -> float:
        return lp_norm(self._floats(a), self.p / (self.p - 1.0))

    def dual(self) -> "PNormBall":
        # p / (p - 1) rounds to 1.0 once p passes about 2**53; the next
        # float above 1 keeps the dual a p-norm, within float rounding
        return PNormBall(self.dim, max(self.p / (self.p - 1.0), math.nextafter(1.0, 2.0)))

    def gauge_gradient(self, x: Vec) -> tuple:
        """Gradient of the gauge at x != 0 (smoothness of l_p, p > 1)."""
        xs = self._floats(x)
        g = lp_norm(xs, self.p)
        if g == 0.0:
            raise ZeroDivisionError("gradient at the origin")
        return tuple(lp_gradient(xs, self.p, g))

    def __eq__(self, other) -> bool:
        return isinstance(other, PNormBall) and (self.dim, self.p) == (other.dim, other.p)

    def __hash__(self) -> int:
        return hash((self.dim, self.p))

    def __repr__(self) -> str:
        return f"PNormBall(dim={self.dim}, p={self.p})"


def euclidean_ball(dim: int) -> PNormBall:
    return PNormBall(dim, 2.0)


class Ball(FrozenRecord):
    """Translate center + radius * unit."""

    def __init__(self, unit: UnitBall, center: Vec, radius):
        if unit.mode == EXACT and (center.mode != EXACT or is_float(radius)):
            raise MixedModeError("exact unit ball with float center/radius")
        if radius <= 0:
            raise DegenerateInputError("ball radius must be positive")
        self.__dict__.update(unit=unit, center=center, radius=radius)

    def gauge_from_center(self, x: Vec):
        return self.unit.gauge(x - self.center)

    def contains(self, x: Vec, strict: bool = False) -> bool:
        g = self.gauge_from_center(x)
        return g < self.radius if strict else g <= self.radius


# -- free functions -------------------------------------------------


def _rot90(v: ExactVec) -> ExactVec:
    return ExactVec.of_ints((-v.X[1], v.X[0]), v.D)


def isoperimetrix(ball: UnitBall) -> UnitBall:
    """Quarter-turn of the polar ball (planar only)."""
    if ball.dim != 2:
        raise DimensionError("isoperimetrix is defined in the plane")
    if isinstance(ball, PNormBall):
        # rotating an l_q ball by 90 degrees maps it onto itself
        return ball.dual()
    return ball._isoperimetrix


def birkhoff_orthogonal(ball: UnitBall, x: Vec, y: Vec) -> bool:
    """x is Birkhoff orthogonal to y: ||x|| <= ||x + t y|| for all t.

    Polytopal, by norming functionals (James 1947): x is orthogonal to
    y exactly when some f in the dual ball with f(x) = gauge(x) has
    f(y) = 0.  Those f are the convex hull of the normals tight at x,
    so the test is min <n, y> <= 0 <= max over those normals.
    Smooth: one-sided derivative test at t = 0.
    """
    if x.is_zero() or y.is_zero():
        return True
    if isinstance(ball, PolytopeBall):
        gx = ball.gauge(x)
        values = [n.dot(y) for n in ball.normals if n.dot(x) == gx]
        return min(values) <= 0 <= max(values)
    # smooth: gauge is differentiable away from 0; the convex function
    # g(t) = ||x + t y|| has minimum at 0 iff g'(0) = 0, and |g'(0)| is
    # at most gauge(y) (the gradient has dual norm 1)
    grad = ball.gauge_gradient(x)
    deriv = sum(g * float(c) for g, c in zip(grad, y.coords))
    return abs(deriv) <= config.EPS_REL * ball.gauge(y)


def is_radon(ball: UnitBall) -> bool:
    """Planar test: the isoperimetrix is homothetic to the ball.

    Polytopal: scale one isoperimetrix vertex to gauge 1 and compare
    vertex sets exactly.  Smooth: only p = 2 qualifies.
    """
    if ball.dim != 2:
        raise DimensionError("Radon test is planar")
    if isinstance(ball, PNormBall):
        return ball.p == 2.0
    iso = isoperimetrix(ball)
    if len(iso.vertices) != len(ball.vertices):
        return False
    lam = ball.gauge(iso.vertices[0])
    return {v / lam for v in iso.vertices} == set(ball.vertices)


def point_hyperplane_distance(ball: UnitBall, p: Vec, h: Hyperplane):
    """Minkowskian distance |<a,p> - b| / h_B(a)."""
    return abs(h.eval(p)) / ball.support(h.normal)


def chord_through(ball: Ball, p: Vec, direction: Vec) -> tuple:
    """Chord parameters of the line {p + t * direction} in the ball.

    Requires p strictly inside.  Returns (t_minus, t_plus) with
    t- < 0 < t+; the chord endpoints are p + t * direction.  Exact for
    polytopal balls; for smooth ones, a bracketed root search
    (root_in_bracket) on each side to float precision.
    """
    if direction.is_zero():
        raise DegenerateInputError("chord direction must be nonzero")
    unit = ball.unit
    if isinstance(unit, PolytopeBall):
        rel = p - ball.center
        (g, q), (a, b) = unit.gauge_ratio(rel), ratio(ball.radius)
        if g * b >= a * q:
            raise DegenerateInputError("chord base point must be strictly inside")
        lo, hi = line_interval(unit.section_rows(rel, [direction], ball.radius))
        return Rat(*lo), Rat(*hi)

    # smooth: one root search on each side, on plain floats
    rel = [a - c for a, c in zip(unit._floats(p), unit._floats(ball.center))]
    dirs = unit._floats(direction)
    r = float(ball.radius)
    g0 = lp_norm(rel, unit.p) - r
    if g0 >= 0.0:
        raise DegenerateInputError("chord base point must be strictly inside")
    tp = _chord_end(rel, dirs, unit.p, r, g0)
    tm = -_chord_end(rel, [-c for c in dirs], unit.p, r, g0)
    return tm, tp


def line_interval(rows) -> tuple:
    """The t with c t <= h on every row (c,), h of a one-direction
    section_rows, as (lo, hi), each an int pair (p, q), q > 0, for
    p / q: a row with c > 0 bounds t above by h / c, one with c < 0
    bounds it below."""
    lo = hi = None
    for (c,), h in rows:
        if c > 0 and (hi is None or h * hi[1] < hi[0] * c):
            hi = h, c
        elif c < 0 and (lo is None or h * lo[1] < lo[0] * c):
            lo = -h, -c
    if lo is None or hi is None:
        raise VerificationError("a line through a bounded ball must leave it both ways")
    return lo, hi


def _chord_end(rel: list, dirs: list, p: float, r: float, g0: float) -> float:
    """The t > 0 with g(t) = lp_norm(rel + t * dirs, p) - r = 0, given
    g0 = g(0) < 0: the bracket [0, 1] is doubled until g changes sign,
    then searched by root_in_bracket.  In 2D and 3D g is one unrolled
    pass with lp_norm's operations in its order, so it has lp_norm's
    bits."""
    inv, inf = 1.0 / p, math.inf
    if len(rel) == 2:
        (a0, a1), (b0, b1) = rel, dirs

        def g(t: float) -> float:
            y0 = abs(a0 + t * b0)
            y1 = abs(a1 + t * b1)
            big = y1 if y1 > y0 else y0  # max(y0, y1), NaN included
            if not 0.0 < big < inf:
                return big - r
            return big * (0.0 + (y0 / big) ** p + (y1 / big) ** p) ** inv - r

    elif len(rel) == 3:
        (a0, a1, a2), (b0, b1, b2) = rel, dirs

        def g(t: float) -> float:
            y0 = abs(a0 + t * b0)
            y1 = abs(a1 + t * b1)
            y2 = abs(a2 + t * b2)
            big = y1 if y1 > y0 else y0  # max(y0, y1, y2), NaN included
            if y2 > big:
                big = y2
            if not 0.0 < big < inf:
                return big - r
            return big * (0.0 + (y0 / big) ** p + (y1 / big) ** p + (y2 / big) ** p) ** inv - r

    else:

        def g(t: float) -> float:
            return lp_norm([a + t * b for a, b in zip(rel, dirs)], p) - r

    lo, g_lo, hi = 0.0, g0, 1.0
    for _ in range(200):
        g_hi = g(hi)
        if g_hi >= 0.0:
            return root_in_bracket(g, lo, hi, g_lo, g_hi)
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
    raise NonConvergenceError("chord bracket expansion failed")


def root_in_bracket(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of f in [lo, hi], given f_lo = f(lo) and f_hi = f(hi) of
    opposite signs.

    Illinois false position (Dowell & Jarratt 1971): each step tries
    the zero of the secant through the two ends and replaces the end
    whose value has the sign of f there; an end kept twice in a row has
    its value halved, so the search cannot stall on one side.  A secant
    point outside the open bracket is replaced by the midpoint.  Stops
    when f is exactly 0 or the bracket is at most
    EPS_BISECT * max(1, |lo|, |hi|) wide, and returns its midpoint.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise DegenerateInputError("root bracket needs a sign change")
    kept = 0  # +1 after lo was kept, -1 after hi was kept
    for _ in range(200):
        if hi - lo <= config.EPS_BISECT * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        t = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        f_t = f(t)
        if f_t == 0.0:
            return t
        if (f_t > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f_t
            if kept == -1:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = t, f_t
            if kept == 1:
                f_lo *= 0.5
            kept = 1
    raise NonConvergenceError("root search did not converge")


def radon_polygon(arc: Optional[Sequence[Vec]] = None) -> PolytopeBall:
    """Polygonal Radon ball glued from a first-quadrant arc and the
    quarter-turned polar arc.

    arc: strictly convex chain from (1,0) to (0,1) (rational points).
    Default arc gives the affine-regular hexagon.
    """
    if arc is None:
        arc = [Vec((Rat(1), Rat(0))), Vec((Rat(1), Rat(1))), Vec((Rat(0), Rat(1)))]
    arc = [p if isinstance(p, Vec) else Vec(p) for p in arc]
    if arc[0] != Vec((Rat(1), Rat(0))) or arc[-1] != Vec((Rat(0), Rat(1))):
        raise DegenerateInputError("arc must run from (1,0) to (0,1)")
    polar_piece = []
    for u, w in zip(arc, arc[1:]):
        sol = solve_linear([[u[0], u[1]], [w[0], w[1]]], [1, 1])
        if sol.status != "unique":
            raise DegenerateInputError("consecutive arc points are collinear with o")
        polar_piece.append(Vec(sol.point))
    quad = list(arc) + [_rot90(y) for y in polar_piece]
    points = quad + [-v for v in quad]
    ball = PolytopeBall.from_vertices(points)
    if not is_radon(ball):
        raise DegenerateInputError("arc does not induce a Radon curve")
    return ball
