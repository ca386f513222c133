"""Unit balls and norm-level operations.

Two ball kinds: centrally symmetric rational polytopes (exact mode)
and smooth p-norm balls for 1 < p < inf (float mode).  Polytopal balls
carry both representations, converted exactly at construction:
vertices, and facet normals n with the ball equal to {x : <n, x> <= 1}.
Polarity then swaps the two lists, which keeps dual_ball exact and
involutive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import config, polytopes
from .errors import (
    DegenerateInputError,
    DimensionError,
    MixedModeError,
    NonConvergenceError,
    ResourceCapError,
    VerificationError,
)
from .linalg import Hyperplane, Vec, affine_rank, solve_linear
from .scalars import EXACT, FLOAT, Rat, is_float


class UnitBall:
    """Common interface of the two ball kinds."""

    dim: int
    kind: str
    mode: str

    def gauge(self, x: Vec):
        raise NotImplementedError

    def support(self, a: Vec):
        raise NotImplementedError

    def dual(self) -> "UnitBall":
        raise NotImplementedError


class PolytopeBall(UnitBall):
    """Centrally symmetric rational polytope with the origin inside.

    vertices: extreme points, closed under negation.
    normals: facet normals scaled so the ball is {x : <n, x> <= 1};
    also closed under negation.
    """

    kind = "polytope"
    mode = EXACT

    def __init__(self, vertices: Sequence[Vec], normals: Sequence[Vec], _validated: bool = False):
        self.vertices = tuple(sorted(vertices, key=Vec.key))
        self.normals = tuple(sorted(normals, key=Vec.key))
        if not self.vertices or not self.normals:
            raise DegenerateInputError("empty polytope data")
        self.dim = self.vertices[0].dim
        if not _validated:
            self._validate()

    # -- construction ------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Sequence[Vec]) -> "PolytopeBall":
        pts = [p if isinstance(p, Vec) else Vec(p) for p in points]
        for p in pts:
            if p.mode != EXACT:
                raise MixedModeError("polytopal balls take exact rational vertices")
        hyps = polytopes.facet_hyperplanes(pts)
        normals = []
        for h in hyps:
            if h.offset <= 0:
                raise DegenerateInputError("origin is not interior to the polytope")
            normals.append(h.normal / h.offset)
        vertices = polytopes.vertex_enumerate(
            [Hyperplane(n, Rat(1)) for n in normals]
        )
        return cls(vertices, normals)

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
        if len(normals) > config.max_facets():
            raise ResourceCapError(
                f"{len(normals)} facets exceed cap {config.max_facets()}"
            )
        hs = [Hyperplane(n, Rat(1)) for n in normals]
        vertices = polytopes.vertex_enumerate(hs)
        if not vertices:
            raise DegenerateInputError("halfspace intersection has no vertices")
        minimal = polytopes.minimal_halfspaces(hs, vertices)
        return cls(vertices, [h.normal for h in minimal])

    def _validate(self) -> None:
        d = self.dim
        if d < 2:
            raise DimensionError("dimension must be at least 2")
        if d > config.max_dim():
            raise ResourceCapError(f"dimension {d} exceeds cap {config.max_dim()}")
        if len(self.normals) > config.max_facets():
            raise ResourceCapError(
                f"{len(self.normals)} facets exceed cap {config.max_facets()}"
            )
        vset = {v.coords for v in self.vertices}
        if {(-v).coords for v in self.vertices} != vset:
            raise DegenerateInputError("vertex set is not centrally symmetric")
        nset = {n.coords for n in self.normals}
        if {(-n).coords for n in self.normals} != nset:
            raise DegenerateInputError("facet set is not centrally symmetric")
        if affine_rank(self.vertices) != d:
            raise DegenerateInputError("polytope is not full-dimensional")
        for v in self.vertices:
            g = self.gauge(v)
            if g != 1:
                raise DegenerateInputError(f"vertex {v} has gauge {g} != 1")

    # -- operations --------------------------------------------------

    def gauge(self, x: Vec):
        """Minkowski functional: max_j <n_j, x>, exact."""
        if x.mode != EXACT:
            raise MixedModeError("polytopal gauge needs exact coordinates")
        if x.dim != self.dim:
            raise DimensionError("dimension mismatch")
        return max(n.dot(x) for n in self.normals)

    def support(self, a: Vec):
        """Support function h_B(a) = max over vertices of <a, v>."""
        if a.mode != EXACT:
            raise MixedModeError("polytopal support needs exact coordinates")
        if a.dim != self.dim:
            raise DimensionError("dimension mismatch")
        return max(a.dot(v) for v in self.vertices)

    def dual(self) -> "PolytopeBall":
        """Polar ball: vertices and facet normals trade places."""
        return PolytopeBall(self.normals, self.vertices, _validated=True)

    def boundary_contains(self, x: Vec) -> bool:
        return self.gauge(x) == 1

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


class PNormBall(UnitBall):
    """Smooth l_p ball, 1 < p < inf, float mode.  p = 2 is Euclidean."""

    kind = "smooth-p"
    mode = FLOAT

    def __init__(self, dim: int, p: float):
        p = float(p)
        if not (1.0 < p < math.inf):
            raise DegenerateInputError("p must satisfy 1 < p < inf")
        if dim < 2:
            raise DimensionError("dimension must be at least 2")
        if dim > config.max_dim():
            raise ResourceCapError(f"dimension {dim} exceeds cap {config.max_dim()}")
        self.dim = dim
        self.p = p

    def _floats(self, x: Vec) -> tuple:
        if x.dim != self.dim:
            raise DimensionError("dimension mismatch")
        return tuple(float(c) for c in x.coords)

    def gauge(self, x: Vec) -> float:
        # exact input is converted here, at the mode boundary
        xs = self._floats(x)
        return sum(abs(c) ** self.p for c in xs) ** (1.0 / self.p)

    def support(self, a: Vec) -> float:
        q = self.p / (self.p - 1.0)
        xs = self._floats(a)
        return sum(abs(c) ** q for c in xs) ** (1.0 / q)

    def dual(self) -> "PNormBall":
        return PNormBall(self.dim, self.p / (self.p - 1.0))

    def gauge_gradient(self, x: Vec) -> tuple:
        """Gradient of the gauge at x != 0 (smoothness of l_p, p > 1)."""
        xs = self._floats(x)
        g = self.gauge(x)
        if g == 0.0:
            raise ZeroDivisionError("gradient at the origin")
        return tuple(
            math.copysign(abs(c) ** (self.p - 1.0), c) / g ** (self.p - 1.0)
            for c in xs
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PNormBall) and (self.dim, self.p) == (other.dim, other.p)

    def __hash__(self) -> int:
        return hash((self.dim, self.p))

    def __repr__(self) -> str:
        return f"PNormBall(dim={self.dim}, p={self.p})"


def euclidean_ball(dim: int) -> PNormBall:
    return PNormBall(dim, 2.0)


@dataclass(frozen=True)
class Ball:
    """Translate center + radius * unit."""

    unit: UnitBall
    center: Vec
    radius: object

    def __post_init__(self):
        if self.unit.mode == EXACT and (self.center.mode != EXACT or is_float(self.radius)):
            raise MixedModeError("exact unit ball with float center/radius")
        if self.radius <= 0:
            raise DegenerateInputError("ball radius must be positive")

    def gauge_from_center(self, x: Vec):
        return self.unit.gauge(x - self.center)

    def contains(self, x: Vec, strict: bool = False) -> bool:
        g = self.gauge_from_center(x)
        return g < self.radius if strict else g <= self.radius


# -- free functions -------------------------------------------------


def gauge(ball: UnitBall, x: Vec):
    return ball.gauge(x)


def support(ball: UnitBall, a: Vec):
    return ball.support(a)


def dual_ball(ball: UnitBall) -> UnitBall:
    return ball.dual()


def _rot90(v: Vec) -> Vec:
    return Vec((-v[1], v[0]))


def isoperimetrix(ball: UnitBall) -> UnitBall:
    """Quarter-turn of the polar ball (planar only)."""
    if ball.dim != 2:
        raise DimensionError("isoperimetrix is defined in the plane")
    if isinstance(ball, PNormBall):
        # rotating an l_q ball by 90 degrees maps it onto itself
        return ball.dual()
    d = ball.dual()
    return PolytopeBall(
        [_rot90(v) for v in d.vertices],
        [_rot90(n) for n in d.normals],
        _validated=True,
    )


def birkhoff_orthogonal(ball: UnitBall, x: Vec, y: Vec) -> bool:
    """x is Birkhoff orthogonal to y: ||x|| <= ||x + t y|| for all t.

    Polytopal: the minimum of the piecewise-linear convex function
    t -> gauge(x + t y) is computed exactly from slope-crossing pairs.
    Smooth: one-sided derivative test at t = 0.
    """
    if x.is_zero():
        return True
    if y.is_zero():
        return True
    if isinstance(ball, PolytopeBall):
        gx = ball.gauge(x)
        lines = [(n.dot(x), n.dot(y)) for n in ball.normals]
        best = None
        for c, s in lines:
            if s == 0:
                if best is None or c > best:
                    best = c
        for cj, sj in lines:
            if sj <= 0:
                continue
            for ck, sk in lines:
                if sk >= 0:
                    continue
                # crossing value of the increasing and decreasing lines
                value = (cj * (-sk) + ck * sj) / (sj - sk)
                if best is None or value > best:
                    best = value
        if best is None:
            raise VerificationError("symmetric ball must have opposite slopes")
        return best == gx
    # smooth: gauge is differentiable away from 0; the convex function
    # g(t) = ||x + t y|| has minimum at 0 iff g'(0) = 0
    grad = ball.gauge_gradient(x)
    deriv = sum(g * float(c) for g, c in zip(grad, y.coords))
    scale = max(ball.gauge(y), 1.0)
    return abs(deriv) <= config.EPS_REL * scale + config.EPS_ABS


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
    scaled = sorted((v / lam for v in iso.vertices), key=Vec.key)
    return tuple(scaled) == ball.vertices


def point_hyperplane_distance(ball: UnitBall, p: Vec, h: Hyperplane):
    """Minkowskian distance |<a,p> - b| / h_B(a)."""
    num = h.eval(p)
    if ball.mode == FLOAT:
        return abs(float(num)) / ball.support(h.normal)
    return abs(num) / ball.support(h.normal)


def chord_through(ball: Ball, p: Vec, direction: Vec) -> tuple:
    """Chord parameters of the line {p + t * direction} in the ball.

    Requires p strictly inside.  Returns (t_minus, t_plus) with
    t- < 0 < t+; the chord endpoints are p + t * direction.  Exact for
    polytopal balls; bisection at float precision for smooth ones.
    """
    if direction.is_zero():
        raise DegenerateInputError("chord direction must be nonzero")
    unit = ball.unit
    if isinstance(unit, PolytopeBall):
        rel = p - ball.center
        if unit.gauge(rel) >= ball.radius:
            raise DegenerateInputError("chord base point must be strictly inside")
        tplus = None
        tminus = None
        for n in unit.normals:
            s = n.dot(direction)
            if s == 0:
                continue
            t = (ball.radius - n.dot(rel)) / s
            if s > 0:
                if tplus is None or t < tplus:
                    tplus = t
            else:
                if tminus is None or t > tminus:
                    tminus = t
        if tplus is None or tminus is None:
            raise VerificationError("a line through a bounded ball must leave it both ways")
        return tminus, tplus

    # smooth: expand a bracket then bisect each side
    base = p.to_float()
    rel_f = base - ball.center.to_float()
    dir_f = direction.to_float()
    r = float(ball.radius)
    if unit.gauge(rel_f) >= r:
        raise DegenerateInputError("chord base point must be strictly inside")

    def g(t: float) -> float:
        return unit.gauge(rel_f + t * dir_f) - r

    def solve_side(sgn: float) -> float:
        hi = 1.0
        for _ in range(200):
            if g(sgn * hi) > 0:
                break
            hi *= 2.0
        else:
            raise NonConvergenceError("chord bracket expansion failed")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(sgn * mid) > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * max(1.0, hi):
                break
        return sgn * 0.5 * (lo + hi)

    tp = solve_side(1.0)
    tm = solve_side(-1.0)
    return tm, tp


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
