"""Classical center constructions relative to a norm.

Euler line: given a circumcenter M with radius r, the points

  concurrence  P = (d+1) G - d M
  feuerbach    F = ((d+1) G - M) / d
  monge        N = ((d+1) G - 2 M) / (d - 1)

all lie on the line through the centroid G and M.  P is where the d+1
lines through each vertex parallel to the segment from M to the
opposite facet centroid meet; F is the center of the sphere of radius
r/d through all facet centroids; N reproduces the Euclidean orthocenter
in the plane and the Monge point of a Euclidean tetrahedron.  All three
collapse to G exactly when M = G.

Inscribed and escribed spheres come from the linear system
<a_j, x> + s_j h(a_j) rho = b_j over the facet halfspaces
{<a_j, x> <= b_j}, where h is the support function of the ball and s_j
are signs: all +1 for the insphere, one -1 for the exsphere beyond the
flipped facet.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import Optional

from . import config
from .errors import DegenerateInputError, FrozenRecord, VerificationError
from .linalg import ExactVec, Hyperplane, Vec, bareiss, det, solve_linear
from .norms import Ball, UnitBall
from .scalars import EXACT, FLOAT, Rat
from .simplex import Simplex

from .circumcenter import is_circumcenter


class EulerLine(FrozenRecord):
    def __init__(self, centroid: Vec, circumcenter: Vec, radius, concurrence: Vec, feuerbach_center: Vec,
                 feuerbach_radius, monge: Vec, degenerate_line_indices: tuple, mode: str):
        self.__dict__.update(
            centroid=centroid, circumcenter=circumcenter, radius=radius, concurrence=concurrence,
            feuerbach_center=feuerbach_center, feuerbach_radius=feuerbach_radius, monge=monge,
            degenerate_line_indices=degenerate_line_indices, mode=mode)

    @property
    def collapsed(self) -> bool:
        """True exactly when the circumcenter is the centroid and every
        derived point lands there too."""
        return self.circumcenter == self.centroid

    def contains(self, point: Vec, tol: float = config.EPS_REL) -> bool:
        """Whether point is on the line through the centroid G and the
        circumcenter M (is G, if collapsed).  Float points are judged at
        tol plus a few ulps of the largest |coordinate| of G, M and point.
        Exact points are on it when M - G and point - G, as the int rows
        of their ExactVecs, have rank at most 1."""
        if self.mode == EXACT:
            if self.collapsed:
                return point == self.centroid
            g = self.centroid
            return bareiss([(self.circumcenter - g).X, (point - g).X])[0] <= 1
        g = [float(c) for c in self.centroid.coords]
        m = [float(c) for c in self.circumcenter.coords]
        p = [float(c) for c in point.coords]
        slack = 8 * (len(g) + 1) * sys.float_info.epsilon * max(map(abs, (*g, *m, *p)))
        if self.collapsed:
            bound = float(self.radius) * tol + slack
            return all(abs(a - b) <= bound for a, b in zip(p, g))
        u = [a - b for a, b in zip(m, g)]
        v = [a - b for a, b in zip(p, g)]
        nu, nv = math.hypot(*u), math.hypot(*v)
        if nu == 0.0 or nv == 0.0:
            return True
        # unit u and v are parallel when every 2x2 minor u_i v_j - u_j v_i
        # vanishes; scaling first keeps the products from overflowing, and
        # the slack in u and v moves the unit vectors by slack / |u|, |v|
        u = [c / nu for c in u]
        v = [c / nv for c in v]
        cross = max(abs(ui * vj - uj * vi) for ui, vi in zip(u, v) for uj, vj in zip(u, v))
        return cross <= tol + slack / nu + slack / nv


def euler_line(simplex: Simplex, ball: UnitBall, center: Vec, radius) -> EulerLine:
    """Derived collinear points for one circumcenter of the simplex.

    Raises if (center, radius) fails the direct circumcenter check, and
    on a float simplex whose largest |coordinate| is subnormal: the float
    checks are relative to that scale, and subnormals lack the precision."""
    if ball.mode == FLOAT:
        scale = simplex.float_scale()
    if not is_circumcenter(simplex, ball, center, radius):
        raise DegenerateInputError("(center, radius) is not a circumcenter")
    d = simplex.dim
    if ball.mode == FLOAT:
        g, m, r = simplex.centroid.to_float(), center.to_float(), float(radius)
    else:
        # is_circumcenter raised MixedModeError for a float center; the
        # checked radius is kept as is, and an int one becomes a Fraction
        g, m, r = simplex.centroid, center, radius if isinstance(radius, Fraction) else Rat(radius)
    # d and d + 1 stay ints in both lanes: on floats they round as
    # float(d) would, on exact Vecs they scale X / D exactly
    concurrence = (d + 1) * g - d * m
    feuerbach = ((d + 1) * g - m) / d
    monge = ((d + 1) * g - 2 * m) / (d - 1)

    def _at_circumcenter(p: Vec) -> bool:
        if ball.mode == EXACT:
            return p == m
        # within EPS_ABS of the simplex's scale, with no absolute floor
        tol = config.EPS_ABS * scale
        return all(abs(a - b) <= tol for a, b in zip(p.to_float().coords, m.coords))

    degenerate = tuple(i for i, ac in enumerate(simplex.facet_centroids) if _at_circumcenter(ac))

    line = EulerLine(
        centroid=g,
        circumcenter=m,
        radius=r,
        concurrence=concurrence,
        feuerbach_center=feuerbach,
        feuerbach_radius=r / d,
        monge=monge,
        degenerate_line_indices=degenerate,
        mode=ball.mode,
    )
    _check_euler_identities(simplex, line)
    return line


def _check_euler_identities(simplex: Simplex, line: EulerLine) -> None:
    """Internal cross-checks; failure means a bug, not bad input."""
    d = simplex.dim
    exact = line.mode == EXACT
    for a, ac in zip(simplex.vertices, simplex.facet_centroids):
        if not exact:
            a, ac = a.to_float(), ac.to_float()
        # P = A_i + d (A'_i - M) for every i
        lhs = line.concurrence
        rhs = a + d * (ac - line.circumcenter)
        # F - A'_i = (A_i - M) / d for every i
        lhs2 = line.feuerbach_center - ac
        rhs2 = (a - line.circumcenter) / d
        if exact:
            ok = lhs == rhs and lhs2 == rhs2
        else:
            # the rhs cancels terms of the size of the inputs, so the
            # rounding left in it scales with them, not with the rhs
            scale = d * max(abs(float(c)) for v in (a, ac, line.circumcenter) for c in v.coords)
            pairs = zip((*lhs.coords, *lhs2.coords), (*rhs.coords, *rhs2.coords))
            ok = all(abs(float(x) - float(y)) <= config.EPS_REL * scale for x, y in pairs)
        if not ok:
            raise VerificationError("euler line identities violated")
    if not (line.contains(line.concurrence) and line.contains(line.monge) and line.contains(line.feuerbach_center)):
        raise VerificationError("derived points left the euler line")


def feuerbach_sphere(simplex: Simplex, ball: UnitBall, center: Vec, radius) -> Ball:
    """Sphere of radius r/d through all facet centroids, for a
    circumcenter (M, r).  Verifies the through-points property."""
    line = euler_line(simplex, ball, center, radius)
    sphere = Ball(ball, line.feuerbach_center, line.feuerbach_radius)
    for ac in simplex.facet_centroids:
        g = sphere.gauge_from_center(ac if ball.mode == EXACT else ac.to_float())
        if ball.mode == EXACT:
            ok = g == sphere.radius
        else:
            ok = abs(float(g) - float(sphere.radius)) <= config.EPS_REL * float(sphere.radius)
        if not ok:
            raise VerificationError("facet centroid off the feuerbach sphere")
    return sphere


class Insphere(FrozenRecord):
    def __init__(self, center: Vec, radius, flipped_facet: Optional[int] = None):  # None: the insphere proper
        self.__dict__.update(center=center, radius=radius, flipped_facet=flipped_facet)


def _tangency_sphere(simplex: Simplex, ball: UnitBall, flip: Optional[int]) -> Optional[tuple]:
    """(x, rho) with <a_j, x> + s_j h(a_j) rho = b_j for all j, or None if not unique.

    Exact, in barycentric coordinates: lambda_j = s_j rho / H_j for the
    heights H_j = S s_v / (D M_j) of the facet table, and sum lambda_j
    = 1, so sigma = sum s_j M_j gives x = sum s_j M_j V_j / (D sigma)
    and rho = S s_v / (D sigma), with no solution when sigma = 0."""
    if ball.mode == EXACT:
        signed = [-m if j == flip else m for j, m in enumerate(simplex.facet_supports(ball))]
        (V, D, _, _, S), sigma = simplex.facet_table, sum(signed)
        if sigma == 0:
            return None
        c = 1 if sigma > 0 else -1  # the center's denominator must be positive
        X = [c * sum(map(mul, signed, col)) for col in zip(*V)]
        return ExactVec.of_ints(X, c * D * sigma), Rat(S * ball._vertex_rows[1], D * sigma)
    rows, rhs = [], []
    for j, h in enumerate(simplex.facet_hyperplanes):
        sj = -1 if j == flip else 1
        hb = ball.support(h.normal)
        rows.append([*(float(c) for c in h.normal.coords), sj * float(hb)])
        rhs.append(float(h.offset))
    if flip is not None:
        # entries are scaled to at most 1 first, so nothing can overflow
        big = max(max(abs(c) for row in rows for c in row), 1.0)
        if abs(det([[c / big for c in row] for row in rows])) <= config.EPS_ABS:
            return None
    lin = solve_linear(rows, rhs)
    return (Vec(lin.point[:-1]), lin.point[-1]) if lin.status == "unique" else None


def incenter(simplex: Simplex, ball: UnitBall) -> Insphere:
    """Unique interior point equidistant from all facet hyperplanes,
    with the common distance rho as second component."""
    sphere = _tangency_sphere(simplex, ball, flip=None)
    if sphere is None:
        raise VerificationError("tangency system unexpectedly singular")
    if not sphere[1] > 0:
        raise VerificationError("nonpositive inradius")
    return Insphere(*sphere)


def exsphere(simplex: Simplex, ball: UnitBall, i: int) -> Optional[Insphere]:
    """Sphere tangent to all facet hyperplanes from beyond facet i.

    Exists for every facet in the Euclidean plane; a degenerate norm
    can make the sign-flipped system singular or push the radius
    nonpositive, in which case None is returned."""
    if not 0 <= i <= simplex.dim:
        raise IndexError(i)
    sphere = _tangency_sphere(simplex, ball, flip=i)
    return Insphere(*sphere, flipped_facet=i) if sphere and sphere[1] > 0 else None


def exspheres(simplex: Simplex, ball: UnitBall) -> dict:
    return {i: exsphere(simplex, ball, i) for i in range(simplex.dim + 1)}


def bisector(h1: Hyperplane, h2: Hyperplane, ball: UnitBall, signs: tuple = (1, 1)) -> Hyperplane:
    """Locus of equal signed gauge distance to two intersecting
    hyperplanes: s1 (<a1,x> - b1)/h(a1) = s2 (<a2,x> - b2)/h(a2).  It is
    itself a hyperplane through their intersection.  Which of the two
    bisectors comes back is set by the sign pair; callers pick the
    interior one by testing a reference point they care about."""
    s1, s2 = signs
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    n1, n2, b1, b2 = h1.normal, h2.normal, h1.offset, h2.offset
    g1, g2 = ball.support(n1), ball.support(n2)
    if ball.mode == FLOAT:
        n1, n2 = n1.to_float(), n2.to_float()
        b1, b2, g1, g2 = float(b1), float(b2), float(g1), float(g2)
    normal = n1 * (s1 / g1) + n2 * (-s2 / g2)
    offset = b1 * s1 / g1 - b2 * s2 / g2
    if normal.is_zero():
        raise DegenerateInputError("hyperplanes are parallel")
    return Hyperplane(normal, offset)


def facet_bisector(simplex: Simplex, ball: UnitBall, i: int, j: int, external: bool = False) -> Hyperplane:
    """Bisector of the hyperplanes of facets i and j.  The internal one
    (signed distances with equal signs) passes through the incenter and
    contains the common ridge; the external one flips the sign at
    facet j."""
    if i == j:
        raise DegenerateInputError("bisector needs two distinct facets")
    return bisector(
        simplex.facet_hyperplanes[i],
        simplex.facet_hyperplanes[j],
        ball,
        (1, -1 if external else 1),
    )
