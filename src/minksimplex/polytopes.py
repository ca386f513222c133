"""Exact V/H conversions for small polytopes (dimension <= 4).

Both directions are one routine on the polar, in homogeneous integer
coordinates (the pairing of the double-description method, Motzkin et
al. 1953).  A point x = X / D is the int row (X, D) with D > 0, and a
halfspace <a, x> <= b is the int row h = (a, -b), scaled by a positive
multiplier; x lies in the halfspace exactly when <h, (X, D)> <= 0.

One kernel (_polar_kernel) walks the d-subsets of such rows in
itertools.combinations order.  A subset of rank d has a null vector y,
taken from linalg.integer_solve; when no two rows lie on opposite
sides of y, y is oriented so that every row reads <= 0.  Fed the rows
of points, it yields each facet as a halfspace row (a, -b); fed the
rows of halfspaces, it yields each vertex as a point row (X, D), kept
when D > 0.  One test (_rank_d_tight) runs the other way: a point is a
vertex when the facet rows tight at it have rank d, and a halfspace
supports a facet when the vertex rows tight on it have rank d.

At the configured desk scale (<= 64 facets) this brute force is fast,
and every result is exact: coordinates come back as rationals, not
approximations.  There is no float vertex enumeration: the one float
polytope, a smooth-lane simplex's medial polytope, has its vertices in
closed form (the edge midpoints, see simplex.py).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Sequence

from . import config
from .errors import DegenerateInputError, DimensionError, MixedModeError, ResourceCapError
from .linalg import Hyperplane, Vec, bareiss, cross2, integer_rows, integer_solve
from .scalars import EXACT, Rat


def _check_dim(d: int) -> None:
    if d < 2:
        raise DimensionError("polytope machinery needs dimension >= 2")
    if d > config.max_dim():
        raise ResourceCapError(f"dimension {d} exceeds cap {config.max_dim()}")


def _check_exact(items: Sequence, what: str) -> int:
    """The dimension of a nonempty list of exact Vecs or Hyperplanes."""
    if not items:
        raise DegenerateInputError(f"no {what}")
    d = items[0].dim
    _check_dim(d)
    if any(x.mode != EXACT for x in items):
        raise MixedModeError(f"V/H conversion takes exact {what} only")
    return d


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _point_rows(points: Sequence[Vec]) -> list:
    """Each exact point x = X / D as the int row (X, D), D > 0."""
    return integer_rows([[*p.coords, 1] for p in points])[0]


def _halfspace_rows(halfspaces: Sequence[Hyperplane]) -> list:
    """Each exact halfspace <a, x> <= b as the int row (a, -b), scaled
    by a positive multiplier so the inequality keeps its direction."""
    return integer_rows([[*h.normal.coords, -h.offset] for h in halfspaces])[0]


def _polar_kernel(rows: Sequence[Sequence[int]], d: int):
    """For each d-subset of the homogeneous rows, in combinations
    order, that has rank d and no two rows on opposite sides of its
    null vector y: y, oriented so that <r, y> <= 0 for every row and,
    when every row is tight, with a positive last entry."""
    for combo in itertools.combinations(rows, d):
        _, _, basis = integer_solve([[*r, 0] for r in combo], d + 1)
        if len(basis) != 1:
            continue  # rank below d
        y = basis[0]
        side = 0
        for r in rows:
            s = _dot(r, y)
            if s == 0:
                continue
            if side == 0:
                side = s
            elif (s > 0) != (side > 0):
                break
        else:
            if side > 0 or (side == 0 and y[d] < 0):
                y = [-c for c in y]
            yield y


def _rank_d_tight(items: Sequence, rows: Sequence, duals: Sequence, d: int) -> list:
    """The items whose rows meet dual rows y with <r, y> = 0 of rank d."""
    out = []
    for item, r in zip(items, rows):
        tight = [y for y in duals if _dot(r, y) == 0]
        if len(tight) >= d and bareiss(tight)[0] == d:
            out.append(item)
    return out


def facet_hyperplanes(points: Sequence[Vec]) -> list[Hyperplane]:
    """Outward facet hyperplanes of conv(points), in the order of the
    first d-subset of points that spans each: each returned (a, b)
    satisfies <a, x> <= b on the hull with equality on a facet."""
    pts = list(dict.fromkeys(points))
    d = _check_exact(pts, "points")
    rows = _point_rows(pts)
    if bareiss(rows)[0] != d + 1:
        raise DegenerateInputError("point set is not full-dimensional")
    found = {}
    for y in _polar_kernel(rows, d):
        # as the coprime integer tuple Hyperplane.canonical() gives
        coeffs = [*y[:d], -y[d]]
        g = math.gcd(*coeffs)
        key = tuple(c // g for c in coeffs)
        if key not in found:
            found[key] = Hyperplane(Vec(Rat(c) for c in key[:d]), Rat(key[d]))
            if len(found) > config.max_facets():
                raise ResourceCapError(f"facet count exceeds cap {config.max_facets()}")
    return list(found.values())


def hull_vertices(points: Sequence[Vec], facets: Sequence[Hyperplane]) -> list[Vec]:
    """The points that are vertices of conv(points), given its facets:
    a point is a vertex iff the facets tight at it have rank d.
    Duplicates are dropped and coordinates come back as rationals."""
    pts = list(dict.fromkeys(points))
    d = _check_exact(pts, "points")
    _check_exact(facets, "facets")
    vertices = _rank_d_tight(pts, _point_rows(pts), _halfspace_rows(facets), d)
    return [Vec(Rat(c) for c in p.coords) for p in vertices]


def vertex_enumerate(halfspaces: Sequence[Hyperplane]) -> list[Vec]:
    """Vertices of {x : <a_i, x> <= b_i for all i}, in the order of the
    first d-subset of rows that meets each; the intersection must be
    bounded for the result to describe it.  Exact halfspaces only."""
    hs = list(halfspaces)
    d = _check_exact(hs, "halfspaces")
    if len(hs) > config.max_facets():
        raise ResourceCapError(f"{len(hs)} halfspaces exceed cap {config.max_facets()}")
    points = (
        tuple(Rat(c, y[d]) for c in y[:d])
        for y in _polar_kernel(_halfspace_rows(hs), d)
        if y[d] > 0
    )
    return [Vec(x) for x in dict.fromkeys(points)]


def minimal_halfspaces(halfspaces: Sequence[Hyperplane], vertices: Sequence[Vec]) -> list[Hyperplane]:
    """Drop exact halfspaces whose boundary does not support a facet
    (tight at vertices of rank below d)."""
    d = halfspaces[0].dim
    rows, duals = _halfspace_rows(halfspaces), _point_rows(vertices)
    kept = {h.canonical(): h for h in _rank_d_tight(halfspaces, rows, duals, d)}
    return list(kept.values())


def contains(halfspaces: Sequence[Hyperplane], p: Vec, strict: bool = False) -> bool:
    if strict:
        return all(h.eval(p) < 0 for h in halfspaces)
    return all(h.eval(p) <= 0 for h in halfspaces)


def _angular_cmp(center: Vec):
    """Exact counterclockwise comparator for points around center."""

    def half(u: Vec) -> int:
        # 0 for angle in [0, pi), 1 for [pi, 2pi)
        if u[1] > 0 or (u[1] == 0 and u[0] > 0):
            return 0
        return 1

    def cmp(a: Vec, b: Vec) -> int:
        ua, ub = a - center, b - center
        ha, hb = half(ua), half(ub)
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross2(ua, ub)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return cmp


def polygon_order(vertices: Sequence[Vec]) -> list[Vec]:
    """Vertices of a planar convex polygon in counterclockwise order,
    starting from an arbitrary but deterministic vertex."""
    pts = list(vertices)
    if not pts or pts[0].dim != 2:
        raise DimensionError("polygon_order needs planar points")
    n = Rat(len(pts)) if pts[0].mode == EXACT else float(len(pts))
    center = Vec((sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n))
    ordered = sorted(pts, key=functools.cmp_to_key(_angular_cmp(center)))
    start = min(range(len(ordered)), key=lambda i: ordered[i].key())
    return ordered[start:] + ordered[:start]


def polygon_edges(vertices: Sequence[Vec]) -> list[tuple[Vec, Vec]]:
    """Consecutive vertex pairs of the convex polygon (ccw order)."""
    ordered = polygon_order(vertices)
    return [(ordered[i], ordered[(i + 1) % len(ordered)]) for i in range(len(ordered))]


def convex_hull_2d(points: Sequence[Vec]) -> list[Vec]:
    """Extreme points of a planar point set in counterclockwise order
    (monotone chain); collinear interior points are dropped.  Unlike
    polygon_order this accepts interior points, so it is safe on
    projections of higher-dimensional vertex sets."""
    pts = sorted(dict.fromkeys(points), key=lambda p: (p.key()))
    if pts and pts[0].dim != 2:
        raise DimensionError("convex_hull_2d needs planar points")
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]
