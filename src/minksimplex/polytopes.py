"""Exact V/H conversions for small polytopes (dimension <= 4).

Both directions run on Python ints.  A point set is scaled once by the
lcm of its denominators; each d-subset's hyperplane normal is the
vector of integer cofactors of its edge vectors, and the support scan
over all points is a run of integer dot products.  Each halfspace row
is scaled to integers, each d-subset of rows is solved by integer
Cramer with fraction-free (Bareiss) determinants, and containment is
tested as <a, num> <= b * den with den > 0.  At the configured desk
scale (<= 64 facets) this brute force is fast, and every result is
exact: coordinates come back as rationals, not approximations.  There
is no float vertex enumeration: the one float polytope, a smooth-lane
simplex's medial polytope, has its vertices in closed form (the edge
midpoints, see simplex.py).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

from . import config
from .errors import DegenerateInputError, DimensionError, MixedModeError, ResourceCapError
from .linalg import (
    Hyperplane,
    Vec,
    affine_rank,
    cross2,
    integer_det,
    integer_points,
    integer_rows,
    rank,
)
from .scalars import EXACT, Rat


def _check_dim(d: int) -> None:
    if d < 2:
        raise DimensionError("polytope machinery needs dimension >= 2")
    if d > config.max_dim():
        raise ResourceCapError(f"dimension {d} exceeds cap {config.max_dim()}")


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _integer_halfspaces(halfspaces: Sequence[Hyperplane]) -> list:
    """Each exact halfspace <a, x> <= b as an int row (a..., b), scaled
    by a positive multiplier so the inequality keeps its direction."""
    return integer_rows([[*h.normal.coords, h.offset] for h in halfspaces])[0]


def facet_hyperplanes(points: Sequence[Vec]) -> list[Hyperplane]:
    """Outward facet hyperplanes of conv(points): each returned (a, b)
    satisfies <a, x> <= b on the hull with equality on a facet."""
    pts = list(dict.fromkeys(points))
    d = pts[0].dim
    _check_dim(d)
    ints, scale = integer_points(pts)
    if affine_rank(ints) != d:
        raise DegenerateInputError("point set is not full-dimensional")
    found = {}
    for combo in itertools.combinations(ints, d):
        base = combo[0]
        edges = [[a - b for a, b in zip(p, base)] for p in combo[1:]]
        normal = [
            (-1) ** i * integer_det([row[:i] + row[i + 1:] for row in edges])
            for i in range(d)
        ]
        if not any(normal):
            continue  # affinely dependent subset
        offset = _dot(normal, base)
        side = 0
        for p in ints:
            s = _dot(normal, p) - offset
            if s == 0:
                continue
            if side == 0:
                side = s
            elif (s > 0) != (side > 0):
                break
        else:
            if side > 0:
                normal, offset = [-c for c in normal], -offset
            # <normal, x> <= offset / scale in the input's coordinates,
            # as the coprime integer tuple Hyperplane.canonical() gives
            coeffs = [c * scale for c in normal] + [offset]
            g = math.gcd(*coeffs)
            key = tuple(c // g for c in coeffs)
            if key not in found:
                found[key] = Hyperplane(Vec(Rat(c) for c in key[:d]), Rat(key[d]))
            if len(found) > config.max_facets():
                raise ResourceCapError(
                    f"facet count exceeds cap {config.max_facets()}"
                )
    return list(found.values())


def hull_vertices(points: Sequence[Vec], facets: Sequence[Hyperplane]) -> list[Vec]:
    """The points that are vertices of conv(points), given its facets:
    a point is a vertex iff the normals of its tight facets have rank d.
    Duplicates are dropped and coordinates come back as rationals."""
    pts = list(dict.fromkeys(points))
    d = pts[0].dim
    ints, scale = integer_points(pts)
    rows = _integer_halfspaces(facets)
    out = []
    for p, q in zip(pts, ints):
        tight = [row[:d] for row in rows if _dot(row, q) == row[d] * scale]
        if len(tight) >= d and rank(tight) == d:
            out.append(Vec(Rat(c) for c in p.coords))
    return out


def vertex_enumerate(halfspaces: Sequence[Hyperplane]) -> list[Vec]:
    """Vertices of {x : <a_i, x> <= b_i for all i}, in the order of the
    first d-subset of rows that meets each; the intersection must be
    bounded for the result to describe it.  Exact halfspaces only."""
    hs = list(halfspaces)
    if not hs:
        raise DegenerateInputError("no halfspaces")
    d = hs[0].dim
    _check_dim(d)
    if len(hs) > config.max_facets():
        raise ResourceCapError(f"{len(hs)} halfspaces exceed cap {config.max_facets()}")
    if any(h.mode != EXACT for h in hs):
        raise MixedModeError("vertex enumeration takes exact halfspaces only")
    rows = _integer_halfspaces(hs)
    seen = {}
    for combo in itertools.combinations(rows, d):
        den = integer_det([row[:d] for row in combo])
        if den == 0:
            continue
        # Cramer: column j of the system replaced by the right-hand side
        num = [
            integer_det([row[:j] + row[d:] + row[j + 1:d] for row in combo])
            for j in range(d)
        ]
        if den < 0:
            den, num = -den, [-c for c in num]
        if all(_dot(row, num) <= row[d] * den for row in rows):
            x = tuple(Rat(c, den) for c in num)
            if x not in seen:
                seen[x] = Vec(x)
    return list(seen.values())


def minimal_halfspaces(halfspaces: Sequence[Hyperplane], vertices: Sequence[Vec]) -> list[Hyperplane]:
    """Drop exact halfspaces whose boundary does not support a facet
    (tight at fewer than d affinely independent vertices)."""
    d = halfspaces[0].dim
    ints, scale = integer_points(vertices)
    kept = {}
    for h, row in zip(halfspaces, _integer_halfspaces(halfspaces)):
        tight = [q for q in ints if _dot(row, q) == row[d] * scale]
        if len(tight) >= d and affine_rank(tight) == d - 1:
            kept[h.canonical()] = h
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
    n = Rat(len(pts)) if pts[0].mode == "exact" else float(len(pts))
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
