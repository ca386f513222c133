"""Exact V/H conversions for small polytopes (dimension <= 4).

Both directions are one routine on the polar, in homogeneous integer
coordinates.  A point x = X / D is the int row (X, D) with D > 0, and a
halfspace <a, x> <= b is the int row h = (a, -b), scaled by a positive
multiplier; x lies in the halfspace exactly when <h, (X, D)> <= 0.

One kernel (_polar_kernel) lists the extreme rays of the cone
{y : <r, y> <= 0 for every row r} by incremental double description
(Motzkin et al. 1953; Fukuda & Prodon 1996).  It starts from the
simplicial cone of the first d + 1 independent rows and inserts the
other rows in order.  Each ray keeps its tight rows as an int bitmask;
a ray on the outer side of the new row is paired with one on the inner
side only when no third ray is tight on every row both are tight on
(the combinatorial adjacency test), and the pair gives the new ray
s_p * y_n - s_n * y_p, divided by the gcd of its entries.  The cost
follows the size of the output, not the number of d-subsets.  Fed the
rows of points, the rays are the facets as halfspace rows (a, -b); fed
the rows of halfspaces, they are the vertices as point rows (X, D),
kept when D > 0.  Rows of rank d have their null line as the one ray,
oriented to a positive last entry (none when that entry is 0).

The kernel promises no order.  Each ray comes back with its tight-row
mask, and one reader of the masks (_extreme) runs the other way: a
point is a vertex when the facet rays tight at it have rank d, and a
halfspace supports a facet when the vertex rays tight on it have rank
d.  facet_hyperplanes and vertex_enumerate sort what they return, by
Hyperplane.canonical and by Vec.key, so their order does not follow the
order of their input.

A polytopal ball and its polar come from one run (polar_pair): fed the
points of P = conv(points), with the origin interior to P, the facet
rays (a, -b) are the vertices a / b of the polar P*, and the masks
give the points that are vertices of P.  The H-form ball
{x : <n_k, x> <= 1} is the polar of conv(n_k), so the same run serves
it with the two lists swapped.

Every result is exact: coordinates come back as rationals, not
approximations.  There is no float vertex enumeration: the one float
polytope, a smooth-lane simplex's medial polytope, has its vertices in
closed form (the edge midpoints, see simplex.py).
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from . import config
from .errors import DegenerateInputError, DimensionError, MixedModeError
from .linalg import ExactVec, Hyperplane, Vec, back_substitute, bareiss
from .scalars import EXACT, Rat


def _check_exact(items: Sequence, what: str) -> int:
    """The dimension of a nonempty list of exact Vecs or Hyperplanes."""
    if not items:
        raise DegenerateInputError(f"no {what}")
    d = items[0].dim
    config.check_dim(d)
    if any(x.mode != EXACT for x in items):
        raise MixedModeError(f"V/H conversion takes exact {what} only")
    return d


def _point_rows(points: Sequence[ExactVec]) -> list:
    """Each exact point x = X / D as the int row (X, D), D > 0."""
    return [(*p.X, p.D) for p in points]


def _halfspace_rows(halfspaces: Sequence[Hyperplane]) -> list:
    """Each exact halfspace <a, x> <= b as the int row (a, -b), scaled
    by a positive multiplier so the inequality keeps its direction."""
    rows = []
    for h in halfspaces:
        *a, b = h.canonical()
        rows.append((*a, -b))
    return rows


def _polar_kernel(rows: Sequence[Sequence[int]], d: int) -> list:
    """The extreme rays y of the cone {y : <r, y> <= 0 for every row},
    as pairs (y, m) of a coprime int list and the int mask whose bit i
    is set when row i is tight at y, in no promised order.  Rows of rank
    d give their null line with a positive last entry (nothing when that
    entry is 0), tight on every row; rows of lower rank give nothing."""
    # one bareiss over [R^T | I]: its pivots in R^T are the first
    # independent rows B in row order, it solves B^T z = e_k, and for
    # rank d its last row holds the null line y of R (R y = 0) in I
    n_rows = len(rows)
    _, _, a, cols = bareiss([(*c, *(0,) * k, 1, *(0,) * (d - k)) for k, c in enumerate(zip(*rows))])
    first = [c for c in cols if c < n_rows]
    if len(first) < d:
        return []
    if len(first) == d:
        y = a[d][n_rows:]
        g = math.gcd(*y) if y[d] > 0 else -math.gcd(*y)
        return [([c // g for c in y], (1 << n_rows) - 1)] if y[d] else []
    # the simplicial cone of B: ray j is tight on all rows of B but row j,
    # on whose inner side it lies: column j of -|P| B^-1, P the last
    # pivot, which is row j of Z = -|P| (B^T)^-1, Z[k] its column k
    weight = -abs(a[d][first[d]])
    Z = [back_substitute(a, first, [0] * n_rows, n_rows + k, weight) for k in range(d + 1)]
    start = sum(1 << i for i in first)
    rays = []
    for i in first:
        y = [z[i] for z in Z]
        g = math.gcd(*y)
        rays.append(([c // g for c in y], start ^ 1 << i))
    for i, r in enumerate(rows):
        if start >> i & 1:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for y, m in rays:
            s = sum(map(operator.mul, r, y))
            if s > 0:
                pos.append((s, y, m))
            elif s < 0:
                neg.append((s, y, m))
                kept.append((y, m))
            else:
                kept.append((y, m | bit))
        if pos:
            masks = [m for _, m in rays]
            for sp, yp, mp in pos:
                for sn, yn, mn in neg:
                    # adjacent: their common tight rows lie on no third ray
                    m = mp & mn
                    if m.bit_count() < d - 1 or any(
                        w & m == m and w != mp and w != mn for w in masks
                    ):
                        continue
                    y = [sp * a - sn * b for a, b in zip(yn, yp)]
                    g = math.gcd(*y)
                    kept.append(([c // g for c in y], m | bit))
        rays = kept
    return rays


def _extreme(items: Sequence, rays: Sequence, d: int) -> list:
    """The items, one per kernel input row, whose row is tight on rays
    of rank d; rays are (y, m) pairs from _polar_kernel."""
    out = []
    for i, item in enumerate(items):
        tight = [y for y, m in rays if m >> i & 1]
        if len(tight) >= d and bareiss(tight)[0] == d:
            out.append(item)
    return out


def _facet_rays(points: Sequence[Vec]) -> tuple:
    """The exact points without repeats, their dimension, and the facet
    rays (a, -b) of their full-dimensional hull with tight-row masks."""
    pts = list(dict.fromkeys(points))
    d = _check_exact(pts, "points")
    rays = _polar_kernel(_point_rows(pts), d)
    # a full-dimensional hull has at least d + 1 facets; points of lower
    # rank give at most their null line
    if len(rays) <= d:
        raise DegenerateInputError("point set is not full-dimensional")
    return pts, d, rays


def facet_hyperplanes(points: Sequence[Vec]) -> list[Hyperplane]:
    """Outward facet hyperplanes of conv(points), sorted by
    Hyperplane.canonical: each returned (a, b) satisfies <a, x> <= b on
    the hull with equality on a facet."""
    _, d, rays = _facet_rays(points)
    config.check_cap("MINKSIMPLEX_MAX_FACETS", len(rays), "facets")
    hyps = [Hyperplane(ExactVec.of_ints(y[:d], 1), Rat(-y[d])) for y, _ in rays]
    return sorted(hyps, key=Hyperplane.canonical)


def polar_pair(points: Sequence[Vec]) -> tuple[list[Vec], list[Vec]]:
    """The vertices of P = conv(points) and of its polar
    P* = {y : <y, x> <= 1 for x in P}, from one kernel run; the origin
    must be interior to P.  Each facet <a, x> <= b of P (b > 0) gives
    the polar vertex a / b.  Duplicates are dropped and coordinates
    come back as rationals; neither list is in a promised order."""
    pts, d, rays = _facet_rays(points)
    if any(y[d] >= 0 for y, _ in rays):
        raise DegenerateInputError("origin is not interior to the polytope")
    return _extreme(pts, rays, d), [ExactVec.of_ints(y[:d], -y[d]) for y, _ in rays]


def _vertex_rays(halfspaces: Sequence[Hyperplane]) -> tuple:
    """The exact halfspaces as a list, their dimension, and the vertex
    rays (X, D), D > 0, of their intersection with tight-row masks."""
    hs = list(halfspaces)
    d = _check_exact(hs, "halfspaces")
    return hs, d, vertex_rays(_halfspace_rows(hs), d)


def vertex_rays(rows: Sequence[Sequence[int]], d: int) -> list:
    """The vertex rays (X, D), D > 0, with tight-row masks, of the
    intersection of the halfspaces given as int rows (a, -b) in R^d."""
    config.check_cap("MINKSIMPLEX_MAX_FACETS", len(rows), "halfspaces")
    return [ray for ray in _polar_kernel(rows, d) if ray[0][d] > 0]


def vertex_enumerate(halfspaces: Sequence[Hyperplane]) -> list[Vec]:
    """Vertices of {x : <a_i, x> <= b_i for all i}, sorted by Vec.key;
    the intersection must be bounded for the result to describe it.
    Exact halfspaces only."""
    _, d, rays = _vertex_rays(halfspaces)
    return sorted((ExactVec.of_ints(y[:d], y[d]) for y, _ in rays), key=Vec.key)


def minimal_halfspaces(halfspaces: Sequence[Hyperplane]) -> list[Hyperplane]:
    """Drop exact halfspaces whose boundary does not support a facet
    (tight at vertices of rank below d), and repeats of one halfspace
    (the last copy stays)."""
    hs, d, rays = _vertex_rays(halfspaces)
    kept = {h.canonical(): h for h in _extreme(hs, rays, d)}
    return list(kept.values())


def contains(halfspaces: Sequence[Hyperplane], p: Vec, strict: bool = False) -> bool:
    if strict:
        return all(h.eval(p) < 0 for h in halfspaces)
    return all(h.eval(p) <= 0 for h in halfspaces)


def convex_hull_2d(points: Sequence[Vec]) -> list[Vec]:
    """Extreme points of a planar point set in counterclockwise order
    from the lexicographically least (monotone chain, Andrew 1979);
    repeats, interior and collinear points are dropped, so it is safe on
    projections of higher-dimensional vertex sets.  The points are Vecs
    of one lane or plain number pairs, read by index only: int pairs
    over a common denominator order exactly with no Rat built."""
    pts = sorted(dict.fromkeys(points), key=tuple)
    if len({p.mode for p in pts if isinstance(p, Vec)}) > 1:
        raise MixedModeError("convex_hull_2d takes points of one lane")
    if pts and len(pts[0]) != 2:
        raise DimensionError("convex_hull_2d needs planar points")
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]
