"""Simplex anatomy: centroid, facets, medians, medial structure.

Derived objects are level sets of the barycentric coordinates
lambda_i(x) = (b_i - <a_i, x>) / s_i of the facets <a_i, x> <= b_i:
medial hyperplanes are lambda_i = 1/2, quasi-medial ones lambda_i =
lambda_j.  Heights and widths take the unit ball as an argument.
Everything stays exact in rational mode.

An exact simplex keeps one facet table of ints (facet_table and
facet_supports): widths and in/exspheres are read off it, and the exact
verdicts read heights, bisectors and quasi-medial hyperplanes there as
int rows.  Heights and medial hyperplanes are one expression in every
lane, == to the rational formulas.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property
from operator import itemgetter, mul, sub
from typing import Sequence

from . import norms
from .errors import DegenerateInputError, DimensionError, FrozenRecord, MixedModeError
from .linalg import (
    ExactVec,
    Hyperplane,
    Vec,
    back_substitute,
    bareiss,
    det,
    general_position,
    integer_points,
)
from .norms import UnitBall
from .polytopes import contains as _half_contains
from .scalars import EXACT, Rat


def hyperplane_through(points: Sequence[Vec]) -> Hyperplane:
    """Hyperplane spanned by d affinely independent points in R^d.

    Normal components are cofactors of the edge-vector matrix, each a
    det in the points' lane, so an exact normal is exact.  A 1 x 1
    cofactor is its entry, in both lanes: det's float zero test would
    turn an edge slope at or below EPS_ABS into 0.  In float mode
    each edge row is divided by its largest |entry| first, which only
    rescales the normal, so cofactors stay near 1 and the offset stays
    finite.
    """
    pts = list(points)
    d = pts[0].dim
    if len(pts) != d:
        raise DimensionError(f"need {d} points to span a hyperplane in R^{d}")
    exact = pts[0].mode == EXACT
    rows = [list((p - pts[0]).coords) for p in pts[1:]]
    if not exact:
        for k, row in enumerate(rows):
            big = max(map(abs, row))
            if big:
                rows[k] = [c / big for c in row]
    normal = []
    for i in range(d):
        minor = [[row[j] for j in range(d) if j != i] for row in rows]
        cof = det(minor) if d > 2 else minor[0][0] if minor else (1 if exact else 1.0)
        normal.append(cof if i % 2 == 0 else -cof)
    n = Vec(normal)
    if n.is_zero():
        raise DegenerateInputError("points are affinely dependent")
    return Hyperplane(n, n.dot(pts[0]))


class Simplex:
    """d+1 vertices in general position in R^d (d >= 2)."""

    def __init__(self, vertices: Sequence[Vec]):
        pts = [p if isinstance(p, Vec) else Vec(p) for p in vertices]
        d = pts[0].dim
        if d < 2:
            raise DimensionError("simplices here live in dimension >= 2")
        if len(pts) != d + 1:
            raise DimensionError(f"expected {d + 1} vertices, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise DegenerateInputError("repeated vertex")
        if any(p.dim != d for p in pts):
            raise DimensionError("vertices of different dimensions")
        mode = pts[0].mode
        if any(p.mode != mode for p in pts):
            raise MixedModeError("simplex vertices mix exact and float coordinates")
        if mode == EXACT:
            # vertices cleared to ints V_k = D A_k and bareiss over [E | I],
            # E = (V_k - V_0), k >= 1: its pivots stay in E exactly when
            # the edges are independent (general position)
            V, D = integer_points(pts)
            E = [(*map(sub, v, V[0]), *(0,) * k, 1, *(0,) * (d - 1 - k)) for k, v in enumerate(V[1:])]
            _, _, a, cols = bareiss(E)
            independent = cols[-1] < d
            self._cleared = (V, D, a)
        else:
            independent = general_position(pts)
        if not independent:
            raise DegenerateInputError("vertices are affinely dependent")
        self.vertices = tuple(pts)
        self.dim = d
        self.mode = mode
        self._by_ball: dict = {}  # id(ball) -> (ball, supports)

    # -- affine anatomy ----------------------------------------------

    @cached_property
    def centroid(self) -> Vec:
        total = self.vertices[0]
        for v in self.vertices[1:]:
            total = total + v
        return total / (self.dim + 1)

    def facet_vertices(self, i: int) -> tuple:
        return tuple(v for k, v in enumerate(self.vertices) if k != i)

    @cached_property
    def facet_centroids(self) -> tuple:
        """A'_i, the centroid of the facet opposite A_i, for each i."""
        out = []
        for i in range(self.dim + 1):
            pts = self.facet_vertices(i)
            total = pts[0]
            for v in pts[1:]:
                total = total + v
            out.append(total / self.dim)
        return tuple(out)

    def facet_centroid(self, i: int) -> Vec:
        return self.facet_centroids[i]

    @cached_property
    def _facets(self) -> tuple:
        """(h_i, s_i) per facet, h_i: <a_i, x> <= b_i, s_i = <a_i, A_j - A_i>
        > 0 along the edge to A_i's nearest facet vertex A_j, so a large
        b_i cancels neither its sign nor its size (exact: any j agrees).
        A float simplex below the normal float range raises (float_scale),
        so every facet reader refuses it alike."""
        if self.mode == EXACT:
            _, D, N, B, S = self.facet_table
            dn, db = D ** (self.dim - 1), D**self.dim
            s = Rat(S, db)
            return tuple((Hyperplane(ExactVec.of_ints(n, dn), Rat(b, db)), s) for n, b in zip(N, B))
        self.float_scale()
        out = []
        for i, a in enumerate(self.vertices):
            facet = self.facet_vertices(i)
            h = hyperplane_through(facet)
            edge = min((v - a for v in facet), key=lambda e: max(map(abs, e.coords)))
            s = h.normal.dot(edge)
            if s == 0:
                raise DegenerateInputError(f"vertex {i} lies on its opposite facet")
            if s < 0:
                h, s = h.flip(), -s
            out.append((h, s))
        return tuple(out)

    @cached_property
    def facet_table(self) -> tuple:
        """The exact facet table (V, D, N, B, S) of ints: A_i = V_i / D, and
        facet i is <n_i, X> <= B_i for x = X / D, n_i = N[i], with
        s_i = S / D^d for S = |det E|; its hyperplane has a_i = n_i /
        D^(d-1) and b_i = B_i / D^d.  Column k of -|P| E^-1, P = +-det E
        the last pivot of __init__'s bareiss, is -sign(det E) adj(E)_k:
        normal to every edge but V_(k+1) - V_0, on which it is -S, so it
        is n_(k+1); n_0 = -(n_1 + ... + n_d) is normal to every V_l - V_1."""
        d = self.dim
        V, D, a = self._cleared
        S = abs(a[d - 1][d - 1])
        N = [back_substitute(a, range(d), [0] * d, d + k, -S) for k in range(d)]
        N.insert(0, [-sum(c) for c in zip(*N)])
        B = [sum(map(mul, n, V[1 if i == 0 else 0])) for i, n in enumerate(N)]
        return V, D, N, B, S

    def facet_supports(self, ball: UnitBall) -> list:
        """M_i = max over the ball's integer vertex rows of <., n_i>, so
        h_B(a_i) = M_i / (s_v D^(d-1)) for the rows' denominator s_v;
        computed once per ball, which is kept with them."""
        if id(ball) not in self._by_ball:
            if self.mode != EXACT:
                raise MixedModeError("polytopal support needs exact coordinates")
            if ball.dim != self.dim:
                raise DimensionError("dimension mismatch")
            rows, N = ball._vertex_rows[0], self.facet_table[2]
            self._by_ball[id(ball)] = ball, [norms._max_dot(rows, n) for n in N]
        return self._by_ball[id(ball)][1]

    def height_ratios(self, ball: UnitBall) -> list:
        """The heights s_i / h_B(a_i) as int pairs (S s_v, D M_i)."""
        M, (_, D, _, _, S) = self.facet_supports(ball), self.facet_table
        return [(S * ball._vertex_rows[1], D * m) for m in M]

    def quasi_medial_row(self, i: int, j: int) -> tuple:
        """lambda_i = lambda_j as ints (A, b, q): <A / q, x> = b / q."""
        _, D, N, B, S = self.facet_table
        return [D * (x - y) for x, y in zip(N[i], N[j])], B[i] - B[j], S

    def bisector_row(self, ball: UnitBall, i: int, j: int) -> tuple:
        """The internal bisector (<a_i, x> - b_i) / h_B(a_i) = (<a_j, x> -
        b_j) / h_B(a_j) as ints (A, b, q), from a_i / h_B(a_i) = s_v n_i /
        M_i and b_i / h_B(a_i) = s_v B_i / (D M_i), for the exact verdict
        on quasi-medial hyperplanes."""
        (mi, mj), sv = itemgetter(i, j)(self.facet_supports(ball)), ball._vertex_rows[1]
        _, D, N, B, _ = self.facet_table
        A = [D * sv * (mj * x - mi * y) for x, y in zip(N[i], N[j])]
        return A, sv * (mj * B[i] - mi * B[j]), D * mi * mj

    @cached_property
    def facet_hyperplanes(self) -> tuple:
        """Facet i spans the vertices opposite A_i, oriented so the
        simplex satisfies <a_i, x> <= b_i with A_i strictly inside."""
        return tuple(h for h, _ in self._facets)

    def median_vector(self, i: int) -> Vec:
        return self.facet_centroids[i] - self.vertices[i]

    def median_length(self, i: int, ball: UnitBall):
        return ball.gauge(self.median_vector(i))

    def edges(self) -> list:
        return list(itertools.combinations(range(self.dim + 1), 2))

    def edge_midpoint(self, i: int, j: int) -> Vec:
        a, b = self.vertices[i], self.vertices[j]
        return (a + b) / 2 if self.mode == EXACT else a * 0.5 + b * 0.5

    def side_length(self, i: int, j: int, ball: UnitBall):
        return ball.gauge(self.vertices[j] - self.vertices[i])

    def side_lengths(self, ball: UnitBall) -> list:
        return [self.side_length(i, j, ball) for i, j in self.edges()]

    def medial_hyperplane(self, i: int) -> Hyperplane:
        """lambda_i = 1/2: parallel to facet i, through the midpoints of
        the edges joining A_i to the facet."""
        h, s = self._facets[i]
        return Hyperplane(h.normal, h.offset - s / 2)

    def quasi_medial_hyperplane(self, i: int, j: int) -> Hyperplane:
        """lambda_i = lambda_j: through the ridge opposite edge {i, j}
        and that edge's midpoint."""
        if i == j:
            raise DimensionError("quasi-medial hyperplane needs a proper edge")
        (hi, si), (hj, sj) = self._facets[i], self._facets[j]
        return Hyperplane(hi.normal / si - hj.normal / sj, hi.offset / si - hj.offset / sj)

    def quasi_medial_hyperplanes(self) -> dict:
        return {
            (i, j): self.quasi_medial_hyperplane(i, j) for i, j in self.edges()
        }

    # -- norm-dependent anatomy --------------------------------------

    def height(self, i: int, ball: UnitBall):
        """Minkowskian distance from A_i to its opposite facet plane."""
        h, s = self._facets[i]
        return s / ball.support(h.normal)

    def heights(self, ball: UnitBall) -> list:
        return [self.height(i, ball) for i in range(self.dim + 1)]

    def min_width(self, ball: UnitBall):
        """Minimal width of the simplex in the given norm.

        For a simplex the minimum over all directions is attained at a
        facet normal, so this is the smallest height; tests confirm the
        attainment against a direction-grid oracle.
        """
        if self.mode == EXACT == ball.mode:
            _, D, _, _, S = self.facet_table
            return Rat(S * ball._vertex_rows[1], D * max(self.facet_supports(ball)))
        return min(self.heights(ball))

    # -- membership ---------------------------------------------------

    def contains(self, p: Vec, strict: bool = False) -> bool:
        return _half_contains(self.facet_hyperplanes, p, strict)

    # -- derived bodies ------------------------------------------------

    @cached_property
    def medial_polytope(self) -> "MedialPolytope":
        """The simplex truncated at its medial hyperplanes,
        {0 <= lambda_i <= 1/2}: points on the facet side of every medial
        hyperplane."""
        midpoints = tuple(self.edge_midpoint(i, j) for i, j in self.edges())
        return MedialPolytope(self, midpoints)

    @cached_property
    def _medial_halfspaces(self) -> tuple:
        cut = tuple(self.medial_hyperplane(i).flip() for i in range(self.dim + 1))
        return self.facet_hyperplanes + cut

    def dual_simplex(self) -> "Simplex":
        """Polar dual with respect to the centroid, in centroid-origin
        coordinates: vertex i is a_i / (b_i - <a_i, G>) = (d+1) a_i / s_i
        for facet i, since lambda_i(G) = 1/(d+1)."""
        if self.mode == EXACT:
            _, D, N, _, S = self.facet_table
            return Simplex([ExactVec.of_ints([(self.dim + 1) * D * c for c in n], S) for n in N])
        return Simplex([h.normal / s * (self.dim + 1) for h, s in self._facets])

    def float_scale(self) -> float:
        """The largest |coordinate| as a float.  Raises
        DegenerateInputError when it is subnormal: float tests relative to
        that scale, and the points built from it, lack the precision."""
        scale = max(abs(c) for v in self.vertices for c in v.to_float().coords)
        if scale < sys.float_info.min:
            raise DegenerateInputError("simplex coordinates are below the normal float range")
        return scale

    def median_triangle(self) -> "Simplex":
        """Planar only: triangle whose side vectors are the medians,
        anchored so its centroid coincides with this one's."""
        if self.dim != 2:
            raise DimensionError("median triangle is planar")
        m0 = self.median_vector(0)
        m1 = self.median_vector(1)
        third = Rat(1, 3) if self.mode == EXACT else 1.0 / 3.0
        v0 = self.centroid - (m0 * 2 + m1) * third
        v1 = v0 + m0
        v2 = v1 + m1
        return Simplex([v0, v1, v2])

    def shrink_vertex(self, i: int, delta) -> "Simplex":
        """Move A_i toward the opposite facet centroid by the fraction
        delta; the result is properly contained in the original."""
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        verts = list(self.vertices)
        verts[i] = verts[i] + (self.facet_centroids[i] - verts[i]) * delta
        return Simplex(verts)

    def translate(self, t: Vec) -> "Simplex":
        return Simplex([v + t for v in self.vertices])

    def scale(self, s) -> "Simplex":
        if s == 0:
            raise DegenerateInputError("zero scaling collapses the simplex")
        return Simplex([v * s for v in self.vertices])

    def __eq__(self, other) -> bool:
        return isinstance(other, Simplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Simplex(dim={self.dim}, vertices={[tuple(map(str, v.coords)) for v in self.vertices]})"


class MedialPolytope(FrozenRecord):
    """Intersection of the simplex with the far sides of its medial
    hyperplanes, as halfspaces {h.eval <= 0}, which the simplex builds
    on the first contains().  Its vertices are the points of
    {0 <= lambda_i <= 1/2} with two coordinates 1/2: the C(d+1, 2) edge
    midpoints."""

    def __init__(self, simplex: Simplex, edge_midpoints: tuple):
        self.__dict__.update(simplex=simplex, edge_midpoints=edge_midpoints)

    @property
    def halfspaces(self) -> tuple:
        return self.simplex._medial_halfspaces

    def contains(self, p: Vec, strict: bool = False) -> bool:
        return _half_contains(self.halfspaces, p, strict)

    def vertices(self) -> list:
        return list(self.edge_midpoints)
