"""Inscribed simplices whose centroid sits at the ball center.

The builder places d+1 vertices on the unit sphere one chord at a
time, in one loop over the levels d+1, d, ..., 3 (a level counts the
vertices still to place).  It tracks the centroid g the remaining
vertices must average to and an affine section (origin plus frame) the
remaining vertices are confined to.  Level d+1 is the chord through the
anchor.  Levels d ... 4 take one direction each, the first frame vector
or one seeded draw, and place the chord end P nearer to g.  Level 3
tries up to 32 seeded candidates, drawn one at a time as each is tried,
and then a deterministic sweep until the chord avoids
gauge(Q - g) = 2 gauge(P - g); otherwise the final target would be the
midpoint of that same chord and the closing chord would reuse P.
Every level moves the target to g + (g - P)/(level - 1), which stays
strictly inside the ball because it lies between g and the far chord
end Q.  Above level 3, dropping the chord direction from the
frame keeps every placed vertex off the affine span of the later ones,
which is what makes the final simplex nondegenerate.  The frame starts
as the standard basis and only loses vectors, so a direction's frame
coordinates are its entries on those axes.

The last two vertices come from a chord bisected by the target:
integer edge-pair solving on the section polygon for polytopal balls
(the kernel's vertices of the section as int pairs over one common
denominator, ordered by polytopes.convex_hull_2d), a bracketed root
search (norms.root_in_bracket) on the chord angle for
smooth ones: the chord overshoot is odd under direction reversal, so
its values at angles 0 and pi bracket a root.

Every exact section here, a chord, the section polygon or an edge of
the unit polygon in the equilateral walk, is read from the integer rows
of PolytopeBall.section_rows.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from typing import Optional

from . import config
from .errors import (
    DegenerateInputError,
    FrozenRecord,
    NonConvergenceError,
    VerificationError,
)
from .linalg import ExactVec, Vec, unit_vec, zero_vec
from .norms import Ball, PolytopeBall, UnitBall, chord_through, root_in_bracket
from .polytopes import convex_hull_2d, vertex_rays
from .scalars import EXACT, Rat
from .simplex import Simplex


class ChordPick(FrozenRecord):
    def __init__(self, level: int, vertex: Vec, far_end: Vec, direction: Vec, target_before: Vec, target_after: Vec):
        # level: how many vertices remained before this pick
        self.__dict__.update(level=level, vertex=vertex, far_end=far_end, direction=direction,
                             target_before=target_before, target_after=target_after)


class Construction(FrozenRecord):
    def __init__(self, simplex: Simplex, ball: UnitBall, picks: tuple, closing_chord: tuple, mode: str):
        # closing_chord: the two vertices from the bisected chord
        self.__dict__.update(simplex=simplex, ball=ball, picks=picks, closing_chord=closing_chord, mode=mode)


def _drop_direction(frame, w: Vec):
    """Remove one frame vector so the rest spans a complement of w.  The
    frame vectors are standard basis vectors, so w's coordinates on them
    are its entries on their axes."""
    axes = [f.coords.index(1) for f in frame]
    if any(x != 0 for k, x in enumerate(w.coords) if k not in axes):
        raise VerificationError("chord direction left the section span")
    coords = [w[k] for k in axes]
    if all(c == 0 for c in coords):
        raise VerificationError("zero chord direction")
    if w.mode == EXACT:
        j = next(k for k, c in enumerate(coords) if c != 0)
    else:
        j = max(range(len(coords)), key=lambda k: abs(float(coords[k])))
    return [f for k, f in enumerate(frame) if k != j]


def _closer_endpoint(g: Vec, w: Vec, bwd, fwd):
    """Endpoints of the chord g + t w, t in [bwd, fwd]; returns
    (P, Q, p_scale, q_scale) with P no farther from g than Q."""
    p_fwd = g + fwd * w
    p_bwd = g + bwd * w
    near_fwd = fwd <= -bwd
    if fwd == -bwd and p_bwd.key() < p_fwd.key():
        near_fwd = False
    if near_fwd:
        return p_fwd, p_bwd, fwd, -bwd
    return p_bwd, p_fwd, -bwd, fwd


def _sweep_directions(frame):
    """Deterministic directions spanning many chord slopes through the
    two frame vectors, built lazily: the caller usually takes the
    first."""
    v1, v2 = frame
    yield v1
    yield v2
    for n in range(1, 16):
        for a in range(-n, n + 1):
            if math.gcd(abs(a), n) != 1:
                continue
            yield a * v1 + n * v2
            yield n * v1 + a * v2


def _seeded_direction(frame, rng: random.Random) -> Vec:
    """Nonzero integer combination of the frame vectors, so the chord
    stays inside the current section."""
    while True:
        cs = [rng.randint(-3, 3) for _ in frame]
        if any(cs):
            break
    w = cs[0] * frame[0]
    for c, f in zip(cs[1:], frame[1:]):
        w = w + c * f
    return w


def bisected_chord(ball: UnitBall, origin: Vec, frame) -> tuple:
    """Chord of the unit sphere lying in origin + span(frame) (a
    2-plane) whose midpoint is origin.  Returns its endpoints."""
    if len(frame) != 2:
        raise DegenerateInputError("bisected chords live in a 2-plane")
    if ball.mode == EXACT:
        return _bisected_chord_exact(ball, origin, frame)
    return _bisected_chord_smooth(ball, origin, frame)


def _section_polygon(ball: PolytopeBall, origin: ExactVec, frame) -> tuple:
    """The section {y : gauge(origin + y_1 v_1 + y_2 v_2) <= 1} of the
    ball: its vertices as int pairs over one common denominator L, in
    counterclockwise order from the lexicographically least
    (convex_hull_2d), and L.  The kernel rows are ball.section_rows."""
    rows = ball.section_rows(origin, frame)
    if any(h <= 0 for c, h in rows if not any(c)):
        raise DegenerateInputError("section origin not interior")
    rays = vertex_rays([(*c, -h) for c, h in rows if any(c)], 2)
    if len(rays) < 3:
        raise VerificationError("section polygon collapsed")
    L = math.lcm(*(y[2] for y, _ in rays))
    return convex_hull_2d([(y[0] * (L // y[2]), y[1] * (L // y[2])) for y, _ in rays]), L


def _bisected_chord_exact(ball: PolytopeBall, origin: ExactVec, frame) -> tuple:
    """Edge pairs of the section polygon in order, solved by integer
    Cramer for a0 + s da = -(b0 + t db) with s, t in [0, 1]: then
    y = a0 + s da and -y both lie on the polygon's boundary.  Parallel
    edges meet along a segment of (s, t), whose least t is taken."""
    poly, L = _section_polygon(ball, origin, frame)
    v1, v2 = frame
    edges = list(zip(poly, poly[1:] + poly[:1]))
    for ai, (a0, a1) in enumerate(edges):
        da = (a1[0] - a0[0], a1[1] - a0[1])
        for b0, b1 in edges[ai + 1 :]:
            db = (b1[0] - b0[0], b1[1] - b0[1])
            r = (-a0[0] - b0[0], -a0[1] - b0[1])
            det = da[0] * db[1] - da[1] * db[0]
            if det:
                # s = S / det, t = T / det
                S, T = r[0] * db[1] - r[1] * db[0], da[0] * r[1] - da[1] * r[0]
                if det < 0:
                    det, S, T = -det, -S, -T
                if not (0 <= S <= det and 0 <= T <= det):
                    continue
                s = Rat(S, det)
            elif da[0] * r[1] == da[1] * r[0]:
                # edge a and the reflected edge b share a line, on
                # which s = mu - lam t
                k = 0 if da[0] else 1
                lam, mu = Rat(db[k], da[k]), Rat(r[k], da[k])
                lo, hi = sorted((mu / lam, (mu - 1) / lam))
                t = max(lo, 0)
                if t > min(hi, 1):
                    continue
                s = mu - lam * t
            else:
                continue
            # y = (a0 + s da) / L
            p, q = s.numerator, s.denominator
            y1, y2 = (Rat(a * q + p * b, L * q) for a, b in zip(a0, da))
            step = v1 * y1 + v2 * y2
            ends = origin + step, origin - step
            if all(_on_sphere(ball, end) for end in ends):
                return ends
    raise VerificationError("no bisected chord found on the section polygon")


def _bisected_chord_smooth(ball: UnitBall, origin: Vec, frame) -> tuple:
    v1 = frame[0].to_float()
    v2 = frame[1].to_float()
    o = origin.to_float()
    sphere = Ball(ball, zero_vec(ball.dim).to_float(), 1.0)

    def chord(theta: float) -> tuple:
        w = math.cos(theta) * v1 + math.sin(theta) * v2
        bwd, fwd = chord_through(sphere, o, w)
        return w, fwd, fwd + bwd

    def overshoot(theta: float) -> float:
        return chord(theta)[2]

    f0 = overshoot(0.0)
    # overshoot is odd under theta -> theta + pi
    w, fwd, f = chord(root_in_bracket(overshoot, 0.0, math.pi, f0, -f0))
    if abs(f) > config.EPS_REL:
        raise NonConvergenceError("bisected chord search stalled")
    r = o + fwd * w
    return r, o - (r - o)


def _unit_anchor(ball: UnitBall, anchor: Optional[Vec]) -> Vec:
    """The anchor as a point of the unit sphere: by default the first
    ball vertex, or the first coordinate direction for smooth balls.  An
    exact anchor must lie on the sphere; a float one is scaled onto it."""
    exact = ball.mode == EXACT
    if anchor is None:
        return ball.vertices[0] if exact else unit_vec(ball.dim, 0).to_float()
    if exact:
        if not _on_sphere(ball, anchor):
            raise DegenerateInputError("anchor must lie on the unit sphere")
        return anchor
    a = anchor.to_float()
    ga = float(ball.gauge(a))
    if ga <= 0:
        raise DegenerateInputError("anchor must be nonzero")
    if not sys.float_info.min <= ga < math.inf:
        # a subnormal gauge leaves the quotient short of digits, an
        # overflowing one rounds it to 0: scale the anchor near 1 first
        a = a / max(map(abs, a.coords))
        ga = float(ball.gauge(a))
    return a / ga


def quasiregular_simplex(
    ball: UnitBall,
    anchor: Optional[Vec] = None,
    seed: Optional[int] = None,
) -> Construction:
    """Simplex inscribed in the unit sphere with centroid at the
    center, one vertex at the anchor (a boundary point; defaults to
    the first ball vertex, or the first coordinate direction for
    smooth balls).

    The output is a deterministic function of (ball, anchor, seed).
    Without a seed the chord directions follow a fixed schedule; with
    one they are drawn from a seeded generator while the anchor vertex
    stays where it was prescribed."""
    d = ball.dim
    exact = ball.mode == EXACT
    rng = random.Random(("construct", seed).__repr__()) if seed is not None else None
    anchor = _unit_anchor(ball, anchor)
    origin = zero_vec(d) if exact else zero_vec(d).to_float()
    sphere = Ball(ball, origin, Rat(1) if exact else 1.0)

    g = origin
    frame = [unit_vec(d, k) if exact else unit_vec(d, k).to_float() for k in range(d)]
    picks: list[ChordPick] = []
    for level in range(d + 1, 2, -1):
        if level == d + 1:
            directions = [anchor]
        elif level > 3:
            directions = [frame[0] if rng is None else _seeded_direction(frame, rng)]
        else:
            directions = itertools.islice(_sweep_directions(frame), 64)
            if rng is not None:
                # seeded candidates first, each drawn only when tried (no
                # later level reads rng), deterministic sweep as fallback
                seeded = map(_seeded_direction, itertools.repeat(frame, 32), itertools.repeat(rng, 32))
                directions = itertools.chain(seeded, directions)
        for w in directions:
            bwd, fwd = chord_through(sphere, g, w)
            if level == d + 1:
                p, q, p_scale, q_scale = anchor, g + bwd * w, fwd, -bwd
            else:
                p, q, p_scale, q_scale = _closer_endpoint(g, w, bwd, fwd)
            if level > 3:
                break
            # level 3: the next target must not be this chord's midpoint,
            # 2 gauge(P - g) = gauge(Q - g); gauge(w) > 0 cancels exactly
            if exact:
                if 2 * p_scale != q_scale:
                    break
            else:
                gw = ball.gauge(w)
                if abs(2 * (p_scale * gw) - q_scale * gw) > config.EPS_REL:
                    break
        else:
            raise NonConvergenceError("no usable chord for the third-to-last vertex")
        g_new = g + (g - p) / (level - 1)
        picks.append(ChordPick(level, p, q, w, g, g_new))
        if level > 3:
            frame = _drop_direction(frame, w)
        g = g_new

    r, s = bisected_chord(ball, g, frame)
    try:
        simplex = Simplex([pick.vertex for pick in picks] + [r, s])
    except (DegenerateInputError, ValueError) as exc:
        raise VerificationError(f"constructed vertices degenerate: {exc}")
    _verify_inscribed(ball, simplex)
    return Construction(simplex, ball, tuple(picks), (r, s), ball.mode)


def _on_sphere(ball: UnitBall, v: Vec) -> bool:
    """Whether gauge(v) = 1: exactly in the exact lane, within EPS_REL
    in the float one, where a NaN gauge is off the sphere."""
    if ball.mode == EXACT:
        p, q = ball.gauge_ratio(v)
        return p == q
    return abs(float(ball.gauge(v)) - 1.0) <= config.EPS_REL


def _verify_inscribed(ball: UnitBall, simplex: Simplex) -> None:
    """Raises VerificationError unless the simplex is inscribed in the
    unit sphere with its centroid at the ball center, the origin."""
    if ball.mode == EXACT:
        missed = not simplex.centroid.is_zero()
    else:
        missed = any(abs(x) > config.EPS_REL for x in simplex.centroid.to_float().coords)
    if missed:
        raise VerificationError("centroid missed the ball center")
    if not all(_on_sphere(ball, v) for v in simplex.vertices):
        raise VerificationError("vertex off the unit sphere")


def equilateral_triangle(ball: UnitBall, anchor: Optional[Vec] = None) -> Simplex:
    """Planar triangle with all three side gauges equal to 1: vertices
    0, u, w with u, w unit and gauge(w - u) = 1."""
    if ball.dim != 2:
        raise DegenerateInputError("equilateral construction is planar")
    exact = ball.mode == EXACT
    u = _unit_anchor(ball, anchor)
    if exact:
        w = _unit_at_unit_distance_exact(ball, u)
    else:
        w = _unit_at_unit_distance_smooth(ball, u)
    zero = zero_vec(2) if exact else zero_vec(2).to_float()
    tri = Simplex([zero, u, w])
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if not _on_sphere(ball, tri.vertices[b] - tri.vertices[a]):
            raise VerificationError("side gauges unequal")
    return tri


def _unit_at_unit_distance_exact(ball: PolytopeBall, u: Vec) -> Vec:
    """Walk the unit polygon's edges a + t (b - a), t in [0, 1], solving
    gauge(w - u) = 1 exactly on each: a facet row (c, h) of the section
    through a - u is tight at t = h / c, or on the whole edge when
    c = h = 0 (then t = 0 and t = 1 are tried), and the candidate is
    kept when every row holds there.  w = u and w = -u never qualify:
    their gauges are 0 and 2."""
    hull = convex_hull_2d(ball.vertices)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        dv = b - a
        rows = ball.section_rows(a - u, [dv])
        for (c,), h in rows:
            if c == 0:
                candidates = [(0, 1), (1, 1)] if h == 0 else []
            else:
                candidates = [(h, c) if c > 0 else (-h, -c)]
            for p, q in candidates:
                if 0 <= p <= q and all(e * p <= f * q for (e,), f in rows):
                    return a + Rat(p, q) * dv
    raise VerificationError("no unit vector at unit distance found")


def _unit_at_unit_distance_smooth(ball: UnitBall, u: Vec) -> Vec:
    def point(theta: float) -> Vec:
        w = Vec((math.cos(theta), math.sin(theta)))
        return w / float(ball.gauge(w))

    theta0 = math.atan2(float(u[1]), float(u[0]))

    def f(theta: float) -> float:
        return float(ball.gauge(point(theta) - u)) - 1.0

    lo, hi = theta0, theta0 + math.pi
    f_lo = f(lo)
    if f_lo >= 0:
        raise VerificationError("anchor distance function misbehaved")
    w = point(root_in_bracket(f, lo, hi, f_lo, f(hi)))
    if not _on_sphere(ball, w - u):
        raise NonConvergenceError("equilateral side search stalled")
    return w
