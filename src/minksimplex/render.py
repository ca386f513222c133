"""Standalone SVG drawings of scenes.

Everything inside the group ``g#world`` is written in world
coordinates; the group's ``scale(1 -1)`` transform performs the y-flip,
so recovering a world point from the file means reading the numbers
verbatim and negating nothing.  Text sits in a separate unflipped layer
so labels stay upright.  Scenes in dimension 3 or 4 are projected onto
a coordinate plane (axes pair), with convex bodies drawn as the hull of
their projected vertices and simplices as edge wireframes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import config
from .errors import DimensionError, MinksimplexError
from .linalg import Vec, integer_points
from .norms import UnitBall, lp_norm
from .polytopes import convex_hull_2d
from .scalars import EXACT
from .simplex import Simplex

_STYLE = """\
    .ball { fill: none; stroke: #4477aa; }
    .translate { fill: #4477aa; fill-opacity: 0.08; stroke: #4477aa; }
    .simplex { fill: none; stroke: #222222; }
    .medial { fill: #ccbb44; fill-opacity: 0.35; stroke: none; }
    .marker { fill: #ee6677; stroke: none; }
    .label { font-family: sans-serif; fill: #222222; }
"""


def _float(x, den: int = 1) -> float:
    """x / den as a float (int / int rounds as float(Fraction) does); a
    value beyond the float range, exact or rounded to inf, is an error."""
    try:
        f = float(x / den)
    except OverflowError:  # an exact value past the float range
        f = math.inf if x > 0 else -math.inf
    if not math.isfinite(f):
        raise MinksimplexError(f"drawing coordinate {f} is beyond the float range")
    return f


def _fmt(x) -> str:
    f = _float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def project(v: Vec, axes: tuple) -> tuple:
    """The point's coordinates on the axes as floats; an exact point's
    X_i / D is divided as ints, which rounds once, as float(Rat) does."""
    coords, den = (v.X, v.D) if v.mode == EXACT else (v.coords, 1)
    return _float(coords[axes[0]], den), _float(coords[axes[1]], den)


_SAMPLES = 256  # points on the outline of a smooth ball


def _shadow(points: Sequence[Vec], axes: tuple) -> list:
    """Convex hull of the points' projection on the axes plane, as
    float pairs.  Exact points are projected as int pairs over their
    common denominator L and each hull vertex is divided by L once."""
    i, j = axes
    if points[0].mode == EXACT:
        rows, L = integer_points(points)
        hull = convex_hull_2d([(r[i], r[j]) for r in rows])
        return [(_float(x, L), _float(y, L)) for x, y in hull]
    return convex_hull_2d([(p[i], p[j]) for p in points])


def _ball_outline(ball: UnitBall, axes: tuple) -> list:
    """Boundary polygon of the ball's shadow on the axes plane, unit
    scale, centered at the origin."""
    if ball.mode == EXACT:
        return _shadow(ball.vertices, axes)
    # the shadow of a p-ball on a coordinate plane is the planar p-ball
    out = []
    for k in range(_SAMPLES):
        t = 2.0 * math.pi * k / _SAMPLES
        c, s = math.cos(t), math.sin(t)
        g = lp_norm((c, s), ball.p)
        out.append((c / g, s / g))
    return out


def _points_attr(pts) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)


def render_scene(
    ball: UnitBall,
    simplex: Optional[Simplex] = None,
    sphere_translates: Sequence[tuple] = (),
    point_labels: Optional[dict] = None,
    axes: Optional[tuple] = None,
) -> str:
    """SVG document of the scene: unit ball, optional simplex with its
    medial polytope, ball translates (center, radius) at e.g. computed
    circumcenters, and labeled point markers."""
    dim = ball.dim
    axes = tuple(axes) if axes is not None else (0, 1)
    if len(axes) != 2 or not all(0 <= a < dim for a in axes) or axes[0] == axes[1]:
        raise DimensionError(f"axes {axes} do not name a coordinate plane of R^{dim}")
    point_labels = dict(point_labels or {})

    outline = _ball_outline(ball, axes)
    bodies = []  # (class, points)
    bodies.append(("ball", outline))
    for center, radius in sphere_translates:
        cx, cy = project(center, axes)
        # an exact radius as int / int, one rounding and no Fraction built
        r = _float(radius.numerator, radius.denominator) if ball.mode == EXACT else _float(radius)
        bodies.append(
            ("translate", [(cx + r * x, cy + r * y) for x, y in outline])
        )

    edges = []
    if simplex is not None:
        if simplex.dim != dim:
            raise DimensionError("simplex and ball dimensions differ")
        proj = [project(v, axes) for v in simplex.vertices]
        for i, j in simplex.edges():
            edges.append((proj[i], proj[j]))
        bodies.insert(0, ("medial", _shadow(simplex.medial_polytope.vertices(), axes)))

    markers = {name: project(p, axes) for name, p in point_labels.items()}

    xs = [x for _, pts in bodies for x, _ in pts]
    ys = [y for _, pts in bodies for _, y in pts]
    for (x1, y1), (x2, y2) in edges:
        xs += [x1, x2]
        ys += [y1, y2]
    for x, y in markers.values():
        xs.append(x)
        ys.append(y)
    span = max(max(xs) - min(xs), max(ys) - min(ys), config.EPS_REL)
    margin = 0.08 * span
    vx, vy = min(xs) - margin, -(max(ys) + margin)
    vw = (max(xs) - min(xs)) + 2 * margin
    vh = (max(ys) - min(ys)) + 2 * margin
    stroke = 0.004 * span
    marker_r = 0.012 * span
    font = 0.045 * span

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        f"  <style>\n{_STYLE}  </style>",
        f'  <g id="world" transform="scale(1 -1)" stroke-width="{_fmt(stroke)}">',
    ]
    for cls, pts in bodies:
        lines.append(f'    <polygon class="{cls}" points="{_points_attr(pts)}"/>')
    for (x1, y1), (x2, y2) in edges:
        lines.append(
            f'    <line class="simplex" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    for name in sorted(markers):
        x, y = markers[name]
        lines.append(
            f'    <circle class="marker" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(marker_r)}"/>'
        )
    lines.append("  </g>")
    lines.append(f'  <g id="labels" font-size="{_fmt(font)}">')
    for name in sorted(markers):
        x, y = markers[name]
        lines.append(
            f'    <text class="label" x="{_fmt(x + 1.5 * marker_r)}" '
            f'y="{_fmt(-(y + 1.5 * marker_r))}">{name}</text>'
        )
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
