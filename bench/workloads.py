"""Seeded workloads: scenes, CLI requests and the reference data the
output checks need.

Every ball is built here together with its vertices and facet normals,
so the checks can recompute gauges and support values with `fractions`
instead of asking the program.  A workload is a sequence of blocks;
block k is a fixed mix of requests drawn from
`random.Random(f"{workload}:{seed}:{k}")`, so the same seed always
gives the same requests.  A timed run makes passes over the first
`run_blocks` blocks, a traced run one over the first `trace_blocks`.

The shapes that set a request's cost (simplices, polygons, constructor
seeds) come from a corpus that does not depend on the seed, because
their costs span one to two orders of magnitude and a per-seed draw of
~200 of them would swamp every comparison between runs.  The seed sets
what leaves the cost alone: the coordinate frame, a signed permutation
of the axes, and the order of the vertices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional

EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class BallRef:
    name: str
    dim: int
    scene_ball: dict
    vertices: tuple = ()  # extreme points (exact balls)
    normals: tuple = ()  # facet normals n with the ball = {x : <n, x> <= 1}
    p: Optional[float] = None  # pnorm balls
    frame: Optional[tuple] = None  # the signed permutation it was moved by

    @property
    def lane(self) -> str:
        return FLOAT if self.p is not None else EXACT


@dataclass(frozen=True)
class Request:
    command: str
    ball: BallRef
    simplex: Optional[tuple] = None
    points: dict = field(default_factory=dict)
    extra: tuple = ()  # further CLI flags
    trials: int = 0  # campaign trials asked for

    def scene(self) -> dict:
        doc = {"dimension": self.ball.dim, "ball": self.ball.scene_ball}
        if self.simplex is not None:
            doc["simplex"] = [[_json_scalar(c) for c in v] for v in self.simplex]
        if self.points:
            doc["points"] = {
                k: [_json_scalar(c) for c in v] for k, v in sorted(self.points.items())
            }
        return doc


@dataclass(frozen=True)
class Workload:
    name: str
    balls: Callable[[int], list]  # seed -> distinct balls (parsed during set-up)
    block: Callable[[list, random.Random, int], list]  # (balls, rng, k) -> requests
    run_blocks: int  # blocks in the run list of a timed run: 200 requests or more
    pass_seconds: float  # nominal time of one pass over the run list
    trace_blocks: int  # blocks in the request list of a traced run

    def requests(self, seed: int, n_blocks: int) -> list:
        balls = self.balls(seed)
        return [
            r
            for k in range(n_blocks)
            for r in self.block(balls, random.Random(f"{self.name}:{seed}:{k}"), k)
        ]


def _json_scalar(x):
    if isinstance(x, float):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- exact linear algebra over Fraction ---------------------------------


def det(rows) -> Fraction:
    a = [[Fraction(c) for c in r] for r in rows]
    n, out = len(a), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            out = -out
        out *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return out


def inverse(rows) -> list:
    """Gauss-Jordan inverse of a nonsingular square matrix."""
    n = len(rows)
    a = [[Fraction(c) for c in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[piv], a[col] = a[col], a[piv]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [r[n:] for r in a]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# -- balls ----------------------------------------------------------------


def _unit_vectors(d: int) -> list:
    return [tuple(s * int(k == i) for k in range(d)) for i in range(d) for s in (1, -1)]


def _sign_vectors(d: int) -> list:
    return list(itertools.product((1, -1), repeat=d))


def _frac_tuples(pts) -> tuple:
    return tuple(tuple(Fraction(c) for c in p) for p in pts)


def v_ball(name: str, vertices, normals) -> BallRef:
    vs, ns = _frac_tuples(vertices), _frac_tuples(normals)
    scene = {"type": "polytope-v", "vertices": [[_json_scalar(c) for c in v] for v in vs]}
    return BallRef(name, len(vs[0]), scene, vs, ns)


def h_ball(name: str, vertices, normals) -> BallRef:
    vs, ns = _frac_tuples(vertices), _frac_tuples(normals)
    scene = {"type": "polytope-h", "normals": [[_json_scalar(c) for c in n] for n in ns]}
    return BallRef(name, len(vs[0]), scene, vs, ns)


def pnorm_ball(dim: int, p: float) -> BallRef:
    return BallRef(f"p{p}-{dim}d", dim, {"type": "pnorm", "p": p}, p=p)


def signed_permutation(rng: random.Random, d: int) -> tuple:
    """(axes, signs): x -> (signs[i] * x[axes[i]])_i, an orthogonal map
    and a symmetry of every cube, cross-polytope and p-norm ball."""
    axes = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    return tuple(axes), tuple(signs)


def move(frame: tuple, x) -> tuple:
    axes, signs = frame
    return tuple(s * x[a] for a, s in zip(axes, signs))


def moved_ball(rng: random.Random, ball: BallRef) -> BallRef:
    """The polytope ball in a random frame, its vertices in random
    order; facet normals move by the same map, since it is orthogonal."""
    frame = signed_permutation(rng, ball.dim)
    verts = [move(frame, v) for v in ball.vertices]
    rng.shuffle(verts)
    form = v_ball if ball.scene_ball["type"] == "polytope-v" else h_ball
    moved = form(ball.name, verts, [move(frame, n) for n in ball.normals])
    return replace(moved, frame=frame)


def symmetric_image(rng: random.Random, simplex, frame: Optional[tuple] = None) -> tuple:
    """The simplex moved by `frame` (by default a random signed
    permutation, a symmetry of every cube, cross-polytope and p-norm
    ball), with its vertices in random order."""
    frame = frame or signed_permutation(rng, len(simplex[0]))
    verts = [move(frame, v) for v in simplex]
    rng.shuffle(verts)
    return tuple(verts)


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
HEXAGON_NORMALS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def square() -> BallRef:
    return v_ball("square", _sign_vectors(2), _unit_vectors(2))


def hexagon() -> BallRef:
    return v_ball("hexagon", HEXAGON, HEXAGON_NORMALS)


def diamond() -> BallRef:
    return v_ball("diamond", _unit_vectors(2), _sign_vectors(2))


def cube(d: int = 3, form=v_ball) -> BallRef:
    return form(f"cube{d}", _sign_vectors(d), _unit_vectors(d))


def cross_polytope(d: int = 3, form=v_ball) -> BallRef:
    return form(f"cross{d}", _unit_vectors(d), _sign_vectors(d))


def _hull_2d(points) -> list:
    """Counterclockwise extreme points (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def random_polygon(rng: random.Random, name: str, n_vertices: int) -> BallRef:
    """Centrally symmetric lattice polygon with n_vertices vertices,
    scaled by a random 1/s."""
    while True:
        half = [(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n_vertices // 2)]
        hull = _hull_2d(half + [(-x, -y) for x, y in half])
        if len(hull) == n_vertices:
            break
    s = Fraction(1, rng.randint(2, 6))
    verts = [(x * s, y * s) for x, y in hull]
    normals = []
    for u, v in zip(verts, verts[1:] + verts[:1]):
        cross = u[0] * v[1] - u[1] * v[0]
        normals.append(((v[1] - u[1]) / cross, (u[0] - v[0]) / cross))
    return v_ball(name, verts, normals)


def random_polytope_3d(rng: random.Random, name: str, base: str) -> BallRef:
    """Random unimodular image A(P) of an octahedron or a hexagonal
    prism, A with entries in {-1, 0, 1}; facet normals map by A^-T."""
    if base == "octahedron":
        verts, normals = _unit_vectors(3), _sign_vectors(3)
    else:
        verts = [(x, y, z) for x, y in HEXAGON for z in (1, -1)]
        normals = [(x, y, 0) for x, y in HEXAGON_NORMALS] + [(0, 0, 1), (0, 0, -1)]
    while True:
        a = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        if abs(det(a)) == 1:
            break
    inv = inverse(a)
    image = [tuple(dot(row, v) for row in a) for v in verts]
    # <A^-T n, A v> = <n, v>
    dual = [tuple(dot([inv[k][i] for k in range(3)], n) for i in range(3)) for n in normals]
    return v_ball(name, image, dual)


# -- simplices ----------------------------------------------------------------


def _nondegenerate(vertices) -> bool:
    return det([[*v, 1] for v in vertices]) != 0


def rational_simplex(rng: random.Random, ball: BallRef) -> tuple:
    """Simplex with coordinates p/q, q in 2..6, |p/q| <= 2, in general
    position with respect to the ball: no edge is parallel to a facet,
    so every circumcenter piece is a point."""
    d = ball.dim
    while True:
        verts = []
        for _ in range(d + 1):
            qs = [rng.randint(2, 6) for _ in range(d)]
            verts.append(tuple(Fraction(rng.randint(-2 * q, 2 * q), q) for q in qs))
        if _nondegenerate(verts) and all(
            dot(n, u) != dot(n, v) for u, v in itertools.combinations(verts, 2) for n in ball.normals
        ):
            return tuple(verts)


def rational_point(rng: random.Random, d: int) -> tuple:
    return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(d))


def facet_candidates(simplex, normals) -> int:
    """Number of vertex-to-facet assignments that survive the necessary
    condition <n_j, A_i - A_m> >= 0 for every other vertex A_m."""
    total = 1
    for i, a in enumerate(simplex):
        total *= sum(
            all(dot(n, a) >= dot(n, b) for m, b in enumerate(simplex) if m != i)
            for n in normals
        )
    return total


def lattice_simplex(rng: random.Random, ball: BallRef, assignments: range) -> tuple:
    """Affinely independent simplex with integer coordinates in -2..2
    whose assignment count lies in the given range."""
    d = ball.dim
    while True:
        verts = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 1))
        if _nondegenerate(verts) and facet_candidates(verts, ball.normals) in assignments:
            return tuple(tuple(Fraction(c) for c in v) for v in verts)


def float_simplex(rng: random.Random, d: int) -> tuple:
    """Well-shaped float simplex: volume at least a fifth of the unit
    box's share, coordinates with six decimals in [-3, 3]."""
    while True:
        verts = tuple(tuple(round(rng.uniform(-3, 3), 6) for _ in range(d)) for _ in range(d + 1))
        vol = abs(float(det([[*(Fraction(c) for c in v), 1] for v in verts])))
        if vol > 6.0 ** d / 5:
            return verts


def float_point(rng: random.Random, d: int) -> tuple:
    return tuple(round(rng.uniform(-3, 3), 6) for _ in range(d))


# -- the four workloads -------------------------------------------------------


def _scene_requests(ball, simplex, points, commands) -> list:
    return [Request(cmd, ball, simplex, points) for cmd in commands]


def _construct(ball: BallRef, rng: random.Random) -> Request:
    return Request("construct", ball, extra=("--strategy", "seeded", "--seed", str(rng.randint(0, 10**6))))


@lru_cache(maxsize=None)
def _exact_shapes() -> tuple:
    corpus = random.Random("exact-queries:corpus:balls")
    return (
        square(), hexagon(), random_polygon(corpus, "polygon-a", 8),
        random_polygon(corpus, "polygon-b", 10),
        cube(3), cross_polytope(3),
        random_polytope_3d(corpus, "polytope3-a", "octahedron"),
        random_polytope_3d(corpus, "polytope3-b", "prism"),
        cube(4), cross_polytope(4),
    )


def _exact_balls(seed: int) -> list:
    rng = random.Random(f"exact-queries:{seed}:balls")
    return [moved_ball(rng, shape) for shape in _exact_shapes()]


FOUR_D_COMMANDS = ("gauge", "circumcenters", "centers", "construct")


def _exact_block(balls: list, rng: random.Random, k: int) -> list:
    # A 4D request in every other block (1 in 53): each costs ~40x a
    # planar one, so they weigh on the mean, and p95 stays in the 3D
    # tail instead of straddling the 4D cluster.  Eight blocks cover all
    # four commands, alternating the two 4D balls.
    corpus, shapes = random.Random(f"exact-queries:corpus:{k}"), _exact_shapes()

    def scene(j, commands, n_points):
        ball = balls[j]
        simplex = symmetric_image(rng, rational_simplex(corpus, shapes[j]), ball.frame)
        pts = {name: move(ball.frame, rational_point(corpus, ball.dim)) for name in "PQ"[:n_points]}
        return _scene_requests(ball, simplex, pts, commands)

    out = []
    for j in range(4):
        out += scene(j, ("gauge", "circumcenters", "centers", "render"), 2)
    for i in range(3):
        out += scene(4 + (3 * k + i) % 4, ("gauge", "circumcenters", "centers"), 1)
    if k % 2 == 0:
        j, command = 8 + (k // 2) % 2, FOUR_D_COMMANDS[(k // 2) % 4]
        out += [_construct(balls[j], corpus)] if command == "construct" else scene(j, (command,), 1)
    out.append(_construct(balls[k % 8], corpus))
    return out


# Assignment counts: shared facets make merging dominate from about 6 on
# (the octahedron mostly gives points); the caps bound the cost of a pass.
MERGE_ASSIGNMENTS = {"cube3": range(6, 13), "cross3": range(1, 19), "cube4": range(6, 13)}


def _merge_balls(seed: int) -> list:
    return [cube(3, h_ball), cross_polytope(3, h_ball), cube(4, h_ball)]


def _merge_block(balls: list, rng: random.Random, k: int) -> list:
    # The seed sets each corpus shape's orientation and vertex order,
    # which changes the documents and the enumeration order but hardly
    # the cost.
    cube3, octa3, cube4 = balls
    shapes = random.Random(f"merge-heavy:corpus:{k}")
    plan = [cube3] * 5 + [octa3] * 2 + [cube4] * (k % 3 == 0)
    return [
        Request("circumcenters", b,
                symmetric_image(rng, lattice_simplex(shapes, b, MERGE_ASSIGNMENTS[b.name])))
        for b in plan
    ]


CAMPAIGN_TRIALS = 2
# the acceptance mix: (family, ball)
CAMPAIGN_MIX = (("41", "cube3"), ("41", "hexagon"), ("42", "diamond"), ("43", "square"),
                ("43", "cross3"), ("44", "hexagon"), ("r41", "hexagon"))


def _campaign_balls(seed: int) -> list:
    return [cube(3), hexagon(), diamond(), square(), cross_polytope(3)]


def _campaign_block(balls: list, rng: random.Random, k: int) -> list:
    by_name = {b.name: b for b in balls}
    return [
        Request("verify", by_name[ball],
                extra=("--theorem", fam, "--trials", str(CAMPAIGN_TRIALS),
                       "--seed", str(rng.randint(0, 2**31))),
                trials=CAMPAIGN_TRIALS)
        for fam, ball in CAMPAIGN_MIX
    ]


PNORM_PS = (1.5, 2.0, 3.0, 4.0)


def _pnorm_balls(seed: int) -> list:
    return [pnorm_ball(d, p) for p in PNORM_PS for d in (2, 3)]


def _pnorm_block(balls: list, rng: random.Random, k: int) -> list:
    corpus = random.Random(f"pnorm-queries:corpus:{k}")
    out = []
    for ball in balls:
        d = ball.dim
        frame = signed_permutation(rng, d)
        simplex = symmetric_image(rng, float_simplex(corpus, d), frame)
        pts = {"P": move(frame, float_point(corpus, d)), "Q": move(frame, float_point(corpus, d))}
        out += _scene_requests(ball, simplex, pts, ("gauge", "circumcenters", "centers"))
        out.append(_construct(ball, corpus))
    return out


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-queries", _exact_balls, _exact_block,
                 run_blocks=8, pass_seconds=6, trace_blocks=3),
        Workload("merge-heavy", _merge_balls, _merge_block,
                 run_blocks=28, pass_seconds=9, trace_blocks=9),
        Workload("campaigns", _campaign_balls, _campaign_block,
                 run_blocks=29, pass_seconds=6, trace_blocks=8),
        Workload("pnorm-queries", _pnorm_balls, _pnorm_block,
                 run_blocks=7, pass_seconds=4, trace_blocks=4),
    )
}
