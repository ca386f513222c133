"""Shared geometry fixtures: standard balls and seeded random instance
factories used across the suite."""

import random

import pytest

from minksimplex import scene
from minksimplex.linalg import Vec
from minksimplex.norms import PolytopeBall
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

R = Rat


def vec(*coords) -> Vec:
    return Vec([c if isinstance(c, float) else R(c) for c in coords])


def fvec(*coords) -> Vec:
    return Vec([float(c) for c in coords])


SQUARE = PolytopeBall.from_vertices(
    [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
)
DIAMOND = PolytopeBall.from_vertices(
    [vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)]
)
HEXAGON = PolytopeBall.from_vertices(
    [vec(1, 0), vec(1, 1), vec(0, 1), vec(-1, 0), vec(-1, -1), vec(0, -1)]
)
CUBE = PolytopeBall.from_vertices(
    [vec(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
)
OCTAHEDRON = PolytopeBall.from_vertices(
    [vec(*(s if k == i else 0 for k in range(3))) for i in range(3) for s in (-1, 1)]
)
HYPERCUBE = PolytopeBall.from_vertices(
    [vec(a, b, c, d) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)]
)
CROSSPOLYTOPE = PolytopeBall.from_vertices(
    [vec(*(s if k == i else 0 for k in range(4))) for i in range(4) for s in (-1, 1)]
)


def random_symmetric_polygon(rng: random.Random, pairs: int = 3, span: int = 4) -> PolytopeBall:
    """Centrally symmetric polygon with up to 2*pairs vertices."""
    while True:
        pts = []
        for _ in range(pairs):
            x, y = rng.randint(-span, span), rng.randint(-span, span)
            if (x, y) != (0, 0):
                pts.append(vec(x, y))
        pts += [-p for p in pts]
        try:
            ball = PolytopeBall.from_vertices(pts)
        except Exception:
            continue
        if len(ball.vertices) >= 4:
            return ball


def random_symmetric_polytope_3d(rng: random.Random, pairs: int = 5, span: int = 3) -> PolytopeBall:
    while True:
        pts = []
        for _ in range(pairs):
            p = [rng.randint(-span, span) for _ in range(3)]
            if any(p):
                pts.append(vec(*p))
        pts += [-p for p in pts]
        try:
            ball = PolytopeBall.from_vertices(pts)
        except Exception:
            continue
        if len(ball.normals) <= 20:
            return ball


def random_rational_simplex(rng: random.Random, d: int, span: int = 4) -> Simplex:
    while True:
        verts = []
        for _ in range(d + 1):
            q = rng.choice((1, 2, 3))
            verts.append(vec(*(R(rng.randint(-span * q, span * q), q) for _ in range(d))))
        try:
            return Simplex(verts)
        except Exception:
            continue


@pytest.fixture(scope="session")
def rng():
    return random.Random("minksimplex-tests")


@pytest.fixture(autouse=True)
def fresh_ball_cache():
    """Every test parses its balls anew, so no outcome depends on which
    balls an earlier test left in the process's ball cache (a test may
    monkeypatch the modules that build them)."""
    scene._cached_ball.cache_clear()
