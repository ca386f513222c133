"""Circumcenter sets on 4D balls with 64 facets, the MINKSIMPLEX_MAX_FACETS
default, where one enumeration runs 100k-500k facet assignments.

Each ball is a centrally symmetric 64-subset of the 96 lattice vectors
of squared length 6 (the sign and order changes of (2, 1, 1, 0)), given
as the normals of a polytope-h ball; each simplex has its vertices in
{-4, ..., 4}^4.  The records below are the (classification, pieces) the
enumeration gave when each facet set still rescanned Q's generators,
the pieces as (center, radius, affine_dim, assignment).  Work is pinned
by passes over Q's generator list: one per facet to build its bitset,
one for the vertex bitset and one per piece to list its generators.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import minksimplex.circumcenter as circumcenter_module
from minksimplex.circumcenter import polytopal_circumcenters
from minksimplex.errors import DegenerateInputError
from minksimplex.linalg import Hyperplane, ratio
from minksimplex.norms import PolytopeBall
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

from conftest import vec

LATTICE = sorted({
    tuple(s * c for s, c in zip(signs, p))
    for p in itertools.permutations((2, 1, 1, 0))
    for signs in itertools.product((1, -1), repeat=4)
})
PAIRS = [n for n in LATTICE if next(c for c in n if c) > 0]


def large_scene(seed):
    """A 64-facet ball and a lattice simplex with 100k-500k assignments."""
    rng = random.Random(seed)
    half = rng.sample(PAIRS, 32)
    normals = [*half, *(tuple(-c for c in n) for n in half)]
    ball = PolytopeBall.from_halfspaces([Hyperplane(vec(*n), Rat(1)) for n in normals])
    while True:
        points = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(5)]
        try:
            simplex = Simplex([vec(*p) for p in points])
        except DegenerateInputError:
            continue
        table = [[sum(a * b for a, b in zip(n, p)) for n in normals] for p in points]
        top = [max(col) for col in zip(*table)]
        total = math.prod(sum(x == m for x, m in zip(t, top)) for t in table)
        if 100_000 <= total <= 500_000:
            return ball, simplex


RECORDS = {
    1: ('multiple', [
        (('53/12', '1/4', '13/12', '7/12'), '43/3', 0, (22, 2, 33, 3, 19)),
        (('77/12', '-7/4', '37/12', '5/4'), '59/3', 0, (22, 2, 33, 4, 19)),
        (('781/120', '-103/40', '85/24', '61/40'), '317/15', 1, (22, 4, 33, 4, 19)),
        (('33/5', '-17/5', '4', '9/5'), '113/5', 1, (22, 4, 33, 4, 38)),
    ]),
    2: ('singleton', [
        (('-5/6', '5/3', '-5/6', '3'), '29/2', 0, (23, 13, 39, 59, 28)),
    ]),
    7: ('multiple', [
        (('15/2', '15/2', '7/2', '-11/2'), '32', 1, (1, 11, 1, 0, 7)),
        (('15/2', '15/2', '7/2', '-11/2'), '32', 2, (1, 11, 1, 1, 7)),
        (('15/2', '15/2', '7/2', '-11/2'), '32', 0, (9, 11, 1, 0, 7)),
        (('15/2', '15/2', '7/2', '-11/2'), '32', 1, (9, 11, 1, 1, 7)),
        (('7/2', '1', '2', '-1/2'), '33/2', 0, (9, 15, 4, 3, 25)),
    ]),
    8: ('multiple', [
        (('37/2', '33/2', '15/2', '7/2'), '59', 1, (7, 10, 0, 10, 2)),
        (('23/2', '71/6', '31/6', '7/2'), '128/3', 1, (7, 10, 8, 10, 2)),
        (('9/2', '43/6', '17/6', '7/2'), '79/3', 0, (7, 25, 8, 10, 2)),
        (('5', '3', '3', '-1'), '23', 1, (10, 10, 0, 3, 2)),
        (('8', '6', '4', '0'), '31', 2, (10, 10, 0, 10, 2)),
        (('5', '3', '3', '-1'), '23', 0, (10, 10, 0, 14, 2)),
        (('11/2', '13/3', '19/6', '0'), '151/6', 2, (10, 10, 8, 10, 2)),
        (('17/4', '11/4', '11/4', '-3/4'), '43/2', 1, (10, 10, 8, 14, 2)),
        (('11/4', '11/4', '9/4', '1/4'), '19', 1, (10, 10, 8, 26, 2)),
        (('13/4', '61/12', '29/12', '9/4'), '133/6', 1, (10, 25, 8, 10, 2)),
        (('2', '3', '2', '1'), '18', 0, (10, 25, 8, 26, 2)),
        (('7/2', '5/2', '5/2', '-1/2'), '20', 0, (10, 26, 8, 14, 2)),
    ]),
    38: ('empty', []),
}


class CountedPasses(list):
    """A generator list that fails once it is iterated over `limit` times."""

    def __init__(self, items, limit):
        super().__init__(items)
        self.limit, self.passes = limit, 0

    def __iter__(self):
        self.passes += 1
        if self.passes > self.limit:
            raise AssertionError(f"more than {self.limit} passes over Q's generators")
        return super().__iter__()


def rational(x) -> str:
    return str(Fraction(*ratio(x)))


@pytest.mark.parametrize("seed", sorted(RECORDS))
def test_large_ball_pieces_and_generator_passes(seed, monkeypatch):
    ball, simplex = large_scene(seed)
    classification, pieces = RECORDS[seed]
    limit = len(ball.normals) + len(pieces) + 1
    passes = []
    kernel = circumcenter_module._polar_kernel

    def counted(rows, d):
        passes.append(CountedPasses(kernel(rows, d), limit))
        return passes[-1]

    monkeypatch.setattr(circumcenter_module, "_polar_kernel", counted)
    cset = polytopal_circumcenters(simplex, ball)
    got = [
        (tuple(map(rational, p.center.coords)), rational(p.radius), p.affine_dim, p.assignment)
        for p in cset.pieces
    ]
    assert (cset.classification, got) == (classification, pieces)
    assert len(passes) == 1
