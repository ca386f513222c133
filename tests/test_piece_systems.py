"""Each circumcenter piece's system is Q's own rows with its facets tight,
against the per-vertex system and (vertex, facet) pair key it replaced.

The oracle below enumerates the same faces of
Q = {(M, r) : <n_k, M> + r >= h_k}, but gives each piece the system
<n_k, A_i - M> <= r for every vertex A_i and facet k, with one equality
per vertex at its assigned facet, and keys pieces by the (vertex, facet)
pairs tight on them.  Both systems cut out the same face, so witnesses,
probed centers and `covers` must agree exactly.
"""

import functools
import itertools
import random
from operator import and_, mul

from minksimplex.circumcenter import (
    EMPTY,
    MULTIPLE,
    SINGLETON,
    CircumcenterSet,
    CircumPiece,
    cube_edge_midpoint_instance,
    polytopal_circumcenters,
)
from minksimplex.feasibility import FeasibilityProblem, Ineq, feasible
from minksimplex.linalg import ExactVec, Vec, bareiss, integer_points
from minksimplex.polytopes import _polar_kernel
from minksimplex.scalars import EXACT, Rat

from conftest import (
    CROSSPOLYTOPE, CUBE, DIAMOND, HEXAGON, HYPERCUBE, OCTAHEDRON, SQUARE, random_rational_simplex,
)
from test_circumcenter_faces import lattice_simplex


def candidates_of(simplex, ball):
    """The incidence table T[i][k] = s_n s_v <n_k, A_i>, its column
    maxima and the facets each vertex attains."""
    normals, s_n = ball._normal_rows
    vertices, s_v = integer_points(simplex.vertices)
    table = [[sum(map(mul, n, v)) for n in normals] for v in vertices]
    top = [max(col) for col in zip(*table)]
    candidates = [[k for k in range(len(normals)) if t[k] == top[k]] for t in table]
    return normals, s_n, s_v, table, top, candidates


def per_vertex_circumcenters(simplex, ball):
    """The enumeration with each piece's system built row by row from
    the (vertex, facet) pairs, and pieces keyed by their tight pairs."""
    d = simplex.dim
    normals, s_n, s_v, table, top, candidates = candidates_of(simplex, ball)
    coeffs = [(*(-s_v * c for c in n), -s_n * s_v) for n in normals]
    rows = [[Ineq(coeffs[k], -t[k]) for k in range(len(normals))] for t in table]
    positive = Ineq((0,) * d + (-1,), 0, True)
    generators = _polar_kernel(
        [(*c, h) for c, h in zip(coeffs, top)] + [(0,) * (d + 1) + (-1,)], d + 1
    )
    pieces = {}
    for assignment in itertools.product(*candidates):
        J = sum({1 << j for j in assignment})
        face = [(y, m) for y, m in generators if m & J == J]
        if not any(y[-1] for y, _ in face):
            continue
        tight = functools.reduce(and_, (m for _, m in face))
        key = frozenset((i, k) for i, ks in enumerate(candidates) for k in ks if tight >> k & 1)
        if key in pieces:
            continue
        prob = FeasibilityProblem(
            d + 1,
            [(coeffs[j], -table[i][j]) for i, j in enumerate(assignment)],
            [row for i, j in enumerate(assignment) for k, row in enumerate(rows[i]) if k != j]
            + [positive],
        )
        points = [y for y, _ in face]
        dim = bareiss(points)[0] - 1
        if dim:
            res = feasible(prob, with_dim=False)
            assert res.feasible
            center, radius = Vec(res.witness[:d]), res.witness[d]
        else:
            (*X, R, D), = points
            center, radius = ExactVec.of_ints(X, D), Rat(R, D)
        pieces[key] = CircumPiece(center, radius, dim, assignment, prob)
    found = list(pieces.values())
    if not found:
        cls = EMPTY
    elif any(p.affine_dim for p in found) or len({p.center for p in found}) > 1:
        cls = MULTIPLE
    else:
        cls = SINGLETON
    return CircumcenterSet(simplex, ball, found, cls, EXACT)


def described(cset):
    return cset.classification, [
        (p.center, p.radius, p.affine_dim, p.assignment) for p in cset.pieces
    ]


def instances():
    rng = random.Random("piece-systems")
    # ball: (lattice instances, rational instances, candidate assignment counts)
    plan = [(SQUARE, 16, 8, range(1, 13)), (DIAMOND, 16, 8, range(1, 13)),
            (HEXAGON, 16, 8, range(1, 19)), (CUBE, 12, 6, range(1, 37)),
            (OCTAHEDRON, 12, 6, range(1, 37)), (HYPERCUBE, 6, 4, range(1, 73)),
            (CROSSPOLYTOPE, 6, 4, range(1, 401))]
    inst = cube_edge_midpoint_instance()
    found = [(inst.simplex, inst.ball)]
    for ball, lattice, rational, assignments in plan:
        found += [(lattice_simplex(rng, ball, assignments), ball) for _ in range(lattice)]
        found += [(random_rational_simplex(rng, ball.dim, 2), ball) for _ in range(rational)]
    return found


def test_piece_systems_match_the_per_vertex_oracle():
    seen = {"positive": 0, "probed": 0, "off": 0}
    for simplex, ball in instances():
        got = polytopal_circumcenters(simplex, ball)
        want = per_vertex_circumcenters(simplex, ball)
        assert described(got) == described(want)
        centers = got.distinct_centers(3)
        assert centers == want.distinct_centers(3)
        # every piece's witness, the same center off the sphere, and each
        # probed center at the radius its vertices give
        points = [(p.center, p.radius) for p in want.pieces]
        points += [(c, r + 1) for c, r in points]
        points += [(c, ball.gauge(simplex.vertices[0] - c)) for c in centers]
        for center, radius in points:
            assert got.covers(center, radius) == want.covers(center, radius)
            assert [p.holds(center, radius) for p in got.pieces] == [
                p.holds(center, radius) for p in want.pieces
            ]
            seen["off"] += not got.covers(center, radius)
        seen["positive"] += sum(p.affine_dim > 0 for p in got.pieces)
        seen["probed"] += len(centers) > len({p.center for p in got.pieces})
    assert all(seen.values()), seen


def test_a_piece_system_has_one_row_per_ball_facet():
    # one equality per distinct facet J of the assignment, one
    # inequality per other facet, and r > 0
    checked = 0
    for simplex, ball in instances():
        for p in polytopal_circumcenters(simplex, ball).pieces:
            J = set(p.assignment)
            assert len(p.problem.equalities) == len(J)
            assert len(p.problem.inequalities) == len(ball.normals) - len(J) + 1
            checked += 1
    assert checked >= 50
