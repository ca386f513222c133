"""Circumcenter pieces read off the faces of one polyhedron, against the
per-assignment rule they replaced.

polytopal_circumcenters lists the vertices and rays of
Q = {(M, r) : <n_k, M> + r >= h_k} once and reads every assignment's
piece off them.  The oracle below is the rule it replaced: each
assignment's system on its own, a unique solution of its equalities
tested row by row, any other system decided by feasible() with its
implicit equalities, and pieces merged by their tight (vertex, facet)
pairs, the first assignment reaching a key keeping it.
"""

import itertools
import math
import random

import minksimplex.circumcenter as circumcenter_module
from minksimplex.circumcenter import (
    EMPTY,
    MULTIPLE,
    SINGLETON,
    cube_edge_midpoint_instance,
    polytopal_circumcenters,
)
from minksimplex.errors import DegenerateInputError
from minksimplex.feasibility import FeasibilityProblem, feasible
from minksimplex.linalg import Hyperplane, Vec, integer_solve
from minksimplex.norms import PolytopeBall
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

from conftest import CROSSPOLYTOPE, CUBE, HEXAGON, HYPERCUBE, OCTAHEDRON, SQUARE, vec


def assignment_problem(simplex, ball, assignment):
    """(M, r) with <n_k, A_i - M> <= r for every vertex and facet,
    equality where facet k = assignment[i], and r > 0; the inequalities
    go vertex by vertex, facet by facet, skipping assigned facets."""
    d = simplex.dim
    prob = FeasibilityProblem(d + 1)
    for i, a in enumerate(simplex.vertices):
        for k, n in enumerate(ball.normals):
            row = (*(-c for c in n.coords), Rat(-1))
            if k == assignment[i]:
                prob.add_eq(row, -n.dot(a))
            else:
                prob.add_le(row, -n.dot(a))
    prob.add_le((*(Rat(0),) * d, Rat(-1)), Rat(0), strict=True)
    return prob


def touchable_facets(simplex, ball):
    """Facet k can touch A_i only if A_i maximizes <n_k, .> over the
    vertices."""
    return [
        [k for k, n in enumerate(ball.normals)
         if all(n.dot(a) >= n.dot(b) for b in simplex.vertices)]
        for a in simplex.vertices
    ]


def per_assignment_pieces(simplex, ball):
    """The removed rule: (classification, [(assignment, affine_dim,
    center, radius)]) in first-assignment order."""
    d = simplex.dim
    normals = ball.normals
    pieces = {}
    for assignment in itertools.product(*touchable_facets(simplex, ball)):
        prob = assignment_problem(simplex, ball, assignment)
        sol = integer_solve([[*coeffs, rhs] for coeffs, rhs in prob.equalities], d + 1)
        if sol is None:
            continue
        P, z, basis = sol
        if not basis:
            point = tuple(Rat(v, P) for v in z)
            if not prob.holds_at(point):
                continue
            center, radius = Vec(point[:d]), point[d]
            key = frozenset(
                (i, k) for i, a in enumerate(simplex.vertices) for k, n in enumerate(normals)
                if n.dot(a - center) == radius
            )
            dim = 0
        else:
            res = feasible(prob)
            if not res.feasible:
                continue
            rows = [(i, k) for i, j in enumerate(assignment)
                    for k in range(len(normals)) if k != j]
            key = frozenset(enumerate(assignment)).union(rows[idx] for idx in res.implicit_rows)
            center, radius, dim = Vec(res.witness[:d]), res.witness[d], res.affine_dim
        pieces.setdefault(key, (assignment, dim, center, radius))
    found = list(pieces.values())
    if not found:
        cls = EMPTY
    elif any(dim for _, dim, _, _ in found) or len({c for _, _, c, _ in found}) > 1:
        cls = MULTIPLE
    else:
        cls = SINGLETON
    return cls, found


def h_form(ball):
    return PolytopeBall.from_halfspaces([Hyperplane(n, Rat(1)) for n in ball.normals])


def lattice_simplex(rng, ball, assignments):
    """A simplex with vertices in {-2, ..., 2}^d whose count of candidate
    assignments lies in the given range."""
    d = ball.dim
    while True:
        try:
            simplex = Simplex([vec(*(rng.randint(-2, 2) for _ in range(d))) for _ in range(d + 1)])
        except DegenerateInputError:
            continue
        if math.prod(map(len, touchable_facets(simplex, ball))) in assignments:
            return simplex


def test_pieces_match_the_per_assignment_rule():
    rng = random.Random("faces-of-q")
    # ball: (instances per form, candidate assignment counts)
    plan = [(SQUARE, 8, range(0, 13)), (HEXAGON, 8, range(0, 13)), (CUBE, 5, range(0, 19)),
            (OCTAHEDRON, 5, range(0, 19)), (HYPERCUBE, 3, range(0, 9)),
            (CROSSPOLYTOPE, 3, range(0, 9))]
    seen = {EMPTY: 0, "positive": 0}
    for v_ball, count, assignments in plan:
        for ball in (v_ball, h_form(v_ball)):
            for _ in range(count):
                simplex = lattice_simplex(rng, ball, assignments)
                cset = polytopal_circumcenters(simplex, ball)
                got = [(p.assignment, p.affine_dim, p.center, p.radius) for p in cset.pieces]
                assert (cset.classification, got) == per_assignment_pieces(simplex, ball)
                seen[EMPTY] += cset.classification == EMPTY
                seen["positive"] += any(p.affine_dim > 0 for p in cset.pieces)
    assert all(seen.values()), seen


def counting_feasible(monkeypatch):
    calls = []

    def counted(problem, with_dim=True):
        calls.append((problem, with_dim))
        return feasible(problem, with_dim)

    monkeypatch.setattr(circumcenter_module, "feasible", counted)
    return calls


def test_general_position_simplex_makes_no_feasible_call(monkeypatch):
    calls = counting_feasible(monkeypatch)
    simplex = Simplex([vec(0, 0), vec(3, 1), vec(1, Rat(5, 2))])
    cset = polytopal_circumcenters(simplex, HEXAGON)
    assert cset.pieces and all(p.affine_dim == 0 for p in cset.pieces)
    assert calls == []


def test_one_witness_run_per_positive_dimensional_piece(monkeypatch):
    calls = counting_feasible(monkeypatch)
    inst = cube_edge_midpoint_instance()
    pieces = polytopal_circumcenters(inst.simplex, inst.ball).pieces
    positive = [p for p in pieces if p.affine_dim > 0]
    assert len(pieces) == 12 and len(positive) == 8
    assert [(id(prob), with_dim) for prob, with_dim in calls] == [
        (id(p.problem), False) for p in positive
    ]
