"""A point piece of the circumcenter set builds its system on first read.

A positive-dimensional piece needs its system for its Fourier-Motzkin
witness; a point piece is its vertex of Q, so its system waits until
`holds`, `covers` or a caller reads `problem`, and is then the same rows
an eager build gives.
"""

import pytest

from minksimplex import circumcenter as circumcenter_module
from minksimplex.circumcenter import cube_edge_midpoint_instance, polytopal_circumcenters
from minksimplex.feasibility import FeasibilityProblem, Ineq
from minksimplex.simplex import Simplex

from conftest import SQUARE, vec
from test_piece_systems import candidates_of


def counting_problems(monkeypatch):
    """The FeasibilityProblems circumcenter builds, in order."""
    built = []

    class Counted(FeasibilityProblem):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(circumcenter_module, "FeasibilityProblem", Counted)
    return built


@pytest.mark.parametrize("instance", ["square-345", "cube-edge-midpoint"])
def test_a_point_piece_builds_its_system_on_first_read(monkeypatch, instance):
    if instance == "square-345":
        simplex, ball = Simplex([vec(0, 0), vec(4, 0), vec(0, 3)]), SQUARE
    else:
        inst = cube_edge_midpoint_instance()
        simplex, ball = inst.simplex, inst.ball
    built = counting_problems(monkeypatch)
    pieces = polytopal_circumcenters(simplex, ball).pieces
    positive = [p for p in pieces if p.affine_dim > 0]
    points = [p for p in pieces if p.affine_dim == 0]
    assert positive and points
    # one system per positive-dimensional piece, the one its witness ran on
    assert [id(prob) for prob in built] == [id(p.problem) for p in positive]
    # a point piece's system, once read, is the one an eager build gives
    d = simplex.dim
    normals, s_n, s_v, _, top, _ = candidates_of(simplex, ball)
    coeffs = [(*(-s_v * c for c in n), -s_n * s_v) for n in normals]
    for p in points:
        J = set(p.assignment)
        want = FeasibilityProblem(
            d + 1,
            [(coeffs[j], -top[j]) for j in range(len(normals)) if j in J],
            [Ineq(coeffs[k], -top[k]) for k in range(len(normals)) if k not in J]
            + [Ineq((0,) * d + (-1,), 0, True)],
        )
        got = p.problem
        assert got.equalities == want.equalities and got.inequalities == want.inequalities
        assert p.problem is got
        assert p.holds(p.center, p.radius) and not p.holds(p.center, p.radius + 1)
    assert len(built) == len(pieces)  # one more per point piece, on its first read
