"""Exact linear algebra: vectors, hyperplanes, and the rational solver."""

import random

import pytest

from minksimplex.errors import DimensionError, MixedModeError
from minksimplex.linalg import (
    Hyperplane,
    Vec,
    affine_rank,
    cross2,
    det,
    general_position,
    nullspace,
    rank,
    solve_linear,
    unit_vec,
    zero_vec,
)
from minksimplex.scalars import Rat

from conftest import vec


def test_vec_arithmetic():
    u = vec(1, 2)
    v = vec(3, -1)
    assert (u + v).coords == (Rat(4), Rat(1))
    assert (u - v).coords == (Rat(-2), Rat(3))
    assert (-u).coords == (Rat(-1), Rat(-2))
    assert (3 * u).coords == (Rat(3), Rat(6))
    assert (u / 2).coords == (Rat(1, 2), Rat(1))
    assert u.dot(v) == Rat(1)
    assert cross2(u, v) == Rat(-7)
    assert zero_vec(2).is_zero()
    assert unit_vec(3, 1).coords == (Rat(0), Rat(1), Rat(0))


def test_vec_arithmetic_keeps_mode_checks_and_modes():
    rng = random.Random("vec-modes")

    def exact(d):
        return vec(*(Rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)))

    def floating(d):
        # float-mode vectors may hold a plain int beside their floats
        coords = [rng.uniform(-9, 9) for _ in range(d)]
        coords[rng.randrange(d)] = rng.randint(-3, 3)
        return Vec(coords)

    for _ in range(200):
        d = rng.choice((2, 3, 4))
        for make, scalars in (
            (exact, (rng.randint(-5, 5), Rat(rng.randint(-9, 9), rng.randint(1, 7)))),
            (floating, (rng.randint(-5, 5), rng.uniform(-5, 5))),
        ):
            u, v = make(d), make(d)
            results = [u + v, u - v, -u]
            for s in scalars:
                results += [u.scale(s), s * u, u * s]
                if s != 0:
                    results.append(u / s)
            for r in results:
                assert r.mode == u.mode == Vec(r.coords).mode
        e, f = exact(d), floating(d)
        for op in (
            lambda: e + f,
            lambda: f - e,
            lambda: e.scale(0.5),
            lambda: f.scale(Rat(1, 2)),
            lambda: e / 2.0,
            lambda: f / Rat(3, 2),
        ):
            with pytest.raises(MixedModeError):
                op()


def test_vec_is_immutable_and_hashable():
    u = vec(1, 2)
    with pytest.raises(AttributeError):
        u.coords = (Rat(0), Rat(0))
    assert len({vec(1, 2), vec(1, 2), vec(2, 1)}) == 2


def test_vec_dimension_mismatch():
    with pytest.raises(DimensionError):
        vec(1, 2) + vec(1, 2, 3)


def test_hyperplane_eval_and_identity():
    h = Hyperplane(vec(2, 0), Rat(4))
    assert h.eval(vec(2, 7)) == 0
    assert h.eval(vec(3, 0)) == Rat(2)
    # same set, scaled and flipped representations
    assert h.same_set(Hyperplane(vec(1, 0), Rat(2)))
    assert h.same_set(Hyperplane(vec(-4, 0), Rat(-8)))
    assert not h.same_set(Hyperplane(vec(1, 0), Rat(3)))
    assert not h.same_set(Hyperplane(vec(1, 1), Rat(2)))
    assert h.flip().eval(vec(3, 0)) == Rat(-2)
    # oriented equality distinguishes flips, unoriented key does not
    assert h != h.flip()
    assert h.unoriented_key() == h.flip().unoriented_key()


def test_solve_linear_unique():
    sol = solve_linear([[Rat(2), Rat(1)], [Rat(1), Rat(-1)]], [Rat(5), Rat(1)])
    assert sol.status == "unique"
    assert sol.point == (Rat(2), Rat(1))
    assert sol.dim == 0


def test_solve_linear_underdetermined():
    sol = solve_linear([[Rat(1), Rat(1), Rat(0)]], [Rat(3)])
    assert sol.status == "affine"
    assert sol.dim == 2
    x, y, z = sol.point
    assert x + y == Rat(3)
    for b in sol.basis:
        assert b[0] + b[1] == 0


def test_solve_linear_infeasible():
    sol = solve_linear(
        [[Rat(1), Rat(1)], [Rat(2), Rat(2)]],
        [Rat(1), Rat(3)],
    )
    assert sol.status == "infeasible"
    assert sol.point is None


def test_solve_linear_float_mode():
    sol = solve_linear([[2.0, 1.0], [1.0, -1.0]], [5.0, 1.0])
    assert sol.status == "unique"
    assert sol.point[0] == pytest.approx(2.0)
    assert sol.point[1] == pytest.approx(1.0)


def test_solve_linear_mode_detection():
    # any float demotes the whole system to float arithmetic; pure ints
    # stay exact
    sol = solve_linear([[Rat(1), 0.5]], [Rat(1)])
    assert all(isinstance(c, float) for c in sol.point)
    sol = solve_linear([[1, 2], [3, 4]], [1, 1])
    assert sol.point == (Rat(-1), Rat(1))


def test_det_and_rank():
    assert det([[Rat(1), Rat(2)], [Rat(3), Rat(4)]]) == Rat(-2)
    assert det([[Rat(1), Rat(2)], [Rat(2), Rat(4)]]) == 0
    m3 = [
        [Rat(2), Rat(0), Rat(1)],
        [Rat(1), Rat(1), Rat(0)],
        [Rat(0), Rat(3), Rat(1)],
    ]
    assert det(m3) == Rat(5)
    assert rank(m3) == 3
    assert rank([[Rat(1), Rat(2)], [Rat(2), Rat(4)], [Rat(3), Rat(6)]]) == 1
    assert det([[3.0, 1.0], [1.0, 3.0]]) == pytest.approx(8.0)


def test_nullspace_orthogonal_to_rows():
    rows = [[Rat(1), Rat(1), Rat(1)], [Rat(1), Rat(-1), Rat(0)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(c * x for c, x in zip(row, v)) == 0


def test_affine_rank_and_general_position():
    pts = [vec(0, 0), vec(1, 0), vec(0, 1)]
    assert affine_rank(pts) == 2
    assert general_position(pts)
    collinear = [vec(0, 0), vec(1, 1), vec(2, 2)]
    assert affine_rank(collinear) == 1
    assert not general_position(collinear)
    # d+1 affinely independent points in 3-space
    tetra = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]
    assert general_position(tetra)
    flat = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)]
    assert not general_position(flat)
    with pytest.raises(DimensionError):
        general_position(tetra + [vec(1, 1, 1)])


def test_float_general_position_ignores_place_and_size():
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for shift, size in ((0.0, 1.0), (1000.0, 1.0), (0.0, 1e-5), (0.0, 1e300), (1e300, 1e290)):
        assert general_position([Vec((shift + size * x, shift + size * y)) for x, y in tri])
    # nearly collinear at any size: unit edges 1e-12 apart
    for size in (1e-5, 1.0, 1e300):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0 + 1e-12)]
        assert not general_position([Vec((size * x, size * y)) for x, y in pts])
