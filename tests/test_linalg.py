"""Exact linear algebra: vectors, hyperplanes, and the rational solver."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksimplex.errors import DimensionError, MixedModeError
from minksimplex.linalg import (
    ExactVec,
    Hyperplane,
    Vec,
    affine_rank,
    cross2,
    det,
    general_position,
    integer_points,
    nullspace,
    rank,
    solve_linear,
    unit_vec,
    zero_vec,
)
from minksimplex.scalars import Rat

from conftest import fvec, vec


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


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_float_hyperplane_canonical_at_extreme_scales(scale):
    # the normal's length neither overflows to inf (every hyperplane
    # canonical (0, 0, 0)) nor underflows to 0 (a ZeroDivisionError)
    for normal, offset in (((1.0, 0.0), 1.0), ((0.0, 1.0), 0.5)):
        h = Hyperplane(fvec(*(c * scale for c in normal)), offset * scale)
        twin = Hyperplane(fvec(*normal), offset)
        assert h.canonical() == twin.canonical()
        assert h == twin and hash(h) == hash(twin) and h.same_set(twin)
    assert Hyperplane(fvec(scale, 0.0), scale) != Hyperplane(fvec(0.0, scale), scale / 2)


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


# -- exact Vecs as (X, D) integer vectors ---------------------------------

_entries = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.integers(-10**12, 10**12).map(Fraction),
)
_scalars = st.one_of(_entries, st.integers(-30, 30))


def _oracle_pairs(d):
    return st.tuples(st.lists(_entries, min_size=d, max_size=d), st.lists(_entries, min_size=d, max_size=d))


def _frac(q) -> Fraction:
    """A Rat as a Fraction in lowest terms."""
    return Fraction(q.numerator, q.denominator)


def _assert_matches(v, oracle):
    """v is the reduced (X, D) form of the Fraction tuple oracle, and its
    lazily built coords are that tuple, one Rat per entry."""
    assert isinstance(v, ExactVec) and v.mode == "exact" and v.dim == len(oracle)
    assert v.D > 0 and gcd(v.D, *v.X) == 1
    assert all(type(x) is int for x in v.X)
    assert [Fraction(x, v.D) for x in v.X] == list(oracle)
    assert all(type(c) is Fraction for c in v.coords)
    assert [_frac(c) for c in v.coords] == list(oracle)
    twin = Vec(list(oracle))
    assert twin == v and hash(twin) == hash(v)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(_oracle_pairs(d), _scalars)))
def test_exact_vec_matches_fraction_oracle(case):
    (a, b), s = case
    u, v = Vec([Rat(c) for c in a]), Vec(b)
    _assert_matches(u, a)
    _assert_matches(v, b)
    _assert_matches(u + v, [x + y for x, y in zip(a, b)])
    _assert_matches(u - v, [x - y for x, y in zip(a, b)])
    _assert_matches(-u, [-x for x in a])
    for w in (u.scale(s), u * s, s * u):
        _assert_matches(w, [Fraction(s) * x for x in a])
    if s != 0:
        _assert_matches(u / s, [x / Fraction(s) for x in a])
    d = u.dot(v)
    assert type(d) is Fraction and _frac(d) == sum(x * y for x, y in zip(a, b))
    assert (u == v) == (list(a) == list(b))
    # integer_points reads the (X, D) pairs over their lcm
    ints, scale = integer_points([u, v])
    assert scale == lcm(*(Fraction(x).denominator for x in (*a, *b)))
    assert [list(p) for p in ints] == [[x * scale for x in a], [y * scale for y in b]]
    assert all(type(x) is int for p in ints for x in p)


def test_exact_vec_coords_are_filled_on_first_read():
    v = Vec([Rat(1, 2), 3]) + Vec([0, Rat(1, 4)])
    with pytest.raises(AttributeError):
        Vec.coords.__get__(v)  # nothing built by the arithmetic
    assert (v.X, v.D) == ((2, 13), 4)
    assert v.coords == (Rat(1, 2), Rat(13, 4))
    assert Vec.coords.__get__(v) is v.coords


def test_two_lanes_never_mix():
    e = Vec([Rat(1, 2), 3])
    f = Vec([0.5, 3.0])
    # a float Vec never carries (X, D), and float arithmetic keeps it so
    for w in (f, f + f, f - f, -f, f * 2, 2 * f, f / 2, f.scale(0.5), e.to_float()):
        assert type(w) is Vec and w.mode == "float"
        assert not hasattr(w, "X") and not hasattr(w, "D")
    for op in (
        lambda: e + f,
        lambda: f + e,
        lambda: e - f,
        lambda: f - e,
        lambda: e.dot(f),
        lambda: f.dot(e),
        lambda: e.scale(0.5),
        lambda: 0.5 * e,
        lambda: e / 2.0,
        lambda: f.scale(Rat(1, 2)),
        lambda: Rat(1, 2) * f,
        lambda: f / Rat(3, 2),
        lambda: Vec([Rat(1, 2), 0.5]),
        lambda: Hyperplane(e, 0.5),
        lambda: Hyperplane(f, Rat(1, 2)),
    ):
        with pytest.raises(MixedModeError):
            op()
    # plain ints are valid in both lanes, as coordinates and as scalars
    ints = Vec([1, 2])
    assert type(ints) is ExactVec and (ints.X, ints.D) == ((1, 2), 1)
    mixed = Vec([1, 2.0])
    assert type(mixed) is Vec and mixed.coords == (1, 2.0)
    for w in (e * 2, 2 * e, e / 2, e + ints, ints.scale(3)):
        assert type(w) is ExactVec
    for w in (f * 2, 2 * f, f / 2, f + mixed):
        assert type(w) is Vec
    # an exact and a float Vec are never equal, whatever their values
    assert Vec([1, 2]) != Vec([1.0, 2.0]) and Vec([1.0, 2.0]) != Vec([1, 2])
    assert not (e == f) and not (f == e)
    assert len({Vec([1, 2]), Vec([1.0, 2.0])}) == 2
