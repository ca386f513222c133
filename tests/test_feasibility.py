"""Rational feasibility solver, checked against brute-force grid search.

The Fourier-Motzkin solver is the backbone of the circumcenter
enumeration, so it gets an independent oracle: for small systems we scan
a rational grid over a box and compare emptiness verdicts, and verify
every witness by direct substitution.
"""

import random

import pytest

from minksimplex.errors import VerificationError
from minksimplex.feasibility import FeasibilityProblem, Ineq, feasible, lp_max
from minksimplex.scalars import Rat


def brute_force_feasible(problem: FeasibilityProblem, span: int = 4, steps: int = 8):
    """Scan a (2*span)^n grid of rationals for any satisfying point.

    Only a semi-decision (misses thin sets), used on systems whose
    solution set, if nonempty, is known to contain a grid point.
    """
    n = problem.n_vars
    q = max(2, steps // (2 * span))
    axis = [Rat(k, q) for k in range(-span * q, span * q + 1)]

    def rec(prefix):
        if len(prefix) == n:
            return problem.holds_at(prefix)
        return any(rec(prefix + [x]) for x in axis)

    return rec([])


def random_problem(rng: random.Random, n: int, rows: int) -> FeasibilityProblem:
    p = FeasibilityProblem(n)
    for _ in range(rows):
        coeffs = [Rat(rng.randint(-3, 3)) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(n)] = Rat(1)
        p.add_le(coeffs, Rat(rng.randint(-6, 6), rng.choice((1, 2))), strict=rng.random() < 0.3)
    return p


def test_agrees_with_grid_oracle():
    rng = random.Random("fm-oracle")
    checked = empty = 0
    for _ in range(60):
        p = random_problem(rng, 2, rng.randint(2, 5))
        res = feasible(p)
        if res.feasible:
            assert p.holds_at(res.witness)
            checked += 1
        else:
            assert not brute_force_feasible(p)
            empty += 1
    # make sure the sample exercised both branches
    assert checked > 10 and empty > 3


def test_equalities_reduce_the_system():
    p = FeasibilityProblem(3)
    p.add_eq((Rat(1), Rat(1), Rat(1)), Rat(6))
    p.add_eq((Rat(1), Rat(-1), Rat(0)), Rat(0))
    p.add_le((Rat(0), Rat(0), Rat(1)), Rat(2))
    res = feasible(p)
    assert res.feasible
    x, y, z = res.witness
    assert x == y and x + y + z == 6 and z <= 2
    # after elimination one parameter remains: {(t, t, 6 - 2t) : t >= 2}
    assert res.affine_dim == 1


def test_affine_dim_reporting():
    # full square: dimension 2
    p = FeasibilityProblem(2)
    for c, b in (((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)):
        p.add_le((Rat(c[0]), Rat(c[1])), Rat(b))
    assert feasible(p).affine_dim == 2

    # opposing non-strict rows pin a segment: dimension 1
    p.add_le((Rat(1), Rat(0)), Rat(0))
    p.add_le((Rat(-1), Rat(0)), Rat(0))
    res = feasible(p)
    assert res.feasible and res.affine_dim == 1
    assert res.witness[0] == 0

    # contradictory strict row: empty
    p.add_le((Rat(0), Rat(1)), Rat(-1), strict=True)
    p.add_le((Rat(0), Rat(-1)), Rat(0), strict=True)
    assert not feasible(p).feasible


def test_strict_inequalities_exclude_boundary():
    p = FeasibilityProblem(1)
    p.add_le((Rat(1),), Rat(0), strict=True)
    p.add_le((Rat(-1),), Rat(0))
    # x < 0 and x >= 0 is empty
    assert not feasible(p).feasible

    q = FeasibilityProblem(1)
    q.add_le((Rat(1),), Rat(1), strict=True)
    q.add_le((Rat(-1),), Rat(-0), strict=True)
    res = feasible(q)
    assert res.feasible
    assert 0 < res.witness[0] < 1


def test_zero_variable_systems():
    p = FeasibilityProblem(0)
    assert feasible(p).feasible
    p.add_le((), Rat(-1))
    assert not feasible(p).feasible


def le_problem(n, rows, strict=()):
    """Rows ((coeffs), rhs) as non-strict inequalities; indices in
    `strict` become strict rows."""
    p = FeasibilityProblem(n)
    for idx, (coeffs, rhs) in enumerate(rows):
        p.add_le(tuple(Rat(c) for c in coeffs), Rat(rhs), strict=idx in strict)
    return p


SQUARE_ROWS = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]


def test_implicit_rows_of_a_segment():
    # {0 <= x <= 1, y = 0} written with inequalities only
    res = feasible(le_problem(2, [((1, 0), 1), ((0, 1), 0), ((-1, 0), 0), ((0, -1), 0)]))
    assert res.affine_dim == 1
    assert res.implicit_rows == (1, 3)


def test_implicit_rows_of_a_square_with_a_duplicated_row():
    # the square cut down to its edge x = -1 by x <= -1, given twice
    # (once scaled by 2), plus a looser copy 3x <= 0 that is slack
    rows = SQUARE_ROWS + [((1, 0), -1), ((2, 0), -2), ((3, 0), 0)]
    res = feasible(le_problem(2, rows))
    assert res.affine_dim == 1
    assert res.implicit_rows == (1, 4, 5)
    assert feasible(le_problem(2, SQUARE_ROWS)).implicit_rows == ()


def test_implicit_zero_row():
    res = feasible(le_problem(1, [((0,), 0), ((0,), 1), ((1,), 1), ((-1,), 1)]))
    assert res.affine_dim == 1
    assert res.implicit_rows == (0,)


def test_strict_rows_are_never_implicit():
    # 0 <= x < 1, with x <= 1 dominated by the strict row; and y pinned
    # by two non-strict rows next to a strict one
    rows = [((-1, 0), 0), ((1, 0), 1), ((1, 0), 1), ((0, 1), 0), ((0, -1), 0), ((0, 1), 1)]
    res = feasible(le_problem(2, rows, strict={1, 5}))
    assert res.affine_dim == 1
    assert res.implicit_rows == (3, 4)


def test_implicit_rows_through_equalities():
    # the unique path: x = 1, y = 0 pins a point; x <= 1 and 0 <= 0
    # are tight there, y <= 2 and the strict x + y < 2 are not
    p = le_problem(2, [((1, 0), 1), ((0, 1), 2), ((1, 1), 2), ((0, 0), 0)], strict={2})
    p.add_eq((Rat(1), Rat(0)), Rat(1))
    p.add_eq((Rat(0), Rat(1)), Rat(0))
    res = feasible(p)
    assert res.affine_dim == 0 and res.implicit_rows == (0, 3)
    # the parametrized path: x + y = 1 with 0 <= x <= 0 leaves a point
    q = le_problem(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 5)])
    q.add_eq((Rat(1), Rat(1)), Rat(1))
    res = feasible(q)
    assert res.affine_dim == 0 and res.implicit_rows == (0, 1)
    assert feasible(q, with_dim=False).implicit_rows is None


def test_implicit_rows_agree_with_strict_probes():
    # a non-strict row is an implicit equality iff making it strict
    # empties the set
    rng = random.Random("fm-implicit")
    checked = tight = 0
    for _ in range(40):
        p = random_problem(rng, 2, rng.randint(2, 5))
        # pin some rows against their negation so implicit rows occur
        for row in list(p.inequalities[:2]):
            if not row.strict:
                p.add_le(tuple(-c for c in row.coeffs), -row.rhs)
        res = feasible(p)
        if not res.feasible:
            continue
        checked += 1
        tight += len(res.implicit_rows)
        for idx, row in enumerate(p.inequalities):
            probe = FeasibilityProblem(2)
            probe.inequalities = list(p.inequalities)
            probe.inequalities[idx] = Ineq(row.coeffs, row.rhs, True)
            empty = not feasible(probe, with_dim=False).feasible
            assert (idx in res.implicit_rows) == (empty and not row.strict)
    assert checked > 10 and tight > 10


def test_failed_witness_check_raises(monkeypatch):
    monkeypatch.setattr(FeasibilityProblem, "holds_at", lambda self, point: False)
    with pytest.raises(VerificationError):
        feasible(le_problem(2, SQUARE_ROWS))


def test_lp_max_square():
    p = FeasibilityProblem(2)
    for c, b in (((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)):
        p.add_le((Rat(c[0]), Rat(c[1])), Rat(b))
    value, witness, attained = lp_max(p, (Rat(1), Rat(1)))
    assert value == Rat(2) and attained
    assert witness == (Rat(1), Rat(1))
    value, _, _ = lp_max(p, (Rat(0), Rat(-1)))
    assert value == Rat(1)


def test_lp_max_unbounded():
    p = FeasibilityProblem(2)
    p.add_le((Rat(-1), Rat(0)), Rat(0))
    value, witness, attained = lp_max(p, (Rat(1), Rat(0)))
    assert value is None and not attained


def test_lp_max_strict_supremum_not_attained():
    p = FeasibilityProblem(1)
    p.add_le((Rat(1),), Rat(3), strict=True)
    value, witness, attained = lp_max(p, (Rat(1),))
    assert value == Rat(3)
    assert not attained


def test_lp_max_respects_equalities():
    p = FeasibilityProblem(2)
    p.add_eq((Rat(1), Rat(1)), Rat(4))
    p.add_le((Rat(1), Rat(0)), Rat(3))
    p.add_le((Rat(-1), Rat(0)), Rat(0))
    value, witness, attained = lp_max(p, (Rat(2), Rat(1)))
    # maximize 2x + y = x + 4 subject to 0 <= x <= 3
    assert value == Rat(7) and attained
    assert witness == (Rat(3), Rat(1))


def test_lp_max_infeasible_raises():
    p = FeasibilityProblem(1)
    p.add_le((Rat(1),), Rat(0))
    p.add_le((Rat(-1),), Rat(-1))
    with pytest.raises(ValueError):
        lp_max(p, (Rat(1),))
