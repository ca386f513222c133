"""Rational feasibility solver, checked against brute-force grid search
and against the rational Fourier-Motzkin it replaced.

The Fourier-Motzkin solver is the backbone of the circumcenter
enumeration, so it gets an independent oracle: for small systems we scan
a rational grid over a box and compare emptiness verdicts, and verify
every witness by direct substitution.  The integer core must also give
the same results field for field as the Fraction reference below.
"""

import math
import random
from fractions import Fraction

import pytest

from minksimplex import config, feasibility
from minksimplex.errors import DimensionError, MixedModeError, ResourceCapError, VerificationError
from minksimplex.feasibility import FeasibilityProblem, FeasibilityResult, Ineq, feasible, lp_max
from minksimplex.linalg import LinearSolution, rank, solve_linear
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
    # empties the set; in the plane, and with 3 and 4 unknowns cut by
    # an equality row
    rng = random.Random("fm-implicit")
    for n, n_eqs in ((2, 0), (3, 1), (4, 1)):
        checked = tight = 0
        for _ in range(40):
            p = random_problem(rng, n, rng.randint(2, 5))
            for _ in range(n_eqs):
                p.add_eq([Rat(rng.randint(-2, 2)) for _ in range(n)], Rat(rng.randint(-3, 3)))
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
                probe = FeasibilityProblem(n, list(p.equalities), list(p.inequalities))
                probe.inequalities[idx] = Ineq(row.coeffs, row.rhs, True)
                empty = not feasible(probe, with_dim=False).feasible
                assert (idx in res.implicit_rows) == (empty and not row.strict)
        assert checked > 10 and tight > 10, (n, checked, tight)


def test_one_elimination_per_call(monkeypatch):
    # the implicit rows and the dimension come from the same Fourier-
    # Motzkin stages as the witness: a segment in the plane, cut by
    # several non-strict rows and one equality, is eliminated once
    calls = []
    eliminate = feasibility._fm_eliminate

    def counted(rows, n):
        calls.append(n)
        return eliminate(rows, n)

    monkeypatch.setattr(feasibility, "_fm_eliminate", counted)
    p = le_problem(3, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 0), ((0, -1, 0), 0),
                       ((1, 1, 0), 2)])
    p.add_eq((Rat(0), Rat(0), Rat(1)), Rat(1))
    res = feasible(p)
    assert res.affine_dim == 1 and res.implicit_rows == (2, 3)
    assert calls == [2]


def test_failed_witness_check_raises(monkeypatch):
    monkeypatch.setattr(FeasibilityProblem, "holds_at_ints", lambda self, xs, den: False)
    with pytest.raises(VerificationError):
        feasible(le_problem(2, SQUARE_ROWS))


def test_holds_at_rejects_float_points():
    # exact rows and float points never mix, not even in a substitution
    with pytest.raises(MixedModeError):
        le_problem(2, SQUARE_ROWS).holds_at((0.5, Rat(0)))


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


def test_lp_max_infeasible_cases_share_one_error():
    # conflicting equalities; a Fourier-Motzkin contradiction; a unique
    # solution that fails a constant row
    conflict = FeasibilityProblem(1, [((Rat(1),), Rat(0)), ((Rat(1),), Rat(1))])
    contradiction = le_problem(1, [((1,), 0), ((-1,), -1)])
    off_row = FeasibilityProblem(1, [((Rat(1),), Rat(1))], [Ineq((Rat(1),), Rat(0))])
    for p in (conflict, contradiction, off_row):
        with pytest.raises(ValueError, match="^lp_max on infeasible problem$"):
            lp_max(p, (Rat(1),))


def rational_rows(rng, n):
    """Equalities and inequalities with mixed denominators, as Rat rows."""
    def entry():
        return Rat(rng.randint(-3, 3), rng.choice((1, 2, 3)))

    eqs = [([entry() for _ in range(n)], entry()) for _ in range(rng.randint(0, n - 1))]
    ineqs = [([entry() for _ in range(n)], entry(), rng.random() < 0.3)
             for _ in range(rng.randint(1, 5))]
    return eqs, ineqs


def scaled(coeffs, rhs):
    """The int row of (coeffs, rhs): times the lcm of its denominators."""
    lcm = math.lcm(*(x.denominator for x in (*coeffs, rhs)))
    return tuple(int(c * lcm) for c in coeffs), int(rhs * lcm)


def test_rows_are_integer_from_entry():
    # one system built three ways: the constructor with Rat rows,
    # add_eq/add_le, and the constructor with int rows, which it keeps
    rng = random.Random("integer-entry")
    feasible_seen = 0
    for _ in range(80):
        n = rng.randint(1, 3)
        eqs, ineqs = rational_rows(rng, n)
        by_ctor = FeasibilityProblem(n, eqs, [Ineq(tuple(c), b, s) for c, b, s in ineqs])
        by_add = FeasibilityProblem(n)
        for c, b in eqs:
            by_add.add_eq(c, b)
        for c, b, s in ineqs:
            by_add.add_le(c, b, s)
        int_ineqs = [Ineq(*scaled(c, b), s) for c, b, s in ineqs]
        by_ints = FeasibilityProblem(n, [scaled(c, b) for c, b in eqs], int_ineqs)
        assert all(a is b for a, b in zip(by_ints.inequalities, int_ineqs))
        problems = (by_ctor, by_add, by_ints)
        for p in problems:
            assert p.equalities == [scaled(c, b) for c, b in eqs]
            assert p.inequalities == int_ineqs
            assert all(type(v) is int for c, b in p.equalities for v in (*c, b))
            assert all(type(v) is int for r in p.inequalities for v in (*r.coeffs, r.rhs))
        for with_dim in (True, False):
            results = [feasible(p, with_dim) for p in problems]
            assert results[0] == results[1] == results[2]
        feasible_seen += results[0].feasible
        points = [[Rat(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)] for _ in range(6)]
        if results[0].feasible:
            points.append(list(results[0].witness))
        for x in points:
            assert by_ctor.holds_at(x) == by_add.holds_at(x) == by_ints.holds_at(x)
    assert 20 < feasible_seen < 70


def test_rows_are_checked_at_entry():
    with pytest.raises(MixedModeError):
        FeasibilityProblem(1, [], [Ineq((0.5,), Rat(1))])
    with pytest.raises(MixedModeError):
        FeasibilityProblem(1).add_eq((Rat(1),), 1.0)
    with pytest.raises(DimensionError):
        FeasibilityProblem(2, [((Rat(1),), Rat(0))])


# -- reference: Fourier-Motzkin on Fractions ---------------------------


def ref_holds_at(problem, point):
    """Substitution check on rationals."""
    for coeffs, rhs in problem.equalities:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for row in problem.inequalities:
        lhs = sum(c * x for c, x in zip(row.coeffs, point))
        if not (lhs < row.rhs if row.strict else lhs <= row.rhs):
            return False
    return True


def ref_scaled(row):
    """(coeffs, rhs) divided by |leading coefficient|; None for a
    constant row."""
    lead = next((c for c in row.coeffs if c != 0), None)
    if lead is None:
        return None
    scale = abs(lead)
    return tuple(Rat(c) / scale for c in row.coeffs), Rat(row.rhs) / scale


def ref_normalize(ineqs):
    """Scale rows to a canonical leading coefficient and drop dominated
    duplicates (same normal, looser bound)."""
    best = {}
    for row in ineqs:
        scaled = ref_scaled(row)
        if scaled is None:
            if row.rhs < 0 or (row.strict and row.rhs == 0):
                return None
            continue
        coeffs, rhs = scaled
        cur = best.get(coeffs)
        if cur is None or rhs < cur.rhs:
            best[coeffs] = Ineq(coeffs, rhs, row.strict)
        elif rhs == cur.rhs and row.strict and not cur.strict:
            best[coeffs] = Ineq(coeffs, rhs, True)
    return list(best.values())


def ref_fm_eliminate(ineqs, n):
    cap = config.cap("MINKSIMPLEX_MAX_FM_ROWS")
    stages = [None] * n
    current = ineqs
    for j in range(n - 1, -1, -1):
        current = ref_normalize(current)
        if current is None:
            return None
        stages[j] = current
        lowers, uppers, rest = [], [], []
        for row in current:
            c = row.coeffs[j]
            if c > 0:
                uppers.append(row)
            elif c < 0:
                lowers.append(row)
            else:
                rest.append(Ineq(row.coeffs[:j], row.rhs, row.strict))
        combined = rest
        for lo in lowers:
            for up in uppers:
                cl, cu = -lo.coeffs[j], up.coeffs[j]
                coeffs = tuple(cu * a + cl * b for a, b in zip(lo.coeffs[:j], up.coeffs[:j]))
                combined.append(Ineq(coeffs, cu * lo.rhs + cl * up.rhs, lo.strict or up.strict))
        if len(combined) > cap:
            raise ResourceCapError("Fourier-Motzkin row cap")
        current = combined
    return None if ref_normalize(current) is None else stages


def ref_pick_in_interval(lo, lo_strict, hi, hi_strict):
    zero = Rat(0)
    if (lo is None or lo < zero or (lo == zero and not lo_strict)) and (
        hi is None or hi > zero or (hi == zero and not hi_strict)
    ):
        return zero
    if lo is not None and hi is not None:
        return lo if lo == hi else (lo + hi) / 2
    if lo is not None:
        return lo + 1 if lo_strict else lo
    return hi - 1 if hi_strict else hi


def ref_back_substitute(stages, n):
    values = [None] * n
    for j in range(n):
        lo = hi = None
        lo_strict = hi_strict = False
        for row in stages[j]:
            c = row.coeffs[j]
            if c == 0:
                continue
            partial = sum(row.coeffs[k] * values[k] for k in range(j) if row.coeffs[k] != 0)
            bound = (row.rhs - partial) / c
            if c > 0:
                if hi is None or bound < hi:
                    hi, hi_strict = bound, row.strict
                elif bound == hi and row.strict:
                    hi_strict = True
            else:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, row.strict
                elif bound == lo and row.strict:
                    lo_strict = True
        values[j] = ref_pick_in_interval(lo, lo_strict, hi, hi_strict)
    return values


def ref_solve_ineqs(ineqs, n):
    if n == 0:
        return None if ref_normalize(ineqs) is None else []
    stages = ref_fm_eliminate(ineqs, n)
    return None if stages is None else ref_back_substitute(stages, n)


def ref_parametrize(problem):
    """x = base + sum_j t_j basis_j from solve_linear's rational basis,
    and every inequality rewritten over t."""
    n = problem.n_vars
    if problem.equalities:
        sol = solve_linear([list(c) for c, _ in problem.equalities],
                           [b for _, b in problem.equalities])
        if sol.status == "infeasible":
            return None
    else:
        sol = LinearSolution("affine", tuple([Rat(0)] * n), tuple(
            tuple(Rat(int(k == i)) for k in range(n)) for i in range(n)))
    if sol.status == "unique":
        return sol, []
    reduced = []
    for row in problem.inequalities:
        shift = sum(c * x for c, x in zip(row.coeffs, sol.point))
        coeffs = tuple(sum(c * bvec[idx] for idx, c in enumerate(row.coeffs) if c != 0)
                       for bvec in sol.basis)
        reduced.append(Ineq(coeffs, row.rhs - shift, row.strict))
    return sol, reduced


def ref_feasible(problem, with_dim=True):
    param = ref_parametrize(problem)
    if param is None:
        return FeasibilityResult(False)
    sol, reduced = param
    if sol.status == "unique":
        point = sol.point
        if not ref_holds_at(problem, point):
            return FeasibilityResult(False)
        tight = None
        if with_dim:
            tight = tuple(
                idx for idx, row in enumerate(problem.inequalities)
                if not row.strict and sum(c * x for c, x in zip(row.coeffs, point)) == row.rhs
            )
        return FeasibilityResult(True, point, 0, tight)
    base, basis = sol.point, sol.basis
    k = len(basis)
    t = ref_solve_ineqs(reduced, k)
    if t is None:
        return FeasibilityResult(False)
    witness = tuple(b + sum(bvec[i] * tv for bvec, tv in zip(basis, t))
                    for i, b in enumerate(base))
    assert ref_holds_at(problem, witness)
    if not with_dim:
        return FeasibilityResult(True, witness, None)
    implicit = []
    canon = ref_normalize(list(reduced))
    for idx, row in enumerate(canon):
        if row.strict:
            continue
        probe = [r if i != idx else Ineq(r.coeffs, r.rhs, True) for i, r in enumerate(canon)]
        if ref_solve_ineqs(probe, k) is None:
            implicit.append(row)
    dim = k - (rank([list(row.coeffs) for row in implicit]) if implicit else 0)
    tight = {(row.coeffs, row.rhs) for row in implicit}
    rows = []
    for idx, row in enumerate(reduced):
        if row.strict:
            continue
        scaled = ref_scaled(row)
        if (row.rhs == 0) if scaled is None else (scaled in tight):
            rows.append(idx)
    return FeasibilityResult(True, witness, dim, tuple(rows))


def ref_lp_max(problem, objective):
    n = problem.n_vars
    aug = FeasibilityProblem(n + 1)
    for coeffs, rhs in problem.equalities:
        aug.add_eq((*coeffs, 0), rhs)
    for row in problem.inequalities:
        aug.add_le((*row.coeffs, 0), row.rhs, row.strict)
    aug.add_eq((*(-c for c in objective), 1), 0)
    if not ref_feasible(aug, with_dim=False).feasible:
        raise ValueError("lp_max on infeasible problem")
    sol, reduced = ref_parametrize(aug)
    if sol.status == "unique":
        return sol.point[n], sol.point[:n], True
    base, basis = sol.point, sol.basis
    k = len(basis)
    zcoeffs = tuple(bvec[n] for bvec in basis)
    # z first: FM eliminates the last variable first
    rows = [Ineq((Rat(0), *row.coeffs), row.rhs, row.strict) for row in reduced]
    rows.append(Ineq((Rat(1), *(-c for c in zcoeffs)), base[n], False))
    rows.append(Ineq((Rat(-1), *zcoeffs), -base[n], False))
    stages = ref_fm_eliminate(rows, k + 1)
    hi = None
    for row in stages[0]:
        c = row.coeffs[0]
        if c > 0 and (hi is None or row.rhs / c < hi):
            hi = row.rhs / c
    if hi is None:
        return None, None, False
    target = FeasibilityProblem(n, list(problem.equalities), list(problem.inequalities))
    target.add_eq(tuple(objective), hi)
    res = ref_feasible(target, with_dim=False)
    return (hi, res.witness, True) if res.feasible else (hi, None, False)


def mixed_problem(rng):
    """Equalities, strict rows and rows with mixed denominators over 1-4
    unknowns, some rows pinned against their negation (lower-dimensional
    sets) or repeated at a positive scale (duplicates)."""
    n = rng.randint(1, 4)

    def entry():
        return Rat(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    p = FeasibilityProblem(n)
    for _ in range(rng.randint(0, n)):
        p.add_eq([entry() for _ in range(n)], entry() * 2)
    for _ in range(rng.randint(0, 7 - n)):
        coeffs = [entry() for _ in range(n)]
        rhs = Rat(rng.randint(-6, 6), rng.choice((1, 2, 5)))
        strict = rng.random() < 0.3
        p.add_le(coeffs, rhs, strict)
        roll = rng.random()
        if roll < 0.2 and not strict:
            p.add_le([-c for c in coeffs], -rhs)
        elif roll < 0.3:
            scale = Rat(rng.randint(1, 4), rng.randint(1, 3))
            p.add_le([scale * c for c in coeffs], scale * rhs + rng.choice((0, 1)), strict)
    return p


def same_result(res, ref) -> bool:
    return (
        res == ref
        and (res.witness is None or all(type(x) is Fraction for x in res.witness))
    )


def test_integer_core_equals_fraction_reference():
    rng = random.Random("fm-integer-core")
    seen = {"empty": 0, "feasible": 0, "lower": 0, "unbounded": 0, "bounded": 0, "shifted": 0}
    for _ in range(600):
        p = mixed_problem(rng)
        for with_dim in (True, False):
            res, ref = feasible(p, with_dim), ref_feasible(p, with_dim)
            assert same_result(res, ref), (p, res, ref)
        if not ref.feasible:
            seen["empty"] += 1
            with pytest.raises(ValueError):
                lp_max(p, [Rat(1)] * p.n_vars)
            continue
        seen["feasible"] += 1
        res = feasible(p)
        seen["lower"] += res.affine_dim < p.n_vars - len(p.equalities)
        # a witness off every bound of its parameter interval
        seen["shifted"] += res.affine_dim > 0 and any(x.denominator > 1 for x in res.witness)
        objective = [Rat(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(p.n_vars)]
        value, witness, attained = lp_max(p, objective)
        assert (value, witness, attained) == ref_lp_max(p, objective), p
        assert value is None or type(value) is Fraction
        assert witness is None or all(type(x) is Fraction for x in witness)
        seen["unbounded" if value is None else "bounded"] += 1
    assert min(seen.values()) >= 20, seen
