"""Exact linear feasibility with strict inequalities.

Equalities are eliminated by Gaussian parametrization, the remaining
inequalities by Fourier-Motzkin.  All arithmetic is rational, so
strict rows are decided exactly.  On feasible systems a witness is
produced by interval back-substitution and the affine dimension of the
feasible set is derived from its implicit equalities.

Problems here are tiny (circumcenter systems have d+2 unknowns at
most), which Fourier-Motzkin handles comfortably within the row cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .config import max_fm_rows
from .errors import DimensionError, MixedModeError, ResourceCapError, VerificationError
from .linalg import LinearSolution, rank, solve_linear
from .scalars import Rat, is_exact


@dataclass(frozen=True)
class Ineq:
    """Row <coeffs, x> (<= | <) rhs."""

    coeffs: tuple
    rhs: object
    strict: bool = False


@dataclass
class FeasibilityProblem:
    """Conjunction of equalities and (possibly strict) inequalities over
    n_vars rational unknowns."""

    n_vars: int
    equalities: list = field(default_factory=list)  # (coeffs, rhs)
    inequalities: list = field(default_factory=list)  # Ineq

    def add_eq(self, coeffs, rhs) -> None:
        self._check(coeffs, rhs)
        self.equalities.append((tuple(coeffs), rhs))

    def add_le(self, coeffs, rhs, strict: bool = False) -> None:
        self._check(coeffs, rhs)
        self.inequalities.append(Ineq(tuple(coeffs), rhs, strict))

    def _check(self, coeffs, rhs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n_vars:
            raise DimensionError(f"expected {self.n_vars} coefficients")
        for c in (*coeffs, rhs):
            if not is_exact(c):
                raise MixedModeError("feasibility rows must be exact rationals")

    def holds_at(self, point: Sequence) -> bool:
        """Direct substitution check of every row."""
        for coeffs, rhs in self.equalities:
            if sum(c * x for c, x in zip(coeffs, point)) != rhs:
                return False
        for row in self.inequalities:
            lhs = sum(c * x for c, x in zip(row.coeffs, point))
            if row.strict:
                if not lhs < row.rhs:
                    return False
            elif not lhs <= row.rhs:
                return False
        return True


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: Optional[tuple] = None
    affine_dim: Optional[int] = None
    # indices into problem.inequalities of the rows that hold with
    # equality on the whole feasible set (reported with the dimension)
    implicit_rows: Optional[tuple] = None


def _scaled(row: Ineq):
    """(coeffs, rhs) divided by |leading coefficient|; None for a
    constant row."""
    lead = next((c for c in row.coeffs if c != 0), None)
    if lead is None:
        return None
    scale = abs(lead)
    return tuple(c / scale for c in row.coeffs), row.rhs / scale


def _normalize(ineqs: list) -> list:
    """Scale rows to a canonical leading coefficient and drop dominated
    duplicates (same normal, looser bound)."""
    best = {}
    for row in ineqs:
        scaled = _scaled(row)
        if scaled is None:
            # constant row: 0 (<= | <) rhs
            if row.rhs < 0 or (row.strict and row.rhs == 0):
                return None  # infeasible marker
            continue
        coeffs, rhs = scaled
        cur = best.get(coeffs)
        if cur is None or rhs < cur.rhs:
            best[coeffs] = Ineq(coeffs, rhs, row.strict)
        elif rhs == cur.rhs and row.strict and not cur.strict:
            best[coeffs] = Ineq(coeffs, rhs, True)
    return list(best.values())


def _fm_eliminate(ineqs: list, n: int):
    """Eliminate variables n-1 .. 0, returning the constraint stages.

    stages[j] holds the system in variables 0..j (variable j not yet
    eliminated).  Returns None when a contradictory constant row shows up.
    """
    cap = max_fm_rows()
    stages = [None] * n
    current = ineqs
    for j in range(n - 1, -1, -1):
        current = _normalize(current)
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
                coeffs = tuple(
                    cu * a + cl * b for a, b in zip(lo.coeffs[:j], up.coeffs[:j])
                )
                rhs = cu * lo.rhs + cl * up.rhs
                combined.append(Ineq(coeffs, rhs, lo.strict or up.strict))
        if len(combined) > cap:
            raise ResourceCapError(
                f"Fourier-Motzkin exceeded {cap} rows while eliminating"
            )
        current = combined
    # constant rows remaining after all variables are gone
    final = _normalize(current)
    if final is None:
        return None
    return stages


def _pick_in_interval(lo, lo_strict, hi, hi_strict):
    """A rational inside the interval, preferring 0, then bounds."""
    zero = Rat(0)
    if (lo is None or lo < zero or (lo == zero and not lo_strict)) and (
        hi is None or hi > zero or (hi == zero and not hi_strict)
    ):
        return zero
    if lo is not None and hi is not None:
        if lo == hi:
            return lo  # only reachable when both non-strict
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1 if lo_strict else lo
    return hi - 1 if hi_strict else hi


def _back_substitute(stages, n: int) -> list:
    values = [None] * n
    for j in range(n):
        lo = hi = None
        lo_strict = hi_strict = False
        for row in stages[j]:
            c = row.coeffs[j]
            if c == 0:
                continue
            partial = sum(
                row.coeffs[k] * values[k] for k in range(j) if row.coeffs[k] != 0
            )
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
        values[j] = _pick_in_interval(lo, lo_strict, hi, hi_strict)
    return values


def _solve_ineqs(ineqs: list, n: int) -> Optional[list]:
    """Witness of an inequality-only rational system, or None."""
    if n == 0:
        checked = _normalize(ineqs)
        return None if checked is None else []
    stages = _fm_eliminate(ineqs, n)
    if stages is None:
        return None
    return _back_substitute(stages, n)


def _parametrize(problem: FeasibilityProblem):
    """Solve the equality block as x = base + sum_j t_j basis_j (with no
    equalities: base 0 and the identity basis) and rewrite every
    inequality over t.  Returns (solution, reduced rows), the rows empty
    when the solution is unique, or None when the equalities conflict."""
    n = problem.n_vars
    if problem.equalities:
        rows = [list(c) for c, _ in problem.equalities]
        rhs = [b for _, b in problem.equalities]
        sol = solve_linear(rows, rhs)
        if sol.status == "infeasible":
            return None
    else:
        sol = LinearSolution("affine", tuple([Rat(0)] * n), tuple(
            tuple(Rat(1) if k == i else Rat(0) for k in range(n)) for i in range(n)
        ))
    if sol.status == "unique":
        return sol, []
    reduced = []
    for row in problem.inequalities:
        shift = sum(c * x for c, x in zip(row.coeffs, sol.point))
        coeffs = tuple(
            sum(c * bvec[idx] for idx, c in enumerate(row.coeffs) if c != 0)
            for bvec in sol.basis
        )
        reduced.append(Ineq(coeffs, row.rhs - shift, row.strict))
    return sol, reduced


def feasible(problem: FeasibilityProblem, with_dim: bool = True) -> FeasibilityResult:
    """Decide the system, produce a witness, and (optionally) report the
    affine dimension of the feasible set and the inequalities that hold
    with equality on all of it."""
    param = _parametrize(problem)
    if param is None:
        return FeasibilityResult(False)
    sol, reduced = param
    if sol.status == "unique":
        point = sol.point
        if not problem.holds_at(point):
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
    t = _solve_ineqs(reduced, k)
    if t is None:
        return FeasibilityResult(False)
    witness = tuple(
        b + sum(bvec[i] * tv for bvec, tv in zip(basis, t))
        for i, b in enumerate(base)
    )
    if not problem.holds_at(witness):
        raise VerificationError("feasibility witness failed the substitution check")
    if not with_dim:
        return FeasibilityResult(True, witness, None)

    # affine dimension: k minus the rank of implicit equalities among
    # the reduced non-strict rows (strict rows are never tight on a
    # nonempty set).
    implicit = []
    canon = _normalize(list(reduced))
    for idx, row in enumerate(canon):
        if row.strict:
            continue
        probe = [
            r if i != idx else Ineq(r.coeffs, r.rhs, True) for i, r in enumerate(canon)
        ]
        if _solve_ineqs(probe, k) is None:
            implicit.append(row)
    dim = k - (rank([list(row.coeffs) for row in implicit]) if implicit else 0)
    # an input row is implicit when its scaled reduced form is an
    # implicit canonical row; a looser duplicate is slack everywhere, and
    # a constant row is tight exactly when it reads 0 <= 0
    tight = {(row.coeffs, row.rhs) for row in implicit}
    rows = []
    for idx, row in enumerate(reduced):
        if row.strict:
            continue
        scaled = _scaled(row)
        if (row.rhs == 0) if scaled is None else (scaled in tight):
            rows.append(idx)
    return FeasibilityResult(True, witness, dim, tuple(rows))


def lp_max(problem: FeasibilityProblem, objective: Sequence):
    """Exact sup of <objective, x> over the feasible set.

    Returns (value, witness, attained); value None means unbounded.
    Used as an independent oracle (e.g. Chebyshev-style incenter).
    """
    n = problem.n_vars
    aug = FeasibilityProblem(n + 1)
    for coeffs, rhs in problem.equalities:
        aug.add_eq((*coeffs, 0), rhs)
    for row in problem.inequalities:
        aug.add_le((*row.coeffs, 0), row.rhs, row.strict)
    # z = <objective, x>
    aug.add_eq((*(-c for c in objective), 1), 0)

    base_res = feasible(aug, with_dim=False)
    if not base_res.feasible:
        raise ValueError("lp_max on infeasible problem")

    # eliminate x variables, keep z last: reuse the machinery by moving z
    # to the front and eliminating everything after it.
    param = _parametrize(aug)
    if param is None:
        raise ValueError("unexpected infeasible equality block")
    sol, reduced = param
    if sol.status == "unique":
        z = sol.point[n]
        return z, sol.point[:n], True
    base, basis = sol.point, sol.basis
    k = len(basis)
    # z as a linear function of parameters t: z = base[n] + sum basis[j][n] t_j
    zcoeffs = tuple(bvec[n] for bvec in basis)

    # introduce t_0..t_{k-1}, z: constraints reduced on t, z - <zcoeffs,t> = base_n
    sys_rows = []
    for row in reduced:
        sys_rows.append(Ineq((*row.coeffs, Rat(0)), row.rhs, row.strict))
    # eliminate ts, keeping z: order variables (t..., z) and eliminate from
    # the left by reordering: FM eliminates the last variable first, so put
    # z FIRST and ts after.
    flipped = [Ineq((row.coeffs[k], *row.coeffs[:k]), row.rhs, row.strict) for row in sys_rows]
    eq_z = [
        Ineq((Rat(1), *(-c for c in zcoeffs)), base[n], False),
        Ineq((Rat(-1), *(c for c in zcoeffs)), -base[n], False),
    ]
    all_rows = flipped + eq_z
    stages = _fm_eliminate(all_rows, k + 1)
    if stages is None:
        raise ValueError("lp_max: infeasible after augmentation")
    z_rows = stages[0]  # constraints on z alone
    hi = None
    hi_strict = False
    for row in z_rows:
        c = row.coeffs[0]
        if c > 0:
            bound = row.rhs / c
            if hi is None or bound < hi:
                hi, hi_strict = bound, row.strict
            elif bound == hi and row.strict:
                hi_strict = True
    if hi is None:
        return None, None, False
    # witness at the optimum (attained only for non-strict binding rows)
    target = FeasibilityProblem(n)
    for coeffs, rhs_v in problem.equalities:
        target.add_eq(coeffs, rhs_v)
    for row in problem.inequalities:
        target.add_le(row.coeffs, row.rhs, row.strict)
    target.add_eq(tuple(objective), hi)
    res = feasible(target, with_dim=False)
    if res.feasible:
        return hi, res.witness, True
    return hi, None, False
