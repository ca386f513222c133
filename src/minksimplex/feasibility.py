"""Exact linear feasibility with strict inequalities.

Rows are integers from entry: the FeasibilityProblem constructor,
add_eq and add_le scale each exact row by the lcm of its denominators
(an integer row is kept as it is), so the solver and holds_at read ints
only, while callers pass rational rows and points and get rational
witnesses.  The equality block is
solved fraction-free (linalg.integer_solve) as x = (point + sum_c t_c
basis_c) / P, with t_c = x_c on the free columns c, and every
inequality is rewritten over t and multiplied by |P|, so it stays
integer.  Fourier-Motzkin eliminates t: each combination of two rows
is divided by the gcd of its entries, and rows with one primitive
direction keep the tightest bound, compared by cross-multiplication.
Strict rows are thus decided exactly.  On feasible systems a rational
witness is produced by interval back-substitution and checked by
substitution.  A second back-substitution from the same stages picks
each value strictly inside its interval (or its single point); the
stages are exact projections, so that point is relatively interior
(Rockafellar 1970, Convex Analysis, Thm 6.8).  A valid row is tight on
the whole set iff it is tight there (ibid.; Schrijver 1986, Theory of
Linear and Integer Programming, 8.2): those non-strict rows are the
implicit equalities, and the affine dimension is the number of free
parameters minus their rank.

Problems here are tiny (circumcenter systems have d+2 unknowns at
most), which Fourier-Motzkin handles comfortably within the row cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

from . import config
from .errors import DimensionError, MixedModeError, VerificationError
from .linalg import bareiss, integer_rows, integer_solve
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
    n_vars rational unknowns, stored as integer rows."""

    n_vars: int
    equalities: list = field(default_factory=list)  # (coeffs, rhs)
    inequalities: list = field(default_factory=list)  # Ineq

    def __post_init__(self) -> None:
        self.equalities = [self._integer_row(coeffs, rhs) for coeffs, rhs in self.equalities]
        self.inequalities = [self._integer_ineq(row) for row in self.inequalities]

    def add_eq(self, coeffs, rhs) -> None:
        self.equalities.append(self._integer_row(coeffs, rhs))

    def add_le(self, coeffs, rhs, strict: bool = False) -> None:
        self.inequalities.append(Ineq(*self._integer_row(coeffs, rhs), strict))

    def _integer_ineq(self, row: Ineq) -> Ineq:
        coeffs, rhs = self._integer_row(row.coeffs, row.rhs)
        return row if coeffs is row.coeffs and rhs is row.rhs else Ineq(coeffs, rhs, row.strict)

    def _integer_row(self, coeffs, rhs) -> tuple:
        """(coeffs, rhs) times the lcm of their denominators, as ints;
        an integer row comes back unchanged."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n_vars:
            raise DimensionError(f"expected {self.n_vars} coefficients")
        if type(rhs) is int and all(type(c) is int for c in coeffs):
            return coeffs, rhs
        if not all(map(is_exact, (*coeffs, rhs))):
            raise MixedModeError("feasibility rows must be exact rationals")
        *ints, rhs = integer_rows([(*coeffs, rhs)])[0][0]
        return tuple(ints), rhs

    def holds_at(self, point: Sequence) -> bool:
        """Direct substitution check of every row, on integers: the
        point is scaled to a common denominator D and <coeffs, D x> is
        compared with D rhs."""
        if not all(map(is_exact, point)):
            raise MixedModeError("feasibility points must be exact rationals")
        (xs,), den = integer_rows([point])
        for coeffs, rhs in self.equalities:
            if sum(map(mul, coeffs, xs)) != rhs * den:
                return False
        for row in self.inequalities:
            lhs, rhs = sum(map(mul, row.coeffs, xs)), row.rhs * den
            if not (lhs < rhs if row.strict else lhs <= rhs):
                return False
        return True


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: Optional[tuple] = None
    affine_dim: Optional[int] = None
    # indices into problem.inequalities of the rows that hold with
    # equality on the whole feasible set (reported with the dimension):
    # the non-strict rows tight at one relative-interior point, which is
    # the same set (Rockafellar 1970, Thm 6.8; Schrijver 1986, 8.2)
    implicit_rows: Optional[tuple] = None


def _direction(coeffs: tuple) -> tuple:
    """The primitive integer direction of coeffs and the gcd divided
    out of it (0 for a zero row)."""
    g = math.gcd(*coeffs)
    return (tuple(c // g for c in coeffs) if g > 1 else coeffs), g


def _normalize(rows: list) -> Optional[list]:
    """Keep one row (coeffs, rhs, strict) per primitive direction, the
    one with the tightest bound rhs / g (strict on a tie), and drop the
    constant rows; None when a constant row is contradictory."""
    best = {}
    for row in rows:
        coeffs, rhs, strict = row
        key, g = _direction(coeffs)
        if not g:
            # constant row: 0 (<= | <) rhs
            if rhs < 0 or (strict and rhs == 0):
                return None  # infeasible marker
            continue
        cur = best.get(key)
        if cur is not None:
            (_, cur_rhs, cur_strict), cur_g = cur
            looser = rhs * cur_g - cur_rhs * g  # sign of rhs / g - cur_rhs / cur_g
            if looser > 0 or (looser == 0 and (cur_strict or not strict)):
                continue
        best[key] = row, g
    return [row for row, _ in best.values()]


def _fm_eliminate(rows: list, n: int):
    """Eliminate variables n-1 .. 0, returning the constraint stages.

    stages[j] holds the system in variables 0..j (variable j not yet
    eliminated).  Returns None when a contradictory constant row shows up.
    """
    config.cap("MINKSIMPLEX_MAX_FM_ROWS")  # a bad setting fails even a run with no stage
    stages = [None] * n
    current = rows
    for j in range(n - 1, -1, -1):
        current = _normalize(current)
        if current is None:
            return None
        stages[j] = current
        lowers, uppers, combined = [], [], []
        for coeffs, rhs, strict in current:
            c = coeffs[j]
            if c > 0:
                uppers.append((coeffs, rhs, strict))
            elif c < 0:
                lowers.append((coeffs, rhs, strict))
            else:
                combined.append((coeffs[:j], rhs, strict))
        for lo, lo_rhs, lo_strict in lowers:
            for up, up_rhs, up_strict in uppers:
                cl, cu = -lo[j], up[j]
                coeffs = [cu * a + cl * b for a, b in zip(lo[:j], up[:j])]
                rhs = cu * lo_rhs + cl * up_rhs
                g = math.gcd(*coeffs, rhs)
                if g > 1:
                    coeffs = [c // g for c in coeffs]
                    rhs //= g
                combined.append((tuple(coeffs), rhs, lo_strict or up_strict))
        config.check_cap("MINKSIMPLEX_MAX_FM_ROWS", len(combined), "Fourier-Motzkin rows")
        current = combined
    # constant rows remaining after all variables are gone
    return None if _normalize(current) is None else stages


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


def _pick_inside(lo, lo_strict, hi, hi_strict):
    """A rational in the relative interior of the interval: the midpoint
    (the single point when lo == hi), a bound moved inward by 1 when
    only one exists, 0 when none does.  Strictness does not matter."""
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    return Rat(0) if hi is None else hi - 1


def _back_substitute(stages, n: int, pick) -> list:
    """Rational values for variables 0 .. n-1, each picked by `pick`
    inside the interval its stage leaves given the values before it."""
    values = []
    for j in range(n):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, rhs, strict in stages[j]:
            c = coeffs[j]
            if c == 0:
                continue
            partial = sum(a * v for a, v in zip(coeffs, values) if a)
            bound = Rat(rhs - partial, c)
            if c > 0:
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi and strict:
                    hi_strict = True
            else:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo and strict:
                    lo_strict = True
        values.append(pick(lo, lo_strict, hi, hi_strict))
    return values


def _parametrize(problem: FeasibilityProblem):
    """Solve the equality block as x = (point + sum_c t_c basis_c) / P
    (integer_solve; with no equalities P = 1, point 0 and the identity
    basis) and rewrite every inequality over t, times |P|, as an integer
    row (coeffs, rhs, strict); the rows are constant when the solution
    is unique.  Returns (P, point, basis, reduced rows), or None when
    the equalities conflict."""
    sol = integer_solve([[*coeffs, rhs] for coeffs, rhs in problem.equalities], problem.n_vars)
    if sol is None:
        return None
    last, point, basis = sol
    sign = 1 if last > 0 else -1
    reduced = [
        (tuple(sign * sum(map(mul, row.coeffs, bvec)) for bvec in basis),
         sign * (last * row.rhs - sum(map(mul, row.coeffs, point))), row.strict)
        for row in problem.inequalities
    ]
    return last, point, basis, reduced


def feasible(problem: FeasibilityProblem, with_dim: bool = True) -> FeasibilityResult:
    """Decide the system, produce a witness, and (optionally) report the
    affine dimension of the feasible set and the inequalities that hold
    with equality on all of it."""
    param = _parametrize(problem)
    if param is None:
        return FeasibilityResult(False)
    last, point, basis, reduced = param
    k = len(basis)
    stages = _fm_eliminate(reduced, k)
    if stages is None:
        return FeasibilityResult(False)
    t = _back_substitute(stages, k, _pick_in_interval)
    witness = tuple(
        Rat(p + sum(bvec[i] * tv for bvec, tv in zip(basis, t)), last)
        for i, p in enumerate(point)
    )
    if not problem.holds_at(witness):
        raise VerificationError("feasibility witness failed the substitution check")
    if not with_dim:
        # a unique solution has its dimension for free
        return FeasibilityResult(True, witness, None if k else 0)

    # the implicit equalities are the non-strict rows tight at a
    # relative-interior point; strict rows are never tight on a
    # nonempty set, and a constant row is tight when it reads 0 <= 0
    (ts,), den = integer_rows([_back_substitute(stages, k, _pick_inside)])
    rows = [
        idx for idx, (coeffs, rhs, strict) in enumerate(reduced)
        if not strict and sum(map(mul, coeffs, ts)) == rhs * den
    ]
    dim = k - bareiss([reduced[idx][0] for idx in rows])[0]
    return FeasibilityResult(True, witness, dim, tuple(rows))


def lp_max(problem: FeasibilityProblem, objective: Sequence):
    """Exact sup of <objective, x> over the feasible set.

    Returns (value, witness, attained); value None means unbounded.
    Used as an independent oracle (e.g. Chebyshev-style incenter).
    z = <objective, x> enters as column 0 through two inequality rows,
    so it is the first free column of the parametrization and stage 0
    of the elimination bounds z alone.  Conflicting equalities or a
    contradiction in the elimination mean an empty set.
    """
    n = problem.n_vars
    aug = FeasibilityProblem(
        n + 1,
        [((0, *coeffs), rhs) for coeffs, rhs in problem.equalities],
        [Ineq((0, *row.coeffs), row.rhs, row.strict) for row in problem.inequalities]
        + [Ineq((1, *(-c for c in objective)), 0), Ineq((-1, *objective), 0)],
    )
    param = _parametrize(aug)
    stages = None if param is None else _fm_eliminate(param[3], len(param[2]))
    if stages is None:
        raise ValueError("lp_max on infeasible problem")
    bounds = [Rat(rhs, coeffs[0]) for coeffs, rhs, _ in stages[0] if coeffs[0] > 0]
    if not bounds:
        return None, None, False
    hi = min(bounds)
    # witness at the optimum (attained only for non-strict binding rows)
    target = FeasibilityProblem(n, list(problem.equalities), list(problem.inequalities))
    target.add_eq(tuple(objective), hi)
    res = feasible(target, with_dim=False)
    if res.feasible:
        return hi, res.witness, True
    return hi, None, False
