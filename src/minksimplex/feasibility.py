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
Strict rows are thus decided exactly.  On feasible systems a witness
comes from interval back-substitution on int pairs: values so far are
numerators T over one denominator Q, bounds (rhs Q - <coeffs, T>, c Q)
compare by cross-multiplication.  The witness is checked by
substitution on those ints and gets one Rat per coordinate at the
end.  A second back-substitution picks each value strictly inside its
interval (or its single point); the stages are exact projections, so
that point is relatively interior (Rockafellar 1970, Convex Analysis,
Thm 6.8).  A valid row is tight on the whole set iff it is tight
there (ibid.; Schrijver 1986, Theory of Linear and Integer Programming,
8.2): those non-strict rows are the implicit equalities, and the affine
dimension is the number of free parameters minus their rank.

Problems here are tiny (circumcenter systems have d+2 unknowns at
most), which Fourier-Motzkin handles comfortably within the row cap.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Optional, Sequence

from . import config
from .errors import DimensionError, FrozenRecord, MixedModeError, VerificationError
from .linalg import bareiss, integer_rows, integer_solve
from .scalars import Rat, is_exact


class Ineq(FrozenRecord):
    """Row <coeffs, x> (<= | <) rhs."""

    def __init__(self, coeffs: tuple, rhs, strict: bool = False):
        self.__dict__.update(coeffs=coeffs, rhs=rhs, strict=strict)


class FeasibilityProblem:
    """Conjunction of equalities and (possibly strict) inequalities over
    n_vars rational unknowns, stored as integer rows: equalities as
    (coeffs, rhs) pairs, inequalities as Ineqs."""

    __slots__ = ("n_vars", "equalities", "inequalities")

    def __init__(self, n_vars: int, equalities: Optional[list] = None, inequalities: Optional[list] = None):
        self.n_vars = n_vars
        self.equalities = [self._integer_row(coeffs, rhs) for coeffs, rhs in equalities or ()]
        self.inequalities = [self._integer_ineq(row) for row in inequalities or ()]

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (self.n_vars, self.equalities, self.inequalities) == (
            other.n_vars, other.equalities, other.inequalities)

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
        """holds_at_ints at a rational point, scaled to ints over one denominator."""
        if not all(map(is_exact, point)):
            raise MixedModeError("feasibility points must be exact rationals")
        (xs,), den = integer_rows([point])
        return self.holds_at_ints(xs, den)

    def holds_at_ints(self, xs: Sequence, den: int) -> bool:
        """Direct substitution check of every row at the point xs / den,
        for ints xs and den > 0: <coeffs, xs> is compared with rhs den."""
        for coeffs, rhs in self.equalities:
            if sum(map(mul, coeffs, xs)) != rhs * den:
                return False
        for row in self.inequalities:
            lhs, rhs = sum(map(mul, row.coeffs, xs)), row.rhs * den
            if not (lhs < rhs if row.strict else lhs <= rhs):
                return False
        return True


class FeasibilityResult:
    __slots__ = ("feasible", "witness", "affine_dim", "implicit_rows")

    def __init__(self, feasible: bool, witness: Optional[tuple] = None, affine_dim: Optional[int] = None,
                 implicit_rows: Optional[tuple] = None):
        # implicit_rows: indices into problem.inequalities of the rows that
        # hold with equality on the whole feasible set (reported with the
        # dimension): the non-strict rows tight at one relative-interior
        # point, which is the same set (Rockafellar 1970, Thm 6.8;
        # Schrijver 1986, 8.2)
        self.feasible, self.witness = feasible, witness
        self.affine_dim, self.implicit_rows = affine_dim, implicit_rows

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            self.feasible, self.witness, self.affine_dim, self.implicit_rows) == (
            other.feasible, other.witness, other.affine_dim, other.implicit_rows)


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


def _pick(lo, lo_strict, hi, hi_strict, zero_first: bool) -> tuple:
    """A rational in the interval, as a pair (p, q), q > 0, like its
    bounds: 0 if zero_first and 0 lies in it, else the midpoint of two
    bounds, else one bound moved inward by 1 if strict, else 0."""
    if zero_first and (lo is None or lo[0] < 0 or (lo[0] == 0 and not lo_strict)) and (
        hi is None or hi[0] > 0 or (hi[0] == 0 and not hi_strict)
    ):
        return 0, 1
    if lo is not None and hi is not None:
        return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    if lo is not None:
        return (lo[0] + lo[1], lo[1]) if lo_strict else lo
    if hi is not None:
        return (hi[0] - hi[1], hi[1]) if hi_strict else hi
    return 0, 1


def _back_substitute(stages, n: int, inside: bool) -> tuple:
    """Values for variables 0 .. n-1 as ints T over one denominator
    Q > 0, each picked by _pick in the interval its stage leaves given
    the values before it; with `inside` every bound counts as strict and
    0 comes last.  A bound is (rhs Q - <coeffs, T>, c Q), signed so the
    second entry is positive; bounds compare by cross-multiplication."""
    T, Q = [], 1
    for j in range(n):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, rhs, strict in stages[j]:
            c = coeffs[j]
            if c == 0:
                continue
            p, q = rhs * Q - sum(map(mul, coeffs, T)), c * Q
            if c > 0:
                if hi is None or p * hi[1] < hi[0] * q:
                    hi, hi_strict = (p, q), strict or inside
                elif strict and p * hi[1] == hi[0] * q:
                    hi_strict = True
            else:
                p, q = -p, -q
                if lo is None or p * lo[1] > lo[0] * q:
                    lo, lo_strict = (p, q), strict or inside
                elif strict and p * lo[1] == lo[0] * q:
                    lo_strict = True
        p, q = _pick(lo, lo_strict, hi, hi_strict, not inside)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        g = math.gcd(Q, q)  # Q becomes lcm(Q, q)
        T = [t * (q // g) for t in T] + [p * (Q // g)]
        Q *= q // g
    return T, Q


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
    # x = (Q point + sum_c T_c basis_c) / (P Q)
    T, Q = _back_substitute(stages, k, False)
    X = [Q * p for p in point]
    for bvec, t in zip(basis, T):
        if t:
            X = [x + t * b for x, b in zip(X, bvec)]
    den = last * Q
    if den < 0:
        X, den = [-x for x in X], -den
    if not problem.holds_at_ints(X, den):
        raise VerificationError("feasibility witness failed the substitution check")
    witness = tuple(Rat(x, den) for x in X)
    if not with_dim:
        # a unique solution has its dimension for free
        return FeasibilityResult(True, witness, None if k else 0)

    # the implicit equalities are the non-strict rows tight at a
    # relative-interior point; strict rows are never tight on a
    # nonempty set, and a constant row is tight when it reads 0 <= 0
    ts, den = _back_substitute(stages, k, True)
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
