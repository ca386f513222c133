"""Back substitution on int pairs against the Fraction one it replaced.

The oracle below is the earlier back substitution: each bound a
Fraction, the values Fractions, the witness one Fraction sum per
coordinate and the relative-interior point scaled back to integers.  It
runs on the same parametrization and Fourier-Motzkin stages as
`feasible`, so the two must return `==` results: the same witness, the
same dimension and the same implicit rows.  Each branch of the interval
picks is counted, so the seeded systems are known to reach every one,
and both lists of picked values must be the same rationals.
"""

import random
from collections import Counter
from operator import mul

from minksimplex import feasibility
from minksimplex.feasibility import FeasibilityProblem, FeasibilityResult, Ineq, feasible
from minksimplex.linalg import bareiss, integer_rows
from minksimplex.scalars import Rat


def fraction_pick_in_interval(lo, lo_strict, hi, hi_strict, seen):
    zero = Rat(0)
    if (lo is None or lo < zero or (lo == zero and not lo_strict)) and (
        hi is None or hi > zero or (hi == zero and not hi_strict)
    ):
        seen["zero"] += 1
        return zero
    if lo is not None and hi is not None:
        if lo == hi:
            seen["lo == hi"] += 1
            return lo
        seen["midpoint"] += 1
        return (lo + hi) / 2
    if lo is not None:
        seen["lower strict" if lo_strict else "lower"] += 1
        return lo + 1 if lo_strict else lo
    seen["upper strict" if hi_strict else "upper"] += 1
    return hi - 1 if hi_strict else hi


def fraction_pick_inside(lo, lo_strict, hi, hi_strict, seen):
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    return Rat(0) if hi is None else hi - 1


def fraction_back_substitute(stages, n, pick, seen):
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
                    seen["strict tie"] += not hi_strict
                    hi_strict = True
            else:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo and strict:
                    seen["strict tie"] += not lo_strict
                    lo_strict = True
        values.append(pick(lo, lo_strict, hi, hi_strict, seen))
    return values


def fraction_feasible(problem, seen):
    """feasible(problem, with_dim=True) with the Fraction back substitution,
    and the stages with the two lists of values it picked."""
    param = feasibility._parametrize(problem)
    if param is None:
        seen["infeasible"] += 1
        return FeasibilityResult(False), None
    last, point, basis, reduced = param
    k = len(basis)
    seen["negative P"] += last < 0
    seen["k = 0"] += k == 0
    stages = feasibility._fm_eliminate(reduced, k)
    if stages is None:
        seen["infeasible"] += 1
        return FeasibilityResult(False), None
    t = fraction_back_substitute(stages, k, fraction_pick_in_interval, seen)
    witness = tuple(
        Rat(p + sum(bvec[i] * tv for bvec, tv in zip(basis, t)), last)
        for i, p in enumerate(point)
    )
    assert problem.holds_at(witness)
    inside = fraction_back_substitute(stages, k, fraction_pick_inside, Counter())
    (ts,), den = integer_rows([inside])
    rows = [
        idx for idx, (coeffs, rhs, strict) in enumerate(reduced)
        if not strict and sum(map(mul, coeffs, ts)) == rhs * den
    ]
    dim = k - bareiss([reduced[idx][0] for idx in rows])[0]
    return FeasibilityResult(True, witness, dim, tuple(rows)), (stages, t, inside)


def integer_system(rng):
    """A small integer system: a few equalities, rows with small
    coefficients (ties between bounds are common), some strict."""
    n = rng.randint(1, 4)
    p = FeasibilityProblem(n)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        p.add_eq([rng.randint(-3, 3) for _ in range(n)], rng.randint(-4, 4))
    for _ in range(rng.randint(0, 6)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        p.add_le(coeffs, rng.randint(-3, 3), strict=rng.random() < 0.3)
    return p


def test_integer_back_substitution_equals_the_fraction_one():
    rng = random.Random("int-pair-back-substitution")
    seen = Counter()
    for _ in range(3000):
        p = integer_system(rng)
        want, picked = fraction_feasible(p, seen)
        assert feasible(p, with_dim=True) == want, p
        if picked is not None:
            # the same rationals, each as an int over the one denominator
            stages, *values = picked
            for inside, rats in zip((False, True), values):
                T, Q = feasibility._back_substitute(stages, len(rats), inside)
                assert [Rat(x, Q) for x in T] == rats, p
        seen["feasible"] += want.feasible
    cases = ("zero", "lo == hi", "midpoint", "lower", "lower strict", "upper", "upper strict",
             "strict tie", "negative P", "k = 0", "infeasible", "feasible")
    assert all(seen[case] >= 5 for case in cases), seen


def test_back_substitution_keeps_one_denominator():
    # x0 in [1/3, 1/2], x1 in (x0, 1): the values 5/12 and 17/24 share
    # the denominator 24 and the witness is built from those ints
    p = FeasibilityProblem(2, [], [
        Ineq((-3, 0), -1), Ineq((2, 0), 1), Ineq((1, -1), 0, True), Ineq((0, 1), 1, True),
    ])
    stages = feasibility._fm_eliminate(feasibility._parametrize(p)[3], 2)
    assert feasibility._back_substitute(stages, 2, False) == ([10, 17], 24)
    assert feasible(p).witness == (Rat(5, 12), Rat(17, 24))
