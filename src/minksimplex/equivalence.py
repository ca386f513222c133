"""Machine checks for families of equivalent center conditions.

Each verify function evaluates every condition of one equivalence
family independently and reports the verdict vector.  The families are
theorems, so on sound input the verdicts must agree (all true or all
false); a mixed vector is evidence of an implementation bug, never of
the geometry, and the report says which conditions disagreed.

Campaign ids, the keys of FAMILIES, are `config.FAMILIES`: opaque
labels fixed by the command-line contract.

Exact polytopal instances give exact verdicts; smooth-ball instances
give reports labeled "numeric".  Exact verdicts compare int pairs
(p, q) for p / q.  Float verdicts decide equality in one place,
_all_equal, at a relative 1e-7.  The values it compares are lengths
(heights, gauges, exradii) or ratios of values of affine functions
(barycentric coordinates, a quasi-medial hyperplane against a
bisector), so no verdict depends on where the simplex sits or on its
size.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from .centers import exspheres, facet_bisector, incenter
from .config import EPS_EQUIV, FAMILIES as FAMILY_IDS
from .construct import equilateral_triangle, quasiregular_simplex
from .errors import DegenerateInputError, FrozenRecord
from .linalg import ExactVec, Vec, ratio
from .norms import UnitBall, is_radon, isoperimetrix
from .scalars import EXACT, Rat
from .simplex import Simplex

NUMERIC_MODE = "numeric"


class EquivalenceReport(FrozenRecord):
    def __init__(self, family: str, conditions: tuple, verdicts: tuple, mode: str, fingerprint: dict,
                 witnesses: Optional[dict] = None):
        self.__dict__.update(family=family, conditions=conditions, verdicts=verdicts, mode=mode,
                             fingerprint=fingerprint, witnesses={} if witnesses is None else witnesses)

    @property
    def agreement(self) -> bool:
        return len(set(self.verdicts)) <= 1

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "conditions": list(self.conditions),
            "verdicts": list(self.verdicts),
            "agreement": self.agreement,
            "mode": self.mode,
            "fingerprint": self.fingerprint,
            "witnesses": self.witnesses,
        }


def _scalar_str(x) -> str:
    """A float's repr, or an exact value or int pair as Rat prints it."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, tuple):
        g = math.gcd(*x)
        return str(x[0] // g) if x[1] == g else f"{x[0] // g}/{x[1] // g}"
    return str(x)


def _printed(x):
    """A fingerprint or a condition's raw payload as a report prints it:
    lists and dicts entry by entry, a Vec as its coordinates' strings,
    ints and strings as they are, other scalars and int pairs by
    _scalar_str.  Payloads are printed only for a report whose verdicts
    disagree."""
    if isinstance(x, dict):
        return {k: _printed(v) for k, v in x.items()}
    if isinstance(x, list):
        return list(map(_printed, x))
    if isinstance(x, Vec):
        return [_scalar_str((c, x.D)) for c in x.X] if x.mode == EXACT else list(map(_scalar_str, x.coords))
    return x if isinstance(x, (int, str)) else _scalar_str(x)


def fingerprint(simplex: Simplex, ball: UnitBall, seed=None) -> dict:
    if ball.mode == EXACT:
        ball_part = {"kind": ball.kind, "vertices": _printed(list(ball.vertices))}
    else:
        ball_part = {"kind": ball.kind, "p": ball.p}
    return {
        "dimension": simplex.dim,
        "simplex": _printed(list(simplex.vertices)),
        "ball": ball_part,
        "seed": seed,
    }


def _all_equal(values, mode: str) -> bool:
    """Exact values are int pairs (p, q), q > 0, for p / q."""
    vals = list(values)
    if mode == EXACT:
        p0, q0 = vals[0]
        return all(p * q0 == p0 * q for p, q in vals[1:])
    fs = [float(v) for v in vals]
    return max(fs) - min(fs) <= EPS_EQUIV * max(abs(f) for f in fs)


def _gauges(ball: UnitBall, vectors) -> list:
    """The gauges of the vectors, as int pairs in the exact lane."""
    if ball.mode == EXACT:
        return [ball.gauge_ratio(v) for v in vectors]
    return [ball.gauge(v) for v in vectors]


def _float_rise(n: Vec, u: Vec, w: Vec) -> float:
    """<n, u - w> for float points u, w and an exact or a float normal n:
    an affine function's change from w to u, which its offset's
    rounding at the simplex's position does not enter."""
    return n.to_float().dot(u - w)


def _same_row(u: tuple, w: tuple) -> bool:
    """Whether int rows (A, b, q) of hyperplanes <A, x> = b give one set:
    (A, b) and (A', b') are parallel."""
    a, c = (*u[0], u[1]), (*w[0], w[1])
    k = next(i for i, x in enumerate(a) if x)
    return all(a[k] * y == c[k] * x for x, y in zip(a, c))


# -- individual conditions -------------------------------------------


def equal_heights(simplex: Simplex, ball: UnitBall):
    hs = simplex.height_ratios(ball) if ball.mode == EXACT else simplex.heights(ball)
    return _all_equal(hs, ball.mode), hs


def equal_medians(simplex: Simplex, ball: UnitBall):
    ms = _gauges(ball, [simplex.median_vector(i) for i in range(simplex.dim + 1)])
    return _all_equal(ms, ball.mode), ms


def equal_side_gauges(simplex: Simplex, ball: UnitBall):
    ss = _gauges(ball, simplex.edge_vectors())
    return _all_equal(ss, ball.mode), ss


def centroid_is_incenter(simplex: Simplex, ball: UnitBall):
    """The centroid is the one point whose barycentric coordinates are
    all equal, so in floats the incenter's lambda_i(x) = h_i(x) /
    h_i(A_i) are compared at a relative 1e-7."""
    inc = incenter(simplex, ball)
    if ball.mode == EXACT:
        ok = inc.center == simplex.centroid
    else:
        x, vs = inc.center.to_float(), [v.to_float() for v in simplex.vertices]
        # h_i vanishes at A_(i-1), a vertex of facet i
        lams = [_float_rise(h.normal, x, vs[i - 1]) / _float_rise(h.normal, vs[i], vs[i - 1])
                for i, h in enumerate(simplex.facet_hyperplanes)]
        ok = _all_equal(lams, ball.mode)
    return ok, {"incenter": inc.center, "centroid": simplex.centroid}


def equal_exradii(simplex: Simplex, ball: UnitBall):
    exs = exspheres(simplex, ball)
    radii = []
    for i in range(simplex.dim + 1):
        e = exs[i]
        if e is None:
            return False, {"missing_pattern": i}
        radii.append(ratio(e.radius) if ball.mode == EXACT else e.radius)
    return _all_equal(radii, ball.mode), radii


def quasi_medial_hyperplanes_are_bisectors(simplex: Simplex, ball: UnitBall):
    """Set coincidence of the quasi-medial hyperplanes with the interior
    facet bisectors.  Both families contain the shared ridge of their
    facet pair, which pins the matching pairwise.  So in floats the
    quasi-medial Q and the bisector B of edge {i, j} are one set when
    Q(A_k) / B(A_k), k = i, j, agree at a relative 1e-7."""
    mismatches = []
    vs = None if ball.mode == EXACT else [v.to_float() for v in simplex.vertices]
    for i, j in simplex.edges():
        if vs is None:
            same = _same_row(simplex.bisector_row(ball, i, j), simplex.quasi_medial_row(i, j))
        else:
            r = min({0, 1, 2} - {i, j})  # A_r is on the ridge, where Q and B vanish
            q, b = simplex.quasi_medial_hyperplane(i, j).normal, facet_bisector(simplex, ball, i, j).normal
            ratios = [_float_rise(q, vs[k], vs[r]) / _float_rise(b, vs[k], vs[r]) for k in (i, j)]
            same = _all_equal(ratios, ball.mode)
        if not same:
            mismatches.append([i, j])
    return not mismatches, {"mismatched_pairs": mismatches}


def is_reduced_triangle(simplex: Simplex, ball: UnitBall):
    """Planar reducedness, decided by the equal-heights characterization
    and audited by a necessary condition: pulling any vertex toward the
    opposite side must strictly shrink the minimal width.  The audit
    cannot prove reducedness; it guards against inverted logic."""
    if simplex.dim != 2:
        raise DegenerateInputError("reducedness check is planar")
    eq, hs = equal_heights(simplex, ball)
    if not eq:
        return False, {"heights": hs}
    w0 = simplex.min_width(ball)
    for delta in (Rat(1, 8), Rat(1, 16)):
        for i in range(3):
            shrunk = simplex.shrink_vertex(i, delta if simplex.mode == EXACT else float(delta))
            w1 = shrunk.min_width(ball)
            if not w1 < w0:
                failure = {"vertex": i, "delta": delta, "width_before": w0, "width_after": w1}
                return False, {"audit_failure": failure}
    return True, {"heights": hs, "min_width": w0}


def quasiregular(simplex: Simplex, ball: UnitBall):
    gs = _gauges(ball, simplex.centroid_offsets())
    return _all_equal(gs, ball.mode), gs


# -- report assembly -------------------------------------------------


def _report(family, named_conditions, simplex, ball, seed) -> EquivalenceReport:
    results = [(label, *fn()) for label, fn in named_conditions]
    labels, verdicts, _ = zip(*results)
    return EquivalenceReport(
        family=family,
        conditions=labels,
        verdicts=verdicts,
        mode=EXACT if ball.mode == EXACT else NUMERIC_MODE,
        fingerprint=fingerprint(simplex, ball, seed),
        witnesses={k: _printed(p) for k, _, p in results} if len(set(verdicts)) > 1 else {},
    )


def verify_equal_heights_family(simplex: Simplex, ball: UnitBall, seed=None) -> EquivalenceReport:
    """Six conditions equivalent to the heights of the simplex being
    equal; three live on the simplex itself, three on its centroid-dual
    in the dual norm."""
    dual_T = simplex.dual_simplex()
    dual_B = ball.dual()
    conds = [
        ("equal-heights", lambda: equal_heights(simplex, ball)),
        ("quasi-medial-are-bisectors", lambda: quasi_medial_hyperplanes_are_bisectors(simplex, ball)),
        ("centroid-is-incenter", lambda: centroid_is_incenter(simplex, ball)),
        ("equal-exradii", lambda: equal_exradii(simplex, ball)),
        ("dual-equal-medians", lambda: equal_medians(dual_T, dual_B)),
        ("dual-quasiregular", lambda: quasiregular(dual_T, dual_B)),
    ]
    return _report("41", conds, simplex, ball, seed)


def verify_quasiregular_family(simplex: Simplex, ball: UnitBall, seed=None) -> EquivalenceReport:
    """Six conditions equivalent to the centroid being a circumcenter;
    the mirror family of verify_equal_heights_family under duality."""
    dual_T = simplex.dual_simplex()
    dual_B = ball.dual()
    conds = [
        ("quasiregular", lambda: quasiregular(simplex, ball)),
        ("equal-medians", lambda: equal_medians(simplex, ball)),
        ("dual-equal-heights", lambda: equal_heights(dual_T, dual_B)),
        ("dual-quasi-medial-are-bisectors", lambda: quasi_medial_hyperplanes_are_bisectors(dual_T, dual_B)),
        ("dual-centroid-is-incenter", lambda: centroid_is_incenter(dual_T, dual_B)),
        ("dual-equal-exradii", lambda: equal_exradii(dual_T, dual_B)),
    ]
    return _report("43", conds, simplex, ball, seed)


DUALITY_PERMUTATION = (5, 4, 0, 1, 2, 3)


def duality_bridge_holds(simplex: Simplex, ball: UnitBall) -> bool:
    """The quasiregular family evaluated on the centroid-dual pair must
    reproduce the equal-heights family verdicts, reindexed; exact
    because the double dual is the centered simplex itself."""
    primal = verify_equal_heights_family(simplex, ball)
    mirrored = verify_quasiregular_family(simplex.dual_simplex(), ball.dual())
    return all(
        mirrored.verdicts[k] == primal.verdicts[DUALITY_PERMUTATION[k]]
        for k in range(6)
    )


def verify_reduced_family(simplex: Simplex, ball: UnitBall, seed=None) -> EquivalenceReport:
    """Planar: reduced <=> equal heights <=> equilateral in the
    isoperimetrix norm."""
    if simplex.dim != 2:
        raise DegenerateInputError("this family is planar")
    iso = isoperimetrix(ball)
    conds = [
        ("reduced", lambda: is_reduced_triangle(simplex, ball)),
        ("equal-heights", lambda: equal_heights(simplex, ball)),
        ("equilateral-in-isoperimetrix", lambda: equal_side_gauges(simplex, iso)),
    ]
    return _report("42", conds, simplex, ball, seed)


def verify_median_triangle_families(simplex: Simplex, ball: UnitBall, seed=None):
    """Planar pair of families relating a triangle and its median
    triangle, with reducedness read in the isoperimetrix norm."""
    if simplex.dim != 2:
        raise DegenerateInputError("this family is planar")
    tm = simplex.median_triangle()
    iso = isoperimetrix(ball)
    first = [
        ("quasiregular", lambda: quasiregular(simplex, ball)),
        ("median-triangle-equilateral", lambda: equal_side_gauges(tm, ball)),
        ("median-triangle-reduced-in-isoperimetrix", lambda: is_reduced_triangle(tm, iso)),
        ("median-triangle-equal-heights-in-isoperimetrix", lambda: equal_heights(tm, iso)),
    ]
    second = [
        ("equilateral", lambda: equal_side_gauges(simplex, ball)),
        ("median-triangle-quasiregular", lambda: quasiregular(tm, ball)),
        ("reduced-in-isoperimetrix", lambda: is_reduced_triangle(simplex, iso)),
        ("equal-heights-in-isoperimetrix", lambda: equal_heights(simplex, iso)),
    ]
    return (
        _report("44a", first, simplex, ball, seed),
        _report("44b", second, simplex, ball, seed),
    )


def verify_radon_collapse(simplex: Simplex, ball: UnitBall, seed=None) -> EquivalenceReport:
    """In a Radon plane the isoperimetrix is homothetic to the ball, so
    the median-triangle conditions collapse into the single norm."""
    if simplex.dim != 2:
        raise DegenerateInputError("this family is planar")
    if not is_radon(ball):
        raise DegenerateInputError("ball is not Radon")
    tm = simplex.median_triangle()
    conds = [
        ("quasiregular", lambda: quasiregular(simplex, ball)),
        ("median-triangle-equilateral", lambda: equal_side_gauges(tm, ball)),
        ("median-triangle-reduced", lambda: is_reduced_triangle(tm, ball)),
        ("median-triangle-centroid-is-incenter", lambda: centroid_is_incenter(tm, ball)),
    ]
    return _report("r41", conds, simplex, ball, seed)


# -- instance generators ---------------------------------------------


def _seeded_boundary_point(ball: UnitBall, rng: random.Random) -> Vec:
    d = ball.dim
    while True:
        coords = [rng.randint(-9, 9) for _ in range(d)]
        if any(coords):
            break
    if ball.mode == EXACT:
        p, q = ball.gauge_ratio(ExactVec.of_ints(coords, 1))
        return ExactVec.of_ints([q * c for c in coords], p)
    v = Vec([float(c) for c in coords])
    return v / float(ball.gauge(v))


def _seeded_placement(simplex: Simplex, rng: random.Random) -> Simplex:
    d = simplex.dim
    scale = Rat(rng.randint(1, 5), rng.randint(1, 3))
    shift = ExactVec.of_ratios([(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(d)])
    if simplex.mode != EXACT:
        scale = float(scale)
        shift = shift.to_float()
    return Simplex([v * scale + shift for v in simplex.vertices])


def planted_generator(kind: str, ball: UnitBall, d: int, seed: int) -> Simplex:
    """Deterministic generator of simplices satisfying a named
    condition exactly: "ag_quasiregular" via the inscribed construction,
    "equal_heights" via the centroid-dual of an inscribed construction
    in the dual norm, "equilateral" (planar) via the unit-distance
    chord walk."""
    if ball.dim != d:
        raise DegenerateInputError("ball dimension mismatch")
    rng = random.Random(("plant", kind, d, seed).__repr__())
    if kind == "ag_quasiregular":
        anchor = _seeded_boundary_point(ball, rng)
        built = quasiregular_simplex(ball, anchor=anchor)
        return _seeded_placement(built.simplex, rng)
    if kind == "equal_heights":
        dual = ball.dual()
        anchor = _seeded_boundary_point(dual, rng)
        built = quasiregular_simplex(dual, anchor=anchor)
        return _seeded_placement(built.simplex.dual_simplex(), rng)
    if kind == "equilateral":
        if d != 2:
            raise DegenerateInputError("equilateral planting is planar")
        anchor = _seeded_boundary_point(ball, rng)
        tri = equilateral_triangle(ball, anchor=anchor)
        return _seeded_placement(tri, rng)
    raise ValueError(f"unknown planted kind: {kind}")


def random_simplex(d: int, seed) -> Simplex:
    """Random rational simplex with vertices in [-12, 12]^d, coordinates
    with denominators 2, 3 or 6."""
    rng = random.Random(("random-simplex", d, seed).__repr__())
    while True:
        vertices = [
            ExactVec.of_ratios([(rng.randint(-24, 24), rng.choice((2, 3, 6))) for _ in range(d)])
            for _ in range(d + 1)
        ]
        try:
            return Simplex(vertices)
        except (DegenerateInputError, ValueError):
            continue


def random_negative(
    d: int,
    seed,
    reject: Callable[[Simplex], bool],
) -> Simplex:
    """Random simplex rejected and resampled while `reject` holds, so a
    negative-branch label stays trustworthy."""
    for k in range(64):
        cand = random_simplex(d, (seed, k))
        if not reject(cand):
            return cand
    raise DegenerateInputError("could not sample a negative instance")


# -- campaigns --------------------------------------------------------


class CampaignOutcome(FrozenRecord):
    def __init__(self, family: str, reports: tuple, disagreements: tuple):
        self.__dict__.update(family=family, reports=reports, disagreements=disagreements)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


# campaign id -> (planted kinds, verify), rows in the order of FAMILY_IDS;
# each verify reads its function from the module globals at call time,
# so a wrapper installed there runs
FAMILIES = dict(zip(FAMILY_IDS, (
    (("equal_heights",), lambda T, B, s: [verify_equal_heights_family(T, B, s)]),
    (("equal_heights",), lambda T, B, s: [verify_reduced_family(T, B, s)]),
    (("ag_quasiregular",), lambda T, B, s: [verify_quasiregular_family(T, B, s)]),
    (("ag_quasiregular", "equilateral"), lambda T, B, s: list(verify_median_triangle_families(T, B, s))),
    (("ag_quasiregular",), lambda T, B, s: [verify_radon_collapse(T, B, s)]),
), strict=True))


def _campaign_spec(family: str):
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    return FAMILIES[family]


def verify_family(family: str, simplex: Simplex, ball: UnitBall, seed=None) -> list:
    """All reports of one family on a single instance (families produce
    one report each, except the median-triangle pair)."""
    _, verify = _campaign_spec(family)
    return verify(simplex, ball, seed)


def run_campaign(family: str, ball: UnitBall, trials: int, seed: int) -> CampaignOutcome:
    """Alternates planted-positive and rejected-random-negative
    instances; every report's verdicts must agree.  Trials are evaluated
    in index order so outcomes are reproducible byte for byte."""
    kinds, verify = _campaign_spec(family)
    d = ball.dim
    reports = []
    disagreements = []
    for t in range(trials):
        trial_seed = (seed, family, t)
        label = repr(trial_seed)
        if t % 2 == 0:
            kind = kinds[(t // 2) % len(kinds)]
            instance = planted_generator(kind, ball, d, label)
            trial_reports = verify(instance, ball, label)
        else:
            # the accepted candidate is the last one checked, so its
            # reports are kept from the rejection step
            trial_reports = []

            def any_condition(T: Simplex) -> bool:
                trial_reports[:] = verify(T, ball, label)
                return any(any(r.verdicts) for r in trial_reports)

            random_negative(d, trial_seed, any_condition)
        for report in trial_reports:
            reports.append(report)
            if not report.agreement:
                disagreements.append(report)
    return CampaignOutcome(family, tuple(reports), tuple(disagreements))
