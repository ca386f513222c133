"""Campaign hot paths against the plain versions they replaced.

The integer gauge and support of a polytopal ball must equal the
rational max of dot products over its normals and vertices; a campaign
must report exactly what a fresh verification of each trial's instance
reports, while verifying each instance once; and the lazy constructor
sweep must yield the eager direction list in its order.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from minksimplex import equivalence
from minksimplex.construct import _sweep_directions
from minksimplex.equivalence import (
    planted_generator,
    random_negative,
    run_campaign,
    verify_family,
)
from minksimplex.errors import DimensionError, MixedModeError
from minksimplex.linalg import Hyperplane, Vec
from minksimplex.norms import PolytopeBall, isoperimetrix, radon_polygon
from minksimplex.scalars import Rat

from conftest import (
    CROSSPOLYTOPE,
    CUBE,
    DIAMOND,
    HEXAGON,
    HYPERCUBE,
    SQUARE,
    fvec,
    random_symmetric_polygon,
    random_symmetric_polytope_3d,
    vec,
)

# -- integer gauge and support -----------------------------------------


def ref_gauge(ball, x):
    return max(n.dot(x) for n in ball.normals)


def ref_support(ball, a):
    return max(a.dot(v) for v in ball.vertices)


def scaled_v_ball(ball, rng):
    """The ball's vertices stretched per axis by rationals with mixed
    denominators: another V-form ball with fractional coordinates."""
    factors = [Rat(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(ball.dim)]
    return PolytopeBall.from_vertices(
        [Vec([c * f for c, f in zip(v.coords, factors)]) for v in ball.vertices]
    )


def h_ball(ball, rng):
    """The same ball in H-form, each halfspace rescaled by a rational."""
    halfspaces = []
    for n in ball.normals:
        s = Rat(rng.randint(1, 7), rng.randint(1, 5))
        halfspaces.append(Hyperplane(n * s, s))
    return PolytopeBall.from_halfspaces(halfspaces)


def seeded_balls():
    rng = random.Random("integer-gauge")
    out = [SQUARE, DIAMOND, HEXAGON, CUBE, HYPERCUBE, CROSSPOLYTOPE, radon_polygon()]
    out += [random_symmetric_polygon(rng) for _ in range(3)]
    out += [random_symmetric_polytope_3d(rng) for _ in range(2)]
    out += [scaled_v_ball(b, rng) for b in (HEXAGON, CUBE, CROSSPOLYTOPE)]
    out += [h_ball(b, rng) for b in (SQUARE, HEXAGON, CUBE, HYPERCUBE)]
    out += [b.dual() for b in list(out)]
    out += [isoperimetrix(b) for b in out if b.dim == 2]
    return out


def queries(d, rng):
    out = [Vec([0] * d), Vec([Rat(0)] * d)]
    for _ in range(8):
        out.append(Vec([rng.randint(-9, 9) for _ in range(d)]))  # plain ints
        out.append(vec(*(rng.randint(-9, 9) for _ in range(d))))  # integer Rats
        out.append(  # mixed denominators
            Vec([Rat(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 9, 11))) for _ in range(d)])
        )
    return out


BALLS = seeded_balls()


def test_integer_gauge_and_support_equal_rational_max():
    rng = random.Random("integer-gauge-queries")
    for ball in BALLS:
        for x in queries(ball.dim, rng):
            g, h = ball.gauge(x), ball.support(x)
            assert g == ref_gauge(ball, x), (ball, x)
            assert h == ref_support(ball, x), (ball, x)
            assert isinstance(g, Fraction) and isinstance(h, Fraction)


def test_dual_swaps_gauge_and_support():
    rng = random.Random("dual-queries")
    for ball in BALLS:
        polar = ball.dual()
        assert polar.dual() == ball
        for x in queries(ball.dim, rng):
            assert polar.gauge(x) == ball.support(x), (ball, x)
            assert polar.support(x) == ball.gauge(x), (ball, x)


def test_integer_gauge_keeps_mode_and_dimension_checks():
    for ball in (SQUARE, CUBE, HYPERCUBE.dual()):
        d = ball.dim
        with pytest.raises(MixedModeError):
            ball.gauge(fvec(*[0.5] * d))
        with pytest.raises(MixedModeError):
            ball.support(fvec(*[0.5] * d))
        with pytest.raises(DimensionError):
            ball.gauge(vec(*[1] * (d + 1)))
        with pytest.raises(DimensionError):
            ball.support(vec(*[1] * (d + 1)))
    square = [fvec(1.0, 1.0), fvec(-1.0, 1.0), fvec(-1.0, -1.0), fvec(1.0, -1.0)]
    with pytest.raises(MixedModeError):
        PolytopeBall(square, SQUARE.normals)


# -- one verification per campaign trial -------------------------------

# the planted kinds each family cycles through on its even trials
PLANTED_KINDS = {
    "41": ("equal_heights",),
    "42": ("equal_heights",),
    "43": ("ag_quasiregular",),
    "44": ("ag_quasiregular", "equilateral"),
    "r41": ("ag_quasiregular",),
}
VERIFY_FUNCTIONS = (
    "verify_equal_heights_family",
    "verify_reduced_family",
    "verify_quasiregular_family",
    "verify_median_triangle_families",
    "verify_radon_collapse",
)
CAMPAIGNS = [("41", SQUARE), ("41", CUBE), ("42", DIAMOND), ("43", HEXAGON), ("44", HEXAGON), ("r41", HEXAGON)]
TRIALS, SEED = 6, 3


def reference_reports(family, ball):
    """Each trial's instance regenerated as the campaign defines it and
    verified afresh with the trial's seed label."""
    kinds = PLANTED_KINDS[family]
    out = []
    for t in range(TRIALS):
        trial_seed = (SEED, family, t)
        if t % 2 == 0:
            kind = kinds[(t // 2) % len(kinds)]
            instance = planted_generator(kind, ball, ball.dim, repr(trial_seed))
        else:
            instance = random_negative(
                ball.dim,
                trial_seed,
                lambda T: any(any(r.verdicts) for r in verify_family(family, T, ball)),
            )
        out += verify_family(family, instance, ball, repr(trial_seed))
    return [r.to_dict() for r in out]


@pytest.mark.parametrize("family,ball", CAMPAIGNS, ids=lambda x: x if isinstance(x, str) else repr(x))
def test_campaign_reports_equal_fresh_verification(family, ball, monkeypatch):
    counts = {"verify": 0, "candidates": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in VERIFY_FUNCTIONS:
        monkeypatch.setattr(equivalence, name, counted(getattr(equivalence, name), "verify"))
    monkeypatch.setattr(
        equivalence, "random_simplex", counted(equivalence.random_simplex, "candidates")
    )
    outcome = run_campaign(family, ball, trials=TRIALS, seed=SEED)
    planted = (TRIALS + 1) // 2
    assert counts["candidates"] >= TRIALS // 2
    assert counts["verify"] == planted + counts["candidates"]
    monkeypatch.undo()

    assert [r.to_dict() for r in outcome.reports] == reference_reports(family, ball)


# -- lazy direction sweep ----------------------------------------------


def eager_sweep(frame):
    v1, v2 = frame
    out = [v1, v2]
    for n in range(1, 16):
        for a in range(-n, n + 1):
            if math.gcd(abs(a), n) != 1:
                continue
            out.append(a * v1 + n * v2)
            out.append(n * v1 + a * v2)
    return out


@pytest.mark.parametrize("frame", [
    (vec(1, 0, 0), vec(0, 0, 1)),
    (vec(Rat(1, 2), -1, 3), vec(0, Rat(2, 3), 1)),
    (fvec(1.0, 0.5, 0.0, 2.0), fvec(0.0, 1.0, -1.0, 0.25)),
])
def test_lazy_sweep_matches_eager_list(frame):
    lazy = _sweep_directions(frame)
    assert iter(lazy) is lazy  # a generator, not a list
    assert list(itertools.islice(lazy, 64)) == eager_sweep(frame)[:64]
    assert list(_sweep_directions(frame)) == eager_sweep(frame)
