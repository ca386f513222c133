"""Float-lane verdicts compare dimensionless values.

Every numeric condition of an equivalence family reduces to values
that are equal when the condition holds: heights, gauges, exradii,
the incenter's barycentric coordinates, or the ratios of a
quasi-medial hyperplane to a bisector at two vertices.  Each is
compared at one relative tolerance, so a verdict depends neither on
where the simplex sits nor on how large it is.
"""

import json

import pytest

from minksimplex.cli import main
from minksimplex.equivalence import run_campaign, verify_family
from minksimplex.linalg import Vec
from minksimplex.norms import PNormBall
from minksimplex.simplex import Simplex

SHAPES = {
    "triangle-4-3": [(0, 0), (4, 0), (0, 3)],
    "tetrahedron-4-3-2": [(0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 2)],
    "triangle-centered": [(1, 0), (0, 1), (-1, -1)],
}
SCALES = [1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300]
SHIFTS = [0, 1e4, 1e7, 1e12, 1e15]


def _placed(shape, k, s):
    return [[(c + s) * k for c in v] for v in SHAPES[shape]]


# (c + s) k overflows for the two largest shifts at k = 1e300
GRID = [
    (shape, k, s)
    for shape in SHAPES
    for k in SCALES
    for s in SHIFTS
    if all(abs(c) < float("inf") for v in _placed(shape, k, s) for c in v)
]


@pytest.mark.parametrize("shape,k,s", GRID)
def test_verdicts_agree_at_every_scale_and_shift(shape, k, s):
    # the incenter was compared with the centroid at 1e-7 times the
    # largest |coordinate|, so from a shift of 1e7 on it read true for
    # every one of these simplices, none of which has equal heights
    points = _placed(shape, k, s)
    simplex = Simplex([Vec([float(c) for c in v]) for v in points])
    d = simplex.dim
    families = ["41", "42", "43", "44"] if d == 2 else ["41", "43"]
    for p in (1.5, 2.0, 3.0, 10.0):
        ball = PNormBall(d, p)
        for family in families:
            for report in verify_family(family, simplex, ball, 0):
                assert report.agreement, (family, p, report.conditions, report.verdicts)


@pytest.mark.parametrize("p,simplex", [
    (3, [[1e7, 1e7], [4 + 1e7, 1e7], [1e7, 3 + 1e7]]),
    (1.000001, [[0, 0], [1, 0], [0, 1]]),
    (1e6, [[0, 0], [2, 0], [1, 1]]),
    (1e6, [[0, 0], [3, 1], [1, 3]]),
])
def test_verify_agrees_on_scenes_where_only_the_incenter_read_true(tmp_path, p, simplex):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"dimension": 2, "ball": {"type": "pnorm", "p": p}, "simplex": simplex}))
    out = tmp_path / "out.json"
    code = main(["verify", "--theorem", "41", "--trials", "2", "--in", str(scene), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["all_agree"] is True


CAMPAIGN_PS = [1.000001, 1.00001, 1.001, 1.1, 2.0, 3.0, 100.0, 1e4, 1e5, 1e6]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("p", CAMPAIGN_PS)
@pytest.mark.parametrize("d,family", [(2, "41"), (2, "42"), (2, "43"), (2, "44"), (3, "41"), (3, "43")])
def test_float_campaigns_keep_planted_positives_positive(d, family, p, seed):
    trials = 10
    outcome = run_campaign(family, PNormBall(d, p), trials, seed)
    assert outcome.all_agree
    per_trial = 2 if family == "44" else 1
    assert len(outcome.reports) == trials * per_trial
    for t in range(trials):
        verdicts = [r.verdicts for r in outcome.reports[t * per_trial:(t + 1) * per_trial]]
        if t % 2 == 0:
            assert any(all(v) for v in verdicts), (t, verdicts)
        else:
            assert not any(any(v) for v in verdicts), (t, verdicts)
