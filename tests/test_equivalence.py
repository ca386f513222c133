"""Verdict-vector checks for the equivalence families and campaigns."""

import random

import pytest

from minksimplex import cli, equivalence
from minksimplex.circumcenter import is_ag_quasiregular
from minksimplex.construct import equilateral_triangle, quasiregular_simplex
from minksimplex.equivalence import (
    DUALITY_PERMUTATION,
    duality_bridge_holds,
    equal_heights,
    fingerprint,
    is_reduced_triangle,
    planted_generator,
    random_negative,
    random_simplex,
    run_campaign,
    verify_equal_heights_family,
    verify_family,
    verify_median_triangle_families,
    verify_quasiregular_family,
    verify_radon_collapse,
    verify_reduced_family,
)
from minksimplex.errors import DegenerateInputError
from minksimplex.norms import PNormBall, euclidean_ball
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

from conftest import (
    CUBE,
    DIAMOND,
    HEXAGON,
    SQUARE,
    fvec,
    random_symmetric_polygon,
    vec,
)

FAMILY_BALLS = [SQUARE, HEXAGON, DIAMOND]


def planted(kind, ball, seed=7):
    return planted_generator(kind, ball, ball.dim, seed)


# -- single-instance reports ------------------------------------------


@pytest.mark.parametrize("ball", FAMILY_BALLS + [CUBE], ids=lambda b: repr(b))
def test_equal_heights_family_planted(ball):
    T = planted("equal_heights", ball)
    report = verify_equal_heights_family(T, ball)
    assert report.family == "41"
    assert len(report.verdicts) == 6
    assert all(report.verdicts)
    assert report.agreement
    assert report.mode == "exact"
    assert report.witnesses == {}


@pytest.mark.parametrize("ball", FAMILY_BALLS + [CUBE], ids=lambda b: repr(b))
def test_quasiregular_family_planted(ball):
    T = planted("ag_quasiregular", ball)
    assert is_ag_quasiregular(T, ball)
    report = verify_quasiregular_family(T, ball)
    assert report.family == "43"
    assert all(report.verdicts)


def test_negative_instance_disagrees_nowhere():
    # a rejected-random instance satisfies no condition: the verdict
    # vector is all-false, which still counts as agreement
    ball = HEXAGON
    T = random_negative(
        2,
        ("neg", 1),
        lambda S: any(verify_equal_heights_family(S, ball).verdicts),
    )
    report = verify_equal_heights_family(T, ball)
    assert not any(report.verdicts)
    assert report.agreement


def test_report_serialization():
    T = planted("ag_quasiregular", HEXAGON)
    report = verify_quasiregular_family(T, HEXAGON, seed="s")
    doc = report.to_dict()
    assert doc["family"] == "43"
    assert doc["agreement"] is True
    assert len(doc["conditions"]) == len(doc["verdicts"]) == 6
    assert doc["fingerprint"]["ball"]


def test_duality_bridge_on_planted_and_random():
    rng = random.Random("bridge")
    for ball in (SQUARE, HEXAGON, CUBE):
        T = planted("equal_heights", ball, seed=3)
        assert duality_bridge_holds(T, ball)
    for k in range(10):
        ball = random_symmetric_polygon(rng)
        T = random_simplex(2, ("bridge", k))
        assert duality_bridge_holds(T, ball)


def test_duality_permutation_is_an_involution_on_indices():
    assert sorted(DUALITY_PERMUTATION) == list(range(6))


def test_reduced_family_planar_only():
    with pytest.raises(DegenerateInputError):
        verify_reduced_family(
            Simplex([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]), CUBE
        )


def test_reduced_family_on_planted_equal_heights():
    for ball in FAMILY_BALLS:
        T = planted("equal_heights", ball)
        report = verify_reduced_family(T, ball)
        assert report.family == "42"
        assert all(report.verdicts), report.conditions
        assert report.agreement


def test_median_triangle_family_pair():
    ball = SQUARE
    Tq = planted("ag_quasiregular", ball)
    first, second = verify_median_triangle_families(Tq, ball)
    assert first.family == "44a" and second.family == "44b"
    assert all(first.verdicts)
    assert first.agreement and second.agreement
    Te = planted("equilateral", ball)
    first, second = verify_median_triangle_families(Te, ball)
    assert all(second.verdicts)
    assert first.agreement and second.agreement


def test_radon_collapse_requires_radon_ball():
    T = planted("ag_quasiregular", HEXAGON)
    report = verify_radon_collapse(T, HEXAGON)
    assert report.family == "r41"
    assert all(report.verdicts)
    with pytest.raises(DegenerateInputError):
        verify_radon_collapse(T, SQUARE)


def test_smooth_mode_reports():
    ball = euclidean_ball(2)
    T = quasiregular_simplex(ball).simplex
    report = verify_quasiregular_family(T, ball)
    assert report.mode == "numeric"
    assert all(report.verdicts)
    # p = 3 ball: same construction postcondition, numeric verdicts
    b3 = PNormBall(2, 3.0)
    T3 = quasiregular_simplex(b3).simplex
    assert all(verify_quasiregular_family(T3, b3).verdicts)


def test_witnesses_populated_on_disagreement(monkeypatch):
    # verdict splits never occur on honest inputs, so corrupt one
    # condition and check the report machinery surfaces the split
    import minksimplex.equivalence as eq

    monkeypatch.setattr(eq, "quasiregular", lambda T, B: (False, {"lie": True}))
    T = planted("ag_quasiregular", HEXAGON)
    report = verify_quasiregular_family(T, HEXAGON)
    assert not report.agreement
    assert report.verdicts[0] is False and any(report.verdicts[1:])
    assert "quasiregular" in report.witnesses
    assert report.witnesses["quasiregular"] == {"lie": True}


def test_fingerprint_is_stable_and_content_bearing():
    T = random_simplex(2, "fp")
    a = fingerprint(T, SQUARE, seed="s")
    b = fingerprint(T, SQUARE, seed="s")
    assert a == b
    assert a != fingerprint(T.translate(vec(1, 0)), SQUARE, seed="s")


# -- condition predicates on hand instances ----------------------------


def test_equal_heights_condition_exact():
    ok, payload = equal_heights(planted("equal_heights", SQUARE), SQUARE)
    assert ok
    bad, payload = equal_heights(Simplex([vec(0, 0), vec(4, 0), vec(0, 3)]), SQUARE)
    assert not bad


def test_reduced_triangle_audit():
    # planted equal-heights triangles are reduced; shrinking any vertex
    # strictly decreases the minimal width, which the audit verifies
    T = planted("equal_heights", HEXAGON)
    ok, payload = is_reduced_triangle(T, HEXAGON)
    assert ok
    # a right triangle in the max norm is not reduced: its width is
    # carried by a single direction that survives some vertex shrink
    bad, payload = is_reduced_triangle(Simplex([vec(0, 0), vec(4, 0), vec(0, 3)]), SQUARE)
    assert not bad


# -- campaigns ---------------------------------------------------------


@pytest.mark.parametrize("family,ball", [
    ("41", SQUARE),
    ("42", DIAMOND),
    ("43", SQUARE),
    ("44", HEXAGON),
    ("r41", HEXAGON),
])
def test_campaigns_agree(family, ball):
    outcome = run_campaign(family, ball, trials=12, seed=5)
    assert outcome.all_agree
    assert not outcome.disagreements
    # even trials are planted positives, odd trials rejected negatives
    per_trial = 2 if family == "44" else 1
    assert len(outcome.reports) == 12 * per_trial
    planted_reports = [
        outcome.reports[t * per_trial] for t in range(0, 12, 2)
    ]
    for r in planted_reports:
        assert any(r.verdicts)
    negative_reports = [
        outcome.reports[t * per_trial] for t in range(1, 12, 2)
    ]
    for r in negative_reports:
        assert not any(r.verdicts)


@pytest.mark.parametrize("family", ["42", "44"])
def test_reducedness_campaigns_on_a_p_norm_ball(family):
    # the reducedness audit shrinks a float simplex by a float fraction
    assert run_campaign(family, PNormBall(2, 3.0), 4, 0).all_agree


def test_campaign_reproducibility():
    a = run_campaign("43", HEXAGON, trials=8, seed=11)
    b = run_campaign("43", HEXAGON, trials=8, seed=11)
    assert [r.to_dict() for r in a.reports] == [r.to_dict() for r in b.reports]
    c = run_campaign("43", HEXAGON, trials=8, seed=12)
    assert [r.to_dict() for r in c.reports] != [r.to_dict() for r in a.reports]


def test_campaign_3d():
    outcome = run_campaign("41", CUBE, trials=6, seed=2)
    assert outcome.all_agree
    outcome = run_campaign("43", CUBE, trials=6, seed=2)
    assert outcome.all_agree


def test_verify_family_single_instance():
    T = planted("ag_quasiregular", HEXAGON)
    reports = verify_family("43", T, HEXAGON)
    assert len(reports) == 1 and reports[0].family == "43"
    reports = verify_family("44", T, HEXAGON)
    assert [r.family for r in reports] == ["44a", "44b"]
    with pytest.raises(ValueError):
        verify_family("99", T, HEXAGON)


def test_family_table_reads_its_verify_functions_at_call_time(monkeypatch):
    # a wrapper installed in the module's globals (as a tracer does)
    # sees every call that verify_family and run_campaign make
    calls = []
    original = equivalence.verify_median_triangle_families

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(equivalence, "verify_median_triangle_families", counted)
    T = planted("ag_quasiregular", HEXAGON)
    assert [r.family for r in verify_family("44", T, HEXAGON)] == ["44a", "44b"]
    assert len(calls) == 1
    # one planted trial and at least one sampled negative
    assert len(run_campaign("44", HEXAGON, trials=2, seed=0).reports) == 4
    assert len(calls) >= 3
    assert cli.FAMILIES == ("41", "42", "43", "44", "r41")


def test_planted_equilateral_is_equilateral():
    for ball in FAMILY_BALLS:
        T = planted("equilateral", ball, seed=9)
        sides = T.side_lengths(ball)
        assert len(set(sides)) == 1


def test_planted_generator_rejects_unknown_kind():
    with pytest.raises(ValueError):
        planted_generator("nope", SQUARE, 2, 1)
