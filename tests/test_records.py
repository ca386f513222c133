"""The result records' contracts: == compares the fields of two records
of one class, frozen records hash by their fields and refuse assignment,
defaults are fresh per instance, and Ball validates what it is given."""

import pytest

from minksimplex.centers import Insphere
from minksimplex.equivalence import EquivalenceReport
from minksimplex.errors import DegenerateInputError, MixedModeError
from minksimplex.feasibility import FeasibilityProblem, FeasibilityResult, Ineq
from minksimplex.linalg import LinearSolution
from minksimplex.norms import Ball
from minksimplex.scalars import EXACT, Rat
from minksimplex.scene import Scene

from conftest import SQUARE, fvec, vec


def test_ineq_equality_and_hash_follow_the_fields():
    row = Ineq((1, -2), 3)
    assert row == Ineq((1, -2), 3, False) and hash(row) == hash(Ineq((1, -2), 3))
    assert row != Ineq((1, -2), 3, True) and row != Ineq((1, -2), 4)
    assert row != ((1, -2), 3, False)  # same fields, another class
    assert len({row, Ineq((1, -2), 3), Ineq((1, -2), 3, True)}) == 2


def test_insphere_equality_and_hash_follow_the_fields():
    sphere = Insphere(vec(1, 1), Rat(1, 2))
    assert sphere.flipped_facet is None
    assert sphere == Insphere(vec(1, 1), Rat(1, 2), None)
    assert hash(sphere) == hash(Insphere(vec(1, 1), Rat(1, 2)))
    assert sphere != Insphere(vec(1, 1), Rat(1, 2), flipped_facet=0)
    assert sphere != Insphere(vec(1, 0), Rat(1, 2))


def test_scene_equality_follows_the_fields():
    scene = Scene(2, SQUARE, None, {"p": vec(0, 1)})
    assert scene == Scene(2, SQUARE, None, {"p": vec(0, 1)})
    assert scene != Scene(2, SQUARE, None, {"p": vec(1, 0)})
    assert scene != Scene(2, SQUARE, None, {})
    assert Scene(2, SQUARE, None, {}).mode == EXACT


def test_scene_hash_follows_the_fields():
    # its points are a dict, so a Scene hashes no better than its fields
    with pytest.raises(TypeError, match="unhashable"):
        hash(Scene(2, SQUARE, None, {}))


@pytest.mark.parametrize("record,field", [
    (Ineq((1, 0), 1), "rhs"),
    (Scene(2, SQUARE, None, {}), "dimension"),
    (Insphere(vec(0, 0), Rat(1)), "radius"),
    (Ball(SQUARE, vec(0, 0), Rat(1)), "radius"),
])
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    assert getattr(record, field) == before


def test_mutable_records_compare_by_fields_and_do_not_hash():
    assert LinearSolution("unique", (Rat(1),)) == LinearSolution("unique", (Rat(1),), ())
    assert LinearSolution("unique", (Rat(1),)) != LinearSolution("affine", (Rat(1),))
    assert FeasibilityResult(True, (1,), 0) == FeasibilityResult(True, (1,), 0, None)
    assert FeasibilityResult(False) != FeasibilityResult(True)
    for record in (LinearSolution("infeasible"), FeasibilityResult(False), FeasibilityProblem(1)):
        with pytest.raises(TypeError):
            hash(record)


def test_feasibility_problems_do_not_share_their_default_rows():
    a, b = FeasibilityProblem(2), FeasibilityProblem(2)
    assert a.equalities is not b.equalities and a.inequalities is not b.inequalities
    a.add_eq((1, 0), 1)
    a.add_le((0, 1), 2)
    assert (b.equalities, b.inequalities) == ([], [])
    assert a == FeasibilityProblem(2, [((1, 0), 1)], [Ineq((0, 1), 2)])
    assert a != b


def test_equivalence_reports_do_not_share_their_default_witnesses():
    def report():
        return EquivalenceReport("41", ("equal_heights",), (True,), EXACT, {"seed": 0})

    a, b = report(), report()
    assert a.witnesses == {} and a.witnesses is not b.witnesses
    a.witnesses["equal_heights"] = "x"
    assert b.witnesses == {}
    assert a != b and report() == b


@pytest.mark.parametrize("radius", [Rat(0), Rat(-1)])
def test_ball_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(DegenerateInputError, match="radius must be positive"):
        Ball(SQUARE, vec(0, 0), radius)


@pytest.mark.parametrize("center,radius", [(fvec(0, 0), Rat(1)), (vec(0, 0), 1.0)])
def test_ball_rejects_mixed_lanes(center, radius):
    with pytest.raises(MixedModeError):
        Ball(SQUARE, center, radius)
