"""An exact vector is printed from its ints X / D, one gcd per
coordinate, with the same strings as str() of each Rat coordinate."""

import random

from minksimplex.linalg import ExactVec, Vec
from minksimplex.scalars import Rat
from minksimplex.scene import vec_to_json


def test_exact_vectors_print_as_their_rationals():
    rng = random.Random("vec-to-json")
    seen = {"negative": 0, "zero": 0, "integer": 0, "reduces further": 0}
    for _ in range(2000):
        D = rng.choice((1, 2, 6, 12, 60, rng.randint(1, 10**6), rng.randint(1, 10**30)))
        X = [rng.choice((0, rng.randint(-12, 12), rng.randint(-10**30, 10**30))) for _ in range(rng.randint(1, 4))]
        v = ExactVec.of_ints(X, D)
        assert vec_to_json(v) == [str(c) for c in v.coords], (X, D)
        seen["negative"] += any(x < 0 for x in v.X)
        seen["zero"] += 0 in v.X
        seen["integer"] += v.D == 1
        seen["reduces further"] += any(c.denominator < v.D for c in v.coords)
    assert min(seen.values()) >= 50, seen


def test_fixed_vectors():
    assert vec_to_json(ExactVec.of_ints([2, 3, 0, -4], 6)) == ["1/3", "1/2", "0", "-2/3"]
    assert vec_to_json(ExactVec.of_ints([-7, 0], 1)) == ["-7", "0"]
    assert vec_to_json(Vec([Rat(-5, 10), Rat(4, 2)])) == ["-1/2", "2"]
    assert vec_to_json(Vec([0.5, -2.0])) == [0.5, -2.0]
