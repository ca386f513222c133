"""Derived points of an exact simplex from its cleared ints.

The centroid, facet centroids, medians, offsets A_i - G, edge vectors,
shrunk vertices and the median triangle are each one integer
combination of the rows V of A = V / D, reduced once.  They must have
the (X, D) of the ExactVec arithmetic chain they replace and equal a
Fraction brute force; float simplices keep their bits.
"""

import random
from fractions import Fraction

import pytest

from minksimplex.errors import DegenerateInputError, MixedModeError
from minksimplex.linalg import Vec
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

DELTAS = (Rat(1, 8), Rat(1, 16), Rat(1, 3), Rat(5, 7))


def exact_simplices(d: int, count: int, seed: int) -> list:
    """Seeded exact simplices in R^d, each vertex over a denominator in 1-7."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        verts = []
        for _ in range(d + 1):
            q = rng.randint(1, 7)
            verts.append(Vec([Fraction(rng.randint(-9 * q, 9 * q), q) for _ in range(d)]))
        try:
            out.append(Simplex(verts))
        except DegenerateInputError:
            continue
    return out


def float_simplices(d: int, count: int, seed: int) -> list:
    rng, out = random.Random(seed), []
    while len(out) < count:
        try:
            out.append(Simplex([Vec([rng.uniform(-5, 5) for _ in range(d)]) for _ in range(d + 1)]))
        except DegenerateInputError:
            continue
    return out


# -- the arithmetic chains, vector by vector -------------------------


def chain_sum(points):
    total = points[0]
    for v in points[1:]:
        total = total + v
    return total


def chain_centroid(T: Simplex):
    return chain_sum(T.vertices) / (T.dim + 1)


def chain_facet_centroid(T: Simplex, i: int):
    return chain_sum(T.facet_vertices(i)) / T.dim


def chain_median(T: Simplex, i: int):
    return chain_facet_centroid(T, i) - T.vertices[i]


def chain_shrunk(T: Simplex, i: int, delta):
    a = T.vertices[i]
    return a + (chain_facet_centroid(T, i) - a) * delta


def chain_median_triangle(T: Simplex) -> list:
    m0, m1 = chain_median(T, 0), chain_median(T, 1)
    third = Rat(1, 3) if T.mode == "exact" else 1.0 / 3.0
    v0 = chain_centroid(T) - (m0 * 2 + m1) * third
    v1 = v0 + m0
    return [v0, v1, v1 + m1]


def anatomy(T: Simplex) -> dict:
    """Each derived point of T beside its arithmetic chain."""
    d, vs = T.dim, T.vertices
    g = chain_centroid(T)
    pairs = {
        "centroid": [(T.centroid, g)],
        "facet_centroids": list(zip(T.facet_centroids, (chain_facet_centroid(T, i) for i in range(d + 1)))),
        "medians": [(T.median_vector(i), chain_median(T, i)) for i in range(d + 1)],
        "centroid_offsets": list(zip(T.centroid_offsets(), (v - g for v in vs))),
        "edge_vectors": list(zip(T.edge_vectors(), (vs[j] - vs[i] for i, j in T.edges()))),
    }
    for delta in DELTAS:
        delta = delta if T.mode == "exact" else float(delta)
        pairs[f"shrink {delta}"] = [(T.shrink_vertex(i, delta).vertices[i], chain_shrunk(T, i, delta)) for i in range(d + 1)]
    if d == 2:
        pairs["median_triangle"] = list(zip(T.median_triangle().vertices, chain_median_triangle(T)))
    return pairs


# -- brute force on Fractions ----------------------------------------


def brute(T: Simplex) -> dict:
    d = T.dim
    A = [[Fraction(c) for c in v.coords] for v in T.vertices]
    comb = lambda weights: [sum(w * a[k] for w, a in zip(weights, A)) for k in range(d)]
    unit = lambda i: [1 if k == i else 0 for k in range(d + 1)]
    g = [Fraction(1, d + 1)] * (d + 1)
    fc = [[Fraction(0) if k == i else Fraction(1, d) for k in range(d + 1)] for i in range(d + 1)]
    out = {
        "centroid": [comb(g)],
        "facet_centroids": [comb(w) for w in fc],
        "medians": [comb([x - y for x, y in zip(fc[i], unit(i))]) for i in range(d + 1)],
        "centroid_offsets": [comb([y - x for x, y in zip(g, unit(i))]) for i in range(d + 1)],
        "edge_vectors": [comb([y - x for x, y in zip(unit(i), unit(j))]) for i, j in T.edges()],
    }
    for delta in DELTAS:
        out[f"shrink {delta}"] = [comb([x + delta * (y - x) for x, y in zip(unit(i), fc[i])]) for i in range(d + 1)]
    if d == 2:
        out["median_triangle"] = [comb([Fraction(w, 6) for w in row]) for row in ((5, 2, -1), (-1, 5, 2), (2, -1, 5))]
    return out


@pytest.mark.parametrize("d", (2, 3, 4))
def test_exact_anatomy_matches_the_chain_and_the_brute_force(d):
    for T in exact_simplices(d, 12, 49 + d):
        expected = brute(T)
        for name, pairs in anatomy(T).items():
            assert len(pairs) == len(expected[name]), name
            for (new, old), want in zip(pairs, expected[name]):
                assert (new.X, new.D) == (old.X, old.D), name
                assert list(new.coords) == want, name


@pytest.mark.parametrize("d", (2, 3, 4))
def test_float_anatomy_keeps_its_bits(d):
    for T in float_simplices(d, 12, 149 + d):
        for name, pairs in anatomy(T).items():
            for new, old in pairs:
                assert type(new) is Vec, name
                assert [c.hex() for c in new.coords] == [c.hex() for c in old.coords], name


def test_exact_shrink_refuses_a_float_delta_and_one_outside_the_interval():
    T = exact_simplices(2, 1, 0)[0]
    with pytest.raises(MixedModeError):
        T.shrink_vertex(0, 0.5)
    for delta in (Rat(0), Rat(1), Rat(3, 2), Rat(-1, 4), 0, 1, 2):
        with pytest.raises(ValueError):
            T.shrink_vertex(1, delta)

