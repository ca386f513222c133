"""Integer V/H kernels against the rational brute force they replaced.

The reference functions below are the Fraction versions: a nullspace per
point subset for facets, solve_linear per row subset for vertices, and
rational elimination for determinants.  The integer kernels must give
the same facets, the same vertex lists in the same order with rational
coordinates, and determinants equal to the last bit.
"""

import itertools
import random
import pytest

from minksimplex.errors import ResourceCapError
from minksimplex.linalg import (
    Hyperplane,
    Vec,
    affine_rank,
    bareiss,
    det,
    nullspace,
    rank,
    solve_linear,
)
from minksimplex.norms import PolytopeBall
from minksimplex.polytopes import (
    facet_hyperplanes,
    hull_vertices,
    minimal_halfspaces,
    vertex_enumerate,
)
from minksimplex.scalars import Rat, sign

from conftest import vec

RAT = type(Rat(0))  # Fraction, or mpq under gmpy2


# -- reference: the rational brute force -------------------------------


def ref_facet_hyperplanes(points):
    pts = list(dict.fromkeys(points))
    d = pts[0].dim
    found = {}
    for combo in itertools.combinations(pts, d):
        basis = nullspace([[*p.coords, -1] for p in combo])
        if len(basis) != 1:
            continue
        normal, offset = Vec(basis[0][:d]), basis[0][d]
        signs = {sign(normal.dot(p) - offset) for p in pts} - {0}
        if len(signs) != 1:
            continue
        h = Hyperplane(normal, offset) if signs == {-1} else Hyperplane(-normal, -offset)
        found[h.canonical()] = h
    return list(found.values())


def ref_vertex_enumerate(halfspaces):
    d = halfspaces[0].dim
    seen = {}
    for combo in itertools.combinations(halfspaces, d):
        sol = solve_linear([list(h.normal.coords) for h in combo], [h.offset for h in combo])
        if sol.status != "unique":
            continue
        x = Vec(sol.point)
        if all(h.eval(x) <= 0 for h in halfspaces):
            seen[x.coords] = x
    return list(seen.values())


def ref_minimal_halfspaces(halfspaces, vertices):
    d = halfspaces[0].dim
    kept = {}
    for h in halfspaces:
        tight = [v for v in vertices if h.eval(v) == 0]
        if len(tight) >= d and affine_rank(tight) == d - 1:
            kept[h.canonical()] = h
    return list(kept.values())


def ref_det(rows):
    a = [[Rat(c) for c in row] for row in rows]
    n = len(a)
    result = Rat(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Rat(0)
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            result = -result
        result *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return result


# -- seeded inputs --------------------------------------------------------


def rational(rng):
    return Rat(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))


def point_set(rng, d):
    """Non-symmetric rational points with a duplicate, an interior point
    and an edge midpoint mixed in."""
    while True:
        pts = [Vec([rational(rng) for _ in range(d)]) for _ in range(d + 1 + rng.randint(1, 3))]
        if affine_rank(pts) == d:
            break
    centroid = Vec([sum(c) / len(pts) for c in zip(*pts)])
    extra = [pts[0], centroid, (pts[1] + pts[2]) / 2]
    out = pts + extra
    rng.shuffle(out)
    return out


def canonical(hyps):
    return [h.canonical() for h in hyps]


def coord_types(vertices):
    return {type(c) for v in vertices for c in v.coords}


# -- tests ----------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_facets_and_vertices_match_rational_brute_force(d):
    rng = random.Random(f"vh-oracle:{d}")
    for _ in range(12 if d < 4 else 5):
        pts = point_set(rng, d)
        hyps = facet_hyperplanes(pts)
        ref = ref_facet_hyperplanes(pts)
        assert canonical(hyps) == canonical(ref)
        verts = vertex_enumerate(hyps)
        assert verts == ref_vertex_enumerate(ref)
        assert coord_types(verts) == {RAT}
        # read off the points, the vertices are the same set
        assert sorted(hull_vertices(pts, hyps), key=Vec.key) == sorted(verts, key=Vec.key)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_h_form_with_redundant_and_duplicated_rows(d):
    rng = random.Random(f"vh-oracle-h:{d}")
    for _ in range(6 if d < 4 else 3):
        hyps = ref_facet_hyperplanes(point_set(rng, d))
        loose = Hyperplane(hyps[0].normal, hyps[0].offset + rational(rng) ** 2 + 1)
        scaled = Hyperplane(hyps[1].normal * 3, hyps[1].offset * 3)
        rows = hyps + [loose, hyps[0], scaled]
        rng.shuffle(rows)
        verts = vertex_enumerate(rows)
        assert verts == ref_vertex_enumerate(rows)
        assert coord_types(verts) == {RAT}
        kept = minimal_halfspaces(rows, verts)
        assert canonical(kept) == canonical(ref_minimal_halfspaces(rows, verts))
        assert len(kept) == len(hyps)


def test_det_equals_rational_elimination():
    rng = random.Random("det-oracle")
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rational(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # singular: one row a combination of two others
            i, j = rng.randrange(n), rng.randrange(n)
            rows[rng.randrange(n)] = [a + 2 * b for a, b in zip(rows[i], rows[j])]
        value = det(rows)
        assert value == ref_det(rows)
        assert type(value) is RAT
    assert det([[2, 1], [4, 2]]) == 0 and det([[0, 1], [1, 0]]) == -1


def test_bareiss_rank_equals_rational_rank():
    rng = random.Random("rank-oracle")
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1 % m])]
        assert bareiss(rows)[0] == rank(rows)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_edge_midpoints_do_not_change_the_ball(d):
    corners = [vec(*s) for s in itertools.product((-1, 1), repeat=d)]
    half = [vec(*(Rat(c, 2) for c in v)) for v in corners]
    midpoints = [(a + b) / 2 for a, b in itertools.combinations(corners, 2)
                 if sum(x != y for x, y in zip(a, b)) == 1]
    ball = PolytopeBall.from_vertices(corners)
    # a few of each kind: every extra point multiplies the d-subsets
    padded = PolytopeBall.from_vertices(corners + midpoints[:6] + half[:3] + corners[:2])
    assert padded.vertices == ball.vertices and padded.normals == ball.normals
    assert coord_types(padded.vertices) == coord_types(padded.normals) == {RAT}


def test_integer_vertices_come_back_rational():
    ball = PolytopeBall.from_vertices([Vec((1, 0)), Vec((0, 1)), Vec((-1, 0)), Vec((0, -1))])
    assert coord_types(ball.vertices) == {RAT}


def test_facet_cap_still_raises(monkeypatch):
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "6")
    octagon = [vec(2, 1), vec(1, 2), vec(-1, 2), vec(-2, 1),
               vec(-2, -1), vec(-1, -2), vec(1, -2), vec(2, -1)]
    with pytest.raises(ResourceCapError):
        facet_hyperplanes(octagon)
    with pytest.raises(ResourceCapError):
        PolytopeBall.from_vertices(octagon)
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "8")
    assert len(facet_hyperplanes(octagon)) == 8
