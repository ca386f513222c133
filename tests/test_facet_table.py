"""The exact facet table against plain Fraction arithmetic.

An exact Simplex keeps one integer table: facet normals and offsets
from one adjugate of its edge matrix, and per ball the supports of
those normals.  Widths, in/exspheres and the verdicts' height, bisector
and quasi-medial rows are read off it; heights and facet bisectors are
one expression in every lane.  Here each of those values is recomputed
from the vertices and the ball's vertices with fractions.Fraction alone
(cofactor determinants, supports as a max over the ball's vertices, the
tangency systems by Gauss-Jordan) and must be == to what the program
returns.
The last test pins the work of one short campaign.
"""

import random
from fractions import Fraction

import pytest

from minksimplex import norms
from minksimplex.centers import exsphere, facet_bisector, incenter
from minksimplex.equivalence import run_campaign
from minksimplex.norms import isoperimetrix
from minksimplex.scalars import Rat
from minksimplex.simplex import Simplex

from conftest import CROSSPOLYTOPE, CUBE, DIAMOND, HEXAGON, HYPERCUBE, OCTAHEDRON, SQUARE, vec

# the campaign balls, the 4-cube and the 4-cross, their polars, and the
# planar isoperimetrices
BASE = {"cube3": CUBE, "hexagon": HEXAGON, "diamond": DIAMOND, "square": SQUARE,
        "cross3": OCTAHEDRON, "cube4": HYPERCUBE, "cross4": CROSSPOLYTOPE}
BALLS = {
    **BASE,
    **{f"polar-{name}": b.dual() for name, b in BASE.items()},
    **{f"iso-{name}": isoperimetrix(b) for name, b in BASE.items() if b.dim == 2},
}


def frac(x) -> Fraction:
    return Fraction(x.numerator, x.denominator)


def point(v) -> list:
    return [frac(c) for c in v.coords]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def cofactor_det(m) -> Fraction:
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def oracle_facets(vertices) -> list:
    """(a_i, b_i, s_i) per facet: the cofactor normal of the facet's
    edges from its first vertex, oriented so that A_i lies inside, and
    s_i = b_i - <a_i, A_i> > 0."""
    pts = [point(v) for v in vertices]
    out = []
    for i, a in enumerate(pts):
        facet = [p for k, p in enumerate(pts) if k != i]
        edges = [[x - y for x, y in zip(p, facet[0])] for p in facet[1:]]
        d = len(a)
        normal = [(-1) ** k * cofactor_det([e[:k] + e[k + 1 :] for e in edges]) for k in range(d)]
        offset = dot(normal, facet[0])
        s = offset - dot(normal, a)
        if s < 0:
            normal, offset, s = [-c for c in normal], -offset, -s
        out.append((normal, offset, s))
    return out


def oracle_support(ball, a) -> Fraction:
    return max(dot(point(v), a) for v in ball.vertices)


def gauss_jordan(rows, rhs):
    """The unique solution of rows . x = rhs, or None."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [c / m[col][col] for c in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [c - m[r][col] * p for c, p in zip(m[r], m[col])]
    return [row[n] for row in m]


def oracle_sphere(facets, supports, flip):
    """(center, radius) of <a_j, x> + s_j h(a_j) rho = b_j, s_j = -1
    only at the flipped facet, or None when the system is singular."""
    rows = [[*a, (-1 if j == flip else 1) * h] for j, ((a, _, _), h) in enumerate(zip(facets, supports))]
    sol = gauss_jordan(rows, [b for _, b, _ in facets])
    return None if sol is None else (sol[:-1], sol[-1])


def random_simplex(rng, d) -> Simplex:
    while True:
        verts = [
            vec(*(Rat(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 7))) for _ in range(d)))
            for _ in range(d + 1)
        ]
        try:
            return Simplex(verts)
        except Exception:
            continue


@pytest.mark.parametrize("name", BALLS)
def test_facet_table_matches_fraction_brute_force(name):
    ball, rng = BALLS[name], random.Random(f"facet-table-{name}")
    d = ball.dim
    for _ in range(6):
        T = random_simplex(rng, d)
        facets = oracle_facets(T.vertices)
        supports = [oracle_support(ball, a) for a, _, _ in facets]
        heights = [s / h for (_, _, s), h in zip(facets, supports)]

        for h, (a, b, _) in zip(T.facet_hyperplanes, facets):
            assert point(h.normal) == a and frac(h.offset) == b
        # the table's supports M_i are h_B(a_i) times s_v D^(d-1)
        D, scale = T.facet_table[1], ball._vertex_rows[1] * T.facet_table[1] ** (d - 1)
        assert [Fraction(m, scale) for m in T.facet_supports(ball)] == supports
        assert [Fraction(p, q) for p, q in T.height_ratios(ball)] == heights
        assert T.heights(ball) == heights
        assert [T.height(i, ball) for i in range(d + 1)] == heights
        assert T.min_width(ball) == min(heights)

        inc = incenter(T, ball)
        assert (point(inc.center), frac(inc.radius)) == oracle_sphere(facets, supports, None)
        for i in range(d + 1):
            want = oracle_sphere(facets, supports, i)
            got = exsphere(T, ball, i)
            if want is None or want[1] <= 0:
                assert got is None
            else:
                assert (point(got.center), frac(got.radius)) == want

        for i, j in T.edges():
            (ai, bi, si), (aj, bj, sj), hi, hj = facets[i], facets[j], supports[i], supports[j]
            # the exact verdicts' int rows (A, b, q) read <A / q, x> = b / q
            A, b, q = T.bisector_row(ball, i, j)
            assert [Fraction(x, q) for x in A] == [x / hi - y / hj for x, y in zip(ai, aj)]
            assert Fraction(b, q) == bi / hi - bj / hj
            A, b, q = T.quasi_medial_row(i, j)
            assert [Fraction(x, q) for x in A] == [x / si - y / sj for x, y in zip(ai, aj)]
            assert Fraction(b, q) == bi / si - bj / sj
            for sign, external in ((1, False), (-1, True)):
                bis = facet_bisector(T, ball, i, j, external)
                assert point(bis.normal) == [x / hi - sign * y / hj for x, y in zip(ai, aj)]
                assert frac(bis.offset) == bi / hi - sign * bj / hj


def test_campaign_work_counts(monkeypatch):
    """run_campaign("41", cube3, trials=2, seed=0) made 99 support and
    gauge maxima (norms._max_dot) and 419 Fraction constructions before
    the facet table; the table brings them to at most 40 and 140."""
    calls = {"max_dot": 0, "fraction": 0}
    max_dot, fraction_new = norms._max_dot, Fraction.__new__

    def counted_max_dot(*args):
        calls["max_dot"] += 1
        return max_dot(*args)

    def counted_new(cls, *args, **kwargs):
        calls["fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(norms, "_max_dot", counted_max_dot)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    outcome = run_campaign("41", CUBE, trials=2, seed=0)
    monkeypatch.undo()
    assert outcome.all_agree and len(outcome.reports) == 2
    assert calls["max_dot"] <= 40, calls
    assert calls["fraction"] <= 140, calls
