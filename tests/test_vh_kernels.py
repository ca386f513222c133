"""Integer kernels against the rational brute force they replaced.

The reference functions below are the Fraction versions: Gauss-Jordan
elimination on Fractions for solves, ranks and nullspaces, a nullspace
per point subset for facets, a solve per row subset for vertices, and
rational elimination for determinants.  None of them touches bareiss.
The integer kernels must give the same solutions field for field, the
same facets, the same vertex lists in the same order with rational
coordinates, and determinants equal to the last bit.
"""

import itertools
import math
import random
from fractions import Fraction
import pytest

from minksimplex.errors import DegenerateInputError, DimensionError, ResourceCapError
from minksimplex.linalg import (
    Hyperplane,
    LinearSolution,
    Vec,
    bareiss,
    det,
    integer_solve,
    nullspace,
    rank,
    solve_linear,
)
from minksimplex import polytopes
from minksimplex.norms import PolytopeBall
from minksimplex.polytopes import (
    facet_hyperplanes,
    minimal_halfspaces,
    polar_pair,
    vertex_enumerate,
)
from minksimplex.scalars import Rat

from conftest import vec

# -- reference: the rational brute force -------------------------------


def ref_solve_linear(rows, rhs):
    """Gauss-Jordan elimination on Fractions: the first nonzero entry
    of each column is its pivot, and pivot rows are divided by their
    pivots at the end."""
    m, n = len(rows), len(rows[0])
    aug = [[Rat(c) for c in row] + [Rat(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        best = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if best is None:
            continue
        aug[r], aug[best] = aug[best], aug[r]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col] / aug[r][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append((r, col))
        if r + 1 == m:
            break
    for row, col in pivots:
        piv = aug[row][col]
        aug[row] = [v / piv for v in aug[row]]
    if any(aug[i][n] != 0 for i in range(len(pivots), m)):
        return LinearSolution("infeasible")
    point = [Rat(0)] * n
    for row, col in pivots:
        point[col] = aug[row][n]
    basis = []
    pivot_cols = {col for _, col in pivots}
    for fc in range(n):
        if fc not in pivot_cols:
            direction = [Rat(0)] * n
            direction[fc] = Rat(1)
            for row, col in pivots:
                direction[col] = -aug[row][fc]
            basis.append(tuple(direction))
    if not basis:
        return LinearSolution("unique", tuple(point))
    return LinearSolution("affine", tuple(point), tuple(basis))


def ref_nullspace(rows):
    return list(ref_solve_linear(rows, [0] * len(rows)).basis)


def ref_rank(rows):
    return len(rows[0]) - len(ref_nullspace(rows))


def ref_affine_rank(points):
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return ref_rank(diffs) if diffs else 0


def ref_facet_hyperplanes(points):
    pts = list(dict.fromkeys(points))
    d = pts[0].dim
    found = {}
    for combo in itertools.combinations(pts, d):
        basis = ref_nullspace([[*p.coords, -1] for p in combo])
        if len(basis) != 1:
            continue
        normal, offset = Vec(basis[0][:d]), basis[0][d]
        signs = {(v > 0) - (v < 0) for v in (normal.dot(p) - offset for p in pts)} - {0}
        if len(signs) != 1:
            continue
        h = Hyperplane(normal, offset) if signs == {-1} else Hyperplane(-normal, -offset)
        found[h.canonical()] = h
    return sorted(found.values(), key=Hyperplane.canonical)


def ref_vertex_enumerate(halfspaces):
    d = halfspaces[0].dim
    seen = {}
    for combo in itertools.combinations(halfspaces, d):
        sol = ref_solve_linear([list(h.normal.coords) for h in combo], [h.offset for h in combo])
        if sol.status != "unique":
            continue
        x = Vec(sol.point)
        if all(h.eval(x) <= 0 for h in halfspaces):
            seen[x.coords] = x
    return sorted(seen.values(), key=Vec.key)


def ref_minimal_halfspaces(halfspaces, vertices):
    d = halfspaces[0].dim
    kept = {}
    for h in halfspaces:
        tight = [v for v in vertices if h.eval(v) == 0]
        if len(tight) >= d and ref_affine_rank(tight) == d - 1:
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
        if ref_affine_rank(pts) == d:
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


def check_polar_pair(pts, facets, verts):
    """polar_pair on pts moved by their centroid c, which is interior
    to the hull: its vertices are verts - c, and each facet
    <a, x> <= b gives the polar vertex a / (b - <a, c>)."""
    c = Vec([sum(x) / len(pts) for x in zip(*pts)])
    vertices, polar = polar_pair([p - c for p in pts])
    assert sorted(vertices, key=Vec.key) == sorted((v - c for v in verts), key=Vec.key)
    moved = (h.normal / (h.offset - h.normal.dot(c)) for h in facets)
    assert sorted(polar, key=Vec.key) == sorted(moved, key=Vec.key)
    assert coord_types(vertices) == coord_types(polar) == {Fraction}


def coord_types_of(sol):
    return {type(c) for v in (sol.point or (), *sol.basis) for c in v}


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
        assert coord_types(verts) == {Fraction}
        # read off the points, the vertices are the same set
        check_polar_pair(pts, ref, verts)


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
        assert coord_types(verts) == {Fraction}
        kept = minimal_halfspaces(rows)
        assert canonical(kept) == canonical(ref_minimal_halfspaces(rows, verts))
        assert len(kept) == len(hyps)


def halfspace_system(rng, d, shape):
    """Rational halfspaces of one shape: "random" (1 to d + 5 rows,
    often unbounded or empty), "unbounded" (every normal has a
    nonnegative first coordinate, so -e_0 is a recession direction),
    "empty" (two opposite rows with no room between them), "cone"
    (exactly d rows through one point) or "pencil" (d + 1 to d + 4
    rows through one point, so every row is tight at it)."""

    def normal():
        while True:
            a = [rational(rng) for _ in range(d)]
            if shape == "unbounded":
                a[0] = abs(a[0])
            if any(a):
                return Vec(a)

    apex = Vec([rational(rng) for _ in range(d)])
    if shape in ("cone", "pencil"):
        m = d if shape == "cone" else d + rng.randint(1, 4)
        return [Hyperplane(a, a.dot(apex)) for a in (normal() for _ in range(m))]
    rows = [Hyperplane(normal(), rational(rng)) for _ in range(rng.randint(1, d + 5))]
    if shape == "empty":
        h = rows[0]
        rows.insert(rng.randint(0, len(rows)), Hyperplane(-h.normal, -h.offset - 1))
    return rows


def test_arbitrary_halfspace_systems_match_rational_brute_force():
    rng = random.Random("vh-oracle-systems")
    shapes = ("random", "unbounded", "empty", "cone", "pencil")
    nonempty = 0
    for i in range(300):
        d = 2 + i % 3
        rows = halfspace_system(rng, d, shapes[i // 3 % len(shapes)])
        verts = vertex_enumerate(rows)
        assert verts == ref_vertex_enumerate(rows), rows
        assert coord_types(verts) <= {Fraction}
        kept = minimal_halfspaces(rows)
        ref = ref_minimal_halfspaces(rows, verts)
        assert [h.canonical() for h in kept] == [h.canonical() for h in ref], rows
        assert all(a is b for a, b in zip(kept, ref))
        nonempty += bool(verts)
    assert 0 < nonempty < 300


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
        assert type(value) is Fraction
    assert det([[2, 1], [4, 2]]) == 0 and det([[0, 1], [1, 0]]) == -1


def test_bareiss_rank_equals_rational_rank():
    rng = random.Random("rank-oracle")
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1 % m])]
        assert bareiss(rows)[0] == ref_rank(rows)


def exact_system(rng):
    """A random exact system, m and n in 1..6: plain ints or rationals
    with mixed denominators, and one of full rank, rank-deficient
    (a row combined from two others, right-hand side consistent),
    inconsistent (a row repeated with another right-hand side) or with
    a zero row."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if rng.random() < 0.4:
        def entry():
            return rng.randint(-5, 5)
    else:
        def entry():
            return rational(rng)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    shape = rng.choice(("plain", "deficient", "inconsistent", "zero-row"))
    k = rng.randrange(m)
    if shape == "deficient" and m > 2:
        i, j = rng.sample([x for x in range(m) if x != k], 2)
        a, b = entry(), entry()
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rhs[k] = a * rhs[i] + b * rhs[j]
    elif shape == "inconsistent" and m > 1:
        i = rng.choice([x for x in range(m) if x != k])
        rows[k] = list(rows[i])
        rhs[k] = rhs[i] + 1
    elif shape == "zero-row":
        rows[k] = [0] * n
        rhs[k] = rng.choice((0, entry()))
    return rows, rhs


def test_solve_linear_equals_fraction_gauss_jordan():
    rng = random.Random("solve-oracle")
    statuses = set()
    for _ in range(600):
        rows, rhs = exact_system(rng)
        sol = solve_linear(rows, rhs)
        ref = ref_solve_linear(rows, rhs)
        assert sol == ref, (rows, rhs)
        assert coord_types_of(sol) == coord_types_of(ref) <= {Fraction}
        assert rank(rows) == ref_rank(rows)
        assert nullspace(rows) == ref_nullspace(rows)
        statuses.add(sol.status)
    assert statuses == {"unique", "affine", "infeasible"}


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
    assert coord_types(padded.vertices) == coord_types(padded.normals) == {Fraction}


def test_integer_vertices_come_back_rational():
    ball = PolytopeBall.from_vertices([Vec((1, 0)), Vec((0, 1)), Vec((-1, 0)), Vec((0, -1))])
    assert coord_types(ball.vertices) == {Fraction}


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


def symmetric_point_set(rng, d, n):
    """n points and their negatives, with the midpoint of two of them,
    a duplicate and the origin mixed in (11 points for n = 4), so
    some facets have more than d tight points."""
    while True:
        half = [Vec([rational(rng) for _ in range(d)]) for _ in range(n)]
        pts = half + [-p for p in half]
        if ref_affine_rank(pts) == d:
            break
    extra = [(pts[0] + pts[1]) / 2, pts[2], Vec([Rat(0)] * d)]
    out = pts + extra
    rng.shuffle(out)
    return out


def hyps_as_vecs(hyps):
    return [Vec((*h.normal.coords, h.offset)) for h in hyps]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symmetric_and_degenerate_point_sets_match_rational_brute_force(d):
    rng = random.Random(f"vh-oracle-symmetric:{d}")
    sizes = [rng.randint(d, d + 1) for _ in range(8)] if d < 4 else [4, 4]
    sets = [symmetric_point_set(rng, d, n) for n in sizes]
    # facet centres of the cube listed before its corners (6 of the 16
    # in d = 4, 14 points): most facets hold a point that is no vertex
    corners = [vec(*s) for s in itertools.product((-1, 1), repeat=d)]
    centres = [vec(*(s if k == i else 0 for k in range(d))) for i in range(d) for s in (1, -1)]
    sets.append(centres + (corners if d < 4 else corners[::3]))
    for pts in sets:
        hyps = facet_hyperplanes(pts)
        ref = ref_facet_hyperplanes(pts)
        assert canonical(hyps) == canonical(ref)
        assert coord_types(hyps_as_vecs(hyps)) == {Fraction}
        verts = vertex_enumerate(hyps)
        assert verts == ref_vertex_enumerate(ref)
        check_polar_pair(pts, ref, verts)


def test_fully_padded_4cube_builds_the_bare_cube():
    corners = [vec(*s) for s in itertools.product((-1, 1), repeat=4)]
    midpoints = [(a + b) / 2 for a, b in itertools.combinations(corners, 2)
                 if sum(x != y for x, y in zip(a, b)) == 1]
    half = [p / 2 for p in corners]
    assert len(midpoints) == 32
    padded = half + midpoints + corners  # 64 points, corners last
    assert PolytopeBall.from_vertices(padded) == PolytopeBall.from_vertices(corners)
    assert len(facet_hyperplanes(padded)) == 8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shuffled_points_give_the_same_facet_set(d):
    rng = random.Random(f"vh-shuffle:{d}")
    for _ in range(6 if d < 4 else 3):
        pts = symmetric_point_set(rng, d, d + 2) + point_set(rng, d)
        facets = set(canonical(facet_hyperplanes(pts)))
        for _ in range(4):
            rng.shuffle(pts)
            hyps = facet_hyperplanes(pts)
            assert set(canonical(hyps)) == facets
            # the halfspaces in shuffled order give the same vertex set
            rng.shuffle(hyps)
            check_polar_pair(pts, hyps, vertex_enumerate(hyps))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shuffled_input_gives_identical_lists(d):
    # the lists are sorted by Hyperplane.canonical and Vec.key, so no
    # order of the points or halfspaces shows through
    rng = random.Random(f"vh-canonical-order:{d}")
    for _ in range(6 if d < 4 else 3):
        pts = symmetric_point_set(rng, d, d + 2) + point_set(rng, d)
        hyps = facet_hyperplanes(pts)
        verts = vertex_enumerate(hyps)
        assert canonical(hyps) == sorted(canonical(hyps))
        assert [v.key() for v in verts] == sorted(v.key() for v in verts)
        for _ in range(4):
            rng.shuffle(pts)
            assert facet_hyperplanes(pts) == hyps
            rows = hyps[::-1]
            rng.shuffle(rows)
            assert vertex_enumerate(rows) == verts


def test_ball_validation_on_integer_rows_keeps_its_errors():
    square = [vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)]
    normals = [vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)]
    inner = [vec(Rat(1, 2), Rat(1, 2)), vec(Rat(-1, 2), Rat(-1, 2))]
    bad = {
        "vertex set is not centrally symmetric": (square[:3], normals),
        "facet set is not centrally symmetric": (square, normals[:3]),
        "polytope is not full-dimensional": ([vec(1, 1), vec(-1, -1)], normals),
        # the first vertex in sorted order that fails, with its gauge
        "vertex Vec(-1/2, -1/2) has gauge 1/2 != 1": (square + inner, normals),
    }
    for message, (verts, ns) in bad.items():
        with pytest.raises(DegenerateInputError) as err:
            PolytopeBall(verts, ns)
        assert str(err.value) == message
    # a vertex of another dimension is refused, wherever it sorts
    for extra in ([vec(1, 1, 1), vec(-1, -1, -1)], [vec(-2, -2, -5), vec(2, 2, 5)]):
        with pytest.raises(DimensionError):
            PolytopeBall(square + extra, normals)
    assert PolytopeBall(square, normals) == PolytopeBall.from_vertices(square)


def axis_points(d, r=1):
    """The 2d points +-r e_i: the vertices of the cross-polytope, or
    the normals of the cube."""
    return [vec(*(s * r if k == i else 0 for k in range(d))) for i in range(d) for s in (1, -1)]


def test_ball_caps_behave_as_before(monkeypatch):
    # polar_pair applies no cap: the input rows of an H-form ball and
    # the facets of a V-form ball are each checked once, as before
    cube = [Hyperplane(n, Rat(1)) for n in axis_points(4)]
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "8")
    ball = PolytopeBall.from_halfspaces(cube)
    assert (len(ball.normals), len(ball.vertices)) == (8, 16)
    with pytest.raises(ResourceCapError):
        PolytopeBall.from_halfspaces(cube + [Hyperplane(vec(1, 1, 0, 0), Rat(3))])
    cross = axis_points(4)  # 16 facets
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "15")
    with pytest.raises(ResourceCapError):
        PolytopeBall.from_vertices(cross)
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "16")
    assert len(PolytopeBall.from_vertices(cross).normals) == 16


def padded_4cube():
    corners = [vec(*s) for s in itertools.product((-1, 1), repeat=4)]
    midpoints = [(a + b) / 2 for a, b in itertools.combinations(corners, 2)
                 if sum(x != y for x, y in zip(a, b)) == 1]
    return [p / 2 for p in corners] + midpoints + corners


@pytest.mark.parametrize("d", [2, 3, 4])
def test_h_form_of_a_ball_gives_the_ball_back(d):
    rng = random.Random(f"vh-h-form:{d}")
    sets = [symmetric_point_set(rng, d, n) for n in (d, d + 1)]
    if d == 4:
        sets.append(padded_4cube())
    for pts in sets:
        ball = PolytopeBall.from_vertices(pts)
        n = ball.normals
        # a duplicate row, a copy scaled by 3 and a looser row
        rows = [Hyperplane(v, Rat(1)) for v in n + (n[0],)]
        rows += [Hyperplane(n[1] * 3, Rat(3)), Hyperplane(n[2], Rat(2))]
        rng.shuffle(rows)
        back = PolytopeBall.from_halfspaces(rows)
        assert back == ball
        assert back._vertex_rows == ball._vertex_rows
        assert back._normal_rows == ball._normal_rows
        assert coord_types(back.vertices) == coord_types(back.normals) == {Fraction}


def test_unbounded_halfspace_input_says_so():
    systems = [
        [vec(1, 0), vec(-1, 0)],  # the strip |x| <= 1
        [vec(1, 0), vec(0, 1)],  # x <= 1, y <= 1
        [vec(1, 0), vec(-1, 0), vec(0, 1)],
    ]
    for normals in systems:
        with pytest.raises(DegenerateInputError) as err:
            PolytopeBall.from_halfspaces([Hyperplane(n, Rat(1)) for n in normals])
        assert str(err.value) == "halfspace intersection is unbounded"


def null_vector_start(rows, d):
    """The kernel's start cone as it was first built: for each of the
    d + 1 rows, the coprime null vector of the other d (one solve each),
    turned to the inner side of the row it leaves out."""
    rays = []
    for j in range(d + 1):
        y = integer_solve([[*r, 0] for i, r in enumerate(rows) if i != j], d + 1)[2][0]
        g = math.gcd(*y)
        y = [c // g for c in y]
        if sum(a * b for a, b in zip(rows[j], y)) > 0:
            y = [-c for c in y]
        rays.append((y, sum(1 << i for i in range(d + 1) if i != j)))
    return rays


def test_start_cone_matches_null_vector_solves():
    # d + 1 independent rows are their own start cone, so the kernel
    # returns it unchanged, in order, with its masks
    rng = random.Random("start-cone")
    checked = 0
    while checked < 300:
        d = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(d + 1)]
        if bareiss(rows)[0] < d + 1:
            continue
        assert polytopes._polar_kernel(rows, d) == null_vector_start(rows, d)
        checked += 1
