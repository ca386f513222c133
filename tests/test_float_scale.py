"""Float-lane systems whose right-hand side dwarfs their coefficients.

A pivot is judged against the coefficients alone and a leftover row
against the right-hand side too, so huge but well-posed systems are
solved instead of reported infeasible; the exsphere singularity test
scales its rows before the determinant instead of raising a bound to
the power d + 1.  The circumcenter tests compare gauges and points
relative to the simplex's own scale, with no absolute floor that a tiny
simplex falls under.  Facet normals, Euler-line checks and collinearity
tests likewise scale before they multiply, so a simplex with 1e300
coordinates gets its centers and its picture.  A result that is itself
beyond the float range ends in exit 2 with a message naming it.
A simplex below the normal float range ends in exit 2 in every
command that reads its scale, and `gauge` still answers.
"""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from minksimplex.centers import euler_line, exspheres, feuerbach_sphere, incenter
from minksimplex.circumcenter import circumcenters, is_circumcenter
from minksimplex.cli import main
from minksimplex.config import EPS_REL
from minksimplex.construct import quasiregular_simplex
from minksimplex.errors import VerificationError
from minksimplex.linalg import Vec, solve_linear
from minksimplex.norms import Ball, PNormBall, lp_norm
from minksimplex.simplex import Simplex

P3 = PNormBall(2, 3.0)


def right_triangle(s: float) -> Simplex:
    return Simplex([Vec((0.0, 0.0)), Vec((s, 0.0)), Vec((0.0, s))])


def test_large_right_hand_side_keeps_its_pivots():
    sol = solve_linear([[1.0, 0.0], [0.0, 1.0]], [1e300, 1e300])
    assert sol.status == "unique"
    assert sol.point == (1e300, 1e300)


def test_leftover_rows_are_judged_against_the_right_hand_side():
    # the second row repeats the first up to a relative 1e-12
    sol = solve_linear([[1.0, 1.0], [1.0, 1.0]], [1e300, 1e300 * (1 + 1e-12)])
    assert sol.status == "affine" and sol.dim == 1
    sol = solve_linear([[1.0, 1.0], [1.0, 1.0]], [1e300, -1e300])
    assert sol.status == "infeasible"
    sol = solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0 + 1e-3])
    assert sol.status == "infeasible"


def test_in_and_exspheres_scale_with_the_simplex():
    # offsets near 1e300 against normals near 1e150: the parent form of
    # the exsphere test raised OverflowError and the insphere system
    # came out singular
    s = 1e150
    small, huge = right_triangle(1.0), right_triangle(s)
    ins0, ins1 = incenter(small, P3), incenter(huge, P3)
    assert ins1.radius == pytest.approx(s * ins0.radius, rel=EPS_REL)
    for a, b in zip(ins0.center, ins1.center):
        assert b == pytest.approx(s * a, rel=EPS_REL)
    ex0, ex1 = exspheres(small, P3), exspheres(huge, P3)
    for i in range(3):
        assert ex1[i] is not None
        assert ex1[i].radius == pytest.approx(s * ex0[i].radius, rel=EPS_REL)
        for a, b in zip(ex0[i].center, ex1[i].center):
            assert b == pytest.approx(s * a, rel=EPS_REL)


def run(tmp_path, command, simplex):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 3},
        "simplex": simplex,
    }))
    out = tmp_path / "out.json"
    code = main([command, "--in", str(scene), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_circumcenter_of_huge_simplex(tmp_path):
    simplex = [[0, 0], [1e300, 1], [0, 1e300]]
    code, doc = run(tmp_path, "circumcenters", simplex)
    assert code == 0
    (piece,) = doc["pieces"]
    assert piece["affine_dim"] == 0
    assert piece["center"] == [pytest.approx(5e299, rel=EPS_REL)] * 2
    for v in simplex:
        diff = [float(a) - c for a, c in zip(v, piece["center"])]
        assert lp_norm(diff, 3.0) == pytest.approx(piece["radius"], rel=EPS_REL)


def test_centers_of_large_simplex(tmp_path):
    code, doc = run(tmp_path, "centers", [[0, 0], [1e150, 0], [0, 1e150]])
    assert code == 0
    assert doc["incenter"]["radius"] > 0
    assert [e["flipped_facet"] for e in doc["exspheres"]] == [0, 1, 2]


def test_centers_of_huge_simplex(tmp_path):
    # unscaled facet offsets would be near 1e600, and the Euler checks
    # cancel terms near 1e300
    code, doc = run(tmp_path, "centers", [[0, 0], [1e300, 1], [0, 1e300]])
    assert code == 0
    # the simplex is 1e300 times the unit right triangle up to 1e-300
    small = incenter(right_triangle(1.0), P3)
    assert doc["incenter"]["radius"] == pytest.approx(1e300 * small.radius, rel=EPS_REL)
    for a, b in zip(small.center, doc["incenter"]["center"]):
        assert b == pytest.approx(1e300 * a, rel=EPS_REL)
    assert doc["euler"]["circumcenter"] == [pytest.approx(5e299, rel=EPS_REL)] * 2


def test_render_of_huge_simplex(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 3},
        "simplex": [[0, 0], [1e300, 1], [0, 1e300]],
    }))
    svg = tmp_path / "out.svg"
    assert main(["render", "--in", str(scene), "--svg", str(svg)]) == 0
    assert ET.fromstring(svg.read_text()).tag.endswith("svg")


@pytest.mark.parametrize("p, simplex", [
    (5000, None),
    (1e308, None),
    (1e308, [[0, 0], [1, 0], [0, 1]]),
])
def test_render_at_huge_p(tmp_path, p, simplex):
    # |cos t|^p + |sin t|^p underflows to 0 at such p; the outline
    # takes each sample's norm by lp_norm, which scales first
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": p}}
    if simplex is not None:
        body["simplex"] = simplex
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(body))
    svg = tmp_path / "out.svg"
    assert main(["render", "--in", str(scene), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    outline = next(e for e in root.iter() if e.get("class") == "ball")
    for pair in outline.get("points").split():
        x, y = map(float, pair.split(","))
        # on the l_p unit sphere max(|x|, |y|) lies in [2^(-1/p), 1]
        assert 0.99 <= max(abs(x), abs(y)) <= 1.0


def test_verify_at_huge_p(tmp_path):
    # family 41 runs on the dual ball, whose p / (p - 1) rounds to 1.0
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 1e308},
        "simplex": [[0, 0], [4, 0], [0, 3]],
    }))
    out = tmp_path / "out.json"
    argv = ["verify", "--theorem", "41", "--trials", "4", "--in", str(scene), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["all_agree"] is True


def run_scene(tmp_path, argv, body):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(body))
    out = tmp_path / "out"
    flag = "--svg" if argv[0] == "render" else "--out"
    code = main([*argv, "--in", str(scene), flag, str(out)])
    return code, out.read_text() if out.exists() else None


def test_gauge_beyond_the_float_range_exits_2(tmp_path, capsys):
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "points": {"P": [1.7e308, 1.7e308]}}
    assert run_scene(tmp_path, ["gauge"], body) == (2, None)
    assert "gauges.points.P" in capsys.readouterr().err


@pytest.mark.parametrize("p,anchor", [
    *((p, [5e-324, 5e-324]) for p in (1.5, 3, 100)),
    *((p, [1.7e308, 1.7e308]) for p in (1.5, 3)),
    (3, [1e-320, 0, 2e-320]),
])
def test_construct_scales_an_anchor_outside_the_normal_range(tmp_path, p, anchor):
    # a subnormal gauge left the scaled anchor short of digits (exit 3),
    # an overflowing one rounded it to 0 (exit 2)
    body = {"dimension": len(anchor), "ball": {"type": "pnorm", "p": p}, "points": {"anchor": anchor}}
    code, text = run_scene(tmp_path, ["construct"], body)
    assert code == 0
    for v in json.loads(text)["simplex"]:
        assert lp_norm(v, p) == pytest.approx(1.0, abs=1e-9)


def test_render_beyond_the_float_range_exits_2(tmp_path, capsys):
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": 7}, "simplex": [
        [2.0, 1.6418294408555458e308],
        [-1.3342128132818033e308, 3.9766866540782797e307],
        [-2.0, 2.0],
    ]}
    assert run_scene(tmp_path, ["render"], body) == (2, None)
    assert "beyond the float range" in capsys.readouterr().err


NEAR_MAX = [[0, 0], [1e308, 1], [0, 1e308]]


def test_circumradius_of_near_max_simplex_does_not_overflow(tmp_path):
    # each vertex gauge is about 6.3e307; their sum is inf, their mean is not
    code, doc = run(tmp_path, "circumcenters", NEAR_MAX)
    assert code == 0
    (piece,) = doc["pieces"]
    assert piece["center"] == [pytest.approx(5e307, rel=EPS_REL)] * 2
    assert piece["radius"] == pytest.approx(lp_norm([5e307, 5e307], 3.0), rel=EPS_REL)


def test_centers_of_near_max_simplex_exit_2(tmp_path, capsys):
    # exsphere 0 has a radius near 2.4e308, beyond the float range
    assert run(tmp_path, "centers", NEAR_MAX) == (2, None)
    assert "exspheres[0]" in capsys.readouterr().err


WIDE_NEAR_MAX = [
    [3.298238655835792e307, 1.1543886448358e308],
    [3.363151243716548e307, -3.524484739173826e307],
    [-1.032859263820376e308, 9.566212307545983e307],
]


@pytest.mark.parametrize("p, radius, failures", [
    (1.01, 1.3301028363552003e308, 7),
    (1.5, 1.0683416256357647e308, 3),
    (2, 9.564744060906902e307, 1),
    (3, 8.599028988572009e307, 1),
])
def test_a_start_with_an_inf_gauge_fails(tmp_path, p, radius, failures):
    # at p = 1.01 and 1.5 some starts converge where a vertex gauge is
    # inf, so the residual bound EPS_ABS * max(g) is inf too; those
    # starts had printed pieces of radius inf and ended in exit 2
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": p}, "simplex": WIDE_NEAR_MAX}
    code, text = run_scene(tmp_path, ["circumcenters"], body)
    assert code == 0
    doc = json.loads(text)
    (piece,) = doc["pieces"]
    assert (piece["radius"], doc["start_failures"]) == (radius, failures)
    for v in WIDE_NEAR_MAX:
        diff = [a - c for a, c in zip(v, piece["center"])]
        assert lp_norm(diff, p) == pytest.approx(radius, rel=EPS_REL)


def test_render_draws_the_float_medial_triangle(tmp_path):
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": 3},
            "simplex": [[4.1, 8.1], [-1.9, -8.9], [1.1, -4.7]]}
    code, svg = run_scene(tmp_path, ["render"], body)
    assert code == 0
    medial = next(e for e in ET.fromstring(svg).iter() if e.get("class") == "medial")
    assert len(medial.get("points").split()) == 3


def test_dual_of_a_float_sliver_ends_in_an_exit_code(tmp_path):
    # b_i - <a_i, G> cancels to 0 on this sliver; the edge-read scale does not
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": 7}, "simplex": [
        [-2.099230124155727e305, -4.3521650577128304e305], [3.0, 3.0], [2.0, 3.0],
    ]}
    code, _ = run_scene(tmp_path, ["verify", "--theorem", "41", "--trials", "2"], body)
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("simplex", [
    [[1000, 1000], [1001, 1000], [1000, 1001]],
    [[0, 0], [1e-5, 0], [0, 1e-5]],
])
def test_gauge_of_a_far_or_tiny_triangle(tmp_path, simplex):
    # the affine-dependence test reads unit edges, so neither the
    # simplex's place nor its size can make it degenerate
    code, doc = run(tmp_path, "gauge", simplex)
    assert code == 0
    assert len(doc["gauges"]["simplex_vertices"]) == 3


@pytest.mark.parametrize("family", ["41", "43", "44"])
@pytest.mark.parametrize("simplex", [
    [[0, 0], [1e150, 0], [0, 1e150]],
    [[0, 0], [1e-150, 0], [0, 1e-150]],
    [[0, 0], [1e300, 1], [0, 1e300]],
])
def test_verify_compares_at_the_simplex_scale(tmp_path, family, simplex):
    # float verdicts compare dimensionless values (lengths, and ratios
    # of affine-function values) at a relative 1e-7, so no verdict
    # depends on the simplex's size
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "simplex": simplex}
    code, text = run_scene(tmp_path, ["verify", "--theorem", family, "--trials", "2"], body)
    assert code == 0
    assert json.loads(text)["all_agree"] is True


def right_triangle_4_3(s: float) -> Simplex:
    return Simplex([Vec((0.0, 0.0)), Vec((4 * s, 0.0)), Vec((0.0, 3 * s))])


@pytest.mark.parametrize("s", [1.0, 1e-5, 1e-150, 1e-300])
def test_tiny_triangle_has_its_one_circumcenter(s):
    # an absolute residual floor let every Newton start pass at 1e-300,
    # the centroid first; the one p = 3 circumcenter is (2, 1.5) s
    T = right_triangle_4_3(s)
    found = circumcenters(T, P3)
    assert found.start_failures == circumcenters(right_triangle_4_3(1.0), P3).start_failures
    (piece,) = found.pieces
    assert piece.center.coords == pytest.approx((2 * s, 1.5 * s), rel=1e-13, abs=0)
    assert is_circumcenter(T, P3, piece.center, piece.radius)
    assert not is_circumcenter(T, P3, T.centroid)
    line = euler_line(T, P3, piece.center, piece.radius)
    assert line.degenerate_line_indices == (0,)


def test_centers_of_tiny_triangle(tmp_path):
    code, doc = run(tmp_path, "centers", [[0, 0], [4e-300, 0], [0, 3e-300]])
    assert code == 0
    euler = doc["euler"]
    assert euler["circumcenter"] == pytest.approx([2e-300, 1.5e-300], rel=1e-13, abs=0)
    assert (euler["collapsed"], euler["degenerate_line_indices"]) == (False, [0])


@pytest.mark.parametrize("command", ["circumcenters", "render", "centers"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("simplex", [
    *(pytest.param([[0, 0], [4 * s, 0], [0, 3 * s]], id=str(s)) for s in (1e-310, 1e-315, 1e-320, 5e-324)),
    pytest.param([[5e-324, 0], [0, 5e-324], [-5e-324, -5e-324]], id="smallest-subnormals"),
])
def test_centers_of_subnormal_triangle_exit_2(tmp_path, capsys, simplex, p, command):
    # the smooth search, the in- and exspheres and the Euler-line checks
    # are relative to the simplex's scale, which a subnormal float holds
    # to a few digits only; Simplex.float_scale refuses it before any of
    # them is read.  A gauge needs no scale, so `gauge` still answers.
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": p}, "simplex": simplex}
    assert run_scene(tmp_path, [command], body) == (2, None)
    assert "simplex coordinates are below the normal float range" in capsys.readouterr().err
    assert run_scene(tmp_path, ["gauge"], body)[0] == 0


@pytest.mark.parametrize("family", ["41", "42", "43", "44"])
def test_verify_of_subnormal_triangle_exit_2(tmp_path, capsys, family):
    # every family reads the float facets (heights, bisectors, the
    # centroid-dual); the message names the scene simplex's scale, not
    # a failure of a dual the scene never gave
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "simplex": [[0, 0], [4e-310, 0], [0, 3e-310]]}
    code, _ = run_scene(tmp_path, ["verify", "--theorem", family, "--trials", "2"], body)
    assert code == 2
    assert "simplex coordinates are below the normal float range" in capsys.readouterr().err


@pytest.mark.parametrize("L", [1e13, 1e100])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0)])
def test_centers_of_a_needle_triangle(tmp_path, order, p, L):
    # the long edges have slopes 2 / L and 5 / L, 1 x 1 cofactors at or
    # below 1e-12 that must not count as 0, or a facet line misses one of
    # its vertices.  The incircle of the strip of width 3 between them
    # has radius 1.5 in every p-norm, and 3L / (|BC| + 3 + |AB|) at
    # p = 2.  The apex-first orders fail general_position.
    needle = [[0, 0], [2, L], [-3, 0]]
    body = {"dimension": 2, "ball": {"type": "pnorm", "p": p}, "simplex": [needle[k] for k in order]}
    code, text = run_scene(tmp_path, ["centers"], body)
    assert code == 0
    inc = json.loads(text)["incenter"]
    assert inc["radius"] == pytest.approx(1.5, rel=1e-12)
    assert inc["center"] == [pytest.approx(-1.5, rel=1e-12), pytest.approx(1.5, rel=1e-12)]


# -- Euler-line checks at the coordinates' scale ----------------------

TRIANGLE_345 = [[0, 0], [4, 0], [0, 3]]
TETRAHEDRON_345 = [[0, 0, 0], [4, 0, 0], [0, 3, 0], [0, 0, 2]]


@pytest.mark.parametrize("s", [0, 1e4, 1e6, 1e7, 1e9, 1e12])
@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("base", [TRIANGLE_345, TETRAHEDRON_345])
def test_centers_and_render_of_a_shifted_simplex(tmp_path, base, p, s):
    # M - G and P - G carry a few ulps of the position's |coordinate|
    # of rounding, which the unit vectors' minors must allow for
    body = {
        "dimension": len(base[0]),
        "ball": {"type": "pnorm", "p": p},
        "simplex": [[c + s for c in v] for v in base],
    }
    assert run_scene(tmp_path, ["centers"], body)[0] == 0
    assert run_scene(tmp_path, ["render"], body)[0] == 0


@pytest.mark.parametrize("s", [0.0, 1e7])
def test_euler_line_rejects_a_point_just_off_it(s):
    T = right_triangle_4_3(1.0).translate(Vec((s, s)))
    piece = circumcenters(T, P3).pieces[0]
    line = euler_line(T, P3, piece.center, piece.radius)
    assert line.contains(line.concurrence) and line.contains(line.monge)
    assert not line.collapsed and line.contains(line.centroid)  # P - G = 0
    g, m = line.centroid.coords, line.circumcenter.coords
    u = (m[0] - g[0], m[1] - g[1])
    off = 1e-6 * math.hypot(*u)
    n = (-u[1] / math.hypot(*u), u[0] / math.hypot(*u))
    assert line.contains(Vec((g[0] + 2 * u[0], g[1] + 2 * u[1])))
    assert not line.contains(Vec((g[0] + 2 * u[0] + off * n[0], g[1] + 2 * u[1] + off * n[1])))


def test_collapsed_euler_line_at_a_tiny_scale():
    # an absolute floor of 1e-12 let the collapsed line hold any point
    # within 1e-12 of a centroid whose coordinates are near 1e-300
    ball = PNormBall(2, 3.0)
    T = quasiregular_simplex(ball).simplex.scale(1e-300)
    g = T.centroid
    line = euler_line(T, ball, g, ball.gauge(T.vertices[0] - g))
    assert line.collapsed
    assert line.contains(g) and line.contains(line.monge) and line.contains(line.concurrence)
    assert not line.contains(g + Vec((0.0, 1e-13)))
    assert not line.contains(g + Vec((0.0, 1e-303)))


@pytest.mark.parametrize("s", [1.0, 1e-300, 1e300])
def test_feuerbach_check_rejects_a_gauge_off_by_a_millionth(monkeypatch, s):
    T = right_triangle_4_3(s)
    piece = circumcenters(T, P3).pieces[0]
    sphere = feuerbach_sphere(T, P3, piece.center, piece.radius)
    assert sphere.radius == pytest.approx(piece.radius / 2, rel=1e-12)
    original = Ball.gauge_from_center
    monkeypatch.setattr(Ball, "gauge_from_center", lambda self, x: original(self, x) * (1 + 1e-6))
    with pytest.raises(VerificationError, match="feuerbach sphere"):
        feuerbach_sphere(T, P3, piece.center, piece.radius)
