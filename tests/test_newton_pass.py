"""The smooth search's unrolled Newton passes (`circumcenter._newton_pass_2`
and `_newton_pass_3`) against the general pass they shortcut.

The general pass takes each gauge by `lp_norm`, each gradient by
`lp_gradient`, and divides each Jacobian row and its residual by the
row's largest |entry|.  The unrolled passes must give the same gauges
and the same [coeffs | rhs] tuples bit for bit (struct.pack, so -0.0
and NaN count), on seeded points, on a vertex at m, on signed zeros and
on coordinates whose differences overflow.  Whole documents are
compared with the kernels switched off.  A start whose iterate lands
on a vertex ends as a collapse, one whose Newton step holds an inf or
NaN ends at that step, and both count as start failures.
"""

import json
import random
import struct

import pytest

import minksimplex.circumcenter as circumcenter_module
import minksimplex.linalg as linalg
from minksimplex import cli
from minksimplex.circumcenter import _newton_pass, _newton_pass_2, _newton_pass_3, circumcenters
from minksimplex.config import EPS_ABS, EPS_COLLAPSE
from minksimplex.linalg import Vec
from minksimplex.norms import PNormBall
from minksimplex.simplex import Simplex

from test_centers_first import SCENES

PS = (1.01, 1.5, 2.0, 3.0, 50.0, 1000.0)
INF = float("inf")
UNROLLED = {2: _newton_pass_2, 3: _newton_pass_3}


def bits(values):
    return struct.pack(f"{len(values)}d", *values)


def outcome(out):
    """A pass's result with every float as its bits."""
    if out is None:
        return None
    g, aug = out
    return bits(g), None if aug is None else [bits(row) for row in aug]


def seeded():
    """(A, m) pairs: random simplices and points, some m near a vertex."""
    rng = random.Random(44)
    for d in (2, 3):
        for _ in range(150):
            A = [[rng.uniform(-3, 3) for _ in range(d)] for _ in range(d + 1)]
            m = [rng.uniform(-3, 3) for _ in range(d)]
            yield A, m
            # m a hair off a vertex: a collapse at the search's threshold
            yield A, [c + rng.uniform(-1e-14, 1e-14) for c in A[rng.randrange(d + 1)]]


def special():
    """(A, m) pairs on the edges of the float range."""
    for d in (2, 3):
        A = [[float(i == k) for k in range(d)] for i in range(d + 1)]
        yield A, list(A[1])  # a vertex at m: a zero gauge
        yield A, [-0.0] * d  # signed zeros in x = A_i - m
        yield [[0.0] * d, *A[1:]], [0.0] * d
        yield [[-0.0, 0.0, -0.0][:d], *A[1:]], [0.0, -0.0, 0.0][:d]
        yield [[-0.0] * d, [0.0, 1.0, 0.0][:d], *A[2:]], [0.0] * d
        # differences near the float range overflow to inf, and the gauge
        # differences and gradient ratios of inf gauges are nan
        big = [[1e300 * (-1) ** (i + k) for k in range(d)] for i in range(d + 1)]
        yield big, [0.0] * d
        yield big, [-1.7e308] * d
        yield [[1.7e308 * (-1) ** i, -1.7e308] + [0.0] * (d - 2) for i in range(d + 1)], [-1e308] * d
        yield [[1e300, 2e300, -1e300][:d], [-1e300] * d, *big[2:]], [1.7e308, -1.7e308, 1e300][:d]
        # iterates that overflowed; none holds a NaN, since a start ends
        # at its first non-finite step
        yield A, [INF] + [0.0] * (d - 1)
        yield A, [-INF, INF, -INF][:d]
        yield A, [5e-324] * d


CASES = list(seeded()) + list(special())


@pytest.mark.parametrize("p", PS)
def test_unrolled_passes_have_the_general_passs_bits(p):
    kinds = set()
    for A, m in CASES:
        d = len(m)
        scale = max(abs(c) for a in A for c in a) or 1.0
        # the search's thresholds, and a loose residual test that some
        # points pass
        for collapse, eps in ((EPS_COLLAPSE * scale, EPS_ABS), (EPS_COLLAPSE * scale, 0.3)):
            want = _newton_pass(A, m, p, collapse, eps)
            assert outcome(UNROLLED[d](A, m, p, collapse, eps)) == outcome(want), (A, m, p, collapse, eps)
            kinds.add("collapse" if want is None else "converged" if want[1] is None else "step")
    assert kinds == {"collapse", "converged", "step"}


@pytest.mark.parametrize("d", [2, 3])
def test_a_zero_gauge_is_a_collapse(d):
    # the search's collapse threshold is positive (float_scale refuses a
    # subnormal simplex), so a vertex at m is below it
    A = [[float(i == k) for k in range(d)] for i in range(d + 1)]
    for newton_pass in (_newton_pass, UNROLLED[d]):
        # EPS_COLLAPSE times the unit simplex's scale, 1
        assert newton_pass(A, list(A[1]), 2.0, EPS_COLLAPSE, EPS_ABS) is None


def request(tmp_path, command, p, vertices):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"dimension": len(vertices[0]), "ball": {"type": "pnorm", "p": p},
                                "simplex": [list(v) for v in vertices]}))
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    code = cli.main([command, "--in", str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_documents_match_with_the_kernels_switched_off(tmp_path, monkeypatch):
    # SCENES holds 2D and 3D scenes and ends with the NO_CENTER triangle
    def documents():
        return [request(tmp_path, command, p, v) for p, v in SCENES for command in ("circumcenters", "centers")]

    on = documents()
    # every dimension takes the general pass and solve_linear's general path
    monkeypatch.setattr(circumcenter_module, "_newton_pass_2", _newton_pass)
    monkeypatch.setattr(circumcenter_module, "_newton_pass_3", _newton_pass)
    monkeypatch.setattr(circumcenter_module, "_square_solve", circumcenter_module._solve_rows)
    monkeypatch.setattr(linalg, "_square_solve", lambda aug, n: None)
    assert on == documents()
    assert json.loads(on[-2][1])["pieces"] == []  # NO_CENTER's circumcenters


@pytest.mark.parametrize("p, failures, center", [
    (2.0, 4, (0.4916666666666667, 0.0)),
    (3.0, 5, (0.49872047284276, 0.0)),
])
def test_a_start_that_lands_on_a_vertex_fails(monkeypatch, p, failures, center):
    # at one start's iterate a vertex gauge falls below EPS_COLLAPSE
    # times the simplex's scale; that start ends and counts as a failure
    collapses = []

    def counting(*args):
        out = _newton_pass_2(*args)
        collapses.append(out is None)
        return out

    monkeypatch.setattr(circumcenter_module, "_newton_pass_2", counting)
    T = Simplex([Vec((0.4, 0.5)), Vec((1.0, 0.0)), Vec((0.4, -0.5))])
    found = circumcenters(T, PNormBall(2, p))
    assert sum(collapses) == 1
    assert found.start_failures == failures
    assert [piece.center.coords for piece in found.pieces] == [center]


def test_a_start_ends_at_a_non_finite_step():
    # on this near-max triangle seven Newton steps hold an inf or NaN
    # entry; one of them, (8.0e306, -inf), would leave m = (-3.3e306,
    # NaN) after its clamp, where vertex 2's gauge is 0 behind vertex 0's
    # NaN gauge.  Each such start fails, and the one center stays.
    T = Simplex([Vec((-6.666666666666666e306, 0.0)), Vec((0.0, 6.666666666666666e306)),
                 Vec((-3.333333333333333e306, 0.0))])
    found = circumcenters(T, PNormBall(2, 1.01))
    assert found.start_failures == 7
    assert [piece.center.coords for piece in found.pieces] == [(-5.0000000000000006e306, 4.999999999999999e306)]
