"""The float lane's square kernel (`linalg._square_solve`) against the
general path it shortcuts.

The kernel solves 2 x 2 and 3 x 3 float systems with the operations of
`_float_eliminate`, op for op.  Its points are compared bit for bit
(struct.pack, so -0.0 and NaN count) with `_float_eliminate` plus one
division by each pivot row's pivot entry, and whole documents are
compared with the kernel switched off.  A work count pins the Newton
solves of the p = 3 tetrahedron.
"""

import json
import random
import struct

import pytest

import minksimplex.circumcenter as circumcenter_module
import minksimplex.linalg as linalg
from minksimplex import cli
from minksimplex.linalg import _float_eliminate, _square_solve, solve_linear

from test_centers_first import SCENES

TETRAHEDRON = (3.0, [(0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 2)])
INF, NAN = float("inf"), float("nan")


def bits(values):
    return None if values is None else struct.pack(f"{len(values)}d", *values)


def reference(aug, n):
    """The general path: _float_eliminate, then each pivot row's
    right-hand side over its pivot entry as it stands; None when a
    column has no pivot."""
    work = [list(row) for row in aug]
    pivots, _ = _float_eliminate(work, n)
    if len(pivots) < n:
        return None
    point = [0.0] * n
    for row, col, _ in pivots:
        point[col] = work[row][n] / work[row][col]
    return tuple(point)


def adversarial():
    """(name, aug) pairs of [coeffs | rhs] rows."""
    yield "tied pivots", [(2.0, 1.0, 0.0, 1.0), (-2.0, 3.0, 1.0, 2.0), (2.0, 0.0, 5.0, 3.0)]
    yield "tied after elimination", [(1.0, 2.0, 3.0, 1.0), (-1.0, 2.0, 1.0, 0.0), (1.0, -2.0, 2.0, 4.0)]
    yield "tied 2x2", [(-3.0, 1.0, 2.0), (3.0, 1.0, 1.0)]
    # the largest |coefficient| is 1, so the tolerance is EPS_REL = 1e-9 exactly
    yield "entry at tol, not a pivot", [(1e-9, 1.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0), (0.0, 0.0, 1.0, 3.0)]
    yield "entry at tol, not eliminated", [(1.0, 0.5, 0.0, 1.0), (1e-9, 1.0, 0.0, 2.0), (0.0, 0.0, 1.0, 3.0)]
    yield "entry just above tol", [(1.0, 0.5, 0.0, 1.0), (1.0000000000000002e-9, 1.0, 0.0, 2.0), (0.0, 0.0, 1.0, 3.0)]
    yield "only candidate at tol", [(1.0, 1.0, 1.0), (0.0, 1e-9, 2.0)]
    # w = +-0 in the pivot row keeps v: -0.0 - (-1 * 0.0) would give +0.0
    yield "signed zeros", [(1.0, 0.0, 0.0), (-1.0, 1.0, -0.0)]
    yield "signed zeros 3x3", [(1.0, -0.0, 0.0, -0.0), (-2.0, 1.0, -0.0, 0.0), (-0.5, 0.0, 4.0, -0.0)]
    yield "zero pivot row entries under inf", [(1.0, 0.0, 0.0, 1.0), (INF, 1.0, 0.0, 2.0), (0.0, 0.0, 1.0, 3.0)]
    yield "inf coefficient", [(INF, 1.0, 1.0), (1.0, 2.0, 3.0)]
    yield "inf right-hand side", [(1.0, 2.0, INF), (3.0, 1.0, 1.0)]
    yield "nan first", [(NAN, 1.0, 1.0), (2.0, 1.0, 1.0)]
    yield "nan later", [(2.0, 1.0, 1.0), (NAN, 1.0, 1.0)]
    yield "nan right-hand side", [(2.0, 1.0, 0.0, NAN), (1.0, 3.0, 1.0, 1.0), (0.0, 1.0, 4.0, 2.0)]
    yield "singular 2x2", [(1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]
    yield "inconsistent 2x2", [(1.0, 2.0, 3.0), (2.0, 4.0, 7.0)]
    yield "zero column", [(1.0, 0.0, 2.0, 1.0), (3.0, 0.0, 1.0, 2.0), (0.0, 0.0, 5.0, 3.0)]
    yield "zero matrix", [(0.0, 0.0, 0.0, 1.0), (0.0, -0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
    yield "dependent rows", [(1.0, 2.0, 3.0, 1.0), (2.0, 4.0, 6.0, 2.0), (1.0, 0.0, 1.0, 0.0)]


def seeded():
    rng = random.Random(37)
    for n in (2, 3):
        for _ in range(300):
            yield [tuple(rng.uniform(-5, 5) for _ in range(n + 1)) for _ in range(n)]
        # small integers: ties, zeros and singular systems come often
        for _ in range(300):
            yield [tuple(float(rng.randint(-2, 2)) for _ in range(n + 1)) for _ in range(n)]


def scaled(aug):
    """aug with each row times 1e300, 1e-300 or 1 in turn."""
    for factors in ((1e300,) * 3, (1e-300,) * 3, (1e300, 1e-300, 1.0), (1e-300, 1.0, 1e300)):
        yield [tuple(f * c for c in row) for f, row in zip(factors, aug)]


CASES = list(adversarial()) + [("seeded", aug) for aug in seeded()]
CASES += [(f"{name}, scaled", s) for name, aug in CASES[:60] for s in scaled(aug)]


def test_kernel_has_the_general_paths_bits():
    solved = 0
    for name, aug in CASES:
        n = len(aug)
        rows = list(aug)
        got = _square_solve(rows, n)
        assert all(a is b for a, b in zip(rows, aug)), name  # left as it is
        assert bits(got) == bits(reference(aug, n)), (name, aug)
        solved += got is not None
    assert 0 < solved < len(CASES)  # both outcomes are exercised


def test_solve_linear_matches_the_forced_general_path(monkeypatch):
    def solutions():
        out = []
        for _, aug in CASES:
            sol = solve_linear([row[:-1] for row in aug], [row[-1] for row in aug])
            out.append((sol.status, bits(sol.point), tuple(bits(b) for b in sol.basis)))
        return out

    with_kernel = solutions()
    monkeypatch.setattr(linalg, "_square_solve", lambda aug, n: None)
    assert with_kernel == solutions()
    assert {status for status, _, _ in with_kernel} == {"unique", "affine", "infeasible"}


def request(tmp_path, command, p, vertices):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"dimension": len(vertices[0]), "ball": {"type": "pnorm", "p": p},
                                "simplex": [list(v) for v in vertices]}))
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    code = cli.main([command, "--in", str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_documents_match_with_the_kernel_switched_off(tmp_path, monkeypatch):
    scenes = SCENES + [TETRAHEDRON]  # SCENES ends with the NO_CENTER triangle
    solved, kernel = [0], linalg._square_solve

    def counted(aug, n):
        point = kernel(aug, n)
        solved[0] += point is not None
        return point

    monkeypatch.setattr(linalg, "_square_solve", counted)
    monkeypatch.setattr(circumcenter_module, "_square_solve", counted)  # the Newton loop's name
    on = [request(tmp_path, command, p, v) for p, v in scenes for command in ("circumcenters", "centers")]
    assert solved[0] > 0
    # solve_linear takes its general path, and so does the Newton loop
    monkeypatch.setattr(linalg, "_square_solve", lambda aug, n: None)
    monkeypatch.setattr(circumcenter_module, "_square_solve", circumcenter_module._solve_rows)
    off = [request(tmp_path, command, p, v) for p, v in scenes for command in ("circumcenters", "centers")]
    assert on == off


@pytest.mark.parametrize("command, solves", [("centers", 5), ("circumcenters", 44)])
def test_newton_solves_per_request_in_3d(tmp_path, monkeypatch, command, solves):
    calls, solve = [0], circumcenter_module._square_solve

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(circumcenter_module, "_square_solve", counted)
    p, vertices = TETRAHEDRON
    assert request(tmp_path, command, p, vertices)[0] == 0
    assert calls[0] == solves
