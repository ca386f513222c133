"""`circumcenters(..., first=True)`: the smooth search stops at its first
center, which `centers` prints.

Differential checks against the full search: the first piece is the
same bit for bit, `centers` documents are byte-identical, and the
polytopal enumeration ignores the flag.  A work count pins the Newton
solves that the stop saves.
"""

import json
import random

import pytest

import minksimplex.circumcenter as circumcenter_module
from minksimplex import cli
from minksimplex.circumcenter import circumcenters, cube_edge_midpoint_instance
from minksimplex.norms import PNormBall
from minksimplex.simplex import Simplex

from conftest import SQUARE, fvec, vec

PS = (1.01, 1.05, 1.5, 3.0, 50.0, 300.0, 1000.0)
SCALES = (1.0, 1e-300, 1e300)
# all 12 starts fail on this p = 300 triangle: no piece on either side
NO_CENTER = (300.0, [(1.079175, -0.294922), (1.170953, 0.059483), (-2.015725, -2.009824)])


def seeded_scenes():
    rng = random.Random(27)
    for d in (2, 3):
        for p in PS:
            for scale in SCALES:
                for _ in range(2):
                    vertices = [
                        tuple(round(rng.uniform(-3, 3), 6) * scale for _ in range(d))
                        for _ in range(d + 1)
                    ]
                    yield p, vertices
    yield NO_CENTER


SCENES = list(seeded_scenes())


def test_first_piece_is_the_full_searchs_first_piece():
    for p, vertices in SCENES:
        T = Simplex([fvec(*v) for v in vertices])
        ball = PNormBall(T.dim, p)
        full = circumcenters(T, ball)
        first = circumcenters(T, ball, first=True)
        assert len(first.pieces) == min(1, len(full.pieces)), (p, vertices)
        for a, b in zip(first.pieces, full.pieces):
            assert a.center.coords == b.center.coords, (p, vertices)
            assert (a.radius, a.affine_dim) == (b.radius, b.affine_dim), (p, vertices)
        assert first.classification == full.classification


def test_no_center_scene_has_no_piece_either_way():
    p, vertices = NO_CENTER
    T = Simplex([fvec(*v) for v in vertices])
    for flag in (False, True):
        cset = circumcenters(T, PNormBall(2, p), first=flag)
        assert cset.pieces == [] and cset.start_failures == 12


def centers_request(tmp_path, p, vertices):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"dimension": len(vertices[0]), "ball": {"type": "pnorm", "p": p},
                                "simplex": [list(v) for v in vertices]}))
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    code = cli.main(["centers", "--in", str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_centers_documents_match_the_full_search(tmp_path, monkeypatch):
    stopped = [centers_request(tmp_path, p, v) for p, v in SCENES]
    monkeypatch.setattr(circumcenter_module, "circumcenters", lambda simplex, ball, first=False: circumcenters(simplex, ball))
    full = [centers_request(tmp_path, p, v) for p, v in SCENES]
    assert stopped == full
    assert json.loads(stopped[-1][1])["euler"] is None


@pytest.mark.parametrize("instance", ["square-345", "cube-edge-midpoint"])
def test_polytopal_enumeration_ignores_the_flag(instance):
    if instance == "square-345":
        T, ball = Simplex([vec(0, 0), vec(4, 0), vec(0, 3)]), SQUARE
    else:
        inst = cube_edge_midpoint_instance()
        T, ball = inst.simplex, inst.ball
    assert circumcenters(T, ball, first=True) == circumcenters(T, ball)


@pytest.mark.parametrize("command, solves", [("centers", 5), ("circumcenters", 33)])
def test_newton_solves_per_request(tmp_path, monkeypatch, command, solves):
    calls, solve = [0], circumcenter_module._square_solve

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(circumcenter_module, "_square_solve", counted)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"dimension": 2, "ball": {"type": "pnorm", "p": 3.0},
                                "simplex": [[0, 0], [4, 0], [0, 3]]}))
    assert cli.main([command, "--in", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert calls[0] == solves
