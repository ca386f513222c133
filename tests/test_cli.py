"""End-to-end command line checks: exit codes, JSON shape, SVG output."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from minksimplex.cli import main

POLY_SCENE = {
    "dimension": 2,
    "ball": {"type": "polytope-v", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    "simplex": [[0, 0], [4, 0], [0, 3]],
    "points": {"M": [2, 1]},
}

PNORM_SCENE = {
    "dimension": 2,
    "ball": {"type": "pnorm", "p": 2.0},
    "simplex": [[0, 0], [4, 0], [0, 3]],
}

HEX_SCENE = {
    "dimension": 2,
    "ball": {
        "type": "polytope-v",
        "vertices": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    },
}

CUBE_SCENE = {
    "dimension": 3,
    "ball": {
        "type": "polytope-v",
        "vertices": [
            [sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
        ],
    },
    "simplex": [[1, 1, 0], [1, "-1/3", 0], [-1, "-1/3", "1/2"], [-1, "-1/3", "-1/2"]],
}


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, tmp_path, scene=None):
    argv = list(args)
    if scene is not None:
        argv += ["--in", write_scene(tmp_path, scene)]
    out = tmp_path / "result.json"
    argv += ["--out", str(out)]
    code = main(argv)
    text = out.read_text() if out.exists() else ""
    return code, text


def test_gauge_command(tmp_path):
    code, text = run_cli(["gauge"], tmp_path, POLY_SCENE)
    assert code == 0
    assert text.splitlines()[1].strip().startswith('"version": "minksimplex ')
    doc = json.loads(text)
    assert doc["command"] == "gauge"
    assert doc["gauges"]["points"]["M"] == "2"
    assert doc["gauges"]["simplex_vertices"] == ["0", "4", "3"]


def test_gauge_without_content_fails(tmp_path):
    code, _ = run_cli(["gauge"], tmp_path, HEX_SCENE)
    assert code == 2


def test_circumcenters_command(tmp_path):
    code, text = run_cli(["circumcenters"], tmp_path, POLY_SCENE)
    assert code == 0
    doc = json.loads(text)
    assert doc["classification"] == "multiple"
    assert doc["pieces"]
    for piece in doc["pieces"]:
        assert {"center", "radius", "affine_dim"} <= set(piece)


def test_circumcenters_requires_simplex(tmp_path):
    code, _ = run_cli(["circumcenters"], tmp_path, HEX_SCENE)
    assert code == 2


def test_circumcenters_smooth(tmp_path):
    code, text = run_cli(["circumcenters"], tmp_path, PNORM_SCENE)
    assert code == 0
    doc = json.loads(text)
    assert doc["classification"] == "unknown"
    assert "start_failures" in doc
    center = doc["pieces"][0]["center"]
    assert center[0] == pytest.approx(2.0, abs=1e-9)
    assert center[1] == pytest.approx(1.5, abs=1e-9)


def test_centers_command(tmp_path):
    code, text = run_cli(["centers"], tmp_path, POLY_SCENE)
    assert code == 0
    doc = json.loads(text)
    assert doc["incenter"]["center"] == ["6/7", "6/7"]
    assert doc["incenter"]["radius"] == "6/7"
    assert len(doc["exspheres"]) == 3
    assert doc["euler"]["feuerbach_radius"] == "1"
    assert doc["circumcenter_classification"] == "multiple"


def test_centers_3d_collapsed(tmp_path):
    code, text = run_cli(["centers"], tmp_path, CUBE_SCENE)
    assert code == 0
    doc = json.loads(text)
    assert doc["euler"]["collapsed"] is True
    assert doc["euler"]["centroid"] == ["0", "0", "0"]


def test_construct_deterministic_and_seeded(tmp_path):
    code, a = run_cli(["construct"], tmp_path, HEX_SCENE)
    assert code == 0
    doc = json.loads(a)
    assert doc["ag_quasiregular"] is True
    assert doc["seed"] is None
    assert len(doc["simplex"]) == 3
    code, b = run_cli(["construct"], tmp_path, HEX_SCENE)
    assert a == b, "construct output must be byte-identical across runs"
    code, c = run_cli(["construct", "--strategy", "seeded", "--seed", "5"], tmp_path, HEX_SCENE)
    assert code == 0
    assert json.loads(c)["seed"] == 5


def test_construct_anchor_point(tmp_path):
    scene = dict(HEX_SCENE)
    scene["points"] = {"anchor": [0, 1]}
    code, text = run_cli(["construct"], tmp_path, scene)
    assert code == 0
    assert json.loads(text)["simplex"][0] == ["0", "1"]


def test_verify_campaign(tmp_path):
    code, text = run_cli(
        ["verify", "--theorem", "43", "--trials", "6", "--seed", "1"],
        tmp_path,
        HEX_SCENE,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["family"] == "43"
    assert doc["all_agree"] is True
    assert len(doc["reports"]) == 6


def test_verify_single_instance(tmp_path):
    scene = {**POLY_SCENE}
    code, text = run_cli(["verify", "--theorem", "41"], tmp_path, scene)
    assert code == 0
    doc = json.loads(text)
    assert doc["trials"] == 1
    assert doc["all_agree"] is True
    # the 3-4-5 triangle in the max norm has unequal heights
    assert doc["reports"][0]["verdicts"] == [False] * 6


def test_verify_radon_family_needs_radon_ball(tmp_path):
    scene = {"dimension": 2, "ball": POLY_SCENE["ball"]}
    code, _ = run_cli(["verify", "--theorem", "r41", "--trials", "2"], tmp_path, scene)
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_non_positive_trials(tmp_path, capsys, trials):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--theorem", "44", "--trials", trials], tmp_path, HEX_SCENE)
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "name, value, command, scene",
    [
        ("MINKSIMPLEX_MAX_ASSIGNMENTS", "1", "circumcenters", POLY_SCENE),
        ("MINKSIMPLEX_MAX_FM_ROWS", "1", "circumcenters", CUBE_SCENE),
        ("MINKSIMPLEX_MAX_FACETS", "3", "gauge", POLY_SCENE),
        ("MINKSIMPLEX_MAX_DIM", "2", "gauge", CUBE_SCENE),
        ("MINKSIMPLEX_MAX_FACETS", "lots", "gauge", POLY_SCENE),
        ("MINKSIMPLEX_MAX_FM_ROWS", "0", "circumcenters", CUBE_SCENE),
    ],
)
def test_resource_caps_exit_2(tmp_path, monkeypatch, capsys, name, value, command, scene):
    monkeypatch.setenv(name, value)
    code, text = run_cli([command], tmp_path, scene)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_cap_setting_exits_2_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "minksimplex.cli", "circumcenters", "--in", write_scene(tmp_path, POLY_SCENE)],
        capture_output=True,
        text=True,
        env={**os.environ, "MINKSIMPLEX_MAX_FM_ROWS": "lots"},
    )
    assert proc.returncode == 2
    assert "MINKSIMPLEX_MAX_FM_ROWS" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_corrupted_predicate_exits_3(tmp_path, monkeypatch, capsys):
    import minksimplex.equivalence as eq

    monkeypatch.setattr(eq, "quasiregular", lambda T, B: (False, {}))
    code, text = run_cli(
        ["verify", "--theorem", "43", "--trials", "2", "--seed", "1"],
        tmp_path,
        HEX_SCENE,
    )
    assert code == 3
    doc = json.loads(text)
    assert doc["all_agree"] is False
    assert doc["disagreements"]
    assert "disagreement" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2,,}')
    code = main(["gauge", "--in", str(bad)])
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["gauge", "--in", str(tmp_path / "absent.json")])
    assert code == 1


def test_schema_violation_exits_1(tmp_path, capsys):
    code, _ = run_cli(["gauge"], tmp_path, {"dimension": 99, "ball": {"type": "pnorm", "p": 2}})
    assert code == 1
    assert "$.dimension" in capsys.readouterr().err


def test_mode_flag_enforcement(tmp_path):
    code, _ = run_cli(["gauge", "--mode", "float"], tmp_path, POLY_SCENE)
    assert code == 2
    code, _ = run_cli(["circumcenters", "--mode", "exact"], tmp_path, PNORM_SCENE)
    assert code == 2
    code, _ = run_cli(["gauge", "--mode", "exact"], tmp_path, POLY_SCENE)
    assert code == 0


def test_byte_identical_reruns(tmp_path):
    _, a = run_cli(["centers"], tmp_path, POLY_SCENE)
    _, b = run_cli(["centers"], tmp_path, POLY_SCENE)
    assert a == b
    _, c = run_cli(
        ["verify", "--theorem", "41", "--trials", "4", "--seed", "9"], tmp_path, HEX_SCENE
    )
    _, d = run_cli(
        ["verify", "--theorem", "41", "--trials", "4", "--seed", "9"], tmp_path, HEX_SCENE
    )
    assert c == d


# -- svg ----------------------------------------------------------------


def render_svg(tmp_path, scene, extra=()):
    svg_path = tmp_path / "out.svg"
    argv = ["render", "--in", write_scene(tmp_path, scene), "--svg", str(svg_path)]
    argv += list(extra)
    code = main(argv)
    assert code == 0
    return svg_path.read_text()


def test_render_svg_well_formed(tmp_path):
    svg = render_svg(tmp_path, POLY_SCENE)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = root.find(".//s:g[@id='world']", ns)
    assert world is not None
    assert world.get("transform") == "scale(1 -1)"
    labels = root.find(".//s:g[@id='labels']", ns)
    names = {t.text for t in labels.findall("s:text", ns)}
    assert {"G", "M", "P", "F", "N"} <= names
    polygons = world.findall("s:polygon", ns)
    classes = {p.get("class") for p in polygons}
    assert {"medial", "ball", "translate"} <= classes


def test_render_world_coordinates_are_verbatim(tmp_path):
    svg = render_svg(tmp_path, POLY_SCENE)
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = ET.fromstring(svg).find(".//s:g[@id='world']", ns)
    lines = world.findall("s:line", ns)
    assert len(lines) == 3
    endpoints = set()
    for ln in lines:
        endpoints.add((float(ln.get("x1")), float(ln.get("y1"))))
        endpoints.add((float(ln.get("x2")), float(ln.get("y2"))))
    for expect in [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]:
        assert any(
            abs(x - expect[0]) <= 1e-9 and abs(y - expect[1]) <= 1e-9
            for x, y in endpoints
        )


def test_render_3d_projection(tmp_path):
    svg = render_svg(tmp_path, CUBE_SCENE, extra=["--project", "0,2"])
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = ET.fromstring(svg).find(".//s:g[@id='world']", ns)
    # tetrahedron wireframe: 6 edges
    assert len(world.findall("s:line", ns)) == 6
    svg_default = render_svg(tmp_path, CUBE_SCENE)
    assert svg_default != svg
    code = main([
        "render", "--in", write_scene(tmp_path, CUBE_SCENE),
        "--svg", str(tmp_path / "x.svg"), "--project", "0,9",
    ])
    assert code == 2


def test_render_ball_only_scene(tmp_path):
    svg = render_svg(tmp_path, HEX_SCENE)
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = ET.fromstring(svg).find(".//s:g[@id='world']", ns)
    polys = world.findall("s:polygon", ns)
    assert len(polys) == 1 and polys[0].get("class") == "ball"


def test_console_entry_point(tmp_path):
    scene = write_scene(tmp_path, POLY_SCENE)
    proc = subprocess.run(
        [sys.executable, "-m", "minksimplex.cli", "gauge", "--in", scene],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gauges"]["points"]["M"] == "2"
    proc = subprocess.run(
        [sys.executable, "-m", "minksimplex.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("minksimplex ")
