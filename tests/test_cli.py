"""End-to-end command line checks: exit codes, JSON shape, SVG output."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import random
from fractions import Fraction

import pytest

from minksimplex import cli
from minksimplex import scene as scene_module
from minksimplex.circumcenter import cube_edge_midpoint_instance, polytopal_circumcenters
from minksimplex.cli import main
from minksimplex.config import EPS_REL
from minksimplex.errors import MinksimplexError, ResourceCapError
from minksimplex.linalg import ExactVec
from minksimplex.render import project

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


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "minksimplex":  # the top level, not a subcommand
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(["gauge"], tmp_path, POLY_SCENE)[0] == 0
    assert run_cli(["gauge"], tmp_path, POLY_SCENE)[0] == 0
    assert len(built) <= 1


# sha256 of "<exit code>\n<stdout>\0<stderr>" at 80 columns, with the
# version line masked, recorded from the argparse-only parser: help,
# usage and error text come from argparse alone, byte for byte
ARGPARSE_TEXT = [
    (["-h"], "3ac596cedde9341afb3c762946b93f0880581ee200806ca457adbb15b0a54637"),
    (["--version"], "ccf248f5c7a06711d45d83b3fc1f8e43d27758fdf214271e76b276ef15d376b6"),
    ([], "b78a2168c1a455c1f4f762718cf63362aabb548d8834c0de7b5a0cbbec13fa1f"),
    (["gauge", "-h"], "9f23ea29152f9740b35074e8a79db01b944b087d567bdfd08f5550466f5e7d76"),
    (["circumcenters", "-h"], "6aee44fc707b762457db3d489b071eea0945020f20a1d5d43b0b8d005774af8d"),
    (["centers", "-h"], "4b3b073410476c998bc1c81e416fbebed237f284a29f263a1737a3e9a986d2ff"),
    (["construct", "-h"], "da3735ee06aa6fe6540e3075d93ec52f1f000efb2d887ad3a232741901b2bb45"),
    (["verify", "-h"], "8404ca2a0ea35d0811a22cce4d92edc98855c9cc4a03ef4eb478dab294832c1a"),
    (["render", "-h"], "cd00e9c92eedc9bf6f4cb8c7f8066c97eb6900ed8b5027635527bccd04b88f74"),
    (["frobnicate"], "619f44b7a3affbfa42620c54187de3b360fbe0e5211f6ae67e3813929b58269a"),
    (["gauge", "--bogus", "1"], "81eecaf6c9b608cafe258b96cdf44d188a295be3aff94b6dd7646052e3594c04"),
    (["construct", "--s", "1"], "c37dc9528d49573bed00974fe82ca408f5048029593c25a4307a360c9b34d6fb"),
    (["verify", "--in", "x"], "b124f1bb363f70b480fc3bb29a5818948aaae93bcd0c4988faf4fb8db496d68d"),
    (["gauge", "--mode", "EXACT"], "590a9b8c5bbc7e4c4c760c1e4d72aefe2d1ad6d8a61fd7087da4024c4ba6d9ad"),
    (["verify", "--theorem", "41", "--trials", "0"],
     "e24cc708e33e0b4e93e243321e27d4bf4b733c09481aed2e844a1a694497c179"),
    (["verify", "--theorem", "41", "--trials", "2", "--seed", "-5", "--in", "SCENE"],
     "0fb9bac3c461e69f3ff3ec63cf975482683e3cf140dcf2e69eb03f11ed98ad43"),
    (["verify", "--theorem", "41", "--trials", "2", "--seed=4", "--in", "SCENE"],
     "af74dc3eebb1b49ba575303ffa5611c526c8fbdf435166467aaa580a095441bf"),
    (["render", "--project", "-1,0", "--in", "SCENE"],
     "fd30f8ad7ae1c852505d5bb890e00ddda845c1e5ca8e8d1411fd1f39685b1be5"),
]


@pytest.mark.parametrize("argv, digest", ARGPARSE_TEXT, ids=[" ".join(a) or "no-arguments" for a, _ in ARGPARSE_TEXT])
def test_argparse_text_is_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    scene = write_scene(tmp_path, POLY_SCENE)
    try:
        code = main([scene if arg == "SCENE" else arg for arg in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    text = f"{code}\n{out}\0{err}".replace(cli._VERSION_LINE, "minksimplex VERSION")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_flag_table_has_no_str_default_with_a_type():
    # argparse would convert such a default with the type; _read_args would not
    for flags in cli._FLAGS.values():
        for flag, kwargs in flags.items():
            assert not (isinstance(kwargs.get("default"), str) and "type" in kwargs), flag


FLAG_TOKENS = sorted({flag for flags in cli._FLAGS.values() for flag in flags})
ODD_TOKENS = [
    "--i", "--o", "--mo", "--th", "--t", "--s", "--se", "--st", "--sv", "--p", "--pro",
    "--seed=4", "--in=x", "--mode=exact", "--theorem=41", "-h", "--help", "--version", "--", "--bogus",
]
THEOREM_TOKENS = [*cli.FAMILIES, "45", "r42", "R41"]
VALUE_TOKENS = [
    "", "-", "-5", " 7", "+3", "1_0", "٣", "abc", "0", "2", "200", "x.json", "1,0",
    "exact", "float", "EXACT", "deterministic", "seeded", "Seeded", *THEOREM_TOKENS,
]
COMMAND_TOKENS = [*cli._COMMANDS, "frobnicate", "", "-h", "--version", "gau", "Gauge", "--in"]


def random_command_line(rng):
    command = rng.choice(list(cli._COMMANDS)) if rng.random() < 0.9 else rng.choice(COMMAND_TOKENS)
    own = list(cli._FLAGS.get(command, {}))
    argv = [command]
    if command == "verify" and rng.random() < 0.7:
        argv += ["--theorem", rng.choice(THEOREM_TOKENS)]
    for _ in range(rng.randrange(5)):
        if own and rng.random() < 0.8:
            flag = rng.choice(own)
        else:
            flag = rng.choice(FLAG_TOKENS + ODD_TOKENS)
        argv.append(flag)
        if rng.random() < 0.95:
            argv.append(rng.choice(VALUE_TOKENS))
    if rng.random() < 0.03:
        rng.shuffle(argv)
    return argv


def test_read_args_agrees_with_argparse(capsys):
    # whenever the reader takes a command line, argparse takes it too,
    # prints nothing, and gives the same attributes in the same order
    rng = random.Random(0)
    parser = cli._build_parser()
    taken = 0
    for _ in range(20_000):
        argv = random_command_line(rng)
        args = cli._read_args(argv)
        if args is None:
            continue
        taken += 1
        expected = parser.parse_args(argv)
        assert capsys.readouterr() == ("", ""), argv
        assert list(vars(args).items()) == list(vars(expected).items()), argv
        assert [type(v) for v in vars(args).values()] == [type(v) for v in vars(expected).values()], argv
    assert 2_000 < taken < 18_000


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


def test_construct_off_sphere_exact_anchor_exits_2(tmp_path, capsys):
    # an exact anchor is never scaled: gauge (2, 1) = 2 on the hexagon
    scene = dict(HEX_SCENE, points={"anchor": [2, 1]})
    code, text = run_cli(["construct"], tmp_path, scene)
    assert (code, text) == (2, "")
    assert "anchor must lie on the unit sphere" in capsys.readouterr().err


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


@pytest.mark.parametrize("trials", ["0", "-3", "x"])
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


@pytest.mark.parametrize(
    "vertices, exit_code",
    [
        # off-centre octagon: the ball is invalid, and that is reported first
        ([[12, 1], [12, -1], [11, 2], [9, 2], [8, 1], [8, -1], [9, -2], [11, -2]], 1),
        # the same octagon centred at the origin: 8 facets trip the cap of 6
        ([[2, 1], [2, -1], [1, 2], [-1, 2], [-2, -1], [-2, 1], [-1, -2], [1, -2]], 2),
    ],
)
def test_invalid_ball_is_reported_before_the_facet_cap(
    tmp_path, monkeypatch, capsys, vertices, exit_code
):
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "6")
    scene = {"dimension": 2, "ball": {"type": "polytope-v", "vertices": vertices}}
    assert run_cli(["gauge"], tmp_path, scene) == (exit_code, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if exit_code == 1:
        assert "origin is not interior" in err


def test_halfspace_count_is_capped_before_boundedness(tmp_path, monkeypatch, capsys):
    # polytope-h caps its input rows before it builds the ball, so eight
    # normals in a half-plane trip the cap of 6 although they bound nothing
    normals = [[1, 0], [1, 1], [1, 2], [1, 3], [1, -1], [1, -2], [1, -3], [2, 1]]
    scene = {"dimension": 2, "ball": {"type": "polytope-h", "normals": normals}}
    assert run_cli(["gauge"], tmp_path, scene) == (1, "")
    assert "unbounded" in capsys.readouterr().err
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "6")
    assert run_cli(["gauge"], tmp_path, scene) == (2, "")
    assert "8 facets exceed cap 6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, tripped, passed",
    [("MINKSIMPLEX_MAX_ASSIGNMENTS", "35", "36"), ("MINKSIMPLEX_MAX_FM_ROWS", "2", "3")],
)
def test_circumcenter_caps_trip_at_their_thresholds(tmp_path, monkeypatch, name, tripped, passed):
    # CUBE_SCENE is the cube edge-midpoint instance: 36 candidate
    # assignments, and its Fourier-Motzkin runs peak at 3 rows
    inst = cube_edge_midpoint_instance()
    monkeypatch.setenv(name, tripped)
    with pytest.raises(ResourceCapError):
        polytopal_circumcenters(inst.simplex, inst.ball)
    assert run_cli(["circumcenters"], tmp_path, CUBE_SCENE) == (2, "")
    monkeypatch.setenv(name, passed)
    assert len(polytopal_circumcenters(inst.simplex, inst.ball).pieces) == 12
    code, text = run_cli(["circumcenters"], tmp_path, CUBE_SCENE)
    assert code == 0 and len(json.loads(text)["pieces"]) == 12


def test_bad_cap_setting_exits_2_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "minksimplex.cli", "circumcenters", "--in", write_scene(tmp_path, POLY_SCENE)],
        capture_output=True,
        text=True,
        env={**os.environ, "MINKSIMPLEX_MAX_FM_ROWS": "lots"},
    )
    assert proc.returncode == 2
    assert "MINKSIMPLEX_MAX_FM_ROWS" in proc.stderr and "Traceback" not in proc.stderr


OCTAGON_SCENE = {
    "dimension": 2,
    "ball": {
        "type": "polytope-v",
        "vertices": [[2, 1], [2, -1], [1, 2], [-1, 2], [-2, -1], [-2, 1], [-1, -2], [1, -2]],
    },
}


@pytest.mark.parametrize(
    "name, value, command, scene, message",
    [
        ("MINKSIMPLEX_MAX_ASSIGNMENTS", "35", "circumcenters", CUBE_SCENE,
         "36 facet assignments exceed cap 35"),
        ("MINKSIMPLEX_MAX_FM_ROWS", "2", "circumcenters", CUBE_SCENE,
         "3 Fourier-Motzkin rows exceed cap 2"),
        ("MINKSIMPLEX_MAX_FACETS", "6", "gauge", OCTAGON_SCENE, "8 facets exceed cap 6"),
        ("MINKSIMPLEX_MAX_DIM", "1", "gauge", POLY_SCENE, "dimension 2 exceeds cap 1"),
    ],
)
def test_each_cap_message(tmp_path, monkeypatch, capsys, name, value, command, scene, message):
    # every cap is worded in one place, as "<count> <what> exceed cap <cap>"
    # or, for the dimension, "dimension <d> exceeds cap <cap>"
    monkeypatch.setenv(name, value)
    assert run_cli([command], tmp_path, scene) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    scene = write_scene(tmp_path, POLY_SCENE)
    code = main(["gauge", "--in", scene, "--out", str(tmp_path / "missing" / "out.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# |x|^p overflows a float in each of these scenes while every norm stays
# finite: a 40x30 triangle at p = 500, the point (1000, 1) at p = 1000,
# the point (1e300, 1) at p = 3, and a 4x3 triangle at p = 1e308
OVERFLOW_SCENES = [
    {"dimension": 2, "ball": {"type": "pnorm", "p": 500}, "simplex": [[0, 0], [40, 0], [0, 30]]},
    {
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 1000},
        "simplex": [[0, 0], [1000, 1], [0, 1000]],
        "points": {"X": [1000, 1]},
    },
    {
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 3},
        "simplex": [[0, 0], [4, 0], [0, 3]],
        "points": {"X": [1e300, 1]},
    },
    {"dimension": 2, "ball": {"type": "pnorm", "p": 1e308}, "simplex": [[0, 0], [4, 0], [0, 3]]},
]


@pytest.mark.parametrize("command", ["gauge", "circumcenters", "centers"])
@pytest.mark.parametrize("scene", OVERFLOW_SCENES)
def test_overflowing_powers_exit_0(tmp_path, capsys, command, scene):
    code, text = run_cli([command], tmp_path, scene)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(text)
    if command == "gauge" and "points" in scene:
        assert doc["gauges"]["points"]["X"] == pytest.approx(scene["points"]["X"][0], rel=EPS_REL)


def test_cli_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, minksimplex.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


# -- the ball cache: a repeated request meets every check again -----------

SQUARE_BALL = {"type": "polytope-v", "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}
SQUARE_SCENE = {"dimension": 2, "ball": SQUARE_BALL, "simplex": [[0, 0], [4, 0], [0, 3]]}


@pytest.mark.parametrize(
    "args, scene",
    [
        (["gauge"], POLY_SCENE),
        (["circumcenters"], POLY_SCENE),
        (["centers"], POLY_SCENE),
        (["construct"], HEX_SCENE),
        (["verify", "--theorem", "41", "--trials", "4", "--seed", "9"], HEX_SCENE),
        (["render"], POLY_SCENE),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else "",
)
def test_cached_ball_gives_byte_identical_documents(tmp_path, args, scene):
    def request():
        if args == ["render"]:
            return render_svg(tmp_path, scene)
        code, text = run_cli(args, tmp_path, scene)
        assert code == 0
        return text

    first = request()
    assert scene_module._cached_ball.cache_info().currsize == 1
    assert request() == first


@pytest.mark.parametrize("spelling", [1.0, True])
def test_cached_square_still_rejects_its_float_and_bool_spellings(tmp_path, capsys, spelling):
    assert run_cli(["gauge"], tmp_path, SQUARE_SCENE)[0] == 0
    vertices = [[spelling, 1], *SQUARE_BALL["vertices"][1:]]
    twin = {**SQUARE_SCENE, "ball": {"type": "polytope-v", "vertices": vertices}}
    assert run_cli(["gauge"], tmp_path, twin)[0] == 1
    assert "$.ball.vertices[0][0]" in capsys.readouterr().err


def test_cached_square_still_meets_the_cap_settings(tmp_path, monkeypatch, capsys):
    assert run_cli(["gauge"], tmp_path, SQUARE_SCENE)[0] == 0
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "2")
    assert run_cli(["gauge"], tmp_path, SQUARE_SCENE)[0] == 2
    assert "4 facets exceed cap 2" in capsys.readouterr().err
    monkeypatch.setenv("MINKSIMPLEX_MAX_FACETS", "lots")
    assert run_cli(["gauge"], tmp_path, SQUARE_SCENE)[0] == 2
    assert "MINKSIMPLEX_MAX_FACETS must be an integer, got 'lots'" in capsys.readouterr().err
    assert run_cli(["gauge"], tmp_path, PNORM_SCENE)[0] == 0
    # the key holds the raw setting: a scene error still comes before a bad one
    vertices = [[1.0, 1], *SQUARE_BALL["vertices"][1:]]
    twin = {**SQUARE_SCENE, "ball": {"type": "polytope-v", "vertices": vertices}}
    assert run_cli(["gauge"], tmp_path, twin)[0] == 1
    monkeypatch.delenv("MINKSIMPLEX_MAX_FACETS")
    monkeypatch.setenv("MINKSIMPLEX_MAX_DIM", "1")
    assert run_cli(["gauge"], tmp_path, SQUARE_SCENE)[0] == 2
    assert "dimension 2 exceeds cap 1" in capsys.readouterr().err


# -- svg ----------------------------------------------------------------


def render_svg(tmp_path, scene, extra=()):
    svg_path = tmp_path / "out.svg"
    argv = ["render", "--in", write_scene(tmp_path, scene), "--svg", str(svg_path)]
    argv += list(extra)
    code = main(argv)
    assert code == 0
    return svg_path.read_text()


def test_render_out_names_the_svg_file(tmp_path, capsys):
    # --out and --svg name the same file; neither prints the SVG
    out_path = tmp_path / "f.svg"
    assert main(["render", "--in", write_scene(tmp_path, POLY_SCENE), "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == render_svg(tmp_path, POLY_SCENE)


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
    for axes in ("0,9", "a,b"):
        code = main([
            "render", "--in", write_scene(tmp_path, CUBE_SCENE),
            "--svg", str(tmp_path / "x.svg"), "--project", axes,
        ])
        assert code == 2


def test_render_ball_only_scene(tmp_path):
    svg = render_svg(tmp_path, HEX_SCENE)
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = ET.fromstring(svg).find(".//s:g[@id='world']", ns)
    polys = world.findall("s:polygon", ns)
    assert len(polys) == 1 and polys[0].get("class") == "ball"


SVG_PINS = [
    # exact outlines over rational coordinates, projections of 3D and 4D
    # balls, and sampled p = 3 outlines with float medial polygons
    (POLY_SCENE, [], "8467f8592b5912be0a573ceb572e41cafb5a52e25cbace1b76ce9b6eaac198c8"),
    (
        {**HEX_SCENE, "simplex": [[0, 0], [3, 1], ["1/2", 2]]},
        [],
        "f4947ed037e8fc7f90d867ea34dd3e86bb43383e41128e31ab9f3b84cc74f324",
    ),
    (CUBE_SCENE, ["--project", "0,2"], "5b9a8baacd9778ee74c52e317c265b93316ce12d4274ef03866f3c049e06160f"),
    (
        {
            "dimension": 4,
            "ball": {
                "type": "polytope-v",
                "vertices": [[s if k == i else 0 for k in range(4)] for i in range(4) for s in (1, -1)],
            },
            "simplex": [[0, 0, 0, 0], [2, 0, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]],
        },
        [],
        "7fbdebb047968392f71ed8053baa0cdf6c3a7283e4a8c7276f60b20000c2bebd",
    ),
    (
        {"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "simplex": [[0, 0], [4, 0], [1, 3]]},
        [],
        "0dd5cd89aa02b3632dc260c8a7e39a47866665f30a62674d31df09142c6e6909",
    ),
    (
        {
            "dimension": 3,
            "ball": {"type": "pnorm", "p": 3},
            "simplex": [[0, 0, 0], [3, 0, 0], [0, 2, 0], [1, 1, 2]],
        },
        [],
        "02106ae79502fe367880f81721dbace65e9e47940dfcb341d0b6119f8e484e79",
    ),
    # exact points whose numerators pass 2^53, over 3 and 7: every
    # drawing coordinate is one rounding of an int quotient
    (
        {
            "dimension": 2,
            "ball": {"type": "polytope-v", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
            "simplex": [[0, 0], [f"{2**60 + 1}/3", "1/7"], [f"{2**55 + 3}/7", f"{2**58 + 2}/3"]],
            "points": {"Q": [f"{2**54 + 1}/7", f"-{2**56 + 1}/3"]},
        },
        [],
        "824302411f6a350cbed13b348d351ca3886ee427adeabcb211a3c3b23cbaf58d",
    ),
]


@pytest.mark.parametrize("scene, extra, digest", SVG_PINS)
def test_render_svg_bytes_pinned(tmp_path, scene, extra, digest):
    svg = render_svg(tmp_path, scene, extra)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_render_draws_a_probed_second_translate(tmp_path):
    # both circumcenter pieces have the witness (0, 0), so the second
    # translate comes from probing inside the segment piece
    scene = {
        "dimension": 2,
        "ball": POLY_SCENE["ball"],
        "simplex": [[0, -3], [-3, 3], [3, -3]],
    }
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = ET.fromstring(render_svg(tmp_path, scene)).find(".//s:g[@id='world']", ns)
    translates = [p.get("points") for p in world.findall("s:polygon", ns) if p.get("class") == "translate"]
    assert translates == ["-3,-3 3,-3 3,3 -3,3", "-3,-3 5,-3 5,5 -3,5"]


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


def test_flat_gauge_newton_finds_circumcenters(tmp_path):
    # p = 500 is nearly the max norm: a Jacobian row of the Newton step
    # shrinks to about 1e-9 of the other while the system stays regular
    code, text = run_cli(["circumcenters"], tmp_path, OVERFLOW_SCENES[0])
    assert code == 0
    doc = json.loads(text)
    assert doc["pieces"]
    simplex = OVERFLOW_SCENES[0]["simplex"]
    for piece in doc["pieces"]:
        center, radius = piece["center"], piece["radius"]
        for vertex in simplex:
            diff = [abs(a - c) for a, c in zip(vertex, center)]
            big = max(diff)
            gauge = big * sum((x / big) ** 500 for x in diff) ** (1 / 500)
            assert gauge == pytest.approx(radius, rel=EPS_REL)


# coordinates near 1e300: squaring one for a Hadamard bound overflows
HUGE_SCENE = {
    "dimension": 2,
    "ball": {"type": "pnorm", "p": 3},
    "simplex": [[0, 0], [1e300, 1], [0, 1e300]],
}


@pytest.mark.parametrize("command", ["gauge", "circumcenters"])
def test_huge_coordinates_exit_0(tmp_path, capsys, command):
    code, text = run_cli([command], tmp_path, HUGE_SCENE)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    json.loads(text)


@pytest.mark.parametrize("command", ["gauge", "circumcenters", "centers", "construct", "render"])
def test_huge_coordinates_end_in_documented_exit_code(tmp_path, capsys, command):
    code, _ = run_cli([command], tmp_path, HUGE_SCENE)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_render_pnorm_scene_svg(tmp_path):
    # the smooth lane's medial polytope is the one float input to
    # vertex enumeration
    svg = render_svg(tmp_path, PNORM_SCENE)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    world = root.find(".//s:g[@id='world']", ns)
    polygons = {p.get("class"): p for p in world.findall("s:polygon", ns)}
    assert {"medial", "ball"} <= set(polygons)
    medial = [tuple(map(float, xy.split(","))) for xy in polygons["medial"].get("points").split()]
    assert len(medial) >= 3
    for x, y in medial:
        # inside the 3-4-5 triangle (0,0), (4,0), (0,3)
        assert x >= -EPS_REL and y >= -EPS_REL and 3 * x + 4 * y <= 12 + EPS_REL


# exact coordinates of 10^400 are valid scene input, but no float can
# draw them: the ball's outline, the simplex (and its medial polytope)
# and a marker each reach the drawing through a different conversion
BEYOND = 10**400
SQUARE_VERTICES = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
BEYOND_FLOAT_SCENES = [
    {"dimension": 2,
     "ball": {"type": "polytope-v", "vertices": [[BEYOND, 0], [-BEYOND, 0], [0, 1], [0, -1]]}},
    {"dimension": 2, "ball": {"type": "polytope-v", "vertices": SQUARE_VERTICES},
     "simplex": [[0, 0], [BEYOND, 0], [0, 1]]},
    {"dimension": 2, "ball": {"type": "polytope-v", "vertices": SQUARE_VERTICES},
     "points": {"P": [-BEYOND, 0]}},
]


@pytest.mark.parametrize("scene", BEYOND_FLOAT_SCENES)
def test_render_beyond_the_float_range_exits_2(tmp_path, capsys, scene):
    argv = ["render", "--in", write_scene(tmp_path, scene), "--svg", str(tmp_path / "out.svg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "drawing coordinate" in err and "beyond the float range" in err
    assert not (tmp_path / "out.svg").exists()


def test_exact_projection_is_float_of_the_fraction():
    # X_i / D divided as ints gives float(Fraction(X_i, D)) bit for bit:
    # numerators past 2^53 over 3 and 7, also near the top of the float
    # range (overflowing there exactly when float(Fraction) does) and,
    # over 3 and 7 times a power of 2, among the subnormals at its bottom
    rng = random.Random("exact-projection")
    top = int(sys.float_info.max)
    seen = set()
    for _ in range(600):
        kind = rng.choice(("middle", "top", "bottom"))
        D = rng.choice((3, 7)) << (rng.randint(1070, 1140) if kind == "bottom" else 0)
        if kind == "top":
            X = [rng.choice((1, -1)) * (D * top + rng.randint(-D << 972, D << 972)) for _ in range(2)]
        else:
            X = [rng.choice((1, -1)) * rng.randint(2**53, 2**64) for _ in range(2)]
        v = ExactVec.of_ints(X, D)
        try:
            want = tuple(float(Fraction(x, D)) for x in X)
        except OverflowError:
            seen.add("overflow")
            with pytest.raises(MinksimplexError, match="drawing coordinate -?inf is beyond the float range"):
                project(v, (0, 1))
            continue
        seen.update("subnormal" if 0 < abs(f) < sys.float_info.min else kind for f in want)
        assert tuple(f.hex() for f in project(v, (0, 1))) == tuple(f.hex() for f in want)
    assert seen == {"middle", "top", "bottom", "subnormal", "overflow"}


def test_render_point_past_the_float_range_exits_2(tmp_path, capsys):
    scene = {"dimension": 2, "ball": {"type": "polytope-v", "vertices": SQUARE_VERTICES},
             "points": {"P": [f"{2**1024 * 7 + 1}/7", 0]}}
    argv = ["render", "--in", write_scene(tmp_path, scene), "--svg", str(tmp_path / "out.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: drawing coordinate inf is beyond the float range\n"
