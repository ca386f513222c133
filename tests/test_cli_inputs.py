"""Schema-valid edge inputs at the CLI, and what importing the CLI loads.

Every scene here passes SCENE_SCHEMA; each must end in a documented
exit code, never in a traceback.
"""

import json
import subprocess
import sys

import pytest

from minksimplex.cli import main

PNORM = {"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "simplex": [[0, 0], [4, 0], [0, 3]]}


def run(tmp_path, capsys, argv, text):
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    code = main([*argv, "--in", str(scene), "--out", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [["construct"], ["verify", "--theorem", "41", "--trials", "2"]])
def test_integer_valued_float_dimension(tmp_path, capsys, argv):
    scene = {"dimension": 2.0, "ball": {"type": "pnorm", "p": 3}}
    code, _ = run(tmp_path, capsys, argv, json.dumps(scene))
    assert code == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["scene"]["dimension"] == 2


# each number needs a float the float lane cannot hold
@pytest.mark.parametrize("argv, scene, where", [
    (["gauge"], {**PNORM, "points": {"X": [float("nan"), 1]}}, "$.points.X[0]"),
    (["gauge"], {**PNORM, "points": {"X": [1, float("-inf")]}}, "$.points.X[1]"),
    (["gauge"], {**PNORM, "ball": {"type": "pnorm", "p": 10**400}}, "$.ball.p"),
    (["gauge"], {**PNORM, "ball": {"type": "pnorm", "p": float("inf")}}, "$.ball.p"),
    (["centers"], {**PNORM, "simplex": [[0, 0], [10**400, 0], [0, 3]]}, "$.simplex[1][0]"),
    (["centers"], {**PNORM, "simplex": [[0, 0], [f"{10**400}/3", 0], [0, 3]]}, "$.simplex[1][0]"),
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, argv, scene, where):
    code, err = run(tmp_path, capsys, argv, json.dumps(scene))
    assert code == 1
    assert err.startswith(f"error: {where}: ")


SQUARE = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
EXACT = {"dimension": 2, "ball": {"type": "polytope-v", "vertices": SQUARE}, "simplex": [[0, 0], [4, 0], [0, 3]], "points": {"M": [2, 1]}}
LONG = "1" * 5000  # past the interpreter's integer-string limit
try:
    int(LONG)
    TOO_LONG = None
except ValueError as exc:
    TOO_LONG = str(exc)


def with_coordinate(where, value):
    """EXACT with value as the second coordinate of a ball row, of a
    simplex vertex or of a named point."""
    doc = json.loads(json.dumps(EXACT))
    row = {"ball": doc["ball"]["vertices"][2], "simplex": doc["simplex"][1], "point": doc["points"]["M"]}[where]
    row[1] = value
    return doc


PLACES = {"ball": "$.ball.vertices[2][1]", "simplex": "$.simplex[1][1]", "point": "$.points.M[1]"}
BAD_COORDINATES = {
    "literal": ("1/0", "bad rational literal '1/0'"),
    "float": (0.5, "float coordinates are only allowed with pnorm balls"),
    "bool": (True, "coordinate must be a number or 'p/q' string"),
    "long": (LONG, TOO_LONG),
    "long-denominator": (f"1/{LONG}", TOO_LONG),
}


# the reader's error paths, each with the whole line it prints; where
# one vector holds several faults, the first coordinate's comes first,
# and any coordinate's before a wrong coordinate count
@pytest.mark.parametrize("doc, line", [
    *(pytest.param(with_coordinate(where, value), f"error: {path}: {message}\n", id=f"{kind}-{where}",
                   marks=pytest.mark.skipif(message is None, reason="no int digit limit"))
      for kind, (value, message) in BAD_COORDINATES.items() for where, path in PLACES.items()),
    pytest.param({"dimension": 2, "ball": {"type": "polytope-h", "normals": [[1, 0], [-1, 0], [0, True], [0, -1]]}},
                 "error: $.ball.normals[2][1]: coordinate must be a number or 'p/q' string\n", id="bool-normal"),
    pytest.param({**EXACT, "simplex": [[0, 0], [True, "x"], [0, 3]]},
                 "error: $.simplex[1][0]: coordinate must be a number or 'p/q' string\n", id="first-of-two"),
    pytest.param({**EXACT, "points": {"M": [1, 2, 0.5]}},
                 "error: $.points.M[2]: float coordinates are only allowed with pnorm balls\n", id="float-before-count"),
    pytest.param({**EXACT, "points": {"M": [1, 2, 3]}}, "error: $.points.M: expected 2 coordinates, got 3\n", id="int-count"),
    pytest.param({**EXACT, "ball": {"type": "polytope-v", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1, 0]]}},
                 "error: $.ball.vertices[3]: expected 2 coordinates, got 3\n", id="ball-count"),
    pytest.param({**EXACT, "simplex": [[0, 0], [4], [0, 3]]}, "error: $.simplex[1]: expected 2 to 4 items, got 1\n", id="short-row"),
    pytest.param({**EXACT, "points": {"M": "12"}}, "error: $.points.M: expected an array\n", id="not-an-array"),
    pytest.param({**PNORM, "points": {"M": [1, "1/0"]}}, "error: $.points.M[1]: bad rational literal '1/0'\n", id="literal-pnorm"),
    pytest.param({**PNORM, "points": {"M": [1, False]}},
                 "error: $.points.M[1]: coordinate must be a number or 'p/q' string\n", id="bool-pnorm"),
])
def test_reader_errors_exit_1_with_their_line(tmp_path, capsys, doc, line):
    assert run(tmp_path, capsys, ["gauge"], json.dumps(doc)) == (1, line)


@pytest.mark.skipif(TOO_LONG is None, reason="no int digit limit")
def test_too_long_int_literal_exits_1_with_its_line(tmp_path, capsys):
    text = json.dumps(EXACT).replace('"M": [2, 1]', f'"M": [2, {LONG}]')
    assert run(tmp_path, capsys, ["gauge"], text) == (1, f"error: $: {TOO_LONG}\n")


def test_exact_lane_keeps_big_integers(tmp_path, capsys):
    big = 10**400
    scene = {
        "dimension": 2,
        "ball": {"type": "polytope-v", "vertices": [[big, 0], [0, 1], [-big, 0], [0, -1]]},
        "points": {"X": [big, 0]},
    }
    code, _ = run(tmp_path, capsys, ["gauge"], json.dumps(scene))
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["gauges"]["points"]["X"] == "1"


def test_literals_too_long_to_convert_exit_1(tmp_path, capsys):
    digits = "1" * 5000  # past the interpreter's integer-string limit
    scene = {**PNORM, "points": {"X": [digits, 0]}}
    code, err = run(tmp_path, capsys, ["gauge"], json.dumps(scene))
    assert code == 1 and err.startswith("error: $.points.X[0]: ")
    code, err = run(tmp_path, capsys, ["gauge"], '{"dimension": 2, "ball": {"type": "pnorm", "p": %s}}' % digits)
    assert code == 1 and err.startswith("error: ")


def test_cli_import_loads_only_the_stdlib():
    # site hooks load modules before any user code, so compare
    # sys.modules before and after the import
    code = (
        "import sys; before = set(sys.modules); import minksimplex.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "minksimplex" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"minksimplex"}


def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize: a cold start
    # pays for them on every CLI call
    code = (
        "import sys; before = set(sys.modules); import minksimplex.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "minksimplex.cli" in proc.stdout.split()
    assert {"dataclasses", "inspect"}.isdisjoint(proc.stdout.split())


def test_unbounded_h_form_ball_is_a_scene_error(tmp_path, capsys):
    scene = {"dimension": 2, "ball": {"type": "polytope-h", "normals": [[1, 0], [-1, 0], [0, 1]]}}
    code, err = run(tmp_path, capsys, ["gauge"], json.dumps(scene))
    assert code == 1
    assert err == "error: $.ball: halfspace intersection is unbounded\n"


# a Latin-1 byte in a string, and arrays nested past any recursion limit
UNREADABLE_SCENES = [
    pytest.param(b'{"dimension": 2, "ball": {"type": "pnorm", "p": 3}, "points": {"\xe9": [0, 0]}}', id="not-utf-8"),
    pytest.param(b'{"dimension": 2, "points": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="nested-100000"),
]


@pytest.mark.parametrize("data", UNREADABLE_SCENES)
def test_unreadable_scene_exits_1_in_process(tmp_path, capsys, data):
    scene = tmp_path / "scene.json"
    scene.write_bytes(data)
    code = main(["gauge", "--in", str(scene), "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("data", UNREADABLE_SCENES)
def test_unreadable_scene_exits_1_in_a_subprocess(tmp_path, data):
    scene = tmp_path / "scene.json"
    scene.write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "minksimplex.cli", "gauge", "--in", str(scene)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
