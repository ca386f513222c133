"""A fresh process executes only the modules its command uses.

`feasibility`, `circumcenter`, `centers`, `construct`, `equivalence`
and `render` are registered in `sys.modules` by `import minksimplex`,
but each runs only at the first read of one of its attributes.  A
registered module that has not run yet is a `_LazyModule`; reading its
type does not run it, while `vars()` or `getattr` would.  Each case
runs in a fresh interpreter.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import minksimplex
from minksimplex import cli, equivalence

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

LAZY = ("feasibility", "circumcenter", "centers", "construct", "equivalence", "render")

SCENE = {
    "dimension": 2,
    "ball": {"type": "polytope-v", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    "simplex": [[0, 0], [4, 0], [0, 3]],
    "points": {"X": [1, 2]},
}

# the command line after `import minksimplex.cli` -> the modules that ran
EXECUTED = {
    (): set(),
    ("gauge",): set(),
    ("circumcenters",): {"feasibility", "circumcenter"},
    ("centers",): {"feasibility", "circumcenter", "centers"},
    ("construct",): {"feasibility", "circumcenter", "construct"},
    ("render",): {"feasibility", "circumcenter", "centers", "render"},
    ("verify", "--theorem", "41"): set(LAZY) - {"render"},
}

CHILD = """
import json, sys, types
import minksimplex.cli
code = minksimplex.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else None
print(json.dumps({
    "code": code,
    "registered": sorted(name for name in sys.modules if name.startswith("minksimplex")),
    "executed": sorted(name for name in json.loads(sys.argv[1])
                       if type(sys.modules["minksimplex." + name]) is types.ModuleType),
}))
"""


def fresh_process(argv=()) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(LAZY), *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", list(EXECUTED), ids=lambda c: c[0] if c else "import")
def test_each_command_executes_only_its_modules(tmp_path, command):
    argv = ()
    if command:
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(SCENE))
        flag = "--svg" if command[0] == "render" else "--out"
        argv = (*command, "--in", str(scene), flag, str(tmp_path / "out"))
    result = fresh_process(argv)
    assert result["code"] == (0 if command else None)
    assert set(result["executed"]) == EXECUTED[command]


def test_every_traced_module_is_registered_by_the_cli_import():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {f"minksimplex.{mod}" for mod, *_ in tracing.SPANS + tracing.VERIFY_SPANS + tracing.COUNTED}
    assert {f"minksimplex.{name}" for name in LAZY} <= traced
    assert traced <= set(fresh_process()["registered"])


def test_every_public_name_resolves():
    for name in minksimplex.__all__:
        assert getattr(minksimplex, name) is not None, name
    namespace = {}
    exec("from minksimplex import *", namespace)
    assert set(minksimplex.__all__) <= set(namespace)
    assert minksimplex.circumcenters is minksimplex.circumcenter.circumcenters
    assert not hasattr(minksimplex, "no_such_name")


def test_theorem_choices_are_the_family_table(capsys):
    assert cli.FAMILIES == tuple(equivalence.FAMILIES)
    with pytest.raises(SystemExit):
        cli.main(["verify", "-h"])
    assert "--theorem {41,42,43,44,r41}" in capsys.readouterr().out
