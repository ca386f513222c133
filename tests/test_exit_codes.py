"""Exit-code fuzzing: every scene valid under SCENE_SCHEMA, with any
command and flags, ends in a documented exit code (0-3) and never in a
traceback."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minksimplex.cli import main
from minksimplex.config import FAMILIES
from minksimplex.scene import SCENE_SCHEMA

jsonschema = pytest.importorskip("jsonschema")

# rationals as (numerator, denominator), written out as in scene files
rationals = st.tuples(st.integers(-6, 6), st.integers(1, 4))
floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

# Most scenes are well formed; the rest may carry one flaw that the
# schema lets through: vectors of another length, a ball that is not
# centrally symmetric, floats in an exact scene, a wrong vertex count,
# an integer-valued float dimension, or numbers no float holds in a
# pnorm scene.
FLAWS = [None] * 6 + [
    "ragged", "asymmetric", "float-in-exact", "vertex-count", "float-dimension", "edge-number",
]
EDGE_NUMBERS = [math.nan, math.inf, -math.inf, 10**400]


def rational_json(q):
    n, d = q
    return n if d == 1 else f"{n}/{d}"


@st.composite
def vectors(draw, dim, coords, flaw):
    n = draw(st.integers(2, 4)) if flaw == "ragged" else dim
    return draw(st.lists(coords, min_size=n, max_size=n))


@st.composite
def polytope_ball(draw, dim, flaw):
    gens = draw(st.lists(vectors(dim, rationals, flaw), min_size=dim, max_size=dim + 1))
    rows = gens + [[(-n, d) for n, d in g] for g in gens]
    if flaw == "asymmetric":
        rows.append(draw(vectors(dim, rationals, None)))
    kind = draw(st.sampled_from(["polytope-v", "polytope-h"]))
    key = "vertices" if kind == "polytope-v" else "normals"
    return {"type": kind, key: [[rational_json(q) for q in row] for row in rows]}


@st.composite
def scenes(draw):
    dim = draw(st.integers(2, 4))
    flaw = draw(st.sampled_from(FLAWS))
    exact = rationals.map(rational_json)
    if draw(st.booleans()):
        p = st.one_of(st.integers(2, 6), st.floats(1.01, 60.0))
        coords = st.one_of(exact, floats)
        if flaw == "edge-number":
            # -Infinity is not a valid p
            p = st.one_of(p, st.sampled_from([x for x in EDGE_NUMBERS if x != -math.inf]))
            coords = st.one_of(coords, st.sampled_from(EDGE_NUMBERS))
        ball = {"type": "pnorm", "p": draw(p)}
    else:
        ball = draw(polytope_ball(dim, flaw))
        coords = st.one_of(exact, floats) if flaw == "float-in-exact" else exact
    scene = {"dimension": float(dim) if flaw == "float-dimension" else dim, "ball": ball}
    if draw(st.integers(0, 4)):
        n = draw(st.integers(3, 5)) if flaw == "vertex-count" else dim + 1
        scene["simplex"] = draw(st.lists(vectors(dim, coords, flaw), min_size=n, max_size=n))
    if draw(st.booleans()):
        names = st.sampled_from(["anchor", "M", "x_1"])
        scene["points"] = draw(st.dictionaries(names, vectors(dim, coords, flaw), max_size=2))
    return scene


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["gauge", "circumcenters", "centers", "construct", "verify", "render"]))
    argv = [command]
    mode = draw(st.sampled_from([None, "exact", "float"]))
    if mode is not None:
        argv += ["--mode", mode]
    if command == "verify":
        argv += ["--theorem", draw(st.sampled_from(FAMILIES)),
                 "--trials", str(draw(st.integers(1, 2))),
                 "--seed", str(draw(st.integers(0, 9)))]
    elif command == "construct":
        argv += ["--strategy", draw(st.sampled_from(["deterministic", "seeded"])),
                 "--seed", str(draw(st.integers(0, 9)))]
    elif command == "render":
        project = draw(st.sampled_from([None, "0,1", "1,2", "0,3", "2,0", "x"]))
        if project is not None:
            argv += ["--project", project]
    return argv


@given(scenes(), argvs())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_schema_valid_scenes_end_in_documented_exit_codes(scene, argv):
    jsonschema.validate(scene, SCENE_SCHEMA)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(scene))
        out = ["--svg" if argv[0] == "render" else "--out", str(Path(tmp) / "out")]
        code = main([*argv, "--in", str(path), *out])
    assert code in (0, 1, 2, 3)
