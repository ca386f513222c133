"""The scene walk against a general JSON Schema engine.

Sound scenes carry zero or one schema-level mutation: a wrong type, a
missing key, an extra key, an out-of-range number, a bad pattern or a
wrong array size.  jsonschema must accept a document exactly when
scene_from_dict returns a scene, and the walk may raise nothing but
SceneError.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minksimplex.scene import SCENE_SCHEMA, SceneError, scene_from_dict

jsonschema = pytest.importorskip("jsonschema")

# integer-valued floats are integers, and `$` also matches before a
# final newline under re.search
DIMENSIONS = st.sampled_from([2, 3, 4, 2.0, 3.0, 4.0])
SCALES = st.sampled_from([1, 2, "3", "1/2", "-5/3", "7/2\n"])
NAMES = st.sampled_from(["M", "x_1", "probe-2", "A" * 32, "b\n"])

WRONG_TYPE = {
    "object": [None, True, "x", [], 1.5, 3],
    "array": [None, True, "x", {}, 1.5, 3],
    "integer": [None, True, "2", [2], {}, 2.5],
    "number": [None, True, "3", [3], {}],
    "coordinate": [None, True, False, [], {}],
    "enum": [None, 1, "sphere", [], "PNORM"],
}
OUT_OF_RANGE = {"integer": [0, 1, 5, -2, 10**400], "number": [1, 1.0, 0.5, 0, -3]}
BAD_RATIONALS = ["1/0", "x", "1.5", "1/-2", " 1", "--1", "1/02", "3\n\n", "", "1e3"]
BAD_NAMES = ["9bad", "", "a b", "A" * 33, "_x", "x.y", "x\n\n"]
MUTATIONS = [None, "wrong-type", "missing-key", "extra-key", "out-of-range", "bad-pattern", "array-size"]


def negate(c):
    if isinstance(c, str):
        return c[1:] if c.startswith("-") else "-" + c
    return -c


@st.composite
def sound_scenes(draw):
    dim = draw(DIMENSIONS)
    d = int(dim)
    kind = draw(st.sampled_from(["polytope-v", "polytope-h", "pnorm"]))
    smooth = kind == "pnorm"
    coords = st.one_of(SCALES, st.floats(0.25, 8.0)) if smooth else SCALES
    if smooth:
        ball = {"type": kind, "p": draw(st.one_of(st.integers(2, 6), st.floats(1.01, 60.0)))}
    else:
        # a scaled cross-polytope or box: centrally symmetric, full-dimensional
        rows = []
        for i in range(d):
            s = draw(SCALES.filter(lambda c: not str(c).startswith("-")))
            e = [0] * d
            e[i] = s
            rows += [e, [negate(c) if c else 0 for c in e]]
        ball = {"type": kind, "vertices" if kind == "polytope-v" else "normals": rows}
    doc = {"dimension": dim, "ball": ball}
    if draw(st.booleans()):
        simplex = [[0] * d]
        for i in range(d):
            e = [0] * d
            e[i] = draw(coords)
            simplex.append(e)
        doc["simplex"] = simplex
    if draw(st.booleans()):
        names = draw(st.lists(NAMES, max_size=2, unique=True))
        doc["points"] = {n: draw(st.lists(coords, min_size=d, max_size=d)) for n in names}
    return doc


def sites(box):
    """(container, key, kind) for every value the schema constrains."""
    yield box, "doc", "object"
    doc = box["doc"]
    yield doc, "dimension", "integer"
    yield doc, "ball", "object"
    ball = doc["ball"]
    yield ball, "type", "enum"
    if "p" in ball:
        yield ball, "p", "number"
    for key in ("vertices", "normals", "simplex"):
        rows = ball.get(key, doc.get(key))
        if rows is not None:
            yield ball if key in ball else doc, key, "array"
            for k, row in enumerate(rows):
                yield rows, k, "vector"
                for j in range(len(row)):
                    yield row, j, "coordinate"
    if "points" in doc:
        yield doc, "points", "object"
        for name, row in doc["points"].items():
            yield doc["points"], name, "vector"
            for j in range(len(row)):
                yield row, j, "coordinate"


@st.composite
def documents(draw):
    doc = draw(sound_scenes())
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation in ("bad-pattern", "array-size") and not doc.get("points"):
        doc["points"] = {"M": [1] * int(doc["dimension"])}  # a vector to act on
    box = {"doc": doc}
    all_sites = list(sites(box))
    if mutation == "wrong-type":
        obj, key, kind = draw(st.sampled_from(all_sites))
        obj[key] = draw(st.sampled_from(WRONG_TYPE["array" if kind == "vector" else kind]))
    elif mutation == "missing-key":
        ball = doc["ball"]
        obj, key = draw(st.sampled_from(
            [(doc, "dimension"), (doc, "ball"), (ball, "type"), (ball, [k for k in ball if k != "type"][0])]
        ))
        del obj[key]
    elif mutation == "extra-key":
        obj = draw(st.sampled_from([doc, doc["ball"]]))
        obj[draw(st.sampled_from(["extra", "Type", "simplices"]))] = 1
    elif mutation == "out-of-range":
        obj, key, kind = draw(st.sampled_from([s for s in all_sites if s[2] in OUT_OF_RANGE]))
        obj[key] = draw(st.sampled_from(OUT_OF_RANGE[kind]))
    elif mutation == "bad-pattern":
        targets = [s for s in all_sites if s[2] == "coordinate"] + [(doc["points"], None, "name")]
        obj, key, kind = draw(st.sampled_from(targets))
        if kind == "name":
            obj[draw(st.sampled_from(BAD_NAMES))] = obj.pop(next(iter(obj)))
        else:
            obj[key] = draw(st.sampled_from(BAD_RATIONALS))
    elif mutation == "array-size":
        obj, key, kind = draw(st.sampled_from([s for s in all_sites if s[2] in ("array", "vector")]))
        rows = obj[key]
        if kind == "vector":
            obj[key] = draw(st.sampled_from([[], rows[:1], rows + [0] * (5 - len(rows))]))
        elif key == "simplex":
            obj[key] = draw(st.sampled_from([rows[:2], rows + [rows[0]] * (6 - len(rows))]))
        else:
            obj[key] = rows[: draw(st.integers(0, 2))]
    return box["doc"]


@given(documents())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_walk_agrees_with_jsonschema(doc):
    schema_ok = jsonschema.Draft202012Validator(SCENE_SCHEMA).is_valid(doc)
    try:
        scene_from_dict(doc)
    except SceneError:
        walk_ok = False
    else:
        walk_ok = True
    assert walk_ok == schema_ok
