"""Scene parsing, validation paths, and document serialization."""

import itertools
import json
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksimplex import config
from minksimplex import scene as scene_module
from minksimplex.errors import MinksimplexError
from minksimplex.scene import (
    _RATIONAL,
    BALL_CACHE_SIZE,
    Scene,
    SceneError,
    dumps_document,
    parse_scene,
    result_document,
    scene_from_dict,
    scene_to_dict,
)
from minksimplex.scalars import Rat

from conftest import vec


GOOD_POLY = {
    "dimension": 2,
    "ball": {
        "type": "polytope-v",
        "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
    },
    "simplex": [[0, 0], [4, 0], [0, 3]],
    "points": {"M": ["2", "1"], "probe": ["1/2", "-3/2"]},
}

GOOD_PNORM = {
    "dimension": 2,
    "ball": {"type": "pnorm", "p": 2.5},
    "simplex": [[0.0, 0.0], [4.0, 0.5], [0.25, 3.0]],
}


def test_parse_polytope_scene():
    scene = scene_from_dict(GOOD_POLY)
    assert scene.dimension == 2
    assert scene.mode == "exact"
    assert scene.ball.gauge(vec(1, 1)) == 1
    assert scene.simplex is not None
    assert scene.points["probe"] == vec(Rat(1, 2), Rat(-3, 2))


def test_parse_pnorm_scene():
    scene = scene_from_dict(GOOD_PNORM)
    assert scene.mode == "float"
    assert scene.ball.p == 2.5
    assert scene.simplex.vertices[1].coords == (4.0, 0.5)


def test_parse_halfspace_ball():
    doc = {
        "dimension": 2,
        "ball": {
            "type": "polytope-h",
            "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        },
    }
    scene = scene_from_dict(doc)
    assert scene.ball.gauge(vec(3, 1)) == 3
    assert scene.simplex is None


def err(doc) -> SceneError:
    with pytest.raises(SceneError) as info:
        scene_from_dict(doc)
    return info.value


def test_schema_errors_carry_json_paths():
    e = err({"dimension": 2})
    assert "$" in e.where
    e = err({**GOOD_POLY, "dimension": 7})
    assert e.where == "$.dimension"
    e = err({**GOOD_POLY, "ball": {"type": "mystery"}})
    assert e.where.startswith("$.ball")
    bad_vec = {**GOOD_POLY, "simplex": [[0, 0], [4, 0], [0, "3/0"]]}
    e = err(bad_vec)
    assert "simplex" in e.where
    e = err({**GOOD_POLY, "points": {"9bad": [0, 0]}})
    assert "points" in e.where
    e = err({**GOOD_POLY, "extra": 1})
    assert isinstance(e, ValueError)


def test_float_coordinates_rejected_in_exact_scenes():
    doc = {**GOOD_POLY, "simplex": [[0, 0], [4, 0], [0, 3.5]]}
    e = err(doc)
    assert "simplex" in e.where
    # integer-valued floats are still floats on the wire: rejected too
    doc = {**GOOD_POLY, "simplex": [[0, 0], [4, 0], [0.0, 3]]}
    err(doc)


def test_integers_legal_in_both_modes():
    doc = {
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 3.0},
        "simplex": [[0, 0], [4, 0], [0, 3]],
    }
    scene = scene_from_dict(doc)
    assert scene.mode == "float"


def test_rational_strings_coerce_to_float_in_pnorm_scenes():
    doc = {
        "dimension": 2,
        "ball": {"type": "pnorm", "p": 3.0},
        "simplex": [[0, 0], ["1/2", 0], [0, 3]],
    }
    scene = scene_from_dict(doc)
    assert scene.simplex.vertices[1].coords == (0.5, 0.0)


def test_dimension_mismatch_detected():
    e = err({**GOOD_POLY, "dimension": 3})
    assert isinstance(e, SceneError)


def test_degenerate_ball_reported_at_ball_path():
    doc = {
        "dimension": 2,
        "ball": {"type": "polytope-v", "vertices": [[1, 0], [-1, 0], [2, 0]]},
    }
    e = err(doc)
    assert e.where == "$.ball"


def test_degenerate_simplex_reported_at_simplex_path():
    doc = {**GOOD_POLY, "simplex": [[0, 0], [1, 1], [2, 2]]}
    e = err(doc)
    assert e.where == "$.simplex"


def test_syntax_errors_report_line_and_column():
    with pytest.raises(SceneError) as info:
        parse_scene('{\n  "dimension": 2,\n  "ball": }\n')
    assert "line 3" in info.value.where
    with pytest.raises(SceneError):
        parse_scene("")


def test_parse_scene_happy_path():
    scene = parse_scene(json.dumps(GOOD_POLY))
    assert scene.points["M"] == vec(2, 1)


def test_roundtrip_exact_scene():
    scene = scene_from_dict(GOOD_POLY)
    doc = scene_to_dict(scene)
    again = scene_from_dict(doc)
    assert again.ball == scene.ball
    assert again.simplex == scene.simplex
    assert again.points == scene.points


def test_roundtrip_pnorm_scene():
    scene = scene_from_dict(GOOD_PNORM)
    again = scene_from_dict(scene_to_dict(scene))
    assert again.ball == scene.ball
    assert [v.coords for v in again.simplex.vertices] == [
        v.coords for v in scene.simplex.vertices
    ]


coords = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-20, 20), st.integers(1, 12)),
)


@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_roundtrip_random_point_sets(pairs):
    doc = {
        "dimension": 2,
        "ball": GOOD_POLY["ball"],
        "points": {f"p{i}": list(c) for i, c in enumerate(pairs)},
    }
    scene = scene_from_dict(doc)
    again = scene_from_dict(scene_to_dict(scene))
    assert again.points == scene.points


def test_result_document_layout():
    scene = scene_from_dict(GOOD_POLY)
    doc = result_document("gauge", scene, {"answer": [Rat(1, 2)]}, "minksimplex 0.1.0")
    keys = list(doc)
    assert keys[0] == "version"
    assert keys[1] == "command"
    text = dumps_document({"version": "minksimplex 0.1.0", "data": {"xs": [1, 2, 3]}})
    first_line = text.splitlines()[0]
    assert first_line == "{"
    second = text.splitlines()[1]
    assert '"version"' in second
    # scalar lists stay on one line
    assert '"xs": [1, 2, 3]' in text
    assert text.endswith("}\n")


@pytest.mark.parametrize("doc,message", [
    ({"a": [{"b": [1.0, math.inf]}]}, "result a[0].b = [1.0, inf] is beyond the float range"),
    ({"xs": [[1, -math.inf]]}, "result xs[0] = [1, -inf] is beyond the float range"),
])
def test_dumps_document_names_the_unwritable_value_and_its_path(doc, message):
    with pytest.raises(MinksimplexError) as info:
        dumps_document(doc)
    assert str(info.value) == message


def test_dumps_document_is_valid_json():
    scene = scene_from_dict(GOOD_POLY)
    payload = {"radius": "6/7", "nested": [{"a": 1}], "keys": {1: "a", None: "b", 2.5: "c"}}
    parsed = json.loads(dumps_document(result_document("centers", scene, payload, "v")))
    assert parsed["scene"]["ball"]["type"] == "polytope-v"
    assert parsed["nested"] == [{"a": 1}]
    # keys that are not strings are written as json writes them
    assert parsed["keys"] == {"1": "a", "null": "b", "2.5": "c"}


BOXES = {
    d: {"type": "polytope-v", "vertices": [list(v) for v in itertools.product((1, -1), repeat=d)]}
    for d in (2, 3, 4)
}


@given(st.one_of(st.from_regex(_RATIONAL), st.text(alphabet="0123456789-/+_ \n\u0661\u00b2a", max_size=7)))
@example("12\n")
@example("-1/20\n")
@settings(max_examples=400, deadline=None)
def test_rational_literals_read_as_the_pattern_judges_them(literal):
    # the reference: _RATIONAL decides, then int() converts each part
    doc = {"dimension": 2, "ball": GOOD_POLY["ball"], "points": {"P": [literal, 0]}}
    if re.search(_RATIONAL, literal):
        num, _, den = literal.partition("/")
        assert scene_from_dict(doc).points["P"] == vec(Rat(int(num), int(den or 1)), 0)
    else:
        assert str(err(doc)) == f"$.points.P[0]: bad rational literal {literal!r}"


def test_result_document_writes_the_ball_text_as_the_data_lays_it_out():
    for doc in (GOOD_POLY, GOOD_PNORM, {"dimension": 3, "ball": BOXES[3], "points": {"X": [1, "1/2", -3]}}):
        scene = scene_from_dict(doc)
        plain = {"version": "v", "command": "gauge", "scene": scene_to_dict(scene), "x": 1}
        for _ in range(2):
            result = result_document("gauge", scene, {"x": 1}, "v")
            assert result == plain and json.dumps(result) == json.dumps(plain)
            assert dumps_document(result) == dumps_document(plain)
        # the mirror's text is laid out at the pad where it is written
        mirror = result["scene"]["ball"]
        for nested in ({"ball": mirror}, {"a": [{"b": mirror}], "c": mirror}, {"scene": {"ball": mirror}}):
            assert dumps_document(nested) == dumps_document(json.loads(json.dumps(nested)))


def test_an_exact_ball_prints_its_vertices_once(monkeypatch):
    calls = []
    original = scene_module.vec_to_json
    monkeypatch.setattr(scene_module, "vec_to_json", lambda v: calls.append(v) or original(v))
    texts = []
    for _ in range(3):
        scene = parse_scene(json.dumps(GOOD_POLY))
        texts.append(dumps_document(result_document("gauge", scene, {}, "v")))
    # the first document prints 4 ball vertices, 3 simplex vertices and
    # 2 points; the next two copy the ball's text
    assert len(calls) == (4 + 3 + 2) + 2 * (3 + 2) and texts[0] == texts[1] == texts[2]
    # scene_to_dict still gives the ball as data
    assert scene_to_dict(scene)["ball"]["vertices"] == [original(v) for v in scene.ball.vertices]


# -- the ball cache ---------------------------------------------------


def test_same_scene_text_shares_one_ball():
    text = json.dumps(GOOD_POLY)
    a, b = parse_scene(text), parse_scene(text)
    assert a is not b and a.ball is b.ball
    # key order is not part of the key
    ball = {"vertices": GOOD_POLY["ball"]["vertices"], "type": "polytope-v"}
    assert scene_from_dict({**GOOD_POLY, "ball": ball}).ball is a.ball
    # the dimension is: the same ball text in another dimension fails
    assert err({"dimension": 3, "ball": GOOD_POLY["ball"]}).where == "$.ball.vertices[0]"


def test_ball_cache_keys_on_every_setting(monkeypatch):
    # each MINKSIMPLEX_* setting is part of the key as its raw text, so a
    # cap added to ball construction cannot be skipped by a cached ball
    first = scene_from_dict(GOOD_POLY).ball
    for name, default in config._DEFAULTS.items():
        monkeypatch.setenv(name, str(default))
        ball = scene_from_dict(GOOD_POLY).ball
        assert ball == first and ball is not first, name
        monkeypatch.delenv(name)
    assert scene_from_dict(GOOD_POLY).ball is first


def test_pnorm_balls_are_not_cached():
    a, b = scene_from_dict(GOOD_PNORM), scene_from_dict(GOOD_PNORM)
    assert a.ball is not b.ball and scene_module._cached_ball.cache_info().currsize == 0


@pytest.mark.parametrize("spelling", [1.0, True])
def test_cached_ball_does_not_admit_its_float_or_bool_twin(spelling):
    scene_from_dict(GOOD_POLY)
    vertices = [[spelling, 1], [-1, 1], [-1, -1], [1, -1]]
    e = err({**GOOD_POLY, "ball": {"type": "polytope-v", "vertices": vertices}})
    assert e.where == "$.ball.vertices[0][0]"


def test_cached_ball_does_not_admit_its_tuple_twin():
    scene_from_dict(GOOD_POLY)
    vertices = tuple(tuple(v) for v in GOOD_POLY["ball"]["vertices"])
    e = err({**GOOD_POLY, "ball": {"type": "polytope-v", "vertices": vertices}})
    assert e.where == "$.ball.vertices" and "expected an array" in str(e)


def test_failed_ball_is_not_cached():
    doc = {"dimension": 2, "ball": {"type": "polytope-v", "vertices": [[1, 0], [-1, 0], [2, 0]]}}
    first, second = err(doc), err(doc)
    assert str(first) == str(second) and scene_module._cached_ball.cache_info().currsize == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_ball_json_cannot_encode_takes_the_uncached_path():
    big = 10**700  # more digits than int-to-text conversion allows below
    vertices = [[big, big], [-big, big], [-big, -big], [big, -big]]
    doc = {"dimension": 2, "ball": {"type": "polytope-v", "vertices": vertices}}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        a, b = scene_from_dict(doc), scene_from_dict(doc)
    finally:
        sys.set_int_max_str_digits(limit)
    assert a.ball == b.ball and a.ball is not b.ball and scene_module._cached_ball.cache_info().currsize == 0


def test_ball_cache_keeps_its_bound():
    def square(k):
        vertices = [[k, k], [-k, k], [-k, -k], [k, -k]]
        return {"dimension": 2, "ball": {"type": "polytope-v", "vertices": vertices}}

    balls = [scene_from_dict(square(k)).ball for k in range(1, BALL_CACHE_SIZE + 1)]
    assert scene_module._cached_ball.cache_info().currsize == BALL_CACHE_SIZE
    # a hit makes square 1 the most recently used, so square 2 goes first
    assert scene_from_dict(square(1)).ball is balls[0]
    scene_from_dict(square(BALL_CACHE_SIZE + 1))
    assert scene_module._cached_ball.cache_info().currsize == BALL_CACHE_SIZE
    assert scene_from_dict(square(1)).ball is balls[0]
    assert scene_from_dict(square(3)).ball is balls[2]
    assert scene_from_dict(square(2)).ball is not balls[1]
