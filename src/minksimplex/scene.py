"""JSON scene files and result documents.

A scene carries a unit ball, an optional simplex, and optional named
points.  Exact values travel as "p/q" strings so rationals survive the
wire unchanged; bare JSON numbers with a fractional part are only legal
in smooth (pnorm) scenes, which keeps floats out of exact pipelines.
Result documents mirror the parsed scene back as a fingerprint and are
built with a fixed key order so reruns diff cleanly.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import Optional

from . import config
from .errors import ConfigError, FrozenRecord, MinksimplexError, ResourceCapError
from .linalg import ExactVec, Hyperplane, Vec
from .norms import PNormBall, PolytopeBall, UnitBall
from .scalars import EXACT, Rat
from .simplex import Simplex

_RATIONAL = r"^-?[0-9]+(/[1-9][0-9]*)?$"

_COORD = {
    "anyOf": [
        {"type": "number"},
        {"type": "string", "pattern": _RATIONAL},
    ]
}

_VECTOR = {"type": "array", "items": _COORD, "minItems": 2, "maxItems": 4}

SCENE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["dimension", "ball"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 2, "maximum": 4},
        "ball": {
            "type": "object",
            "required": ["type"],
            "properties": {"type": {"enum": ["polytope-v", "polytope-h", "pnorm"]}},
            "allOf": [
                {
                    "if": {"properties": {"type": {"const": "polytope-v"}}},
                    "then": {
                        "required": ["vertices"],
                        "properties": {
                            "type": {},
                            "vertices": {"type": "array", "items": _VECTOR, "minItems": 3},
                        },
                        "additionalProperties": False,
                    },
                },
                {
                    "if": {"properties": {"type": {"const": "polytope-h"}}},
                    "then": {
                        "required": ["normals"],
                        "properties": {
                            "type": {},
                            "normals": {"type": "array", "items": _VECTOR, "minItems": 3},
                        },
                        "additionalProperties": False,
                    },
                },
                {
                    "if": {"properties": {"type": {"const": "pnorm"}}},
                    "then": {
                        "required": ["p"],
                        "properties": {
                            "type": {},
                            "p": {"type": "number", "exclusiveMinimum": 1},
                        },
                        "additionalProperties": False,
                    },
                },
            ],
        },
        "simplex": {"type": "array", "items": _VECTOR, "minItems": 3, "maxItems": 5},
        "points": {
            "type": "object",
            "additionalProperties": _VECTOR,
            "propertyNames": {"pattern": r"^[A-Za-z][A-Za-z0-9_-]{0,31}$"},
        },
    },
}


class SceneError(MinksimplexError, ValueError):
    """Malformed scene input; `where` locates the offending element
    (JSON path, or line/column for syntax errors)."""

    def __init__(self, message: str, where: str = "$"):
        super().__init__(f"{where}: {message}")
        self.where = where


class Scene(FrozenRecord):
    def __init__(self, dimension: int, ball: UnitBall, simplex: Optional[Simplex], points: dict):
        self.__dict__.update(dimension=dimension, ball=ball, simplex=simplex, points=points)

    @property
    def mode(self) -> str:
        return self.ball.mode


_NAME = SCENE_SCHEMA["properties"]["points"]["propertyNames"]["pattern"]
_BALL_KEY = {"polytope-v": "vertices", "polytope-h": "normals", "pnorm": "p"}
BALL_CACHE_SIZE = 64
# one encoder per setting: json.dumps builds a new one for every call
# that passes a flag off its default
_canonical_json = json.JSONEncoder(sort_keys=True).encode
_strict_json = json.JSONEncoder(allow_nan=False).encode

# One walk reads a JSON document and checks each SCENE_SCHEMA keyword
# where it reads that value, then the rules the schema cannot state:
# vector lengths equal to the dimension, d+1 simplex vertices, floats
# only in pnorm scenes, and finite floats wherever the float lane needs
# one.  Type checks follow JSON Schema: a bool is never a number, and an
# integer-valued float is an integer.


def _object(obj, where: str, required, allowed=None) -> dict:
    """`type: object`, `required`, and `additionalProperties: false`
    when `allowed` names the properties."""
    if not isinstance(obj, dict):
        raise SceneError("expected an object", where)
    for key in required:
        if key not in obj:
            raise SceneError(f"{key!r} is a required property", where)
    for key in obj if allowed is not None else ():
        if key not in allowed:
            raise SceneError(f"additional property {key!r} is not allowed", where)
    return obj


def _array(arr, where: str, min_items: int, max_items: float = math.inf) -> list:
    if not isinstance(arr, list):
        raise SceneError("expected an array", where)
    if not min_items <= len(arr) <= max_items:
        raise SceneError(f"expected {min_items} to {max_items} items, got {len(arr)}", where)
    return arr


def _is_number(x, integer: bool = False) -> bool:
    if isinstance(x, float):
        return not integer or x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x, where: str, k: Optional[int] = None) -> float:
    """float(x), which must be finite; the error's location is where,
    or its coordinate k, where[k]."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise SceneError("number must be finite and within float range", where if k is None else f"{where}[{k}]")
    return f


def _scalar(x, smooth: bool, where: str, k: int):
    """Coordinate k of the vector at where: a JSON number or a 'p/q'
    string.  A float when the ball is smooth, else the int pair (p, q),
    q > 0.  Its location, where[k], is written only into an error."""
    if isinstance(x, str):
        if not re.search(_RATIONAL, x):
            raise SceneError(f"bad rational literal {x!r}", f"{where}[{k}]")
        num, _, den = x.partition("/")
        try:
            x = (int(num), int(den or 1))
        except ValueError as exc:  # more digits than int() converts
            raise SceneError(str(exc), f"{where}[{k}]")
    elif not _is_number(x):
        raise SceneError("coordinate must be a number or 'p/q' string", f"{where}[{k}]")
    elif isinstance(x, int):
        x = (x, 1)
    elif not smooth:
        raise SceneError("float coordinates are only allowed with pnorm balls", f"{where}[{k}]")
    else:
        return _finite(x, where, k)
    return _finite(Rat(*x), where, k) if smooth else x


def _vector(arr, dim: int, smooth: bool, where: str) -> Vec:
    coords = [_scalar(c, smooth, where, k) for k, c in enumerate(_array(arr, where, 2, 4))]
    if len(coords) != dim:
        raise SceneError(f"expected {dim} coordinates, got {len(coords)}", where)
    return Vec(coords) if smooth else ExactVec.of_ratios(coords)


def _ball(doc: dict, dim: int) -> UnitBall:
    kind = _object(doc, "$.ball", ["type"])["type"]
    if not isinstance(kind, str) or kind not in _BALL_KEY:
        raise SceneError(f"{kind!r} is not one of {list(_BALL_KEY)}", "$.ball.type")
    key = _BALL_KEY[kind]
    _object(doc, "$.ball", [key], ["type", key])
    if kind == "pnorm":
        p = doc["p"]
        if not _is_number(p) or p <= 1:
            raise SceneError(f"{p!r} is not a number greater than 1", "$.ball.p")
        return PNormBall(dim, _finite(p, "$.ball.p"))
    try:
        text = _canonical_json(doc)
    except (TypeError, ValueError):  # values JSON cannot hold
        text = None
    if text is not None and json.loads(text) == doc:  # a tuple dumps as a list
        return _cached_ball(dim, text, *config.raw_settings())
    return _polytope_ball(doc, dim)


@functools.lru_cache(maxsize=BALL_CACHE_SIZE)
def _cached_ball(dim: int, text: str, *_settings) -> UnitBall:
    """Polytope balls by dimension, canonical JSON text (1, 1.0 and true
    differ) and raw cap settings; a ball that fails raises, unstored."""
    return _polytope_ball(json.loads(text), dim)


def _polytope_ball(doc: dict, dim: int) -> PolytopeBall:
    """The ball of a polytope-v or polytope-h document whose type and
    keys _ball has checked."""
    kind = doc["type"]
    key = _BALL_KEY[kind]
    where = f"$.ball.{key}"
    rows = [
        _vector(v, dim, False, f"{where}[{k}]")
        for k, v in enumerate(_array(doc[key], where, 3))
    ]
    if kind == "polytope-v":
        return PolytopeBall.from_vertices(rows)
    return PolytopeBall.from_halfspaces([Hyperplane(n, Rat(1)) for n in rows])


def scene_from_dict(doc: dict) -> Scene:
    """Typed scene from a JSON document, checked against SCENE_SCHEMA
    and the rules it cannot state; raises SceneError with the JSON path
    of the first violation."""
    _object(doc, "$", ["dimension", "ball"], ["dimension", "ball", "simplex", "points"])
    dim = doc["dimension"]
    if not _is_number(dim, integer=True) or not 2 <= dim <= 4:
        raise SceneError(f"{dim!r} is not an integer from 2 to 4", "$.dimension")
    dim = int(dim)
    try:
        ball = _ball(doc["ball"], dim)
    except (SceneError, ResourceCapError, ConfigError):
        raise  # caps and settings are not scene errors
    except MinksimplexError as exc:
        raise SceneError(str(exc), "$.ball")
    smooth = ball.mode != EXACT
    simplex = None
    if "simplex" in doc:
        rows = _array(doc["simplex"], "$.simplex", 3, 5)
        verts = [_vector(v, dim, smooth, f"$.simplex[{k}]") for k, v in enumerate(rows)]
        if len(verts) != dim + 1:
            raise SceneError(f"simplex needs {dim + 1} vertices", "$.simplex")
        try:
            simplex = Simplex(verts)
        except MinksimplexError as exc:
            raise SceneError(str(exc), "$.simplex")
    points = _object(doc.get("points", {}), "$.points", [])
    for name in points:
        if not re.search(_NAME, name):
            raise SceneError(f"{name!r} does not match {_NAME!r}", "$.points")
    return Scene(dim, ball, simplex, {
        name: _vector(arr, dim, smooth, f"$.points.{name}")
        for name, arr in sorted(points.items())
    })


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(exc.msg, f"line {exc.lineno} column {exc.colno}")
    except ValueError as exc:  # an integer literal longer than int() converts
        raise SceneError(str(exc))
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise SceneError("JSON nesting is too deep")
    return scene_from_dict(doc)


# -- serialization ----------------------------------------------------


def scalar_to_json(x):
    """Exact values as strings, floats as JSON numbers; both directions
    are lossless."""
    return float(x) if isinstance(x, float) else str(x)


def vec_to_json(v: Vec) -> list:
    """Coordinates as scalar_to_json writes them; an ExactVec's X_i / D
    in lowest terms by one gcd each, with no Rat built."""
    if v.__class__ is not ExactVec:
        return [scalar_to_json(c) for c in v.coords]
    D = v.D
    return [str(x // g) if (g := math.gcd(x, D)) == D else f"{x // g}/{D // g}" for x in v.X]


def ball_to_json(ball: UnitBall) -> dict:
    """The ball's mirror in a document; the one place its keys are set."""
    if ball.mode == EXACT:
        return {
            "type": "polytope-v",
            "vertices": [vec_to_json(v) for v in ball.vertices],
        }
    return {"type": "pnorm", "p": ball.p}


def scene_to_dict(scene: Scene) -> dict:
    return _scene_json(scene, ball_to_json(scene.ball))


def _scene_json(scene: Scene, ball) -> dict:
    out = {"dimension": scene.dimension, "ball": ball}
    if scene.simplex is not None:
        out["simplex"] = [vec_to_json(v) for v in scene.simplex.vertices]
    if scene.points:
        out["points"] = {k: vec_to_json(v) for k, v in sorted(scene.points.items())}
    return out


def result_document(command: str, scene: Scene, payload: dict, version: str) -> dict:
    """The document dumps_document writes.  An exact ball's mirror in it
    is the ball's own (see _mirror), shared by every document of the
    ball: read it, do not change it."""
    doc = {"version": version, "command": command, "scene": _scene_json(scene, _mirror(scene.ball))}
    doc.update(payload)
    return doc


class _Mirror(dict):
    """An exact ball's mirror as plain JSON data, and its text as
    _write_json last laid it out at pad, copied into each later
    document that holds the mirror at the same pad."""

    __slots__ = ("pad", "text")


def _mirror(ball: UnitBall) -> dict:
    """ball_to_json(ball), built once per exact ball object and kept on
    the ball, so every document of a cached ball shares it and its
    text; a pnorm ball's mirror is built anew."""
    if ball.mode != EXACT:
        return ball_to_json(ball)
    mirror = ball.__dict__.get("_document_mirror")
    if mirror is None:
        mirror = ball._document_mirror = _Mirror(ball_to_json(ball))
        mirror.pad = None
    return mirror


# json's text of each scalar type it writes directly; _strict_json
# writes any other leaf, and raises ValueError for inf and nan
_json_str = json.encoder.encode_basestring_ascii
_SCALAR_JSON = {
    str: _json_str, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null",
    float: lambda x: float.__repr__(x) if math.isfinite(x) else _strict_json(x),
}


class _Unwritable(Exception):
    """A leaf that JSON cannot hold; steps gather its path while the
    walk unwinds, innermost first, as (is_index, key) pairs."""

    def __init__(self, leaf):
        super().__init__(leaf)
        self.leaf, self.steps = leaf, []


def _write_json(obj, pad: str, out: list) -> None:
    """Append obj's text to out: dicts and lists that hold a dict or a
    list get one member per line, indented past pad."""
    if isinstance(obj, dict):
        if obj.__class__ is _Mirror:
            if obj.pad != pad:
                text: list = []
                _write_json(dict(obj), pad, text)
                obj.pad, obj.text = pad, "".join(text)
            out.append(obj.text)
            return
        if not obj:
            out.append("{}")
            return
        inner, head = pad + "  ", "{\n"
        for key, val in obj.items():
            # json quotes an int, float, bool or None key ("1", "null") and
            # raises TypeError for any other that is not a str
            out.append(f"{head}{inner}{_json_str(key) if key.__class__ is str else json.dumps({key: 0})[1:-4]}: ")
            try:
                _write_json(val, inner, out)
            except _Unwritable as exc:
                exc.steps.append((False, key))
                raise
            head = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        inner, head = pad + "  ", "[\n"
        for k, val in enumerate(obj):
            out.append(head + inner)
            try:
                _write_json(val, inner, out)
            except _Unwritable as exc:
                exc.steps.append((True, k))
                raise
            head = ",\n"
        out.append(f"\n{pad}]")
    else:  # a scalar or an inline list of scalars
        try:
            if isinstance(obj, list):
                out.append(f"[{', '.join([_SCALAR_JSON.get(x.__class__, _strict_json)(x) for x in obj])}]")
            else:
                out.append(_SCALAR_JSON.get(obj.__class__, _strict_json)(obj))
        except ValueError:  # inf or nan, which a JSON document cannot hold
            raise _Unwritable(obj) from None


def dumps_document(doc: dict) -> str:
    """Deterministic human-scale formatting: nested structures get one
    element per line, innermost scalar lists stay inline."""
    out: list = []
    try:
        _write_json(doc, "", out)
    except _Unwritable as exc:
        where = ""
        for is_index, key in reversed(exc.steps):
            where = f"{where}[{key}]" if is_index else f"{where}.{key}" if where else key
        raise MinksimplexError(f"result {where} = {exc.leaf} is beyond the float range") from None
    return "".join(out) + "\n"
