"""JSON scene files and result documents.

A scene carries a unit ball, an optional simplex, and optional named
points.  Exact values travel as "p/q" strings so rationals survive the
wire unchanged; bare JSON numbers with a fractional part are only legal
in smooth (pnorm) scenes, which keeps floats out of exact pipelines.
Result documents mirror the parsed scene back as a fingerprint and are
built with a fixed key order so reruns diff cleanly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

import jsonschema

from .errors import ConfigError, MinksimplexError, ResourceCapError
from .linalg import Hyperplane, Vec
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


@dataclass(frozen=True)
class Scene:
    dimension: int
    ball: UnitBall
    simplex: Optional[Simplex]
    points: dict

    @property
    def mode(self) -> str:
        return self.ball.mode


def _json_path(parts) -> str:
    out = "$"
    for p in parts:
        out += f"[{p}]" if isinstance(p, int) else f".{p}"
    return out


def _parse_scalar(x, allow_float: bool, where: str):
    if isinstance(x, bool):
        raise SceneError("coordinate must be a number or 'p/q' string", where)
    if isinstance(x, int):
        return Rat(x)
    if isinstance(x, str):
        if not re.match(_RATIONAL, x):
            raise SceneError(f"bad rational literal {x!r}", where)
        num, _, den = x.partition("/")
        return Rat(int(num), int(den)) if den else Rat(int(num))
    if isinstance(x, float):
        if not allow_float:
            raise SceneError(
                "float coordinates are only allowed with pnorm balls", where
            )
        return x
    raise SceneError("coordinate must be a number or 'p/q' string", where)


def _parse_vector(arr, dim: int, allow_float: bool, where: str) -> Vec:
    if len(arr) != dim:
        raise SceneError(f"expected {dim} coordinates, got {len(arr)}", where)
    coords = [
        _parse_scalar(c, allow_float, f"{where}[{k}]") for k, c in enumerate(arr)
    ]
    if allow_float:
        coords = [float(c) for c in coords]
    return Vec(coords)


def scene_from_dict(doc: dict) -> Scene:
    """Typed scene from a schema-valid JSON document; raises SceneError
    with the schema path on the first violation."""
    validator = jsonschema.Draft202012Validator(SCENE_SCHEMA)
    err = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if err is not None:
        raise SceneError(err.message, _json_path(err.absolute_path))
    dim = doc["dimension"]
    ball_doc = doc["ball"]
    smooth = ball_doc["type"] == "pnorm"
    try:
        if ball_doc["type"] == "polytope-v":
            verts = [
                _parse_vector(v, dim, False, f"$.ball.vertices[{k}]")
                for k, v in enumerate(ball_doc["vertices"])
            ]
            ball: UnitBall = PolytopeBall.from_vertices(verts)
        elif ball_doc["type"] == "polytope-h":
            normals = [
                _parse_vector(n, dim, False, f"$.ball.normals[{k}]")
                for k, n in enumerate(ball_doc["normals"])
            ]
            halfspaces = [Hyperplane(n, Rat(1)) for n in normals]
            ball = PolytopeBall.from_halfspaces(halfspaces)
        else:
            ball = PNormBall(dim, float(ball_doc["p"]))
    except (SceneError, ResourceCapError, ConfigError):
        raise  # caps and settings are not scene errors
    except MinksimplexError as exc:
        raise SceneError(str(exc), "$.ball")
    simplex = None
    if "simplex" in doc:
        rows = doc["simplex"]
        if len(rows) != dim + 1:
            raise SceneError(f"simplex needs {dim + 1} vertices", "$.simplex")
        verts = [
            _parse_vector(v, dim, smooth, f"$.simplex[{k}]")
            for k, v in enumerate(rows)
        ]
        try:
            simplex = Simplex(verts)
        except MinksimplexError as exc:
            raise SceneError(str(exc), "$.simplex")
    points = {}
    for name, arr in sorted(doc.get("points", {}).items()):
        points[name] = _parse_vector(arr, dim, smooth, f"$.points.{name}")
    return Scene(dim, ball, simplex, points)


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(exc.msg, f"line {exc.lineno} column {exc.colno}")
    if not isinstance(doc, dict):
        raise SceneError("scene must be a JSON object", "$")
    return scene_from_dict(doc)


# -- serialization ----------------------------------------------------


def scalar_to_json(x):
    """Exact values as strings, floats as JSON numbers; both directions
    are lossless."""
    return float(x) if isinstance(x, float) else str(x)


def vec_to_json(v: Vec) -> list:
    return [scalar_to_json(c) for c in v.coords]


def ball_to_json(ball: UnitBall) -> dict:
    if ball.mode == EXACT:
        return {
            "type": "polytope-v",
            "vertices": [vec_to_json(v) for v in ball.vertices],
        }
    return {"type": "pnorm", "p": ball.p}


def scene_to_dict(scene: Scene) -> dict:
    out = {"dimension": scene.dimension, "ball": ball_to_json(scene.ball)}
    if scene.simplex is not None:
        out["simplex"] = [vec_to_json(v) for v in scene.simplex.vertices]
    if scene.points:
        out["points"] = {k: vec_to_json(v) for k, v in sorted(scene.points.items())}
    return out


def result_document(command: str, scene: Optional[Scene], payload: dict, version: str) -> dict:
    doc = {"version": version, "command": command}
    if scene is not None:
        doc["scene"] = scene_to_dict(scene)
    doc.update(payload)
    return doc


def _write_json(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(key)}: ")
            _write_json(val, indent + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            out.append(json.dumps(obj, allow_nan=False))
            return
        out.append("[\n")
        for k, val in enumerate(obj):
            out.append(pad + "  ")
            _write_json(val, indent + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(json.dumps(obj, allow_nan=False))


def dumps_document(doc: dict) -> str:
    """Deterministic human-scale formatting: nested structures get one
    element per line, innermost scalar lists stay inline."""
    out: list = []
    _write_json(doc, 0, out)
    return "".join(out) + "\n"
