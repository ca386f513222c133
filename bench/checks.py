"""Output checks that do not use the program's own predicates.

Exact results are recomputed with `fractions` from the facet normals
and vertices the workload built the ball from, and compared with `==`.
Float (pnorm) results are recomputed from the p-norm formula and
compared within REL_TOL.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from workloads import EXACT, BallRef, Request, dot, inverse

REL_TOL = 1e-7


def _scalar(x, lane: str):
    return Fraction(x) if lane == EXACT else float(x)


def _vec(v, lane: str) -> tuple:
    return tuple(_scalar(c, lane) for c in v)


def gauge(ball: BallRef, x):
    if ball.p is None:
        return max(dot(n, x) for n in ball.normals)
    return math.fsum(abs(c) ** ball.p for c in x) ** (1.0 / ball.p)


def support(ball: BallRef, a):
    """h_B(a): the dual norm of a."""
    if ball.p is None:
        return max(dot(a, v) for v in ball.vertices)
    q = ball.p / (ball.p - 1.0)
    return math.fsum(abs(c) ** q for c in a) ** (1.0 / q)


def _same(ball: BallRef, got, want) -> bool:
    if ball.p is None:
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _barycentric(simplex) -> list:
    """Rows (a_i, c_i) with lambda_i(x) = <a_i, x> + c_i; facet i is
    {lambda_i = 0}."""
    exact = [[Fraction(c) for c in v] for v in simplex]
    d = len(exact[0])
    cols = [[v[k] for v in exact] for k in range(d)] + [[Fraction(1)] * (d + 1)]
    return [(row[:d], row[d]) for row in inverse(cols)]


def _facet_distances(req: Request, center) -> list:
    """Signed lambda_i(center) / h_B(a_i): the gauge distance to facet
    hyperplane i, positive on the side of vertex i."""
    out = []
    for a, c in _barycentric(req.simplex):
        if req.ball.p is None:
            out.append((dot(a, center) + c) / support(req.ball, a))
        else:
            af = [float(x) for x in a]
            out.append((math.fsum(x * y for x, y in zip(af, center)) + float(c))
                       / support(req.ball, af))
    return out


def _diff(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _vertex_gauges(req: Request, center) -> list:
    return [gauge(req.ball, _diff(a, center)) for a in _simplex(req)]


def _simplex(req: Request) -> list:
    lane = req.ball.lane
    return [_vec(v, lane) for v in req.simplex]


def _check_gauge(req: Request, doc: dict) -> list:
    lane, probs = req.ball.lane, []
    got = doc["gauges"]
    for name, pt in req.points.items():
        if not _same(req.ball, _scalar(got["points"][name], lane), gauge(req.ball, _vec(pt, lane))):
            probs.append(f"gauge of point {name}")
    for i, v in enumerate(_simplex(req)):
        if not _same(req.ball, _scalar(got["simplex_vertices"][i], lane), gauge(req.ball, v)):
            probs.append(f"gauge of vertex {i}")
    return probs


def _check_circumcenters(req: Request, doc: dict) -> list:
    lane, probs = req.ball.lane, []
    pieces = doc["pieces"]
    if lane == EXACT:
        if (doc["classification"] == "empty") != (not pieces):
            probs.append(f"classification {doc['classification']} with {len(pieces)} pieces")
    elif doc["classification"] != "unknown" or not pieces:
        probs.append(f"smooth search gave {doc['classification']} with {len(pieces)} pieces")
    for k, piece in enumerate(pieces):
        center, radius = _vec(piece["center"], lane), _scalar(piece["radius"], lane)
        if not radius > 0 or not all(_same(req.ball, g, radius) for g in _vertex_gauges(req, center)):
            probs.append(f"piece {k}: a vertex gauge differs from the radius")
    return probs


def _check_sphere(req: Request, sphere: dict, flipped) -> list:
    lane = req.ball.lane
    center, radius = _vec(sphere["center"], lane), _scalar(sphere["radius"], lane)
    dists = _facet_distances(req, center)
    if flipped is None and not all(x > 0 for x in dists):
        return ["incenter outside the simplex"]
    if sphere.get("flipped_facet") != flipped:
        return [f"exsphere {flipped} reports facet {sphere.get('flipped_facet')}"]
    if not all(_same(req.ball, abs(x), radius) for x in dists):
        return [f"sphere {flipped}: a facet distance differs from the radius"]
    return []


def _check_centers(req: Request, doc: dict) -> list:
    lane = req.ball.lane
    probs = _check_sphere(req, doc["incenter"], None)
    for i, ex in enumerate(doc["exspheres"]):
        if ex is not None:
            probs += _check_sphere(req, ex, i)
    euler = doc["euler"]
    if euler is not None:
        center, radius = _vec(euler["circumcenter"], lane), _scalar(euler["radius"], lane)
        if not all(_same(req.ball, g, radius) for g in _vertex_gauges(req, center)):
            probs.append("euler circumcenter: a vertex gauge differs from the radius")
        verts = _simplex(req)
        n = len(verts)
        for got, coords in zip(_vec(euler["centroid"], lane), zip(*verts)):
            want = sum(coords) / n
            if not (got == want if lane == EXACT else abs(got - want) <= REL_TOL * (1 + abs(want))):
                probs.append("euler centroid")
                break
    return probs


def _check_construct(req: Request, doc: dict) -> list:
    lane, probs = req.ball.lane, []
    verts = [_vec(v, lane) for v in doc["simplex"]]
    if len(verts) != req.ball.dim + 1:
        return [f"{len(verts)} vertices"]
    for coords in zip(*verts):
        total = sum(coords)
        if not (total == 0 if lane == EXACT else abs(total) <= REL_TOL * len(verts)):
            probs.append("centroid is not o")
            break
    if not all(_same(req.ball, gauge(req.ball, v), 1) for v in verts):
        probs.append("a vertex gauge is not 1")
    if lane == EXACT and doc["ag_quasiregular"] is not True:
        probs.append("not reported ag-quasiregular")
    return probs


def _check_verify(req: Request, doc: dict) -> list:
    family = req.extra[req.extra.index("--theorem") + 1]
    want = req.trials * (2 if family == "44" else 1)
    probs = []
    if doc["all_agree"] is not True or not all(r["agreement"] for r in doc["reports"]):
        probs.append("campaign disagreement")
    if doc["trials"] != want or len(doc["reports"]) != want:
        probs.append(f"{doc['trials']} reports, expected {want}")
    return probs


def _check_render(req: Request, text: str) -> list:
    root = ET.fromstring(text)
    if not root.tag.endswith("svg") or not any(el.tag.endswith("polygon") for el in root.iter()):
        return ["SVG lacks an svg root or a polygon"]
    return []


_DOC_CHECKS = {
    "gauge": _check_gauge,
    "circumcenters": _check_circumcenters,
    "centers": _check_centers,
    "construct": _check_construct,
    "verify": _check_verify,
}


def check(req: Request, code, text) -> list:
    """Problems with one request's outcome: exit code, then content."""
    if code != 0:
        return [f"exit code {code}"]
    if text is None:
        return ["no output written"]
    try:
        if req.command == "render":
            return _check_render(req, text)
        doc = json.loads(text)
        if doc.get("command") != req.command:
            return [f"document for command {doc.get('command')!r}"]
        return _DOC_CHECKS[req.command](req, doc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, ET.ParseError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
