"""Spans and call counts at the public functions of each module.

`Tracer.install()` replaces each traced function where it is defined
and in every minksimplex module that imported it by name, and
`uninstall()` puts the originals back.  Spans live in memory as
parallel lists (name, parent, start, end, request) and are written out
once at the end of a run; `layer_metrics()` folds them into per-layer
metrics.  The program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) whose calls become spans
SPANS = (
    ("cli", "main"),
    ("scene", "parse_scene"),
    ("scene", "dumps_document"),
    ("polytopes", "facet_hyperplanes"),
    ("polytopes", "vertex_enumerate"),
    ("polytopes", "minimal_halfspaces"),
    ("linalg", "solve_linear"),
    ("linalg", "det"),
    ("linalg", "nullspace"),
    ("linalg", "rank"),
    ("simplex", "hyperplane_through"),
    ("feasibility", "feasible"),
    ("circumcenter", "polytopal_circumcenters"),
    ("circumcenter", "smooth_circumcenters"),
    ("centers", "incenter"),
    ("centers", "exspheres"),
    ("centers", "euler_line"),
    ("construct", "quasiregular_simplex"),
    ("construct", "equilateral_triangle"),
    ("norms", "chord_through"),
    ("equivalence", "run_campaign"),
    ("equivalence", "planted_generator"),
    ("equivalence", "random_negative"),
    ("equivalence", "random_simplex"),
    ("render", "render_scene"),
)
# the per-family verify functions: spans folded into verify_s / reject_verify_s
VERIFY_SPANS = (
    ("equivalence", "verify_equal_heights_family"),
    ("equivalence", "verify_reduced_family"),
    ("equivalence", "verify_quasiregular_family"),
    ("equivalence", "verify_median_triangle_families"),
    ("equivalence", "verify_radon_collapse"),
)
# methods that are only counted: they run too often to keep a span each
COUNTED = (
    ("norms", "PolytopeBall", "gauge"),
    ("norms", "PolytopeBall", "support"),
    ("norms", "PNormBall", "gauge"),
)

FEASIBLE = "feasibility.feasible"
PROBE = "feasibility.feasible.probe"
DIM = "feasibility.feasible.dim"
PCC = "circumcenter.polytopal_circumcenters"
PIECES = "circumcenter.pieces"


def _with_dim(args, kwargs) -> bool:
    return kwargs.get("with_dim", args[1] if len(args) > 1 else True)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = []  # per span: index into names
        self.parent = []  # per span: parent span index, -1 at the top
        self.start = []
        self.end = []
        self.request = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list = []
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, observe=None):
        ids = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == FEASIBLE:
                label = DIM if _with_dim(args, kwargs) else PROBE
            nid = ids.get(label)
            if nid is None:
                nid = ids[label] = self._name_id(label)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        import minksimplex.cli  # noqa: F401  (loads every module)

        modules = {k: m for k, m in sys.modules.items() if k.startswith("minksimplex") and m}

        def observe_pieces(cset):
            self.counts[PIECES] += len(cset.pieces)

        for mod, attr in SPANS + VERIFY_SPANS:
            orig = getattr(modules[f"minksimplex.{mod}"], attr)
            name = f"{mod}.{attr}"
            wrapped = self._span(name, orig, observe_pieces if name == PCC else None)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)
        for mod, cls_name, attr in COUNTED:
            cls = getattr(modules[f"minksimplex.{mod}"], cls_name)
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._counter(f"{mod}.{cls_name}.{attr}", orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**extra, "names": self.names, "counts": dict(self.counts),
                 "spans": {"name": self.name, "parent": self.parent, "request": self.request,
                           "start": self.start, "end": self.end}},
                fh,
            )

    def layer_metrics(self) -> dict:
        """`<module>.<function>.calls` and `.self_s` for every span name,
        call counts of the counted methods, and the derived sums."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s, total = Counter(), defaultdict(float), defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            total[name] += dur[i]

        def parent_name(i):
            p = self.parent[i]
            return self.names[self.name[p]] if p >= 0 else None

        def has_ancestor(i, target):
            p = self.parent[i]
            while p >= 0:
                if self.names[self.name[p]] == target:
                    return True
                p = self.parent[p]
            return False

        verify_names = {f"{m}.{a}" for m, a in VERIFY_SPANS}
        merge_s = reject_s = verify_s = 0.0
        assignments = chords = 0
        for i in range(n):
            name = self.names[self.name[i]]
            par = parent_name(i)
            if name == PROBE and par == PCC:
                merge_s += dur[i]
            elif name == "linalg.solve_linear" and par == PCC:
                assignments += 1
            elif name in verify_names:
                if par == "equivalence.random_negative":
                    reject_s += dur[i]
                elif par == "equivalence.run_campaign":
                    verify_s += dur[i]
            elif name == "norms.chord_through" and has_ancestor(i, "construct.quasiregular_simplex"):
                chords += 1

        out = {}
        for mod, attr in SPANS:
            names = (DIM, PROBE) if f"{mod}.{attr}" == FEASIBLE else (f"{mod}.{attr}",)
            for name in names:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        for mod, cls_name, attr in COUNTED:
            key = f"{mod}.{cls_name}.{attr}"
            out[f"{key}.calls"] = self.counts[key]
        out[f"{PCC}.total_s"] = total[PCC]
        out["circumcenter.merge_s"] = merge_s
        out["equivalence.reject_verify_s"] = reject_s
        out["equivalence.verify_s"] = verify_s
        ratios = {
            "circumcenter.pieces_per_assignment": (self.counts[PIECES], assignments),
            "feasibility.probe_share": (calls[PROBE], calls[PROBE] + calls[DIM]),
            "equivalence.negative_acceptance": (
                calls["equivalence.random_negative"], calls["equivalence.random_simplex"]),
            "construct.chords_per_simplex": (chords, calls["construct.quasiregular_simplex"]),
        }
        for key, (num, den) in ratios.items():
            out.update(ratio(key, num, den))
        return out


def ratio(key: str, num, den) -> dict:
    """A ratio with its base: 0 when the denominator is 0."""
    return {key: num / den if den else 0.0, f"{key}.num": num, f"{key}.den": den}
