"""Simplex geometry in finite-dimensional normed spaces.

Exact rational computations for polytopal unit balls, float64 for
smooth p-norms: gauges, circumcenter sets, Minkowskian in/exspheres,
Euler-line points, an equal-gauge simplex constructor, and machine
checks of the center-equivalence statements.

Each CLI call is a fresh process, and without a bytecode cache it
compiles every module it executes.  So `feasibility`, `circumcenter`,
`centers`, `construct`, `equivalence` and `render` are registered
lazily: each is in `sys.modules` and is an attribute of this package
from the start, but its source is compiled and run only at the first
attribute read, which executes everything it imports.  A `gauge`
request runs none of them.  They are registered rather than imported
inside functions because code that walks the package's modules (the
benchmark tracer) finds every one in `sys.modules` after
`import minksimplex.cli`.  The names re-exported from them resolve
through the module `__getattr__` below.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import (
    DegenerateInputError,
    DimensionError,
    MinksimplexError,
    MixedModeError,
    NonConvergenceError,
    ResourceCapError,
    VerificationError,
)
from .linalg import Hyperplane, Vec
from .norms import Ball, PNormBall, PolytopeBall, euclidean_ball
from .scalars import Rat, from_float
from .simplex import Simplex


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


feasibility = _register("feasibility")
circumcenter = _register("circumcenter")
centers = _register("centers")
construct = _register("construct")
equivalence = _register("equivalence")
render = _register("render")

# re-exported name -> the lazily registered module that defines it
_LAZY_EXPORTS = {
    "circumcenters": circumcenter,
    "is_ag_quasiregular": circumcenter,
    "is_circumcenter": circumcenter,
    "euler_line": centers,
    "exspheres": centers,
    "feuerbach_sphere": centers,
    "incenter": centers,
    "equilateral_triangle": construct,
    "quasiregular_simplex": construct,
    "run_campaign": equivalence,
    "verify_family": equivalence,
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "Ball",
    "DegenerateInputError",
    "DimensionError",
    "Hyperplane",
    "MinksimplexError",
    "MixedModeError",
    "NonConvergenceError",
    "PNormBall",
    "PolytopeBall",
    "Rat",
    "ResourceCapError",
    "Simplex",
    "Vec",
    "VerificationError",
    "__version__",
    "circumcenters",
    "equilateral_triangle",
    "euclidean_ball",
    "euler_line",
    "exspheres",
    "feuerbach_sphere",
    "from_float",
    "incenter",
    "is_ag_quasiregular",
    "is_circumcenter",
    "quasiregular_simplex",
    "run_campaign",
    "verify_family",
]
