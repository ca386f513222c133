"""Size caps and float tolerances.

Caps are read from the environment on each call so tests can tighten or
relax them without reloading modules.
"""

import os

from .errors import ConfigError

# Relative / absolute tolerances for float64 (smooth-norm) code paths.
EPS_REL = 1e-9
EPS_ABS = 1e-12

# Smooth-mode equivalence verdicts compare scalars at this looser tolerance.
EPS_EQUIV = 1e-7

# Floor under a float scale that a relative tolerance multiplies, so a
# zero scale does not turn the comparison into an exact one.
EPS_TINY = 1e-30

# A smooth-mode Newton start gives up within this distance of a vertex
# (relative to the simplex's coordinate scale): the gauge has a kink there.
EPS_COLLAPSE = 1e-13

# Two smooth-mode circumcenters closer than this (times the simplex's
# coordinate scale) are the same center, and a Newton start whose iterate
# comes this close to a center already found stops there.
EPS_MERGE = 1e-2

# A float root search stops once its bracket is this narrow (times the
# bracket's scale where that exceeds 1): a few ulps of 1.0.
EPS_BISECT = 1e-15

_DEFAULTS = {
    "MINKSIMPLEX_MAX_FACETS": 64,
    "MINKSIMPLEX_MAX_DIM": 4,
    "MINKSIMPLEX_MAX_ASSIGNMENTS": 500_000,
    "MINKSIMPLEX_MAX_FM_ROWS": 50_000,
}


def _get(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def max_facets() -> int:
    return _get("MINKSIMPLEX_MAX_FACETS")


def max_dim() -> int:
    return _get("MINKSIMPLEX_MAX_DIM")


def max_assignments() -> int:
    return _get("MINKSIMPLEX_MAX_ASSIGNMENTS")


def max_fm_rows() -> int:
    return _get("MINKSIMPLEX_MAX_FM_ROWS")
