"""Size caps, float tolerances and the campaign ids.

This is the one module that reads the environment (cap, and
raw_settings for cache keys) and the one that checks and words a cap.
Each MINKSIMPLEX_MAX_* setting is read on each call, so tests can change
it without reloading modules; a setting that is not a positive integer
raises ConfigError.  A count over its cap raises ResourceCapError as
"<count> <what> exceed cap <cap>" (check_cap), a dimension over
MINKSIMPLEX_MAX_DIM as "dimension <d> exceeds cap <cap>" (check_dim).
"""

import os

from .errors import ConfigError, DimensionError, ResourceCapError

# Relative / absolute tolerances for float64 (smooth-norm) code paths.
EPS_REL = 1e-9
EPS_ABS = 1e-12

# Smooth-mode equivalence verdicts compare scalars at this looser tolerance.
EPS_EQUIV = 1e-7

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

# Campaign ids of the equivalence families, in table order: the keys of
# equivalence.FAMILIES and the CLI's --theorem choices, opaque labels
# fixed by the command-line contract.
FAMILIES = ("41", "42", "43", "44", "r41")

_DEFAULTS = {
    "MINKSIMPLEX_MAX_FACETS": 64,
    "MINKSIMPLEX_MAX_DIM": 4,
    "MINKSIMPLEX_MAX_ASSIGNMENTS": 500_000,
    "MINKSIMPLEX_MAX_FM_ROWS": 50_000,
}


def raw_settings() -> tuple:
    """Each setting's unparsed environment value (None where unset)."""
    return tuple(map(os.environ.get, _DEFAULTS))


def cap(name: str) -> int:
    """The cap `name` (a key of _DEFAULTS) as set in the environment."""
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


def check_cap(name: str, count: int, what: str) -> None:
    """Raise ResourceCapError when `count` `what` exceed the cap `name`."""
    limit = cap(name)
    if count > limit:
        raise ResourceCapError(f"{count} {what} exceed cap {limit}")


def check_dim(d: int) -> None:
    """Raise DimensionError below dimension 2, ResourceCapError above
    MINKSIMPLEX_MAX_DIM."""
    if d < 2:
        raise DimensionError("dimension must be at least 2")
    limit = cap("MINKSIMPLEX_MAX_DIM")
    if d > limit:
        raise ResourceCapError(f"dimension {d} exceeds cap {limit}")
