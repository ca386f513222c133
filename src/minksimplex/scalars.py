"""Scalar arithmetic in two modes: exact rationals and float64.

Polytopal-norm code paths run on exact rationals (gmpy2.mpq when
available, fractions.Fraction otherwise).  Smooth p-norm paths run on
float64.  The modes never mix: combining a non-integer rational with a
float raises MixedModeError instead of coercing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .config import EPS_ABS, EPS_REL
from .errors import MixedModeError

try:
    from gmpy2 import mpq as _mpq

    _RATIONAL_TYPES: tuple = (Fraction, type(_mpq(0)))
    RAT_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is optional
    _mpq = Fraction
    _RATIONAL_TYPES = (Fraction,)
    RAT_BACKEND = "fractions"

Scalar = Union[int, Fraction, float]

EXACT = "exact"
FLOAT = "float"


def Rat(numerator=0, denominator=None):
    """Exact rational constructor.  Rejects floats: conversions from
    float mode must go through from_float explicitly."""
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise MixedModeError("Rat() does not accept floats; use from_float")
    if denominator is None:
        return _mpq(numerator)
    return _mpq(numerator, denominator)


def from_float(x: float):
    """Exact value of a binary float (explicit mode crossing)."""
    return _mpq(Fraction(x))


def is_exact(x) -> bool:
    return isinstance(x, (int, *_RATIONAL_TYPES)) and not isinstance(x, bool)


def is_float(x) -> bool:
    return isinstance(x, float)


def mode_of(x) -> str:
    """Mode of one scalar.  Plain ints count as exact; they are also
    accepted in float-mode containers since their value is unambiguous."""
    if is_exact(x):
        return EXACT
    if is_float(x):
        return FLOAT
    raise TypeError(f"not a supported scalar: {x!r} ({type(x).__name__})")


def join_modes(a: str, b: str) -> str:
    if a != b:
        raise MixedModeError(f"cannot mix {a} and {b} arithmetic")
    return a


def as_mode(x, mode: str):
    """Return x as a scalar of the requested mode, converting ints only."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if mode == EXACT:
        if is_exact(x):
            return x
        raise MixedModeError(f"float {x!r} not allowed in exact mode")
    if mode == FLOAT:
        if isinstance(x, float):
            return x
        if isinstance(x, int):
            return float(x)
        raise MixedModeError(f"exact rational {x!r} not allowed in float mode")
    raise ValueError(f"unknown mode {mode!r}")


def close(a: float, b: float, rel: float = EPS_REL, abs_: float = EPS_ABS) -> bool:
    """Float comparison with relative tolerance and absolute floor."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def scalars_equal(a, b, mode: str, rel: float = EPS_REL) -> bool:
    """Equality in the given mode: exact == for rationals, toleranced
    comparison for floats."""
    if mode == EXACT:
        return a == b
    return close(float(a), float(b), rel=rel)


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
