"""Scalar arithmetic in two modes: exact rationals and float64.

Polytopal-norm code paths run on exact rationals (fractions.Fraction,
the one rational type).  Smooth p-norm paths run on float64.  The
modes never mix: combining a non-integer rational with a float raises
MixedModeError instead of coercing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MixedModeError

# the one rational type; the benchmark's setup record prints this name
RAT_BACKEND = "fractions"

EXACT = "exact"
FLOAT = "float"


def Rat(numerator=0, denominator=None):
    """Exact rational constructor.  Rejects floats: conversions from
    float mode must go through from_float explicitly."""
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise MixedModeError("Rat() does not accept floats; use from_float")
    return Fraction(numerator, denominator)


def from_float(x: float):
    """Exact value of a binary float (explicit mode crossing)."""
    return Fraction(x)


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


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
