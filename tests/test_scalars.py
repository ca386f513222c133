import os
import subprocess
import sys
from pathlib import Path

import pytest

import minksimplex
from minksimplex.errors import MixedModeError
from minksimplex.scalars import (
    EXACT,
    FLOAT,
    Rat,
    from_float,
    is_exact,
    is_float,
    join_modes,
    mode_of,
)


def test_rat_basics():
    assert Rat(6, 4) == Rat(3, 2)
    assert str(Rat(-6, 4)) == "-3/2"
    assert Rat(5) / Rat(2) == Rat(5, 2)
    assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)


def test_rat_rejects_floats():
    with pytest.raises(MixedModeError):
        Rat(0.5)
    with pytest.raises(MixedModeError):
        Rat(1, 2.0)


def test_from_float_is_exact():
    x = from_float(0.5)
    assert is_exact(x) and x == Rat(1, 2)
    # dyadic exactness: conversion reproduces the float bit pattern
    assert float(from_float(0.1)) == 0.1


def test_modes():
    assert mode_of(Rat(1)) == EXACT
    assert mode_of(3) == EXACT
    assert mode_of(0.25) == FLOAT
    assert is_float(1e-3)
    assert join_modes(EXACT, EXACT) == EXACT
    with pytest.raises(MixedModeError):
        join_modes(EXACT, FLOAT)
    with pytest.raises(TypeError):
        mode_of("7")


def test_an_importable_gmpy2_is_not_used(tmp_path):
    # the exact lane has one rational type, whatever else is installed:
    # a stub gmpy2 first on the path is never imported
    (tmp_path / "gmpy2.py").write_text("from fractions import Fraction as mpq\n")
    package_root = Path(minksimplex.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(tmp_path), str(package_root), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; from fractions import Fraction; import minksimplex.cli; "
        "from minksimplex import scalars; "
        "print('gmpy2' in sys.modules, scalars.RAT_BACKEND, type(scalars.Rat(1, 2)) is Fraction)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "fractions", "True"]
