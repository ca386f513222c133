"""Every function the benchmark tracer wraps by name still exists.

bench/tracing.py patches (module, attribute) pairs when a traced run
starts; a name removed from the package would fail only there.  This
test reads the same lists, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for mod, *path in tracing.SPANS + tracing.VERIFY_SPANS + tracing.COUNTED:
        obj = importlib.import_module(f"minksimplex.{mod}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(".".join((mod, *path)))
    assert not missing, missing
    assert tracing.SPANS and tracing.VERIFY_SPANS and tracing.COUNTED
