"""The benchmark's tracer wraps concord functions by name: every name it
lists must stay a callable of its module, or `--trace 1` stops working."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracing = _tracing()
    names = [f"{m}.{f}" for m, fs in tracing.TARGETS.items() for f in fs]
    assert set(tracing.KEYED) <= set(names)
    for name in names:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"concord.{module}"), attr, None)
        assert callable(fn), name
