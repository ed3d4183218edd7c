"""The benchmark's trace points name attributes the program still has."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_wrap_point_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"slicedeg.{module}.{attr}"
        for module, attr, _, _ in tracing.WRAP_POINTS
        if not hasattr(importlib.import_module(f"slicedeg.{module}"), attr)
    ]
    assert tracing.WRAP_POINTS and missing == []
