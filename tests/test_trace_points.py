"""The benchmark's trace points name attributes the program still has, and fire."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from slicedeg.engine import EngineConfig
from slicedeg.knots import bundled_database_path, load_knot_db

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrap_point_exists():
    tracing = load_tracing()
    missing = [
        f"slicedeg.{module}.{attr}"
        for module, attr, _, _ in tracing.WRAP_POINTS
        if not hasattr(importlib.import_module(f"slicedeg.{module}"), attr)
    ]
    assert tracing.WRAP_POINTS and missing == []


# Each per-class rule's decider, by the rule name a certificate gives it.
DECIDERS = {
    "beta": "obstructions.beta_adjunction",
    "gamma": "obstructions.gamma_general",
    "vs": "obstructions.vs_obstruction",
}


@pytest.mark.parametrize("sweep", [False, True])
def test_engine_wrap_points_fire(sweep):
    tracing = load_tracing()
    modules = {
        module: importlib.import_module(f"slicedeg.{module}") for module, *_ in tracing.WRAP_POINTS
    }
    db = load_knot_db(bundled_database_path("knots"))
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        cfg = EngineConfig(gamma_c_sweep=sweep)
        report = modules["engine"].bound_report(db.get("7_4"), db, cfg)
    summary = tracing.summarize(tracer.spans)
    for name in (*DECIDERS.values(), "obstructions.null_class_check", "staircase.vs_of"):
        assert summary.get(name, {}).get("calls", 0) >= 1, name
    certified = Counter(
        c.rule.partition("[")[0] for level in report.certificates for c in level.classes
    )
    for rule, name in DECIDERS.items():
        assert summary[name].get("kill", 0) == certified[rule], rule
    # Passing betas are decided without their decider; every c-vector walked reaches its own.
    assert summary[DECIDERS["beta"]]["calls"] == certified["beta"]
    assert summary[DECIDERS["gamma"]]["calls"] >= certified["gamma"]
    # Each gamma kill reads eta once, for its witness, and nothing else reads it.
    assert summary["lattice.eta"]["calls"] == certified["gamma"]
