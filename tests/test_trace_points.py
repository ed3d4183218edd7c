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


# 7_4 certifies Gamma kills and no V_s kill; 9_1 certifies V_s kills at levels 13-15.
CERTIFIED_RULES = {"7_4": {"beta", "gamma"}, "9_1": {"beta", "vs"}}


@pytest.mark.parametrize("sweep", [False, True])
def test_engine_wrap_points_fire(sweep):
    tracing = load_tracing()
    modules = {
        module: importlib.import_module(f"slicedeg.{module}") for module, *_ in tracing.WRAP_POINTS
    }
    db = load_knot_db(bundled_database_path("knots"))
    for knot, rules in CERTIFIED_RULES.items():
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            cfg = EngineConfig(gamma_c_sweep=sweep)
            report = modules["engine"].bound_report(db.get(knot), db, cfg)
        summary = tracing.summarize(tracer.spans)
        for name in ("obstructions.null_class_check", "staircase.vs_of"):
            assert summary.get(name, {}).get("calls", 0) >= 1, (knot, name)
        certified = Counter(
            c.rule.partition("[")[0] for level in report.certificates for c in level.classes
        )
        assert {rule for rule in DECIDERS if certified[rule]} == rules, knot
        # The walk decides without the verdict functions; the listing (read by the traced
        # search's level count) calls each one only for the class it kills.
        for rule, name in DECIDERS.items():
            row = summary.get(name, {})
            assert row.get("kill", 0) == certified[rule], (knot, rule)
            assert (row.get("calls", 0) >= 1) == (rule in rules), (knot, rule)
        assert summary[DECIDERS["beta"]]["calls"] == certified["beta"], knot
        assert summary.get(DECIDERS["gamma"], {}).get("calls", 0) >= certified["gamma"], knot
        assert summary.get(DECIDERS["vs"], {}).get("calls", 0) == certified["vs"], knot
        # Each gamma kill reads eta once, for its witness, and nothing else reads it.
        assert summary.get("lattice.eta", {}).get("calls", 0) == certified["gamma"], knot
    # Every bundled record, each in a fresh database so that no memo hit skips the listing.
    cfg = EngineConfig(gamma_c_sweep=sweep)
    for db_name in ("knots", "families"):
        path = bundled_database_path(db_name)
        for knot in [record.name for record in load_knot_db(path)]:
            db = load_knot_db(path)
            tracer = tracing.Tracer()
            with tracer.installed(modules):
                report = modules["engine"].bound_report(db.get(knot), db, cfg)
            summary = tracing.summarize(tracer.spans)
            certified = Counter(
                c.rule.partition("[")[0] for level in report.certificates for c in level.classes
            )
            calls = {rule: summary.get(name, {}).get("calls", 0) for rule, name in DECIDERS.items()}
            assert calls["beta"] == certified["beta"], knot
            assert calls["vs"] == certified["vs"], knot
            assert calls["gamma"] >= certified["gamma"], knot
            assert summary.get("lattice.eta", {}).get("calls", 0) == certified["gamma"], knot
            # The walk and the listing share one battery, so one V_s sequence per search.
            assert summary["staircase.vs_of"]["calls"] == 1, knot
