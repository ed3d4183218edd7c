"""Bundled certificates are byte-identical to the benchmark's reference hashes.

``bench/reference.json`` keeps the sha256 of every seed-independent
``bound --json`` payload.  Those recomputed here: each record of
``knots.json`` and ``families.json`` with the default configuration, the
``sweep/`` records of ``knots.json`` with the gamma c-sweep, and the
``ladder/`` records, the thin torus knots T(2,2m+1) for m = 1..8, built
here.  The ladder's certificates carry V_s witnesses up to norm 32.
"""

import hashlib
import json
from pathlib import Path

from slicedeg.engine import EngineConfig, bound_report, report_to_jsonable
from slicedeg.knots import bundled_database_path, load_knot_db, parse_knot_db

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
CONFIGS = {
    "knots": ("knots", EngineConfig()),
    "families": ("families", EngineConfig()),
    "sweep": ("knots", EngineConfig(gamma_c_sweep=True)),
    "ladder": ("ladder", EngineConfig()),
}


def torus_ladder_db():
    """The thin T(2,2m+1), m = 1..8: sd+ = 4m, closed by the V_s bound."""
    records = [
        {
            "name": f"T(2,{2 * m + 1})",
            "signature": -2 * m,
            "s_invariants": {"0": 2 * m},
            "tau": m,
            "vs_spec": {"type": "thin"},
            "slicing_number": m,
        }
        for m in range(1, 9)
    ]
    return parse_knot_db(json.dumps(records))


def test_bundled_payloads_match_reference_hashes():
    hashes = json.loads(REFERENCE.read_text(encoding="utf-8"))["payload_sha256"]
    dbs = {name: load_knot_db(bundled_database_path(name)) for name in ("knots", "families")}
    dbs["ladder"] = torus_ladder_db()
    checked, wrong = 0, []
    for key, want in hashes.items():
        prefix, _, name = key.partition("/")
        if prefix not in CONFIGS:
            continue
        doc, cfg = CONFIGS[prefix]
        report = bound_report(dbs[doc].get(name), dbs[doc], cfg)
        text = json.dumps(report_to_jsonable(report), indent=2)
        checked += 1
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != want:
            wrong.append(key)
    assert (checked, wrong) == (107, [])
