#!/usr/bin/env python3
"""Recompute the payload sha256 references in bench/reference.json.

    python3 bench/make_reference.py

Only the seed-independent certificates have references (the bundled
records, the T(2,2m+1) ladder and the bundled gamma records under the
c-sweep).  The intervals in reference.json are the published tables and
are never rewritten here.  Run this only when a change to the program is
meant to change certificate bytes, and say so in the change.
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> int:
    path = run.HERE / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    mods = run.load_program()
    hashes = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(workloads.build(name, 0, run.ROOT, ref), mods, ref)
        for job, record, db, cfg in bench.requests:
            if job.reference is not None:
                report = mods["engine"].bound_report(record, db, cfg)
                text = run.canonical(mods["engine"].report_to_jsonable(report))
                hashes[job.reference] = run.sha256(text)
    ref["payload_sha256"] = dict(sorted(hashes.items()))
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"{len(hashes)} payload references written to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
