#!/usr/bin/env python3
"""slicedeg benchmark: certified-bound traffic on seeded workloads.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client in one thread asks for one
certificate at a time (a closed loop) through the package's public entry
points; `bound --json` subprocesses run one at a time.  Every certificate
is checked against the answers the benchmark knows; a wrong one makes the
run exit 1 without timings.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run (spans are written to ``.bench_out/``).  ``--self-test``
runs the traced benchmark twice on one seed and checks that the work
counts agree.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)
from speed import REFERENCE_CHUNK_S, Speed, raw  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

SETUP_RUNS = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
P90_TAIL = 10  # samples that must lie beyond p90 before it is reported
HARD_STOP_S = 150.0  # never start a pass after this much time in the run
SUBPROCESS_TIMEOUT_S = 60
TABLE_ROUND_S = 0.25

SETUP_CODE = (
    "import slicedeg\n"
    "slicedeg.load_knot_db(slicedeg.bundled_database_path('knots'))\n"
    "slicedeg.load_knot_db(slicedeg.bundled_database_path('families'))\n"
)

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "cert_ms_p50": "ms",
    "cert_ms_p90": "ms",
    "table_s": "s",
    "cli_bound_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, how it is read from a pass's span summary).
PER_LAYER = {
    "knots.parse_s": ("s", ("total_s", "knots.parse_knot_db")),
    "knots.records": ("count", ("records", "knots.parse_knot_db")),
    "staircase.vs_of_calls": ("count", ("calls", "staircase.vs_of")),
    "staircase.vs_of_s": ("s", ("total_s", "staircase.vs_of")),
    "lattice.classes": ("count", ("classes", "lattice.enumerate_classes")),
    "lattice.enumerate_classes_s": ("s", ("total_s", "lattice.enumerate_classes")),
    "lattice.odd_vectors": ("count", ("yielded", "lattice.enumerate_odd_vectors")),
    "lattice.odd_vectors_s": ("s", ("total_s", "lattice.enumerate_odd_vectors")),
    "lattice.eta_calls": ("count", ("calls", "lattice.eta")),
    "lattice.kappa_eta_s": ("s", ("total_s", "lattice.kappa_min", "lattice.eta")),
    "obstructions.beta_calls": ("count", ("calls", "obstructions.beta_adjunction")),
    "obstructions.beta_kills": ("count", ("kill", "obstructions.beta_adjunction")),
    "obstructions.beta_s": ("s", ("total_s", "obstructions.beta_adjunction")),
    "obstructions.beta_kill_ratio": ("ratio", ("ratio", "obstructions.beta_adjunction")),
    "obstructions.vs_calls": ("count", ("calls", "obstructions.vs_obstruction")),
    "obstructions.vs_kills": ("count", ("kill", "obstructions.vs_obstruction")),
    "obstructions.vs_s": ("s", ("total_s", "obstructions.vs_obstruction")),
    "obstructions.vs_kill_ratio": ("ratio", ("ratio", "obstructions.vs_obstruction")),
    "obstructions.gamma_calls": ("count", ("calls", "obstructions.gamma_general")),
    "obstructions.gamma_kills": ("count", ("kill", "obstructions.gamma_general")),
    "obstructions.gamma_s": ("s", ("total_s", "obstructions.gamma_general")),
    "obstructions.gamma_kill_ratio": ("ratio", ("ratio", "obstructions.gamma_general")),
    "obstructions.null_friend_s": (
        "s", ("total_s", "obstructions.null_class_check", "obstructions.friend_rule")
    ),
    "engine.levels": ("count", ("levels", "engine.lower_bound")),
    "engine.lower_bound_s": ("s", ("total_s", "engine.lower_bound")),
    "engine.upper_s": ("s", ("self_s", "engine.bound_report")),
    "engine.jsonable_s": ("s", ("total_s", "engine.report_to_jsonable")),
    "engine.report_table_self_s": ("s", ("self_s", "engine.report_table")),
    "cli.self_s": ("s", ("self_s", "cli.main")),
}
TRACE_OVERHEAD = "trace.overhead"


class WrongAnswer(Exception):
    """A certificate disagrees with an answer the benchmark knows."""


class GeneratorError(Exception):
    """The workload generator produced a record the program must reject."""


def load_program() -> dict:
    """Import slicedeg from this checkout's src/ and return its modules by name."""
    sys.path.insert(0, str(SRC))
    import slicedeg
    from slicedeg import cli, engine, knots, lattice, obstructions, staircase

    if SRC not in Path(slicedeg.__file__).resolve().parents:
        raise ImportError(f"slicedeg was imported from {slicedeg.__file__}, not from {SRC}")

    return {
        "cli": cli, "engine": engine, "knots": knots, "lattice": lattice,
        "obstructions": obstructions, "staircase": staircase,
    }


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_py_lines": src_lines,
    }


def canonical(payload: dict) -> str:
    """The bytes `slicedeg bound --json` prints, without the final newline."""
    return json.dumps(payload, indent=2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Bench:
    """One workload: its parsed documents, checks and per-pass measurements."""

    def __init__(self, wl: workloads.Workload, mods: dict, ref: dict) -> None:
        self.wl = wl
        self.mods = mods
        self.ref = ref
        # Operations are counted once each, by name, however many passes
        # repeat them: the counts then depend on the workload alone, not on
        # how many passes fit in the run.  An operation that fails on any
        # pass is failed.
        self.attempted_ops: set[str] = set()
        self.failed_ops: set[str] = set()
        self.failures: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.speed = Speed()
        engine, knots = mods["engine"], mods["knots"]
        self.dbs = {}
        for doc, text in wl.docs.items():
            try:
                db = knots.parse_knot_db(text)
            except knots.DatabaseError as exc:
                raise GeneratorError(f"document {doc}: {exc}") from exc
            for record in db:
                errors = [d for d in knots.validate_record(record) if d.severity == "error"]
                if errors:
                    raise GeneratorError(f"{doc}/{record.name}: {errors}")
            self.dbs[doc] = db
        self.requests = []
        for job in wl.jobs:
            record = self.dbs[job.doc].get(job.name)
            if record is None:
                raise GeneratorError(f"job names unknown record {job.doc}/{job.name}")
            cfg = engine.EngineConfig(
                max_k=job.max_k,
                obstructions=frozenset(job.obstructions) if job.obstructions else engine.ALL_OBSTRUCTIONS,
                gamma_c_sweep=job.gamma_c_sweep,
            )
            self.requests.append((job, record, self.dbs[job.doc], cfg))
        # The c-sweep may only add kills: its lower bound is checked
        # against the search without it.
        self.no_sweep_lower = {
            job.name: engine.lower_bound(record, engine.EngineConfig(max_k=cfg.max_k)).level
            for job, record, _db, cfg in self.requests
            if job.gamma_c_sweep
        }

    @property
    def attempted(self) -> int:
        return len(self.attempted_ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    # --- checks -------------------------------------------------------------

    def _fail(self, what: str, exc: BaseException) -> None:
        self.failed_ops.add(what)
        message = f"{what}: {type(exc).__name__}: {exc}"[:300]
        self.failures[message] = self.failures.get(message, 0) + 1

    def _check_digest(self, key: str, text: str, reference: str | None) -> None:
        digest = sha256(text)
        if reference is not None:
            want = self.ref["payload_sha256"].get(reference)
            if digest != want:
                raise WrongAnswer(f"{key}: payload sha256 {digest} != reference {want}")
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            raise WrongAnswer(f"{key}: payload changed between passes")

    def _check_report(self, job: workloads.Job, report, text: str) -> None:
        key = f"{job.doc}/{job.name}"
        if job.interval is not None and report.display != job.interval:
            raise WrongAnswer(f"{key}: interval {report.display}, expected {job.interval}")
        if job.upper is not None and report.upper != job.upper:
            raise WrongAnswer(f"{key}: upper {report.upper}, expected {job.upper}")
        if job.name in self.no_sweep_lower and report.lower < self.no_sweep_lower[job.name]:
            raise WrongAnswer(
                f"{key}: c-sweep lower bound {report.lower} < {self.no_sweep_lower[job.name]} without it"
            )
        self._check_digest(key, text, job.reference)

    def _check_rows(self, doc: str, rows) -> bool:
        """Compare table rows with the known answers; True if no row is an error."""
        expect = self.wl.table_expect.get(doc, {})
        if [r.name for r in rows] != list(self.dbs[doc].records):
            raise WrongAnswer(f"table {doc}: rows do not match the records")
        clean = True
        for row in rows:
            if row.error is not None:
                clean = False
                continue
            interval, upper = expect.get(row.name, (None, None))
            if interval is not None and row.display != interval:
                raise WrongAnswer(f"table {doc}/{row.name}: {row.display}, expected {interval}")
            if upper is not None and row.upper != upper:
                raise WrongAnswer(f"table {doc}/{row.name}: upper {row.upper}, expected {upper}")
        self._check_digest(f"table/{doc}", json.dumps([r.display for r in rows]), None)
        return clean

    # --- one pass -------------------------------------------------------------

    def _certificates(self) -> tuple[list, list]:
        engine = self.mods["engine"]
        solve, certs = [], []
        for job, record, db, cfg in self.requests:
            self.attempted_ops.add(f"certificate {job.doc}/{job.name}")
            mark = self.speed.start()
            try:
                report = engine.bound_report(record, db, cfg)
                text = canonical(engine.report_to_jsonable(report))
            except Exception as exc:  # counted; the pass goes on
                solve.append(self.speed.stop(mark))
                self._fail(f"certificate {job.doc}/{job.name}", exc)
                continue
            solve.append(self.speed.stop(mark))
            certs.append(solve[-1])
            self._check_report(job, report, text)
        return solve, certs

    def _table(self, doc: str) -> tuple | None:
        """Tabulate one document; its interval, or None if it raised."""
        engine, knots = self.mods["engine"], self.mods["knots"]
        self.attempted_ops.add(f"table {doc}")
        mark = self.speed.start()
        try:
            rows = engine.report_table(knots.parse_knot_db(self.wl.docs[doc]))
        except Exception as exc:
            self._fail(f"table {doc}", exc)
            return None
        interval = self.speed.stop(mark)
        if not self._check_rows(doc, rows):
            self._fail(f"table {doc}", RuntimeError("error rows"))
        return interval

    def _tables(self, min_seconds: float) -> list[list]:
        """Table rounds, repeated until `min_seconds` have passed."""
        rounds = []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < min_seconds:
            rounds.append([])
            for doc in self.wl.tables:
                interval = self._table(doc)
                if interval is not None:
                    rounds[-1].append(interval)
        for doc in self.wl.stress_tables:
            self._table(doc)
        return rounds

    def _cli(self, in_process: bool) -> list:
        """`slicedeg bound NAME --json` for each sampled name, one at a time."""
        calls = []
        db_path = str(SRC / "slicedeg" / "data" / "knots.json")
        for name in self.wl.cli_names:
            argv = ["bound", name, "--json", "--db", db_path]
            self.attempted_ops.add(f"cli bound {name}")
            if in_process:
                mark = self.speed.start()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.mods["cli"].main(argv)
                stdout = out.getvalue()
            else:
                self.speed.maybe_tick()
                mark = self.speed.start()
                try:
                    done = subprocess.run(
                        [sys.executable, "-m", "slicedeg.cli", *argv],
                        capture_output=True, text=True, env=child_env(),
                        timeout=SUBPROCESS_TIMEOUT_S,
                    )
                except subprocess.TimeoutExpired as exc:
                    self._fail(f"cli bound {name}", exc)
                    continue
                code, stdout = done.returncode, done.stdout
            interval = self.speed.stop(mark)
            if code != 0:
                self._fail(f"cli bound {name}", RuntimeError(f"exit code {code}"))
                continue
            calls.append(interval)
            self._check_digest(f"cli/{name}", stdout.rstrip("\n"), f"knots/{name}")
        self.speed.tick()
        return calls

    def run_pass(self, in_process: bool) -> dict:
        """One pass; every timed operation as (start, end, calibration inside).

        A pass for the end-to-end metrics repeats the table round for
        TABLE_ROUND_S, so a workload whose tables take milliseconds still
        gets enough samples, and runs the CLI as subprocesses.  An
        `in_process` pass, as traced, makes one round and calls the CLI in
        this process, so every such pass does the same work.
        """
        with self.speed.sampling():
            solve, certs = self._certificates()
            tables = self._tables(0.0 if in_process else TABLE_ROUND_S)
            if in_process:
                cli_calls = self._cli(in_process=True)
        if not in_process:
            cli_calls = self._cli(in_process=False)
        return {"solve": solve, "certs": certs, "tables": tables, "cli": cli_calls}


def measure_setup(speed: Speed) -> list[tuple]:
    """Fresh interpreters that import slicedeg and load both bundled databases."""
    calls = []
    for _ in range(SETUP_RUNS):
        speed.maybe_tick()
        mark = speed.start()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
            env=child_env(), timeout=SUBPROCESS_TIMEOUT_S,
        )
        calls.append(speed.stop(mark))
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {done.stderr.strip()[-500:]}")
    speed.tick()
    return calls


def run_passes(bench: Bench, until: float, min_passes: int, min_certs: int,
               in_process: bool = False, traced: bool = False) -> list:
    """Passes until `until` (perf_counter) and the minimums are met."""
    passes = []
    run_start = time.perf_counter()
    while True:
        if traced:
            tracer = Tracer()
            with tracer.installed(bench.mods):
                result = bench.run_pass(in_process=True)
            result["summary"] = summarize(tracer.spans)
            result["spans"] = tracer.spans  # kept for the last pass only
            if passes:
                passes[-1].pop("spans")
            passes.append(result)
        else:
            passes.append(bench.run_pass(in_process))
        now = time.perf_counter()
        certs = sum(len(p["certs"]) for p in passes)
        if len(passes) >= min_passes and certs >= min_certs and now >= until:
            return passes
        if now - run_start > HARD_STOP_S:
            return passes


def layer_values(summary: dict) -> dict:
    values = {}
    for metric, (_unit, (field, *names)) in PER_LAYER.items():
        rows = [summary.get(n, {}) for n in names]
        if field == "ratio":
            calls = rows[0].get("calls", 0)
            values[metric] = rows[0].get("kill", 0) / calls if calls else 0.0
        else:
            values[metric] = sum(r.get(field, 0) for r in rows)
    return values


def report_line(name: str, value: float, unit: str, note: str) -> None:
    print(f"metric {name} = {value:.6g} {unit} ({note})")


def solve_s(passes: list, scale) -> float:
    """Median over passes of the summed certificate times."""
    return statistics.median(sum(scale(*iv) for iv in p["solve"]) for p in passes)


def end_to_end(bench: Bench, setup: list, passes: list) -> dict:
    """The end-to-end metrics, speed-normalized; raw figures are printed beside them."""

    def figures(scale) -> dict:
        certs = [1000.0 * scale(*iv) for p in passes for iv in p["certs"]]
        return {
            "setup_s": statistics.median(scale(*iv) for iv in setup),
            "solve_s": solve_s(passes, scale),
            "cert_ms_p50": statistics.median(certs),
            "cert_ms_p90": statistics.quantiles(certs, n=100)[89],
            "table_s": statistics.median(
                sum(scale(*iv) for iv in rnd) for p in passes for rnd in p["tables"]
            ),
            "cli_bound_ms": statistics.median(1000.0 * scale(*iv) for p in passes for iv in p["cli"]),
        }

    values, raws = figures(bench.speed.normalized), figures(raw)
    n_certs = sum(len(p["certs"]) for p in passes)
    notes = {
        "setup_s": f"median of {len(setup)} interpreters",
        "solve_s": f"median of {len(passes)} passes",
        "cert_ms_p50": f"n={n_certs}",
        "cert_ms_p90": f"n={n_certs}, {n_certs // 10} beyond",
        "table_s": f"median of {sum(len(p['tables']) for p in passes)} rounds",
        "cli_bound_ms": f"n={sum(len(p['cli']) for p in passes)}",
    }
    metrics = {}
    for metric, unit in END_TO_END.items():
        if metric == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            note = "ru_maxrss"
        else:
            value = values[metric]
            note = f"{notes[metric]}; speed-normalized, raw {raws[metric]:.6g}"
        metrics[metric] = {"value": value, "unit": unit}
        report_line(metric, value, unit, note)
    chunks = bench.speed.durations
    print(
        f"speed: {len(chunks)} calibration loops, median {statistics.median(chunks) * 1e3:.4g} ms "
        f"(reference {REFERENCE_CHUNK_S * 1e3:g} ms), "
        f"min {min(chunks) * 1e3:.4g}, max {max(chunks) * 1e3:.4g}"
    )
    return metrics


def per_layer(bench: Bench, plain: list, traced: list) -> dict | None:
    """Per-layer metrics of the traced passes, or None if their work counts differ."""
    norm = bench.speed.normalized
    per_pass = []
    for p in traced:
        values = layer_values(p["summary"])
        # Span times scale like the pass they ran in.
        factor = solve_s([p], norm) / solve_s([p], raw)
        per_pass.append({
            k: v * factor if PER_LAYER[k][0] == "s" else v for k, v in values.items()
        })
    counts = [{k: v for k, v in vals.items() if PER_LAYER[k][0] != "s"} for vals in per_pass]
    if any(c != counts[0] for c in counts):
        return None
    metrics = {}
    for metric, (unit, _how) in PER_LAYER.items():
        if unit == "s":
            value = statistics.median(v[metric] for v in per_pass)
        else:  # identical in every traced pass
            value = per_pass[0][metric]
        metrics[metric] = {"value": value, "unit": unit}
        report_line(metric, value, unit, f"median of {len(per_pass)} traced passes")
    overhead = solve_s(traced, norm) / solve_s(plain, norm)
    metrics[TRACE_OVERHEAD] = {"value": overhead, "unit": "ratio"}
    report_line(TRACE_OVERHEAD, overhead, "ratio",
                f"traced/untraced solve_s, {len(traced)} vs {len(plain)} passes")
    for rule in ("beta", "vs", "gamma"):
        kills = metrics[f"obstructions.{rule}_kills"]["value"]
        calls = metrics[f"obstructions.{rule}_calls"]["value"]
        print(f"kill ratio {rule}: {kills:g} kills / {calls:g} calls")
    return metrics


def result_line(bench: Bench | None, correct: bool, metrics: dict) -> None:
    attempted = bench.attempted if bench else 0
    failed = bench.failed if bench else 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the traced benchmark twice and compare work counts")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args)

    try:
        mods = load_program()
    except ImportError as exc:
        print(f"error: cannot import slicedeg from {SRC}: {exc}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    env = environment()
    # Calibration, requests and subprocesses share one CPU, so the speed
    # the calibration loop sees is the speed the work gets.
    env["pinned_cpu"] = min(env["affinity"])
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("env " + json.dumps(env, sort_keys=True))

    bench = None
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, ref)
        bench = Bench(wl, mods, ref)
        setup = [] if args.trace else measure_setup(bench.speed)
        # One untimed pass fills caches and checks every answer once.
        bench.run_pass(in_process=bool(args.trace))
        start = time.perf_counter()
        if args.trace:
            # Untraced passes of the same shape give the overhead's base.
            plain = run_passes(bench, start + 0.4 * args.seconds, MIN_TRACED_PASSES, 0,
                               in_process=True)
            traced = run_passes(bench, start + args.seconds, MIN_TRACED_PASSES, 0, traced=True)
        else:
            # p90 is reported only with P90_TAIL samples beyond it
            plain = run_passes(bench, start + args.seconds, MIN_PASSES, 10 * P90_TAIL)
    except WrongAnswer as exc:
        print(f"error: wrong certificate: {exc}", file=sys.stderr)
        result_line(bench, False, {})
        return 1
    except GeneratorError as exc:
        print(f"error: generator fault (not the program's): {exc}", file=sys.stderr)
        return 3

    for message, count in bench.failures.items():
        print(f"failure x{count} {message}")
    print(
        f"workload {wl.name} seed {wl.seed}: {len(wl.jobs)} certificates, "
        f"{len(wl.tables)}+{len(wl.stress_tables)} tables, {len(wl.cli_names)} CLI calls per pass"
    )
    print(f"metric fail_rate = {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} failed / {bench.attempted} distinct operations attempted)")
    if args.trace:
        metrics = per_layer(bench, plain, traced)
        if metrics is None:
            print("error: work counts differ between traced passes of one run", file=sys.stderr)
            result_line(bench, False, {})
            return 1
        write_spans(args, env, traced[-1]["spans"])
    else:
        metrics = end_to_end(bench, setup, plain)
    result_line(bench, True, metrics)
    return 0


def write_spans(args, env: dict, spans: list) -> None:
    """Write the last traced pass's spans: one JSON array per line."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                             "fields": ["id", "parent", "name", "start", "end", "child_s", "attrs"]}))
        fh.write("\n")
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")))
            fh.write("\n")
    print(f"spans {len(spans)} written to {path.relative_to(ROOT)}")


def self_test(args) -> int:
    """Two traced runs on one seed must report identical work counts."""
    counts = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=400,
        )
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if PER_LAYER.get(k, ("s",))[0] != "s" and k != TRACE_OVERHEAD})
    for key in counts[0]:
        mark = "same" if counts[0][key] == counts[1][key] else "DIFFERENT"
        print(f"{key}: {counts[0][key]:g} / {counts[1][key]:g} {mark}")
    ok = counts[0] == counts[1]
    print("self-test " + ("passed" if ok else "FAILED") + f": {len(counts[0])} work counts")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
