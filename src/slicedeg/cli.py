"""Command-line interface.

One subcommand per invocation; ``--db`` is required globally.  Payload goes
to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys

from .engine import (
    ALL_OBSTRUCTIONS,
    ClassBattery,
    EngineConfig,
    RuleVerdict,
    beta_table,
    bound_report,
    report_table,
    report_to_jsonable,
)
from .knots import DatabaseError, KnotDatabase, KnotRecord, load_knot_db
from .lattice import HomologyClass, iter_classes
from .staircase import (
    OracleDisagreement,
    VsUnavailable,
    nu_plus,
    staircase_from_alexander,
    torsion_sequence,
    vs_of,
    vs_staircase_oracle,
)

USAGE_ERROR = 2
DATA_ERROR = 1


class DataError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--db", required=True, help="path to the knot database (JSON)")
    common.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")

    parser = argparse.ArgumentParser(
        prog="slicedeg", description="Certified slicing-degree bounds for knots."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common], help="bound report for one knot")
    p.add_argument("name")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--obstructions", default=None, help="comma subset of s,vs,gamma,friend")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vs", parents=[common], help="V_s sequence of one knot")
    p.add_argument("name")
    p.add_argument("--max-s", type=int, default=None)
    p.add_argument(
        "--oracle",
        choices=["formula", "staircase", "torsion", "all"],
        default="formula",
    )

    p = sub.add_parser("classes", parents=[common], help="homology classes of norm k")
    p.add_argument("k", type=int)

    p = sub.add_parser("check-class", parents=[common], help="per-obstruction verdicts")
    p.add_argument("name")
    p.add_argument("cls", metavar="a1,a2,...")

    p = sub.add_parser("beta-table", parents=[common], help="adjunction lower-bound table")
    p.add_argument("--max", type=int, default=16)

    p = sub.add_parser("table", parents=[common], help="interval table for the whole database")
    p.add_argument("--format", choices=["md", "json"], default="md")
    return parser


def _load_db(args) -> KnotDatabase:
    try:
        db = load_knot_db(args.db)
    except OSError as exc:
        raise DataError(f"cannot read database: {exc}") from exc
    except DatabaseError as exc:
        raise DataError(f"invalid database: {exc}") from exc
    if not args.quiet:
        for warning in db.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return db


def _find_record(db: KnotDatabase, name: str) -> KnotRecord:
    record = db.get(name)
    if record is None:
        near = difflib.get_close_matches(name, list(db.records), n=5)
        hint = f"; close matches: {', '.join(near)}" if near else ""
        raise DataError(f"unknown knot {name!r}{hint}")
    return record


def _parse_obstructions(text: str | None) -> frozenset[str]:
    if text is None:
        return ALL_OBSTRUCTIONS
    parts = [p.strip() for p in text.split(",") if p.strip()]
    unknown = set(parts) - ALL_OBSTRUCTIONS
    if unknown:
        raise DataError(f"unknown obstructions: {', '.join(sorted(unknown))}")
    return frozenset(parts)


def _vs_display(seq, max_s: int | None) -> str:
    if max_s is not None:
        return "[" + ", ".join(str(seq.v(s)) for s in range(max_s + 1)) + "]"
    body = str(seq)
    return f"{body} (V_s = 0 for s >= {nu_plus(seq)})"


def _cmd_bound(args, parser: argparse.ArgumentParser) -> int:
    if args.max_k is not None and args.max_k < 0:
        parser.error("--max-k must be non-negative")
    db = _load_db(args)
    record = _find_record(db, args.name)
    cfg = EngineConfig(max_k=args.max_k, obstructions=_parse_obstructions(args.obstructions))
    report = bound_report(record, db, cfg)
    if args.json:
        print(json.dumps(report_to_jsonable(report), indent=2))
        return 0
    print(f"knot: {report.knot}")
    print(f"lower: {report.lower}" + (" (search cap exhausted)" if report.lower_exhausted else ""))
    print(f"upper: {report.upper if report.upper is not None else 'unknown'}")
    print(f"interval: {report.display}")
    if report.surviving_class is not None:
        print(f"surviving class: {report.surviving_class}")
    if report.upper_witness:
        print(f"upper witness: {report.upper_witness}")
    return 0


def _cmd_vs(args) -> int:
    db = _load_db(args)
    record = _find_record(db, args.name)
    results = {}
    if args.oracle in ("formula", "all"):
        try:
            results["formula"] = vs_of(record)
        except (VsUnavailable, OracleDisagreement) as exc:
            if args.oracle == "formula":
                raise DataError(str(exc)) from exc
            results["formula"] = None
    if args.oracle in ("torsion", "all"):
        if record.alexander is None:
            if args.oracle == "torsion":
                raise DataError(f"{record.name}: no Alexander polynomial in the record")
            results["torsion"] = None
        else:
            results["torsion"] = torsion_sequence(record.alexander)
    if args.oracle in ("staircase", "all"):
        if record.alexander is None:
            if args.oracle == "staircase":
                raise DataError(f"{record.name}: no Alexander polynomial in the record")
            results["staircase"] = None
        else:
            st = staircase_from_alexander(record.alexander)
            results["staircase"] = vs_staircase_oracle(st, st.n[-1])
    for label, seq in results.items():
        print(f"{label}: {_vs_display(seq, args.max_s) if seq is not None else 'unavailable'}")
    if args.oracle == "all":
        present = [seq for seq in results.values() if seq is not None]
        agree = all(seq == present[0] for seq in present) if present else False
        print("agreement: " + ("ok" if present and agree else "DISAGREE" if present else "n/a"))
        if present and not agree:
            return DATA_ERROR
    return 0


def _cmd_classes(args, parser: argparse.ArgumentParser) -> int:
    if args.k < 0:
        parser.error("k must be non-negative")
    _load_db(args)
    for cls in iter_classes(args.k):
        print(cls)
    return 0


def _parse_class(text: str) -> list[int]:
    cleaned = text.strip().strip("()")
    if not cleaned:
        raise ValueError("empty class")
    return [int(part) for part in cleaned.split(",")]


def _cmd_check_class(args, parser: argparse.ArgumentParser) -> int:
    db = _load_db(args)
    record = _find_record(db, args.name)
    try:
        raw = _parse_class(args.cls)
    except ValueError:
        parser.error(f"malformed class {args.cls!r}; expected a1,a2,...")
    cls = HomologyClass.from_values(raw)
    if list(cls.a) != raw:
        print(f"note: class normalized to {cls}", file=sys.stderr)
    if cls.n == 0:
        raise DataError("the empty class is decided by the level-0 null check, not per-class rules")

    steps = list(ClassBattery(record, EngineConfig()).verdicts(cls))
    for rule in ("beta", "gamma", "vs"):
        lines = [_verdict_line(rv) for rv in steps if rv.rule.partition("[")[0] == rule]
        if not lines and rule != "beta":
            lines = [f"{rule}: no data"]
        for line in lines:
            print(line)
    obstructed = any(rv.verdict.obstructed for rv in steps)
    print("overall: " + ("OBSTRUCTED" if obstructed else "pass"))
    return 0


def _verdict_line(rv: RuleVerdict) -> str:
    vd, w = rv.verdict, rv.verdict.witness
    if rv.beta is not None:
        label = f"{rv.rule[:-1]}={rv.beta}]"
        if vd.obstructed:
            return f"{label}: OBSTRUCTED ({rv.beta} > {rv.rhs})"
        return f"{label}: pass ({rv.beta} <= {rv.rhs})"
    if not vd.obstructed:
        return f"{rv.rule}: pass{f' ({vd.note})' if vd.note else ''}"
    if rv.rule == "gamma":
        return (
            f"gamma: OBSTRUCTED (Gamma({w['i']}) = {w['gamma']} > {w['bound']}; "
            f"kappa_min = {w['kappa_min']}, eta = {w['eta']})"
        )
    lam = ",".join(str(x) for x in w["lambda"])
    return f"vs: OBSTRUCTED (lambda = ({lam}), j = {w['j']}, {w['lhs']} < {w['rhs']})"


def _cmd_beta_table(args) -> int:
    _load_db(args)
    betas = list(range(2, args.max + 1, 2))
    if not betas:
        raise DataError(f"--max {args.max} leaves no beta values")
    print("beta | sd+ >= | class")
    for row in beta_table(betas):
        print(f"{row.beta} | {row.min_k} | {row.witness}")
    return 0


def _cmd_table(args) -> int:
    db = _load_db(args)
    rows = report_table(db)
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "lower": r.lower,
                "upper": r.upper,
                "display": r.display,
                **({"error": r.error} if r.error else {}),
            }
            for r in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print("| knot | sd+ |")
        print("| --- | --- |")
        for r in rows:
            cell = r.display if r.error is None else f"error: {r.error}"
            print(f"| {r.name} | {cell} |")
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"warning: {r.name}: {r.error}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bound":
            return _cmd_bound(args, parser)
        if args.command == "vs":
            return _cmd_vs(args)
        if args.command == "classes":
            return _cmd_classes(args, parser)
        if args.command == "check-class":
            return _cmd_check_class(args, parser)
        if args.command == "beta-table":
            return _cmd_beta_table(args)
        if args.command == "table":
            return _cmd_table(args)
        parser.error(f"unknown command {args.command!r}")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (DatabaseError, OracleDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
