"""Command-line interface.

One subcommand per invocation; each needs ``--db`` except ``beta-table``,
which reads a database only when given one.  Payload goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 data error, 2 usage error.
Only the subcommands that search or certify import the engine, so ``vs``
and ``classes`` load a database without it.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import TYPE_CHECKING

from .knots import DatabaseError, KnotDatabase, KnotRecord, load_knot_db
from .lattice import HomologyClass, iter_classes
from .staircase import (
    NotLSpaceForm,
    OracleDisagreement,
    VsSequence,
    VsUnavailable,
    staircase_of,
    torsion_sequence,
    vs_of,
    vs_staircase_oracle,
)

if TYPE_CHECKING:
    from .engine import (
        ALL_OBSTRUCTIONS,
        ClassBattery,
        ClassCertificate,
        CyclicRelationWarning,
        EngineConfig,
        beta_table,
        bound_report,
        report_table,
        report_to_jsonable,
    )

# The engine names the commands call.  They are bound here on first need, by
# a command or by reading one off this module (bench/tracing.py wraps
# bound_report, report_table and report_to_jsonable here).
_ENGINE_NAMES = (
    "ALL_OBSTRUCTIONS", "ClassBattery", "CyclicRelationWarning", "EngineConfig",
    "beta_table", "bound_report", "report_table", "report_to_jsonable",
)


def _bind_engine() -> None:
    from . import engine

    for name in _ENGINE_NAMES:
        globals().setdefault(name, getattr(engine, name))  # a name bound already stays


def __getattr__(name: str):
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_engine()
    return globals()[name]

USAGE_ERROR = 2
DATA_ERROR = 1


class DataError(Exception):
    pass


def _common(db_required: bool = True) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--db", required=db_required, help="path to the knot database (JSON)")
    common.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common()

    parser = argparse.ArgumentParser(
        prog="slicedeg", description="Certified slicing-degree bounds for knots."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common], help="bound report for one knot")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("name")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--obstructions", default=None, help="comma subset of s,vs,gamma,friend")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vs", parents=[common], help="V_s sequence of one knot")
    p.set_defaults(run=_cmd_vs)
    p.add_argument("name")
    p.add_argument("--max-s", type=int, default=None)
    p.add_argument(
        "--oracle",
        choices=["formula", "staircase", "torsion", "all"],
        default="formula",
    )

    p = sub.add_parser("classes", parents=[common], help="homology classes of norm k")
    p.set_defaults(run=_cmd_classes)
    p.add_argument("k", type=int)

    p = sub.add_parser("check-class", parents=[common], help="per-obstruction verdicts")
    p.set_defaults(run=_cmd_check_class)
    p.add_argument("name")
    p.add_argument("cls", metavar="a1,a2,...")

    p = sub.add_parser(
        "beta-table", parents=[_common(db_required=False)], help="adjunction lower-bound table"
    )
    p.set_defaults(run=_cmd_beta_table)
    p.add_argument("--max", type=int, default=16)

    p = sub.add_parser("table", parents=[common], help="interval table for the whole database")
    p.set_defaults(run=_cmd_table)
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


def _reporting_cycles(args, fn, *fn_args):
    """``fn(*fn_args)``, each reference-cycle warning it issues printed as a diagnostic.

    Other warnings are shown as Python shows them.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CyclicRelationWarning)
        try:
            return fn(*fn_args)
        finally:
            for w in caught:
                if not issubclass(w.category, CyclicRelationWarning):
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
                elif not args.quiet:
                    print(f"warning: {w.message}", file=sys.stderr)


def _find_record(db: KnotDatabase, name: str) -> KnotRecord:
    record = db.get(name)
    if record is None:
        import difflib  # only an unknown name needs it; kept off start-up

        near = difflib.get_close_matches(name, list(db.records), n=5)
        hint = f"; close matches: {', '.join(near)}" if near else ""
        raise DataError(f"unknown knot {name!r}{hint}")
    return record


def _parse_obstructions(text: str | None) -> frozenset[str]:
    if text is None:
        return ALL_OBSTRUCTIONS
    return frozenset(p.strip() for p in text.split(",") if p.strip())


# Without --max-s, `vs` lists at most this many values, then ", ...]".
_VS_SHOWN = 256
_VS_CHUNK = 4096  # with --max-s, values are written this many at a time


def _print_vs(label: str, seq: VsSequence | None, max_s: int | None) -> None:
    if seq is None:
        print(f"{label}: unavailable")
    elif max_s is None:
        shown = ", ".join(map(str, seq.prefix(_VS_SHOWN))) + (", ..." if seq.nu > _VS_SHOWN else "")
        print(f"{label}: [{shown}] (V_s = 0 for s >= {seq.nu})")
    else:
        sys.stdout.write(f"{label}: [")
        for start in range(0, max_s + 1, _VS_CHUNK):
            values = map(seq.v, range(start, min(start + _VS_CHUNK, max_s + 1)))
            sys.stdout.write((", " if start else "") + ", ".join(map(str, values)))
        sys.stdout.write("]\n")


def _cmd_bound(args, parser: argparse.ArgumentParser) -> int:
    if args.max_k is not None and args.max_k < 0:
        parser.error("--max-k must be non-negative")
    _bind_engine()
    db = _load_db(args)
    record = _find_record(db, args.name)
    try:
        cfg = EngineConfig(max_k=args.max_k, obstructions=_parse_obstructions(args.obstructions))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    report = _reporting_cycles(args, bound_report, record, db, cfg)
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


def _torsion_route(record: KnotRecord) -> VsSequence:
    staircase_of(record)
    return torsion_sequence(record.alexander)


_VS_ROUTES = {
    "formula": vs_of,
    "torsion": _torsion_route,
    "staircase": lambda record: vs_staircase_oracle(staircase_of(record)),
}


def _cmd_vs(args, parser: argparse.ArgumentParser) -> int:
    if args.max_s is not None and args.max_s < 0:
        parser.error("--max-s must be non-negative")
    db = _load_db(args)
    record = _find_record(db, args.name)
    labels = list(_VS_ROUTES) if args.oracle == "all" else [args.oracle]
    results = []
    for label in labels:
        try:
            seq = _VS_ROUTES[label](record)
        except (VsUnavailable, OracleDisagreement, NotLSpaceForm) as exc:
            if args.oracle != "all":
                raise DataError(str(exc)) from exc
            seq = None
        _print_vs(label, seq, args.max_s)
        results.append(seq)
    if args.oracle == "all":
        present = [seq for seq in results if seq is not None]
        agree = all(seq == present[0] for seq in present)
        print("agreement: " + ("n/a" if not present else "ok" if agree else "DISAGREE"))
        return 0 if agree else DATA_ERROR
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
    _bind_engine()
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

    battery = ClassBattery(record, EngineConfig())
    steps = list(battery.verdicts(cls))
    betas = dict(battery.betas)
    for rule in ("beta", "gamma", "vs"):
        lines = [_verdict_line(c, betas) for c in steps if c.rule.partition("[")[0] == rule]
        if not lines and rule != "beta":
            lines = [f"{rule}: no data"]
        for line in lines:
            print(line)
    obstructed = any(c.verdict.obstructed for c in steps)
    print("overall: " + ("OBSTRUCTED" if obstructed else "pass"))
    return 0


def _verdict_line(c: ClassCertificate, betas: dict[str, int]) -> str:
    """One rule's line; a beta rule's shows its value (``betas``) against k - sum(a)."""
    vd, w = c.verdict, c.verdict.witness
    if c.rule in betas:
        beta, rhs = betas[c.rule], c.cls.norm - sum(c.cls.a)
        label = f"{c.rule[:-1]}={beta}]"
        if vd.obstructed:
            return f"{label}: OBSTRUCTED ({beta} > {rhs})"
        return f"{label}: pass ({beta} <= {rhs})"
    if not vd.obstructed:
        return f"{c.rule}: pass{f' ({vd.note})' if vd.note else ''}"
    if c.rule == "gamma":
        return (
            f"gamma: OBSTRUCTED (Gamma({w['i']}) = {w['gamma']} > {w['bound']}; "
            f"kappa_min = {w['kappa_min']}, eta = {w['eta']})"
        )
    lam = ",".join(str(x) for x in w["lambda"])
    return f"vs: OBSTRUCTED (lambda = ({lam}), j = {w['j']}, {w['lhs']} < {w['rhs']})"


def _cmd_beta_table(args, parser: argparse.ArgumentParser) -> int:
    _bind_engine()
    if args.db is not None:
        _load_db(args)
    betas = list(range(2, args.max + 1, 2))
    if not betas:
        raise DataError(f"--max {args.max} leaves no beta values")
    print("beta | sd+ >= | class")
    for row in beta_table(betas):
        print(f"{row.beta} | {row.min_k} | {row.witness}")
    return 0


def _cmd_table(args, parser: argparse.ArgumentParser) -> int:
    _bind_engine()
    db = _load_db(args)
    rows = _reporting_cycles(args, report_table, db)
    if args.format == "json":
        payload = [r._asdict() for r in rows]
        for row in payload:
            if not row["error"]:  # the key is on error rows only
                del row["error"]
        print(json.dumps(payload, indent=2))
    else:
        print("| knot | sd+ |")
        print("| --- | --- |")
        for r in rows:
            cell = r.display if r.error is None else f"error: {r.error}"
            print(f"| {r.name} | {cell} |")
    if not args.quiet:
        for r in rows:
            if r.error:
                print(f"warning: {r.error}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (DataError, DatabaseError, OracleDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
