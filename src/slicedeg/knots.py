"""Knot records, the JSON database format, parsing and validation.

A database is a UTF-8 JSON document: a top-level array of record objects
whose field names match :class:`KnotRecord`.  Rationals are encoded as
strings ``"num/den"``; the V_s specification is an object
``{"type": "thin"|"lspace"|"mirror_lspace"|"explicit"|"unknown",
"values": [...]}``; Alexander coefficients are the dense symmetric list
indexed by exponent -g..g (ascending).  ``sources``, a citation string,
is checked and not kept.  Unknown fields are ignored with a warning so data
files can carry per-field provenance annotations.

Databases are immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .staircase import NotLSpaceForm, VsSequence, check_alexander, staircase_from_alexander

_VS_KINDS = ("explicit", "thin", "lspace", "mirror_lspace", "unknown")

_RECORD_FIELDS = (
    "name",
    "signature",
    "s_invariants",
    "tau",
    "vs_spec",
    "alexander",
    "clasp_plus",
    "slicing_number",
    "gamma",
    "friends",
    "upper_witnesses",
    "concordant_to",
    "connected_sum_of",
    "sources",
)


class DatabaseError(ValueError):
    """Fatal problem in a knot database document (syntax or invariant)."""


@dataclass(frozen=True)
class VsSpec:
    """Tagged source of a record's V_s sequence."""

    kind: str
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _VS_KINDS:
            raise ValueError(f"unknown vs_spec type {self.kind!r}")
        if self.values and self.kind != "explicit":
            raise ValueError("vs_spec values are only meaningful for type 'explicit'")


@dataclass(frozen=True)
class FriendshipRecord:
    """A knot sharing the k-surgery, with the s-invariant of the friend."""

    k: int
    friend_name: str
    friend_s: int


@dataclass(frozen=True)
class UpperWitness:
    """A known slice disk of norm k, with a human-readable construction note."""

    k: int
    description: str


@dataclass(frozen=True)
class KnotRecord:
    name: str
    signature: int
    s_invariants: Mapping[int, int] = field(default_factory=dict)
    tau: int | None = None
    vs_spec: VsSpec = VsSpec("unknown")
    alexander: tuple[int, ...] | None = None
    clasp_plus: int | None = None
    slicing_number: int | None = None
    gamma: Mapping[int, Fraction] = field(default_factory=dict)
    friends: tuple[FriendshipRecord, ...] = ()
    upper_witnesses: tuple[UpperWitness, ...] = ()
    concordant_to: str | None = None
    connected_sum_of: tuple[str, ...] | None = None


@dataclass(frozen=True)
class KnotDatabase:
    """Loaded records keyed by name, plus non-fatal load diagnostics."""

    records: Mapping[str, KnotRecord]
    warnings: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.records.values())

    def __len__(self) -> int:
        return len(self.records)

    def get(self, name: str) -> KnotRecord | None:
        return self.records.get(name)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: field '{self.field}': {self.message}"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def validate_record(record: KnotRecord) -> list[Diagnostic]:
    """All invariant violations of one record; empty iff the record is valid.

    Warnings (severity "warning") do not invalidate a record; currently the
    only warning is an explicit V_s list that drops by more than one per
    step, which no staircase-derived sequence ever does.
    """
    out: list[Diagnostic] = []

    def err(fld: str, msg: str) -> None:
        out.append(Diagnostic("error", fld, msg))

    def warn(fld: str, msg: str) -> None:
        out.append(Diagnostic("warning", fld, msg))

    if record.signature % 2 != 0:
        err("signature", "signature must be even")
    for p, sp in record.s_invariants.items():
        if not (p == 0 or _is_prime(p)):
            err("s_invariants", f"characteristic {p} is neither 0 nor prime")
        if sp % 2 != 0:
            err("s_invariants", f"s_{p} = {sp} must be even")

    if record.alexander is not None:
        try:
            check_alexander(record.alexander)
        except ValueError as exc:
            err("alexander", str(exc))

    spec = record.vs_spec
    if spec.kind == "thin" and record.tau is None:
        err("vs_spec", "thin V_s specification requires tau")
    if spec.kind == "lspace":
        if record.alexander is None:
            err("vs_spec", "lspace V_s specification requires the Alexander polynomial")
        elif not any(d.field == "alexander" for d in out):
            try:
                staircase_from_alexander(record.alexander)
            except NotLSpaceForm as exc:
                err("vs_spec", f"Alexander polynomial is not in L-space form: {exc}")
    if spec.kind == "explicit":
        try:
            if not VsSequence.from_values(spec.values).steps_are_unit():
                warn("vs_spec", "V_s drops by more than 1")
        except ValueError as exc:
            err("vs_spec", str(exc))

    if record.clasp_plus is not None and record.clasp_plus < 0:
        err("clasp_plus", "positive clasp number must be non-negative")
    if record.slicing_number is not None and record.slicing_number < 0:
        err("slicing_number", "slicing number must be non-negative")

    for s, value in record.gamma.items():
        if s < 0:
            err("gamma", f"gamma argument {s} must be non-negative")
        if value <= 0:
            err("gamma", f"gamma value at {s} must be positive, got {value}")

    for fr in record.friends:
        if fr.k < 0:
            err("friends", f"friendship level {fr.k} must be non-negative")
        if fr.friend_s % 2 != 0:
            err("friends", f"friend s-invariant {fr.friend_s} must be even")

    for w in record.upper_witnesses:
        if w.k < 0:
            err("upper_witnesses", f"witness level {w.k} must be non-negative")

    return out


# --- JSON parsing -----------------------------------------------------------


def parse_rational(text: Any, where: str) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise DatabaseError(f"{where}: bad rational {text!r}: {exc}") from exc
    raise DatabaseError(f"{where}: rationals must be 'num/den' strings, got {text!r}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _expect(obj: Any, typ: type, where: str) -> Any:
    if typ is int and isinstance(obj, bool):
        raise DatabaseError(f"{where}: expected {typ.__name__}, got bool")
    if not isinstance(obj, typ):
        raise DatabaseError(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _int_key(key: str) -> int:
    """The integer a key spells as str does ("1", not "01", "+1" or " 1"): keys never collide."""
    if str(value := int(key)) != key:
        raise ValueError(f"non-canonical integer {key!r}")
    return value


def _parse_vs_spec(obj: Any, where: str) -> VsSpec:
    data = _expect(obj, dict, where)
    kind = _expect(data.get("type", "unknown"), str, f"{where}.type")
    if kind not in _VS_KINDS:
        raise DatabaseError(f"{where}: unknown vs_spec type {kind!r}")
    values: tuple[int, ...] = ()
    if kind == "explicit":
        raw = data.get("values", [])
        values = tuple(_expect(v, int, f"{where}.values") for v in _expect(raw, list, where))
    return VsSpec(kind, values)


def _parse_record(obj: Any, index: int, unknown_fields: dict[str, int]) -> KnotRecord:
    where = f"record {index}"
    data = _expect(obj, dict, where)
    if "name" not in data:
        raise DatabaseError(f"{where}: missing required field 'name'")
    name = _expect(data["name"], str, f"{where}.name")
    where = f"record {index} ({name!r})"
    if "signature" not in data:
        raise DatabaseError(f"{where}: missing required field 'signature'")

    for key in data:
        if key not in _RECORD_FIELDS:
            unknown_fields[key] = unknown_fields.get(key, 0) + 1

    s_invariants: dict[int, int] = {}
    for key, value in _expect(data.get("s_invariants", {}), dict, f"{where}.s_invariants").items():
        try:
            p = _int_key(key)
        except ValueError as exc:
            raise DatabaseError(f"{where}.s_invariants: bad characteristic {key!r}") from exc
        s_invariants[p] = _expect(value, int, f"{where}.s_invariants[{key}]")

    gamma: dict[int, Fraction] = {}
    for key, value in _expect(data.get("gamma", {}), dict, f"{where}.gamma").items():
        try:
            s = _int_key(key)
        except ValueError as exc:
            raise DatabaseError(f"{where}.gamma: bad argument {key!r}") from exc
        gamma[s] = parse_rational(value, f"{where}.gamma[{key}]")

    friends = []
    for i, item in enumerate(_expect(data.get("friends", []), list, f"{where}.friends")):
        fr = _expect(item, dict, f"{where}.friends[{i}]")
        friends.append(
            FriendshipRecord(
                k=_expect(fr.get("k"), int, f"{where}.friends[{i}].k"),
                friend_name=_expect(fr.get("friend_name"), str, f"{where}.friends[{i}].friend_name"),
                friend_s=_expect(fr.get("friend_s"), int, f"{where}.friends[{i}].friend_s"),
            )
        )

    witnesses = []
    for i, item in enumerate(
        _expect(data.get("upper_witnesses", []), list, f"{where}.upper_witnesses")
    ):
        w = _expect(item, dict, f"{where}.upper_witnesses[{i}]")
        witnesses.append(
            UpperWitness(
                k=_expect(w.get("k"), int, f"{where}.upper_witnesses[{i}].k"),
                description=_expect(
                    w.get("description", ""), str, f"{where}.upper_witnesses[{i}].description"
                ),
            )
        )

    alexander = None
    if data.get("alexander") is not None:
        alexander = tuple(
            _expect(v, int, f"{where}.alexander")
            for v in _expect(data["alexander"], list, f"{where}.alexander")
        )

    connected = None
    if data.get("connected_sum_of") is not None:
        connected = tuple(
            _expect(v, str, f"{where}.connected_sum_of")
            for v in _expect(data["connected_sum_of"], list, f"{where}.connected_sum_of")
        )

    tau = data.get("tau")
    if tau is not None:
        tau = _expect(tau, int, f"{where}.tau")
    clasp = data.get("clasp_plus")
    if clasp is not None:
        clasp = _expect(clasp, int, f"{where}.clasp_plus")
    slicing = data.get("slicing_number")
    if slicing is not None:
        slicing = _expect(slicing, int, f"{where}.slicing_number")
    concordant = data.get("concordant_to")
    if concordant is not None:
        concordant = _expect(concordant, str, f"{where}.concordant_to")
    if data.get("sources") is not None:
        _expect(data["sources"], str, f"{where}.sources")

    vs_spec = _parse_vs_spec(data.get("vs_spec", {"type": "unknown"}), f"{where}.vs_spec")

    return KnotRecord(
        name=name,
        signature=_expect(data["signature"], int, f"{where}.signature"),
        s_invariants=s_invariants,
        tau=tau,
        vs_spec=vs_spec,
        alexander=alexander,
        clasp_plus=clasp,
        slicing_number=slicing,
        gamma=gamma,
        friends=tuple(friends),
        upper_witnesses=tuple(witnesses),
        concordant_to=concordant,
        connected_sum_of=connected,
    )


def parse_knot_db(text: str) -> KnotDatabase:
    """Parse a JSON knot database; every returned record satisfies its invariants.

    Raises :class:`DatabaseError` on syntax errors (with line/column),
    duplicate names and invariant violations.  Unknown fields and dangling
    cross-references are reported in ``db.warnings``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatabaseError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, list):
        raise DatabaseError("top level must be an array of record objects")

    unknown_fields: dict[str, int] = {}
    records: dict[str, KnotRecord] = {}
    diag_warnings: list[str] = []
    for index, obj in enumerate(doc):
        record = _parse_record(obj, index, unknown_fields)
        if record.name in records:
            raise DatabaseError(f"duplicate name {record.name!r}")
        diags = validate_record(record)
        problems = [d for d in diags if d.severity == "error"]
        if problems:
            listing = "; ".join(str(d) for d in problems)
            raise DatabaseError(f"record {record.name!r}: {listing}")
        records[record.name] = record
        diag_warnings += [f"record {record.name!r}: {d}" for d in diags if d.severity == "warning"]

    warnings = [
        f"ignored unknown field {name!r} ({count} occurrence{'s' if count > 1 else ''})"
        for name, count in sorted(unknown_fields.items())
    ]
    known = set(records)
    for record in records.values():
        refs: list[tuple[str, str]] = []
        if record.concordant_to is not None:
            refs.append(("concordant_to", record.concordant_to))
        for other in record.connected_sum_of or ():
            refs.append(("connected_sum_of", other))
        for fr in record.friends:
            refs.append(("friends", fr.friend_name))
        for fld, target in refs:
            if target not in known:
                warnings.append(
                    f"record {record.name!r}: {fld} references unknown knot {target!r}"
                )
    return KnotDatabase(records=records, warnings=tuple(warnings + diag_warnings))


def serialize_knot_db(db: KnotDatabase) -> str:
    """Inverse of :func:`parse_knot_db` up to database equality."""
    out = []
    for record in db:
        item: dict[str, Any] = {"name": record.name, "signature": record.signature}
        if record.s_invariants:
            item["s_invariants"] = {str(p): v for p, v in sorted(record.s_invariants.items())}
        if record.tau is not None:
            item["tau"] = record.tau
        if record.vs_spec.kind != "unknown":
            spec: dict[str, Any] = {"type": record.vs_spec.kind}
            if record.vs_spec.kind == "explicit":
                spec["values"] = list(record.vs_spec.values)
            item["vs_spec"] = spec
        if record.alexander is not None:
            item["alexander"] = list(record.alexander)
        if record.clasp_plus is not None:
            item["clasp_plus"] = record.clasp_plus
        if record.slicing_number is not None:
            item["slicing_number"] = record.slicing_number
        if record.gamma:
            item["gamma"] = {str(s): format_rational(v) for s, v in sorted(record.gamma.items())}
        if record.friends:
            item["friends"] = [
                {"k": fr.k, "friend_name": fr.friend_name, "friend_s": fr.friend_s}
                for fr in record.friends
            ]
        if record.upper_witnesses:
            item["upper_witnesses"] = [
                {"k": w.k, "description": w.description} for w in record.upper_witnesses
            ]
        if record.concordant_to is not None:
            item["concordant_to"] = record.concordant_to
        if record.connected_sum_of is not None:
            item["connected_sum_of"] = list(record.connected_sum_of)
        out.append(item)
    return json.dumps(out, indent=2)


def load_knot_db(path) -> KnotDatabase:
    """Read and parse a database file."""
    return parse_knot_db(Path(path).read_text(encoding="utf-8"))


def bundled_database_path(name: str = "knots") -> Path:
    """Path of a database shipped with the package ("knots" or "families")."""
    return Path(__file__).parent / "data" / f"{name}.json"
