"""Knot records, the JSON database format, parsing and validation.

A database is a UTF-8 JSON document: a top-level array of record objects
whose field names match :class:`KnotRecord`.  Rationals are encoded as
strings ``"num/den"``; the V_s specification is an object
``{"type": "thin"|"lspace"|"mirror_lspace"|"explicit"|"unknown",
"values": [...]}``; Alexander coefficients are the dense symmetric list
indexed by exponent -g..g (ascending).  ``sources``, a citation string,
is checked and not kept; non-empty ``values`` is rejected on a non-explicit
V_s kind.  Unknown fields, also inside ``friends[]``, ``upper_witnesses[]``
and ``vs_spec``, are ignored with a warning so data files can carry
per-field provenance annotations.  ``concordant_to`` and
``connected_sum_of`` are references to other records (warned about when
absent); ``friends[].friend_name`` is a label, since a friendship carries
its own ``friend_s``.

A record is loaded in one pass, each value tested by its exact JSON type and
written to its field's slot; a V_s spec without values is the one shared
:class:`VsSpec` of its kind, and location text is built only for an error.
Each :func:`parse_knot_db` call keeps a plan per key order: the parsers of the
fields present, in parse order, so a record runs only its own fields' parsers.

Databases are immutable after load and safe for concurrent reads: a value
kept by ``KnotDatabase.derived`` (the upper-bound closure, or a memoised
search) depends only on the records and the query, whichever read made it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, NoReturn, TypeVar

from . import _Frozen
from .staircase import NotLSpaceForm, VsSequence, check_alexander, staircase_from_alexander

_T = TypeVar("_T")
_VS_KINDS = ("explicit", "thin", "lspace", "mirror_lspace", "unknown")


class DatabaseError(ValueError):
    """Fatal problem in a knot database document (syntax or invariant)."""


class VsSpec(_Frozen):
    """Tagged source of a record's V_s sequence."""

    __slots__ = _fields = ("kind", "values")

    def __init__(self, kind: str, values: tuple[int, ...] = ()) -> None:
        if kind not in _VS_KINDS:
            raise ValueError(f"unknown vs_spec type {kind!r}")
        if values and kind != "explicit":
            raise ValueError("vs_spec values are only meaningful for type 'explicit'")
        self._set(kind, values)


#: The one spec of each kind that takes no values; a parsed record holds one of these.
_SHARED_SPECS = {kind: VsSpec(kind) for kind in _VS_KINDS if kind != "explicit"}


class FriendshipRecord(NamedTuple):
    """A knot sharing the k-surgery, with the s-invariant of the friend."""

    k: int
    friend_name: str
    friend_s: int


class UpperWitness(NamedTuple):
    """A known slice disk of norm k, with a human-readable construction note."""

    k: int
    description: str


class _KnotFields(NamedTuple):
    """The fields of :class:`KnotRecord`, in order, with their defaults."""

    name: str
    signature: int
    s_invariants: Mapping[int, int] = {}
    tau: int | None = None
    vs_spec: VsSpec = _SHARED_SPECS["unknown"]
    alexander: tuple[int, ...] | None = None
    clasp_plus: int | None = None
    slicing_number: int | None = None
    gamma: Mapping[int, Fraction] = {}
    friends: tuple[FriendshipRecord, ...] = ()
    upper_witnesses: tuple[UpperWitness, ...] = ()
    concordant_to: str | None = None
    connected_sum_of: tuple[str, ...] | None = None


class KnotRecord(_KnotFields):
    """One knot's invariants, a NamedTuple: derive a changed record with ``_replace``.

    An int-keyed map left out gets an empty dict of its own, so no two
    records share one mutable default.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "KnotRecord":
        for f in ("s_invariants", "gamma"):
            if cls._fields.index(f) >= len(args):
                kwargs.setdefault(f, {})
        return super().__new__(cls, *args, **kwargs)


class KnotDatabase(_Frozen):
    """Loaded records keyed by name, plus non-fatal load diagnostics.

    ``records`` is kept as a read-only copy of the mapping given, so a value
    derived from it once stays valid: :meth:`derived` keeps such values, the
    engine's upper-bound closure and its lower-bound searches among them.
    They take no part in equality or repr.
    """

    __slots__ = ("records", "warnings", "_derived")
    _fields = ("records", "warnings")

    def __init__(self, records: Mapping[str, KnotRecord], warnings: tuple[str, ...] = ()) -> None:
        self._set(MappingProxyType(dict(records)), warnings, {})

    def derived(self, compute: Callable[["KnotDatabase"], _T]) -> _T:
        """``compute(self)``, computed by the first call for ``compute`` and kept."""
        if compute not in self._derived:
            self._derived[compute] = compute(self)
        return self._derived[compute]

    def __iter__(self):
        return iter(self.records.values())

    def __len__(self) -> int:
        return len(self.records)

    def get(self, name: str) -> KnotRecord | None:
        return self.records.get(name)


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: field '{self.field}': {self.message}"


# Miller-Rabin on these bases decides primality exactly below _PRIME_CHECK_LIMIT
# (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_CHECK_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < _PRIME_CHECK_LIMIT."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    return not any(
        pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(r))
        for b in _PRIME_BASES
    )


_error = partial(Diagnostic, "error")


def validate_record(record: KnotRecord) -> list[Diagnostic]:
    """All invariant violations of one record; empty iff the record is valid.

    Warnings (severity "warning") do not invalidate a record; currently the
    only warning is an explicit V_s list that drops by more than one per
    step, which no staircase-derived sequence ever does.
    """
    out: list[Diagnostic] = []
    add = out.append
    if record.signature % 2 != 0:
        add(_error("signature", "signature must be even"))
    for p, sp in record.s_invariants.items():
        if p >= _PRIME_CHECK_LIMIT:
            add(_error("s_invariants", f"characteristic {p} is too large to check for primality"))
        elif not (p == 0 or _is_prime(p)):
            add(_error("s_invariants", f"characteristic {p} is neither 0 nor prime"))
        if sp % 2 != 0:
            add(_error("s_invariants", f"s_{p} = {sp} must be even"))

    if record.alexander is not None:
        try:
            check_alexander(record.alexander)
        except ValueError as exc:
            add(_error("alexander", str(exc)))

    kind = record.vs_spec.kind
    if kind == "thin" and record.tau is None:
        add(_error("vs_spec", "thin V_s specification requires tau"))
    elif kind == "lspace":
        if record.alexander is None:
            add(_error("vs_spec", "lspace V_s specification requires the Alexander polynomial"))
        elif not any(d.field == "alexander" for d in out):
            try:
                staircase_from_alexander(record.alexander)
            except NotLSpaceForm as exc:
                add(_error("vs_spec", f"Alexander polynomial is not in L-space form: {exc}"))
    elif kind == "explicit":
        try:
            if not VsSequence.from_values(record.vs_spec.values).steps_are_unit():
                add(Diagnostic("warning", "vs_spec", "V_s drops by more than 1"))
        except ValueError as exc:
            add(_error("vs_spec", str(exc)))

    if record.clasp_plus is not None and record.clasp_plus < 0:
        add(_error("clasp_plus", "positive clasp number must be non-negative"))
    if record.slicing_number is not None and record.slicing_number < 0:
        add(_error("slicing_number", "slicing number must be non-negative"))

    for s, value in record.gamma.items():
        if s < 0:
            add(_error("gamma", f"gamma argument {s} must be non-negative"))
        if value <= 0:
            add(_error("gamma", f"gamma value at {s} must be positive, got {value}"))

    for fr in record.friends:
        if fr.k < 0:
            add(_error("friends", f"friendship level {fr.k} must be non-negative"))
        if fr.friend_s % 2 != 0:
            add(_error("friends", f"friend s-invariant {fr.friend_s} must be even"))

    for w in record.upper_witnesses:
        if w.k < 0:
            add(_error("upper_witnesses", f"witness level {w.k} must be non-negative"))

    return out


# --- JSON codec -------------------------------------------------------------
#
# One parser and one encoder per field kind, run in one pass over a record.  A
# parser takes the raw JSON value, its path ``at`` inside the record (".gamma")
# and the database's count of unknown keys, which it adds its nested objects'
# to; its value fills the field's slot.  An error names the path, and
# :func:`_parse_record` prefixes the record's location.  Values are tested by
# exact type (``json.loads`` makes no subclasses, and a JSON boolean is a
# ``bool``, never an ``int``), a V_s spec without values is the shared one of
# its kind, and the path to an item (".gamma[1]") is formatted only for an error.


def _reject(obj: Any, typ: type, at: str, sub: str = "") -> NoReturn:
    raise DatabaseError(f"{at}{sub}: expected {typ.__name__}, got {type(obj).__name__}")


def parse_rational(text: Any, where: str, at: str = "") -> Fraction:
    if type(text) is str:
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise DatabaseError(f"{where}{at}: bad rational {text!r}: {exc}") from exc
    if type(text) is int:
        return Fraction(text)
    raise DatabaseError(f"{where}{at}: rationals must be 'num/den' strings, got {text!r}")


def format_rational(value: Fraction) -> str:
    return str(value)  # "num/den", or "num" for an integer


def _expect(obj: Any, typ: type, at: str, sub: str = "") -> Any:
    return obj if type(obj) is typ else _reject(obj, typ, at, sub)


def _expect_all(items: list, typ: type, at: str, sub: str = "") -> tuple:
    return tuple(v if type(v) is typ else _reject(v, typ, at, sub) for v in items)


def _int_key(key: str) -> int:
    """The integer a key spells as str does ("1", not "01", "+1" or " 1"): keys never collide."""
    if str(value := int(key)) != key:
        raise ValueError(f"non-canonical integer {key!r}")
    return value


def _same(value: Any) -> Any:
    return value


class _Codec(NamedTuple):
    parse: Callable[[Any, str, dict[str, int]], Any]
    encode: Callable[[Any], Any] = _same


def _scalar(typ: type, nullable: bool = True) -> _Codec:
    """A ``typ`` value; ``null`` means absent unless the field is required."""

    def parse(raw: Any, at: str, unknown: dict[str, int]) -> Any:
        return raw if type(raw) is typ or raw is None and nullable else _reject(raw, typ, at)

    return _Codec(parse)


def _optional_list(typ: type) -> _Codec:
    """A list of ``typ`` kept as a tuple; ``null`` means absent, ``[]`` is kept."""

    def parse(raw: Any, at: str, unknown: dict[str, int]) -> tuple | None:
        return None if raw is None else _expect_all(_expect(raw, list, at), typ, at)

    return _Codec(parse, list)


def _int_map(key_label: str, kept: type, parse_value: Callable, encode_value=_same) -> _Codec:
    """Canonical integer keys, each checked before its value; a non-``kept`` value is parsed."""

    def parse(raw: Any, at: str, unknown: dict[str, int]) -> dict:
        out = {}
        for key, value in _expect(raw, dict, at).items():
            try:
                k = _int_key(key)
            except ValueError as exc:
                raise DatabaseError(f"{at}: bad {key_label} {key!r}") from exc
            try:
                out[k] = value if type(value) is kept else parse_value(value, "")
            except DatabaseError as exc:
                raise DatabaseError(f"{at}[{key}]{exc}") from exc
        return out

    return _Codec(parse, lambda m: {str(k): encode_value(v) for k, v in sorted(m.items())})


def _count_unknown(obj: dict, known: frozenset[str], prefix: str, unknown: dict[str, int]) -> None:
    """Count the keys of ``obj`` outside ``known`` into ``unknown``, as ``prefix + key``."""
    for key in obj.keys() - known:
        unknown[prefix + key] = unknown.get(prefix + key, 0) + 1


def _objects(cls: type, *types: type, **defaults: Any) -> _Codec:
    """A list of ``cls``, each an object of its ``_fields`` of ``types``, or else ``defaults``."""
    known = frozenset(cls._fields)
    fields = [(name, typ, defaults.get(name)) for name, typ in zip(cls._fields, types)]

    def parse(raw: Any, at: str, unknown: dict[str, int]) -> tuple:
        out = []
        for i, obj in enumerate(_expect(raw, list, at)):
            obj = obj if type(obj) is dict else _reject(obj, dict, f"{at}[{i}]")
            _count_unknown(obj, known, f"{at[1:]}[].", unknown)
            args = [obj.get(name, default) for name, _, default in fields]
            for value, (name, typ, _) in zip(args, fields):
                if type(value) is not typ:
                    _reject(value, typ, f"{at}[{i}].{name}")
            out.append(cls._make(args))
        return tuple(out)

    return _Codec(parse, lambda objs: [o._asdict() for o in objs])


_VS_SPEC_KEYS = frozenset(("type", "values"))


def _parse_vs_spec(raw: Any, at: str, unknown: dict[str, int]) -> VsSpec:
    """``values`` is read whenever present, so :class:`VsSpec` rejects it on other kinds."""
    data = _expect(raw, dict, at)
    if not data.keys() <= _VS_SPEC_KEYS:
        _count_unknown(data, _VS_SPEC_KEYS, f"{at[1:]}.", unknown)
    kind = _expect(data.get("type", "unknown"), str, at, ".type")
    values = ()
    if "values" in data:
        values = _expect_all(_expect(data["values"], list, at), int, at, ".values")
    try:
        return _SHARED_SPECS[kind] if kind in _SHARED_SPECS and not values else VsSpec(kind, values)
    except ValueError as exc:
        raise DatabaseError(f"{at}: {exc}") from exc


def _encode_vs_spec(spec: VsSpec) -> dict[str, Any]:
    if spec.kind == "explicit":
        return {"type": spec.kind, "values": list(spec.values)}
    return {"type": spec.kind}


#: The KnotRecord fields holding int-keyed maps (unhashable dicts), with their codecs.
INT_KEYED_FIELDS = {
    "s_invariants": _int_map("characteristic", int, lambda v, at: _reject(v, int, at)),
    "gamma": _int_map("argument", Fraction, parse_rational, format_rational),
}

# Every field's codec, in parse order: of several faults in a record, the
# first met here is reported.  ``name`` is read before the rest.
_CODECS: dict[str, _Codec] = {
    "name": _scalar(str, nullable=False),
    **INT_KEYED_FIELDS,
    "friends": _objects(FriendshipRecord, int, str, int),
    "upper_witnesses": _objects(UpperWitness, int, str, description=""),
    "alexander": _optional_list(int),
    "connected_sum_of": _optional_list(str),
    "tau": _scalar(int),
    "clasp_plus": _scalar(int),
    "slicing_number": _scalar(int),
    "concordant_to": _scalar(str),
    "sources": _scalar(str),
    "vs_spec": _Codec(_parse_vs_spec, _encode_vs_spec),
    "signature": _scalar(int, nullable=False),
}
_KNOWN_FIELDS = frozenset(_CODECS)
# A record's slots after its name: the defaults in order, then ``sources``, checked and not kept.
_ROW = [None, *KnotRecord._field_defaults.values(), None]
_SLOT = {fld: i for i, fld in enumerate((*KnotRecord._fields, "sources"))}
_PARSERS = [(fld, codec.parse, "." + fld, _SLOT[fld]) for fld, codec in _CODECS.items()][1:]
_MAPS = [_SLOT[fld] for fld in INT_KEYED_FIELDS]
_ABSENT = object()


def _plan(keys: tuple[str, ...]) -> tuple[tuple[str, ...], list]:
    """A record's unknown keys, and the parsers of its known fields but ``name`` in parse order."""
    return tuple(k for k in keys if k not in _KNOWN_FIELDS), [p for p in _PARSERS if p[0] in keys]


def _parse_record(obj: Any, index: int, unknown_fields: dict[str, int], plans: dict) -> KnotRecord:
    """One record; ``plans`` keeps a :func:`_plan` per key order for the records after it."""
    data = obj if type(obj) is dict else _reject(obj, dict, f"record {index}")
    if "name" not in data:
        raise DatabaseError(f"record {index}: missing required field 'name'")
    if type(name := data["name"]) is not str:
        _reject(name, str, f"record {index}.name")
    if "signature" not in data:
        raise DatabaseError(f"record {index} ({name!r}): missing required field 'signature'")

    if (plan := plans.get(keys := tuple(data))) is None:
        plan = plans[keys] = _plan(keys)
    for key in plan[0]:
        unknown_fields[key] = unknown_fields.get(key, 0) + 1
    row = [name, *_ROW]
    for slot in _MAPS:  # an absent map gets a new dict, never a shared default
        row[slot] = {}
    try:
        for fld, parse, at, slot in plan[1]:
            row[slot] = parse(data[fld], at, unknown_fields)
    except DatabaseError as exc:
        raise DatabaseError(f"record {index} ({name!r}){exc}") from exc
    row.pop()
    return KnotRecord._make(row)


def parse_knot_db(text: str) -> KnotDatabase:
    """Parse a JSON knot database; every returned record satisfies its invariants.

    Raises :class:`DatabaseError` on syntax errors (with line/column),
    duplicate names and invariant violations.  Unknown fields and references
    (``concordant_to``, ``connected_sum_of``) to absent records are reported
    in ``db.warnings``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        msg = f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        raise DatabaseError(msg) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise DatabaseError(f"unreadable JSON: {exc}") from exc
    if type(doc) is not list:
        raise DatabaseError("top level must be an array of record objects")

    unknown_fields: dict[str, int] = {}
    plans: dict[tuple[str, ...], tuple] = {}  # for this call only
    records: dict[str, KnotRecord] = {}
    diag_warnings: list[str] = []
    for index, obj in enumerate(doc):
        record = _parse_record(obj, index, unknown_fields, plans)
        if record.name in records:
            raise DatabaseError(f"duplicate name {record.name!r}")
        if diags := validate_record(record):
            if problems := [d for d in diags if d.severity == "error"]:
                raise DatabaseError(f"record {record.name!r}: " + "; ".join(map(str, problems)))
            diag_warnings += [f"record {record.name!r}: {d}" for d in diags]
        records[record.name] = record

    warnings = [f"ignored unknown field {name!r} ({count} occurrence{'s' if count > 1 else ''})"
                for name, count in sorted(unknown_fields.items())]
    # Only the fields the upper bound follows are references; a friend's name is a label.
    for record in records.values():
        if record.concordant_to is None and not record.connected_sum_of:
            continue
        refs = [("concordant_to", record.concordant_to)]
        refs += [("connected_sum_of", other) for other in record.connected_sum_of or ()]
        for fld, target in refs:
            if target is not None and target not in records:
                warnings.append(f"record {record.name!r}: {fld} references unknown knot {target!r}")
    return KnotDatabase(records=records, warnings=tuple(warnings + diag_warnings))


def serialize_knot_db(db: KnotDatabase) -> str:
    """Inverse of :func:`parse_knot_db` up to database equality.

    Fields are written in declaration order; one that holds its default is left out.
    """
    defaults = KnotRecord._field_defaults
    spec = [(f, _CODECS[f].encode, defaults.get(f, _ABSENT)) for f in KnotRecord._fields]
    out = [
        {name: enc(v) for name, enc, default in spec if (v := getattr(record, name)) != default}
        for record in db
    ]
    return json.dumps(out, indent=2)


def load_knot_db(path) -> KnotDatabase:
    """Read and parse a database file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatabaseError(f"not UTF-8: {exc}") from exc
    return parse_knot_db(text)


def bundled_database_path(name: str = "knots") -> Path:
    """Path of a database shipped with the package ("knots" or "families")."""
    return Path(__file__).parent / "data" / f"{name}.json"
