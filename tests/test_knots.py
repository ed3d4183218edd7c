"""Knot record / database format tests."""

import json
import re
import time
from fractions import Fraction
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedeg import knots
from slicedeg.knots import (
    DatabaseError,
    FriendshipRecord,
    KnotDatabase,
    KnotRecord,
    UpperWitness,
    VsSpec,
    bundled_database_path,
    format_rational,
    load_knot_db,
    parse_knot_db,
    parse_rational,
    serialize_knot_db,
    validate_record,
)

# --- reference codec: the per-field parser and serializer the table-driven codec replaced ---
# (since extended by two rules: a non-explicit vs_spec rejects non-empty ``values``, and
# unknown keys inside friends[], upper_witnesses[] and vs_spec are counted like unknown fields).
# It parses gamma values with its own rational parser, so a fault in ``parse_rational`` shows.

REFERENCE_VS_KINDS = ("explicit", "thin", "lspace", "mirror_lspace", "unknown")

REFERENCE_RECORD_FIELDS = (
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


def reference_expect(obj: Any, typ: type, where: str) -> Any:
    if typ is int and isinstance(obj, bool):
        raise DatabaseError(f"{where}: expected {typ.__name__}, got bool")
    if not isinstance(obj, typ):
        raise DatabaseError(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def reference_int_key(key: str) -> int:
    if str(value := int(key)) != key:
        raise ValueError(f"non-canonical integer {key!r}")
    return value


def reference_parse_rational(value: Any, where: str) -> Fraction:
    """A gamma value: a JSON integer (not a boolean), or an integer or 'num/den' string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise DatabaseError(f"{where}: rationals must be 'num/den' strings, got {value!r}")
    try:
        return Fraction(*(int(part) for part in value.split("/", 1)))
    except (ValueError, ZeroDivisionError) as exc:
        raise DatabaseError(f"{where}: bad rational {value!r}: {exc}") from exc


def reference_count_unknown(obj: dict, known: tuple, path: str, unknown_fields: dict) -> None:
    for key in obj:
        if key not in known:
            unknown_fields[path + key] = unknown_fields.get(path + key, 0) + 1


def reference_parse_vs_spec(obj: Any, where: str, unknown_fields: dict[str, int]) -> VsSpec:
    data = reference_expect(obj, dict, where)
    reference_count_unknown(data, ("type", "values"), "vs_spec.", unknown_fields)
    kind = reference_expect(data.get("type", "unknown"), str, f"{where}.type")
    raw = data.get("values", [])
    values = tuple(
        reference_expect(v, int, f"{where}.values") for v in reference_expect(raw, list, where)
    )
    if kind not in REFERENCE_VS_KINDS:
        raise DatabaseError(f"{where}: unknown vs_spec type {kind!r}")
    if values and kind != "explicit":
        raise DatabaseError(f"{where}: vs_spec values are only meaningful for type 'explicit'")
    return VsSpec(kind, values)


def reference_parse_record(obj: Any, index: int, unknown_fields: dict[str, int]) -> KnotRecord:
    expect = reference_expect
    where = f"record {index}"
    data = expect(obj, dict, where)
    if "name" not in data:
        raise DatabaseError(f"{where}: missing required field 'name'")
    name = expect(data["name"], str, f"{where}.name")
    where = f"record {index} ({name!r})"
    if "signature" not in data:
        raise DatabaseError(f"{where}: missing required field 'signature'")

    for key in data:
        if key not in REFERENCE_RECORD_FIELDS:
            unknown_fields[key] = unknown_fields.get(key, 0) + 1

    s_invariants: dict[int, int] = {}
    for key, value in expect(data.get("s_invariants", {}), dict, f"{where}.s_invariants").items():
        try:
            p = reference_int_key(key)
        except ValueError as exc:
            raise DatabaseError(f"{where}.s_invariants: bad characteristic {key!r}") from exc
        s_invariants[p] = expect(value, int, f"{where}.s_invariants[{key}]")

    gamma: dict[int, Fraction] = {}
    for key, value in expect(data.get("gamma", {}), dict, f"{where}.gamma").items():
        try:
            s = reference_int_key(key)
        except ValueError as exc:
            raise DatabaseError(f"{where}.gamma: bad argument {key!r}") from exc
        gamma[s] = reference_parse_rational(value, f"{where}.gamma[{key}]")

    friends = []
    for i, item in enumerate(expect(data.get("friends", []), list, f"{where}.friends")):
        fr = expect(item, dict, f"{where}.friends[{i}]")
        reference_count_unknown(fr, ("k", "friend_name", "friend_s"), "friends[].", unknown_fields)
        friends.append(
            FriendshipRecord(
                k=expect(fr.get("k"), int, f"{where}.friends[{i}].k"),
                friend_name=expect(fr.get("friend_name"), str, f"{where}.friends[{i}].friend_name"),
                friend_s=expect(fr.get("friend_s"), int, f"{where}.friends[{i}].friend_s"),
            )
        )

    witnesses = []
    for i, item in enumerate(
        expect(data.get("upper_witnesses", []), list, f"{where}.upper_witnesses")
    ):
        w = expect(item, dict, f"{where}.upper_witnesses[{i}]")
        reference_count_unknown(w, ("k", "description"), "upper_witnesses[].", unknown_fields)
        witnesses.append(
            UpperWitness(
                k=expect(w.get("k"), int, f"{where}.upper_witnesses[{i}].k"),
                description=expect(
                    w.get("description", ""), str, f"{where}.upper_witnesses[{i}].description"
                ),
            )
        )

    alexander = None
    if data.get("alexander") is not None:
        alexander = tuple(
            expect(v, int, f"{where}.alexander")
            for v in expect(data["alexander"], list, f"{where}.alexander")
        )

    connected = None
    if data.get("connected_sum_of") is not None:
        connected = tuple(
            expect(v, str, f"{where}.connected_sum_of")
            for v in expect(data["connected_sum_of"], list, f"{where}.connected_sum_of")
        )

    tau = data.get("tau")
    if tau is not None:
        tau = expect(tau, int, f"{where}.tau")
    clasp = data.get("clasp_plus")
    if clasp is not None:
        clasp = expect(clasp, int, f"{where}.clasp_plus")
    slicing = data.get("slicing_number")
    if slicing is not None:
        slicing = expect(slicing, int, f"{where}.slicing_number")
    concordant = data.get("concordant_to")
    if concordant is not None:
        concordant = expect(concordant, str, f"{where}.concordant_to")
    if data.get("sources") is not None:
        expect(data["sources"], str, f"{where}.sources")

    vs_spec = reference_parse_vs_spec(
        data.get("vs_spec", {"type": "unknown"}), f"{where}.vs_spec", unknown_fields
    )

    return KnotRecord(
        name=name,
        signature=expect(data["signature"], int, f"{where}.signature"),
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


def reference_serialize_knot_db(db: KnotDatabase) -> str:
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


TREFOIL = {
    "name": "3_1",
    "signature": -2,
    "s_invariants": {"0": 2},
    "tau": 1,
    "vs_spec": {"type": "thin"},
    "clasp_plus": 1,
}


# Databases the serializer must round-trip.
RANDOM_RECORDS = st.lists(
    st.builds(
        KnotRecord,
        name=st.uuids().map(str),
        signature=st.integers(-10, 10).map(lambda n: 2 * n),
        s_invariants=st.dictionaries(
            st.sampled_from([0, 2, 3, 5, 7]), st.integers(-8, 8).map(lambda n: 2 * n)
        ),
        tau=st.one_of(st.none(), st.integers(-4, 4)),
        vs_spec=st.one_of(
            st.just(VsSpec("unknown")),
            st.just(VsSpec("mirror_lspace")),
            st.builds(
                lambda vals: VsSpec("explicit", tuple(sorted(vals, reverse=True))),
                st.lists(st.integers(0, 5), max_size=4),
            ),
        ),
        clasp_plus=st.one_of(st.none(), st.integers(0, 5)),
        slicing_number=st.one_of(st.none(), st.integers(0, 5)),
        gamma=st.dictionaries(
            st.integers(0, 4),
            st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
            max_size=3,
        ),
        upper_witnesses=st.lists(
            st.builds(UpperWitness, k=st.integers(0, 9), description=st.text(max_size=10)),
            max_size=2,
        ).map(tuple),
        # builds() draws every field of a NamedTuple, defaulted or not: these keep their defaults.
        alexander=st.none(),
        friends=st.just(()),
        concordant_to=st.none(),
        connected_sum_of=st.none(),
    ),
    max_size=5,
    unique_by=lambda r: r.name,
)


def parse_one(obj) -> KnotRecord:
    db = parse_knot_db(json.dumps([obj]))
    return next(iter(db))


class TestParse:
    def test_trefoil_accepted(self):
        rec = parse_one(TREFOIL)
        assert rec.signature == -2
        assert rec.s_invariants == {0: 2}
        assert rec.tau == 1
        assert rec.vs_spec.kind == "thin"
        assert rec.clasp_plus == 1

    def test_odd_signature_rejected(self):
        with pytest.raises(DatabaseError, match="signature must be even"):
            parse_one({"name": "x", "signature": -3})

    def test_trefoil_alexander_accepted(self):
        rec = parse_one({"name": "x", "signature": -2, "alexander": [1, -1, 1]})
        assert rec.alexander == (1, -1, 1)

    def test_syntax_error_reports_location(self):
        with pytest.raises(DatabaseError, match=r"line 2"):
            parse_knot_db('[\n{"name": }\n]')

    def test_duplicate_names_rejected(self):
        text = json.dumps([{"name": "a", "signature": 0}, {"name": "a", "signature": 0}])
        with pytest.raises(DatabaseError, match="duplicate"):
            parse_knot_db(text)

    def test_unknown_field_warns(self):
        db = parse_knot_db(json.dumps([dict(TREFOIL, provenance="KnotInfo")]))
        assert any("provenance" in w for w in db.warnings)

    def test_sources_is_a_checked_string(self):
        assert parse_knot_db(json.dumps([dict(TREFOIL, sources="KnotInfo")])).warnings == ()
        with pytest.raises(DatabaseError, match=r"\.sources: expected str"):
            parse_one(dict(TREFOIL, sources=["KnotInfo"]))

    def test_bundled_knots_load_without_warnings(self):
        assert load_knot_db(bundled_database_path("knots")).warnings == ()

    def test_bundled_families_load_without_warnings(self):
        """A friend's name is a label, not a reference: K_G need not be a record."""
        assert load_knot_db(bundled_database_path("families")).warnings == ()

    @pytest.mark.parametrize("field", ["s_invariants", "gamma"])
    @pytest.mark.parametrize("keys", [("1", "01"), ("1_0",), (" 0",), ("+1",)])
    def test_integer_keys_must_be_canonical(self, field, keys):
        """Only "1" spells 1: "01" must not overwrite "1", nor "1_0" read as 10."""
        value = "2" if field == "gamma" else 2
        with pytest.raises(DatabaseError, match=f"{field}: bad .*{re.escape(repr(keys[-1]))}"):
            parse_one({"name": "x", "signature": 0, field: dict.fromkeys(keys, value)})

    def test_dangling_reference_flagged(self):
        db = parse_knot_db(json.dumps([{"name": "a", "signature": 0, "concordant_to": "b"}]))
        assert any("unknown knot 'b'" in w for w in db.warnings)

    def test_warning_order_and_single_validation(self, monkeypatch):
        from slicedeg import knots

        calls = []
        real = knots.validate_record
        monkeypatch.setattr(
            knots, "validate_record", lambda rec: calls.append(rec.name) or real(rec)
        )
        text = json.dumps(
            [
                {"name": "a", "signature": 0, "vs_spec": {"type": "explicit", "values": [3, 1]}},
                {"name": "b", "signature": 0, "concordant_to": "z", "provenance": "x"},
            ]
        )
        db = parse_knot_db(text)
        assert calls == ["a", "b"]
        assert len(db.warnings) == 3
        assert "provenance" in db.warnings[0]
        assert "unknown knot 'z'" in db.warnings[1]
        assert db.warnings[2].startswith("record 'a'") and "more than 1" in db.warnings[2]

    def test_missing_required_fields(self):
        with pytest.raises(DatabaseError, match="name"):
            parse_knot_db(json.dumps([{"signature": 0}]))
        with pytest.raises(DatabaseError, match="signature"):
            parse_knot_db(json.dumps([{"name": "a"}]))

    def test_odd_s_invariant_rejected(self):
        with pytest.raises(DatabaseError, match="must be even"):
            parse_one({"name": "x", "signature": 0, "s_invariants": {"0": 3}})

    def test_composite_characteristic_rejected(self):
        with pytest.raises(DatabaseError, match="neither 0 nor prime"):
            parse_one({"name": "x", "signature": 0, "s_invariants": {"4": 2}})

    def test_gamma_parses_rationals(self):
        rec = parse_one({"name": "x", "signature": -2, "gamma": {"1": "3/5"}})
        assert rec.gamma == {1: Fraction(3, 5)}

    def test_gamma_must_be_positive(self):
        with pytest.raises(DatabaseError, match="must be positive"):
            parse_one({"name": "x", "signature": 0, "gamma": {"1": "-1/2"}})

    def test_non_palindromic_alexander_rejected(self):
        with pytest.raises(DatabaseError, match="palindromic"):
            parse_one({"name": "x", "signature": 0, "alexander": [1, -1, 0]})

    def test_alexander_normalization_enforced(self):
        with pytest.raises(DatabaseError, match="at t=1"):
            parse_one({"name": "x", "signature": 0, "alexander": [1, 0, 1]})

    def test_thin_requires_tau(self):
        with pytest.raises(DatabaseError, match="requires tau"):
            parse_one({"name": "x", "signature": 0, "vs_spec": {"type": "thin"}})

    def test_lspace_requires_lspace_form(self):
        with pytest.raises(DatabaseError, match="L-space form"):
            parse_one(
                {
                    "name": "x",
                    "signature": 0,
                    "alexander": [-1, 1, 1, 1, -1],
                    "vs_spec": {"type": "lspace"},
                }
            )

    def test_negative_witness_rejected(self):
        with pytest.raises(DatabaseError, match="non-negative"):
            parse_one(
                {
                    "name": "x",
                    "signature": 0,
                    "upper_witnesses": [{"k": -1, "description": "bad"}],
                }
            )

    def test_vs_spec_error_names_its_location_once(self):
        with pytest.raises(DatabaseError) as info:
            parse_one({"name": "x", "signature": 0, "vs_spec": {"type": "foo"}})
        assert str(info.value) == "record 0 ('x').vs_spec: unknown vs_spec type 'foo'"

    def test_vs_spec_values_rejected_on_other_kinds(self):
        with pytest.raises(DatabaseError) as info:
            parse_one(dict(TREFOIL, vs_spec={"type": "thin", "values": [5, 4]}))
        assert str(info.value) == (
            "record 0 ('3_1').vs_spec: vs_spec values are only meaningful for type 'explicit'"
        )
        with pytest.raises(DatabaseError, match=r"\.vs_spec: expected list"):
            parse_one(dict(TREFOIL, vs_spec={"type": "unknown", "values": "x"}))
        with pytest.raises(DatabaseError, match=r"\.vs_spec\.values: expected int"):
            parse_one(dict(TREFOIL, vs_spec={"type": "thin", "values": ["a"]}))
        assert parse_one(dict(TREFOIL, vs_spec={"type": "thin", "values": []})) == parse_one(
            TREFOIL
        )

    def test_unknown_nested_keys_warn_with_their_path(self):
        record = dict(
            TREFOIL,
            vs_spec={"type": "thin", "note": "x"},
            friends=[{"k": 1, "friend_name": "y", "friend_s": 2, "extra": 1}],
            upper_witnesses=[{"k": 3, "descripton": "typo"}, {"k": 4, "descripton": "t"}],
        )
        db = parse_knot_db(json.dumps([record, dict(record, name="3_1 copy")]))
        assert db.warnings == (
            "ignored unknown field 'friends[].extra' (2 occurrences)",
            "ignored unknown field 'upper_witnesses[].descripton' (4 occurrences)",
            "ignored unknown field 'vs_spec.note' (2 occurrences)",
        )
        assert db.get("3_1").upper_witnesses == (UpperWitness(3, ""), UpperWitness(4, ""))

    def test_top_level_must_be_array(self):
        with pytest.raises(DatabaseError, match="array"):
            parse_knot_db("{}")


class TestValidateRecord:
    def test_explicit_ok(self):
        rec = KnotRecord("x", 0, vs_spec=VsSpec("explicit", (1, 0)))
        assert validate_record(rec) == []

    def test_explicit_increasing_is_error(self):
        rec = KnotRecord("x", 0, vs_spec=VsSpec("explicit", (0, 1)))
        diags = validate_record(rec)
        assert any(d.severity == "error" and "non-increasing" in d.message for d in diags)

    def test_explicit_big_step_is_warning(self):
        rec = KnotRecord("x", 0, vs_spec=VsSpec("explicit", (3, 1)))
        diags = validate_record(rec)
        assert [d.severity for d in diags] == ["warning"]
        assert "more than 1" in diags[0].message

    def test_friend_invariants(self):
        rec = KnotRecord("x", 0, friends=(FriendshipRecord(-1, "y", 2),))
        assert any(d.severity == "error" for d in validate_record(rec))


def reference_is_prime(n: int) -> bool:
    """Trial division, the characteristic check Miller-Rabin replaced."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestCharacteristicPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 200_000) if knots._is_prime(n) != reference_is_prime(n)] == []

    def test_mersenne_61_accepted_quickly(self):
        start = time.perf_counter()
        rec = parse_one({"name": "a", "signature": 0, "s_invariants": {str(2**61 - 1): 2}})
        assert time.perf_counter() - start < 0.5
        assert rec.s_invariants == {2**61 - 1: 2}

    @pytest.mark.parametrize("n", [2**61 + 1, 561, 41041, 3215031751])
    def test_composites_rejected(self, n):
        # 561 and 41041 are Carmichael numbers; 3215031751 is a strong
        # pseudoprime to the bases 2, 3, 5 and 7.
        assert not knots._is_prime(n)
        with pytest.raises(DatabaseError, match="neither 0 nor prime"):
            parse_one({"name": "a", "signature": 0, "s_invariants": {str(n): 2}})

    def test_characteristic_past_the_exact_range_rejected(self):
        # The bound itself is composite yet a strong probable prime to every base.
        limit = knots._PRIME_CHECK_LIMIT
        assert limit == 399165290221 * 798330580441 and knots._is_prime(limit)
        with pytest.raises(DatabaseError, match=r"s_invariants'.*too large to check"):
            parse_one({"name": "a", "signature": 0, "s_invariants": {str(limit): 2}})


class TestRoundTrip:
    def test_parse_serialize_identity_on_sample(self):
        db = parse_knot_db(
            json.dumps(
                [
                    TREFOIL,
                    {
                        "name": "7_4",
                        "signature": -2,
                        "s_invariants": {"0": 2},
                        "tau": 1,
                        "vs_spec": {"type": "thin"},
                        "clasp_plus": 2,
                        "gamma": {"1": "3/5"},
                    },
                    {
                        "name": "sum",
                        "signature": -4,
                        "connected_sum_of": ["3_1", "3_1"],
                        "upper_witnesses": [{"k": 8, "description": "band sum"}],
                    },
                ]
            )
        )
        again = parse_knot_db(serialize_knot_db(db))
        assert again.records == db.records

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_RECORDS)
    def test_roundtrip_random_records(self, records):
        # thin/tau pairing is the only cross-field invariant the strategy could break
        records = [r for r in records if not (r.vs_spec.kind == "thin" and r.tau is None)]
        db = KnotDatabase({r.name: r for r in records})
        again = parse_knot_db(serialize_knot_db(db))
        assert again.records == db.records

    def test_all_parsed_records_validate_clean(self):
        db = parse_knot_db(json.dumps([TREFOIL]))
        for rec in db:
            assert [d for d in validate_record(rec) if d.severity == "error"] == []


class TestRationals:
    def test_parse_fraction(self):
        assert parse_rational("36/33", "t") == Fraction(12, 11)
        assert parse_rational("4", "t") == Fraction(4)
        assert parse_rational(3, "t") == Fraction(3)

    def test_parse_bad(self):
        with pytest.raises(DatabaseError):
            parse_rational("a/b", "t")
        with pytest.raises(DatabaseError):
            parse_rational("1/0", "t")
        with pytest.raises(DatabaseError):
            parse_rational(1.5, "t")

    def test_booleans_rejected_like_int_fields(self):
        with pytest.raises(DatabaseError, match="True"):
            parse_rational(True, "t")
        with pytest.raises(DatabaseError, match=r"gamma\[1\]"):
            parse_one(dict(TREFOIL, gamma={"1": True}))
        with pytest.raises(DatabaseError, match=r"\.tau: expected int, got bool"):
            parse_one(dict(TREFOIL, tau=True))


# --- differential codec test ---------------------------------------------------

BUNDLED_RECORDS = [
    record
    for name in ("knots", "families")
    for record in json.loads(bundled_database_path(name).read_text(encoding="utf-8"))
]
REMOVE = object()
# Per field: wrong JSON types, booleans, non-canonical keys, bad rationals,
# malformed friend and witness objects, bad vs_spec objects, and values
# that are valid or fail only validation.  Any field may also be removed,
# set to null or set to an arbitrary JSON value.
_FRIEND = {"k": 1, "friend_name": "x", "friend_s": 2}
FIELD_FAULTS = {
    "name": [3, "", "x", True],
    "signature": [3, -2, True, "2", 1.5],
    "s_invariants": [
        {"0": 3}, {"4": 2}, {"0": 2, "2": 2}, {"01": 2}, {" 0": 2}, {"1_0": 2}, {"+1": True},
        {"1": "a"}, {"1": True}, {"2": None}, {"0": 2, "01": "x"}, [],
    ],
    "gamma": [
        {"1": "3/5"}, {"1": 2}, {"1": "a/b"}, {"1": "1/0"}, {"1": "3/"}, {"1": 1.5}, {"1": True},
        {"1": None}, {"1": "-1/2"}, {"-1": "1/2"}, {"01": "a/b"}, {"1": "a/b", "01": 2},
        {"1": "3/5", "2": [1]},
    ],
    "friends": [
        [_FRIEND], [{"k": "1"}], [{}], [1], [dict(_FRIEND, k=True)], [dict(_FRIEND, k=-1)],
        [dict(_FRIEND, friend_name=None)], [{"k": 1, "friend_name": "x"}],
        [dict(_FRIEND, friend_s=3)], [_FRIEND, {"k": "a"}], [dict(_FRIEND, extra=1)],
    ],
    "upper_witnesses": [
        [{"k": 1, "description": "d"}], [{"k": 1}], [{"k": 1, "description": None}],
        [{"k": -1, "description": "d"}], [{"description": "d"}], [{"k": 2, "description": 5}],
        [1], [{"k": 1.0}],
    ],
    "alexander": [[1, -1, 1], [1, 0, 1], [-1, 1, 1, 1, -1], [1, -1, 0], ["a"], [True], []],
    "connected_sum_of": [[], ["3_1", "4_1"], ["3_1", 1], ["nope"], "3_1", [None]],
    "tau": [-1, 2, True, "1", 1.5],
    "clasp_plus": [-1, 2, False, "1"],
    "slicing_number": [-1, 2, True, [1]],
    "concordant_to": ["3_1", "nope", 1, True, []],
    "sources": ["KnotInfo", 1, False, ["x"]],
    "vs_spec": [
        {"type": "foo"}, {"type": 3}, {"type": None}, {}, {"values": [1]}, {"type": "thin"},
        {"type": "lspace"}, {"type": "mirror_lspace"}, {"type": "unknown", "values": "x"},
        {"type": "explicit"}, {"type": "explicit", "values": [2, 0]},
        {"type": "explicit", "values": [0, 1]}, {"type": "explicit", "values": [1, "a"]},
        {"type": "explicit", "values": "x"}, {"type": "explicit", "values": None},
        {"type": "thin", "values": [1]}, "thin", {"type": "thin", "note": 1},
        {"type": "thin", "values": []}, {"type": "explicit", "values": []},
    ],
    "provenance": ["x"],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
MUTATIONS = st.lists(
    st.sampled_from(sorted(FIELD_FAULTS)).flatmap(
        lambda fld: st.tuples(
            st.just(fld),
            st.one_of(
                st.just(REMOVE), st.none(), st.sampled_from(FIELD_FAULTS[fld]), JSON_VALUES
            ),
        )
    ),
    min_size=1,
    max_size=3,
)

# Changes that keep a record valid yet leave state across records: unknown keys,
# dangling references, a V_s warning, specs the parser may share and a name
# that two records may take.
QUIET_MUTATIONS = st.lists(
    st.sampled_from([
        ("name", "twin"), ("provenance", "x"), ("concordant_to", "nope"),
        ("connected_sum_of", ["nope"]),
        ("vs_spec", {"type": "unknown", "note": 1}), ("vs_spec", {"type": "mirror_lspace"}),
        ("vs_spec", {"type": "explicit", "values": [3, 1]}), ("friends", [dict(_FRIEND, x=1)]),
        ("upper_witnesses", [{"k": 3, "descripton": "t"}]),
    ]),
    min_size=1,
    max_size=3,
)


def db_outcome(text: str, serialize=serialize_knot_db):
    """The parsed records (by repr, so types count), warnings and serialization, or the error."""
    try:
        db = parse_knot_db(text)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return repr(db.records), db.warnings, serialize(db)


def reference_db_outcome(text: str):
    """:func:`db_outcome` with the reference record parser and serializer."""
    def reference(obj, index, unknown_fields, plans):
        return reference_parse_record(obj, index, unknown_fields)

    with mock.patch.object(knots, "_parse_record", reference):
        return db_outcome(text, reference_serialize_knot_db)


def mutate(record: dict, mutations) -> dict:
    mutated = dict(record)
    for fld, value in mutations:
        if value is REMOVE:
            mutated.pop(fld, None)
        else:
            mutated[fld] = value
    return mutated


class TestCodecMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(BUNDLED_RECORDS), st.sampled_from(BUNDLED_RECORDS), MUTATIONS)
    def test_mutated_records_parse_like_reference(self, record, other, mutations):
        mutated = mutate(record, mutations)
        text = json.dumps([mutated, other] if other["name"] != record["name"] else [mutated])
        assert db_outcome(text) == reference_db_outcome(text)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.sampled_from(BUNDLED_RECORDS), st.just([]) | QUIET_MUTATIONS | MUTATIONS),
            min_size=3,
            max_size=8,
            unique_by=lambda drawn: drawn[0]["name"],
        ),
        st.data(),
    )
    def test_documents_of_several_records_parse_like_reference(self, drawn, data):
        """State kept across records: unknown-field counts, names seen, warning order, specs,
        and the parse plans of repeated and reordered key orders."""
        records = []
        for record, mutations in drawn:
            mutated = mutate(record, mutations)
            records.append({key: mutated[key] for key in data.draw(st.permutations(list(mutated)))})
        text = json.dumps(records)
        outcome = db_outcome(text)
        assert outcome == reference_db_outcome(text)
        if not isinstance(outcome[0], type):  # parsed: each spec without values is one object
            shared = {}
            for record in parse_knot_db(text):
                if record.vs_spec.kind != "explicit":
                    assert shared.setdefault(record.vs_spec.kind, record.vs_spec) is record.vs_spec

    @pytest.mark.parametrize("fld", sorted(FIELD_FAULTS))
    def test_each_fault_like_reference(self, fld):
        for record in (BUNDLED_RECORDS[0], BUNDLED_RECORDS[-1]):
            for value in [*FIELD_FAULTS[fld], None, REMOVE]:
                mutated = {k: v for k, v in record.items() if k != fld}
                if value is not REMOVE:
                    mutated[fld] = value
                text = json.dumps([mutated])
                assert db_outcome(text) == reference_db_outcome(text)

    def test_first_of_two_faults_like_reference(self):
        """Every pair of faulty fields reports the same one first."""
        for f1 in REFERENCE_RECORD_FIELDS[1:]:
            for f2 in REFERENCE_RECORD_FIELDS[1:]:
                text = json.dumps([{"name": "x", "signature": 0, f1: 1.5, f2: 1.5}])
                assert db_outcome(text) == reference_db_outcome(text)

    @pytest.mark.parametrize("name", ["knots", "families"])
    def test_bundled_parse_and_serialize_like_reference(self, name):
        text = bundled_database_path(name).read_text(encoding="utf-8")
        assert db_outcome(text) == reference_db_outcome(text)

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_RECORDS)
    def test_random_records_serialize_like_reference(self, records):
        db = KnotDatabase({r.name: r for r in records})
        assert serialize_knot_db(db) == reference_serialize_knot_db(db)

    def test_empty_connected_sum_round_trips(self):
        db = parse_knot_db(json.dumps([{"name": "x", "signature": 0, "connected_sum_of": []}]))
        assert db.get("x").connected_sum_of == ()
        assert parse_knot_db(serialize_knot_db(db)).records == db.records
