"""Knot record / database format tests."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedeg.knots import (
    DatabaseError,
    FriendshipRecord,
    KnotDatabase,
    KnotRecord,
    UpperWitness,
    VsSpec,
    bundled_database_path,
    load_knot_db,
    parse_knot_db,
    parse_rational,
    serialize_knot_db,
    validate_record,
)

TREFOIL = {
    "name": "3_1",
    "signature": -2,
    "s_invariants": {"0": 2},
    "tau": 1,
    "vs_spec": {"type": "thin"},
    "clasp_plus": 1,
}


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
    @given(
        st.lists(
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
            ),
            max_size=5,
            unique_by=lambda r: r.name,
        )
    )
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
