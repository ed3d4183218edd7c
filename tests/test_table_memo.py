"""A database runs one lower-bound search per distinct set of search inputs.

``report_table`` and ``bound_report`` share one memo of searches, kept on
the database (its 1024 most recently used) and keyed by every record field
the search reads, the record's upper bound (the cap) and the configuration
but its parallelism.  These tests compare it with a per-record reference
that searches every record afresh, check which fields split or share a
search, count the searches it runs, and check that repeated queries reuse
them without sharing mutable witnesses or payloads.
"""

import copy
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_upper_transfer import acyclic_db, any_db

from slicedeg import engine
from slicedeg.cli import main
from slicedeg.engine import (
    ALL_OBSTRUCTIONS,
    DEFAULT_MAX_K,
    BoundReport,
    CyclicRelationWarning,
    EngineConfig,
    TableRow,
    bound_report,
    report_table,
    report_to_jsonable,
    upper_bound,
)
from slicedeg.knots import (
    FriendshipRecord,
    KnotDatabase,
    KnotRecord,
    UpperWitness,
    VsSpec,
    bundled_database_path,
    load_knot_db,
)
from slicedeg.staircase import OracleDisagreement

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
KNOTS = load_knot_db(bundled_database_path("knots"))
FAMILIES = load_knot_db(bundled_database_path("families"))

# The fields the lower-bound search reads, listed here independently of the engine.
SEARCH_FIELDS = ("signature", "s_invariants", "tau", "vs_spec", "alexander", "gamma", "friends")
UPPER_ONLY = ("name", "clasp_plus", "slicing_number", "upper_witnesses", "concordant_to",
              "connected_sum_of")

TREFOIL = KnotRecord("3_1", -2, s_invariants={0: 2}, tau=1, vs_spec=VsSpec("thin"), clasp_plus=1)
T34_ALEXANDER = (1, -1, 0, 1, 0, -1, 1)


def db_of(*records):
    return KnotDatabase({r.name: r for r in records})


def reference_report(record, db, cfg):
    """``record``'s report from one uncached ``lower_bound`` call, capped at its upper bound.

    A cap that ``cfg`` sets wins; without an upper bound the cap is ``DEFAULT_MAX_K``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CyclicRelationWarning)
        upper, witness = upper_bound(record, db)
    if cfg.max_k is None:
        cap = upper if upper is not None else DEFAULT_MAX_K
        cfg = EngineConfig(cap, cfg.obstructions, cfg.gamma_c_sweep, cfg.parallelism)
    search = engine.lower_bound(record, cfg)
    return BoundReport(record.name, search.level, search.exhausted, upper, witness,
                       search.surviving_class, search.certificates)


def reference_table(db, cfg=None):
    """One uncached search per record, with the record's own upper bound."""
    cfg = cfg or EngineConfig()
    rows = []
    for record in db:
        try:
            report = reference_report(record, db, cfg)
            rows.append(TableRow(record.name, report.lower, report.upper, report.display))
        except (ValueError, OracleDisagreement) as exc:
            rows.append(TableRow(record.name, None, None, "error", error=str(exc)))
    return rows


def table(db, cfg=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CyclicRelationWarning)
        return report_table(db, cfg)


def projection(record, upper):
    """The test's own key: search fields (mappings as sorted items) plus the cap."""
    values = [getattr(record, f) for f in SEARCH_FIELDS]
    return tuple(tuple(sorted(v.items())) if isinstance(v, dict) else v for v in values), upper


def chain(head, links):
    """``head`` and ``links`` records concordant to it in turn, each repeating its search fields."""
    records = [head]
    for i in range(1, links + 1):
        records.append(head._replace(
            name=f"{head.name}-link{i}", clasp_plus=None, slicing_number=None,
            upper_witnesses=(), concordant_to=records[-1].name, connected_sum_of=None,
        ))
    return db_of(*records)


@pytest.fixture
def searches(monkeypatch):
    """Count the calls of ``engine.lower_bound``, the global the table searches through."""
    calls = []
    real = engine.lower_bound

    def counting(record, cfg=None):
        calls.append(record.name)
        return real(record, cfg)

    monkeypatch.setattr(engine, "lower_bound", counting)
    return calls


def test_projection_covers_every_record_field():
    assert set(SEARCH_FIELDS) | set(UPPER_ONLY) == set(KnotRecord._fields)


# Search inputs of bundled records with different lower bounds (0 to 9; friends,
# gamma, explicit, thin and L-space V_s), laid over the upper-bound databases so
# that records share inputs and some lower bounds exceed their upper bounds.
PROFILES = [KnotRecord("", 0)] + [
    db.get(name) for db, name in (
        (KNOTS, "0_1"), (KNOTS, "3_1"), (KNOTS, "7_4"), (KNOTS, "9_42"), (KNOTS, "9_10"),
        (KNOTS, "8_19"), (FAMILIES, "K_B(1)"),
    )
]


@st.composite
def profiled(draw, records):
    out = []
    for record in records:
        profile = draw(st.sampled_from(PROFILES))
        out.append(record._replace(**{f: getattr(profile, f) for f in SEARCH_FIELDS}))
    return db_of(*out)


class TestAgainstPerRecordReference:
    @settings(max_examples=60, deadline=None)
    @given(any_db())
    def test_upper_transfer_databases(self, db):
        assert table(db) == reference_table(db)

    @settings(max_examples=60, deadline=None)
    @given(any_db().flatmap(lambda db: profiled(list(db))))
    def test_shared_search_inputs(self, db):
        assert table(db) == reference_table(db)

    @settings(max_examples=30, deadline=None)
    @given(acyclic_db().flatmap(profiled), st.booleans())
    def test_with_configured_cap(self, db, sweep):
        cfg = EngineConfig(max_k=6, gamma_c_sweep=sweep)
        assert table(db, cfg) == reference_table(db, cfg)

    @pytest.mark.parametrize("db", [KNOTS, FAMILIES], ids=["knots", "families"])
    def test_bundled(self, db):
        assert table(db) == reference_table(db)

    def test_chain(self):
        db = chain(KNOTS.get("3_1"), 240)
        assert table(db) == reference_table(db)


class TestKey:
    @pytest.mark.parametrize("field, value", [
        ("signature", 0),
        ("s_invariants", {0: 2, 2: 2}),
        ("tau", 0),
        ("vs_spec", VsSpec("explicit", (1, 0))),
        ("alexander", (1, -1, 1)),
        ("gamma", {1: Fraction(3, 5)}),
        ("friends", (FriendshipRecord(1, "K_G", 2),)),
    ])
    def test_one_search_field_apart_do_not_share(self, searches, field, value):
        a = TREFOIL._replace(name="a")
        b = a._replace(name="b", **{field: value})
        assert getattr(b, field) != getattr(a, field)
        db = db_of(a, b)
        assert table(db) == reference_table(db)
        assert searches == ["a", "b", "a", "b"]  # the table's two, then the reference's

    def test_upper_only_fields_apart_share(self, searches):
        db = db_of(
            TREFOIL._replace(name="a", s_invariants={2: 2, 0: 2}),
            TREFOIL._replace(name="b", s_invariants={0: 2, 2: 2}, clasp_plus=None,
                    slicing_number=1),
            TREFOIL._replace(name="c", s_invariants={0: 2, 2: 2}, clasp_plus=None,
                    upper_witnesses=(UpperWitness(4, "a construction"),)),
            TREFOIL._replace(name="d", s_invariants={0: 2, 2: 2}, clasp_plus=None,
                    concordant_to="a"),
            KnotRecord("u", 0, upper_witnesses=(UpperWitness(4, "u"),)),
            TREFOIL._replace(name="e", s_invariants={0: 2, 2: 2}, clasp_plus=None,
                    connected_sum_of=("u",)),
        )
        rows = table(db)
        assert searches == ["a", "u"]
        assert rows == reference_table(db)

    def test_other_upper_does_not_share(self, searches):
        db = db_of(TREFOIL, TREFOIL._replace(name="b", clasp_plus=2))
        assert [r.display for r in table(db)] == ["4", "[4,8]"]
        assert searches == ["3_1", "b"]

    def test_failed_report_names_each_record(self, searches):
        # Capped at upper bound 2, the shared search certifies 3: it succeeds, each report fails.
        low = (UpperWitness(2, "too low"),)
        db = db_of(TREFOIL._replace(name="a", clasp_plus=None, upper_witnesses=low),
                   TREFOIL._replace(name="b", clasp_plus=None, upper_witnesses=low))
        rows = table(db)
        assert searches == ["a"]
        assert [r.error.split(":")[0] for r in rows] == ["a", "b"]
        assert all("exceeds upper bound 2" in r.error for r in rows)
        assert rows == reference_table(db)

    def test_failed_search_names_each_record(self, searches, monkeypatch):
        import slicedeg.staircase as sc

        monkeypatch.setattr(sc, "torsion_sequence", lambda coeffs: sc.VsSequence((9,)))
        lspace = TREFOIL._replace(vs_spec=VsSpec("lspace"), alexander=T34_ALEXANDER)
        db = db_of(lspace._replace(name="a"), lspace._replace(name="b"))
        rows = table(db)
        assert searches == ["a", "b"]  # a failed search is not stored
        assert [r.error.split(":")[0] for r in rows] == ["a", "b"]
        assert all("stair formula" in r.error for r in rows)
        assert rows == reference_table(db)


class TestSearchCount:
    def test_chain_searches_once(self, searches):
        db = chain(KNOTS.get("3_1"), 240)
        rows = table(db)
        assert len(rows) == 241 and all(r.display == "4" for r in rows)
        assert searches == ["3_1"]

    def test_one_search_call_per_distinct_key(self, monkeypatch):
        calls = []
        real = engine._search

        def counting(record, upper, cfg, searches):
            calls.append(projection(record, upper))
            return real(record, upper, cfg, searches)

        monkeypatch.setattr(engine, "_search", counting)
        trefoil = KNOTS.get("3_1")
        double = KnotRecord("", -4, s_invariants={0: 4}, tau=2, vs_spec=VsSpec("thin"))
        sums = [double._replace(name=name, connected_sum_of=summands) for name, summands in (
            ("s1", ("3_1", "3_1")), ("s2", ("3_1-link7", "3_1")), ("s3", ("3_1", "3_1-link50")),
            ("s4", ("3_1", "s1")),
        )]
        db = db_of(*chain(trefoil, 50), *sums, sums[0]._replace(name="s5", tau=1))
        rows = table(db)
        assert rows == reference_table(db)
        assert [r.display for r in rows[-5:]] == ["8", "8", "8", "[8,12]", "8"]
        assert len(calls) == len(set(calls)) == 4
        assert set(calls) == {projection(r, row.upper) for r, row in zip(db, rows)}

    def test_bundled_once_per_distinct_key(self, searches):
        db = load_knot_db(bundled_database_path("knots"))  # no searches kept on it yet
        keys = {projection(r, upper_bound(r, db)[0]) for r in db}
        table(db)
        assert len(searches) == len(keys) < len(db)

OBSTRUCTION_SETS = [ALL_OBSTRUCTIONS, frozenset({"s", "gamma"}), frozenset({"vs"})]


def payload(query):
    """The JSON certificate ``query()`` returns, or the data fault it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CyclicRelationWarning)
            return json.dumps(report_to_jsonable(query()), indent=2)
    except (ValueError, OracleDisagreement) as exc:
        return type(exc).__name__, str(exc)


def scribble(value):
    """Empty every list and dict inside ``value``, depth first."""
    if isinstance(value, (list, dict)):
        for v in list(value.values() if isinstance(value, dict) else value):
            scribble(v)
        value.clear()


class TestDatabaseMemo:
    """``bound_report`` and ``report_table`` keep each search on the database."""

    def test_repeat_runs_no_search(self, searches):
        db = db_of(TREFOIL)
        first = bound_report(TREFOIL, db)
        second = bound_report(TREFOIL, db)
        assert searches == ["3_1"]
        assert second == first and second.certificates is first.certificates

    def test_after_table_runs_no_search(self, searches):
        db = db_of(TREFOIL, TREFOIL._replace(name="b", clasp_plus=2))
        rows = table(db)
        assert searches == ["3_1", "b"]
        assert [bound_report(r, db).display for r in db] == [r.display for r in rows]
        assert searches == ["3_1", "b"]

    def test_same_inputs_share_across_records(self, searches):
        db = db_of(TREFOIL, TREFOIL._replace(name="b"))
        bound_report(TREFOIL, db)
        assert bound_report(db.get("b"), db).knot == "b"
        assert searches == ["3_1"]

    def test_other_cfg_or_upper_searches_again(self, searches):
        db = db_of(TREFOIL, TREFOIL._replace(name="b", clasp_plus=2))
        bound_report(TREFOIL, db)
        bound_report(TREFOIL, db, EngineConfig(gamma_c_sweep=True))
        bound_report(TREFOIL, db, EngineConfig(max_k=6))
        bound_report(db.get("b"), db)  # same search fields, upper bound 8
        bound_report(TREFOIL, db, EngineConfig(gamma_c_sweep=True))
        assert searches == ["3_1", "3_1", "3_1", "b"]

    def test_parallelism_does_not_split(self, searches):
        db = db_of(TREFOIL)
        reports = [bound_report(TREFOIL, db, EngineConfig(parallelism=p)) for p in (3, 1, 2)]
        assert searches == ["3_1"]
        assert all(r.certificates is reports[0].certificates for r in reports)

    def test_outside_or_shadowing_records_share_by_inputs(self, searches):
        db = db_of(TREFOIL)
        bound_report(TREFOIL, db)
        outside = TREFOIL._replace(name="z")
        shadow = TREFOIL._replace()
        assert shadow == TREFOIL and shadow is not TREFOIL
        for _ in range(2):
            assert bound_report(outside, db).knot == "z"
            bound_report(shadow, db)
        assert searches == ["3_1"]
        bound_report(TREFOIL._replace(clasp_plus=2), db)  # shadowing, upper bound 8
        bound_report(TREFOIL._replace(name="z", tau=0), db)  # outside, other search fields
        assert searches == ["3_1", "3_1", "z"]

    def test_no_db_searches_every_call(self, searches):
        for _ in range(2):
            bound_report(TREFOIL)
        assert searches == ["3_1", "3_1"]

    def test_keeps_the_latest_1024(self, monkeypatch):
        calls = []

        def fake(record, cfg):
            calls.append(cfg.max_k)
            return engine.LowerBoundSearch(0, False, None, ())

        monkeypatch.setattr(engine, "lower_bound", fake)
        memo = engine._searches(db_of(TREFOIL))
        for upper in range(1025):
            engine._search(TREFOIL, upper, EngineConfig(), memo)
        engine._search(TREFOIL, 1, EngineConfig(), memo)  # hit: now the latest
        engine._search(TREFOIL, 1025, EngineConfig(), memo)  # pushes out upper 2
        assert len(memo) == 1024 and [key[1] for key in list(memo)[-2:]] == [1, 1025]
        engine._search(TREFOIL, 1, EngineConfig(), memo)
        engine._search(TREFOIL, 2, EngineConfig(), memo)
        assert calls == [*range(1026), 2]

    def test_failed_search_fails_every_call(self, searches, monkeypatch):
        import slicedeg.staircase as sc

        monkeypatch.setattr(sc, "torsion_sequence", lambda coeffs: sc.VsSequence((9,)))
        lspace = TREFOIL._replace(name="a", vs_spec=VsSpec("lspace"), alexander=T34_ALEXANDER)
        db = db_of(lspace)
        for _ in range(2):
            with pytest.raises(OracleDisagreement, match="stair formula"):
                bound_report(lspace, db)
        assert table(db)[0].display == "error"
        assert searches == ["a", "a", "a"]

    def test_payloads_are_fresh(self):
        db = load_knot_db(bundled_database_path("knots"))
        for name in ("7_4", "9_42", "8_19"):
            record = db.get(name)
            first = report_to_jsonable(bound_report(record, db))
            want = copy.deepcopy(first)
            assert any(cert.get("classes") or cert.get("witness") for cert in want["certificates"])
            scribble(first)
            assert report_to_jsonable(bound_report(record, db)) == want

    def test_witnesses_are_read_only(self):
        dbs = [load_knot_db(bundled_database_path(name)) for name in ("knots", "families")]
        reports = [bound_report(record, db) for db in dbs for record in db]
        witnesses = [cert.witness for report in reports for cert in report.certificates
                     if cert.witness is not None]
        witnesses += [c.verdict.witness for report in reports for cert in report.certificates
                      for c in cert.classes]
        assert {w["rule"] for w in witnesses} >= {"friend", "gamma", "null_class"}
        want = [report_to_jsonable(report) for report in reports]
        for witness in witnesses:
            with pytest.raises(TypeError):
                witness["rule"] = "scribbled"
        assert [report_to_jsonable(bound_report(r, db)) for db in dbs for r in db] == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_memoised_payloads_match_unmemoised(self, data):
        db = data.draw(st.one_of(any_db(), any_db().flatmap(lambda db: profiled(list(db)))))
        cfgs = st.builds(EngineConfig, obstructions=st.sampled_from(OBSTRUCTION_SETS),
                         gamma_c_sweep=st.booleans(), parallelism=st.integers(1, 2))
        if data.draw(st.booleans()):
            table(db, data.draw(cfgs))
        for record, cfg in data.draw(st.lists(st.tuples(st.sampled_from(list(db)), cfgs),
                                              min_size=1, max_size=12)):
            want = payload(lambda: reference_report(record, db, cfg))
            assert payload(lambda: bound_report(record, db, cfg)) == want


class TestCliTable:
    @pytest.mark.parametrize("name", ["knots", "families"])
    def test_json_matches_reference_intervals(self, capsys, name):
        path = str(bundled_database_path(name))
        assert main(["table", "--db", path, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        want = json.loads(REFERENCE.read_text(encoding="utf-8"))["intervals"][name]
        assert {row["name"]: row["display"] for row in json.loads(out)} == want

    @pytest.mark.parametrize("name", ["knots", "families"])
    def test_md_one_row_per_record(self, capsys, name):
        path = bundled_database_path(name)
        assert main(["table", "--db", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert lines[:2] == ["| knot | sd+ |", "| --- | --- |"]
        names = [line.split(" | ")[0].removeprefix("| ") for line in lines[2:]]
        assert names == list(load_knot_db(path).records)
