"""Upper-bound transfer along concordance and connected-sum references.

The engine closes a database's upper bounds once, in one iterative walk,
and keeps the closure on the database; a record outside it, or any record
of a database with a reference cycle, is walked alone.  These tests
compare both with a whole-database sweep in file order (the plain fixed
point, kept here as the reference), check that sharing the closure changes
no answer, and run it on reference chains deeper than the interpreter's
recursion limit.
"""

import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedeg import engine
from slicedeg.cli import main
from slicedeg.engine import (
    CyclicRelationWarning,
    _direct_upper,
    bound_report,
    report_table,
    upper_bound,
)
from slicedeg.knots import KnotDatabase, KnotRecord, UpperWitness, VsSpec, serialize_knot_db

TREFOIL = KnotRecord(
    "3_1", -2, s_invariants={0: 2}, tau=1, vs_spec=VsSpec("thin"), clasp_plus=1
)


def reference_uppers(records):
    """Whole-database fixed point: sweep every record in file order until stable."""
    best = {name: _direct_upper(r) for name, r in records.items()}
    changed = True
    while changed:
        changed = False
        for name, record in records.items():
            current = best[name][0]
            if record.concordant_to and record.concordant_to in best:
                via, _ = best[record.concordant_to]
                if via is not None and (current is None or via < current):
                    best[name] = (via, f"concordant to {record.concordant_to} (<= {via})")
                    current = via
                    changed = True
            if record.connected_sum_of:
                parts = [best.get(n, (None, None))[0] for n in record.connected_sum_of]
                if all(p is not None for p in parts):
                    total = sum(parts)
                    if current is None or total < current:
                        best[name] = (
                            total,
                            "connected sum "
                            + " + ".join(record.connected_sum_of)
                            + f" (<= {total})",
                        )
                        changed = True
    return best


def db_of(records):
    return KnotDatabase({r.name: r for r in records})


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CyclicRelationWarning)
        return fn(*args)


DANGLING = ("ghost", "phantom")


@st.composite
def record_st(draw, name, targets):
    """A signature-0 record (lower bound 0) with random constructions and references."""
    refs = st.sampled_from(targets)
    witnesses = draw(st.lists(st.integers(0, 12), max_size=2))
    return KnotRecord(
        name,
        0,
        clasp_plus=draw(st.none() | st.integers(0, 3)),
        upper_witnesses=tuple(UpperWitness(k, f"w{k}") for k in witnesses),
        concordant_to=draw(st.none() | refs),
        connected_sum_of=draw(st.none() | st.lists(refs, min_size=1, max_size=3).map(tuple)),
    )


@st.composite
def any_db(draw):
    """Up to 8 records referencing any name: cycles, self-references, dangling names."""
    names = [f"k{i}" for i in range(draw(st.integers(1, 8)))]
    targets = [f"k{i}" for i in range(8)] + list(DANGLING)
    records = [draw(record_st(name, targets)) for name in names]
    return db_of(draw(st.permutations(records)))


@st.composite
def acyclic_db(draw, prefix="k"):
    """Up to 8 records, each referencing only earlier records or dangling names."""
    records = []
    for i in range(draw(st.integers(1, 8))):
        earlier = [r.name for r in records] + list(DANGLING)
        records.append(draw(record_st(f"{prefix}{i}", earlier)))
    return records


class TestDeepChains:
    """A reversed concordance chain twice as deep as the recursion limit."""

    @staticmethod
    def chain():
        depth = 2 * sys.getrecursionlimit()
        links = [
            KnotRecord(f"link{i}", -2, concordant_to=f"link{i - 1}" if i > 1 else "3_1")
            for i in range(depth, 0, -1)
        ]
        return db_of(links + [TREFOIL]), links[0]

    def test_report_table(self):
        db, _ = self.chain()
        rows = report_table(db)
        assert len(rows) == len(db.records)
        assert all(row.error is None and row.upper == 4 for row in rows)

    def test_bound_report_deepest_link(self):
        db, deepest = self.chain()
        report = bound_report(deepest, db)
        assert report.upper == 4
        assert report.upper_witness == f"concordant to {deepest.concordant_to} (<= 4)"

    def test_cli_table(self, tmp_path, capsys):
        db, _ = self.chain()
        path = tmp_path / "chain.json"
        path.write_text(serialize_knot_db(db), encoding="utf-8")
        assert main(["table", "--db", str(path)]) == 0
        assert "error" not in capsys.readouterr().out


class TestAgainstWholeDatabaseSweep:
    @settings(max_examples=60, deadline=None)
    @given(any_db())
    def test_upper_values_match(self, db):
        want = reference_uppers(db.records)
        for record in db:
            assert quiet(upper_bound, record, db)[0] == want[record.name][0], record.name
        rows = quiet(report_table, db)
        assert all(row.error is None for row in rows)
        assert {row.name: row.upper for row in rows} == {n: v for n, (v, _) in want.items()}

    @settings(max_examples=60, deadline=None)
    @given(any_db(), record_st("query", [f"k{i}" for i in range(8)] + list(DANGLING)))
    def test_query_outside_db_matches(self, db, query):
        records = dict(db.records)
        records[query.name] = query
        assert quiet(upper_bound, query, db)[0] == reference_uppers(records)["query"][0]

    @settings(max_examples=60, deadline=None)
    @given(acyclic_db())
    def test_witnesses_match_when_dependencies_come_first(self, records):
        db = db_of(records)
        want = reference_uppers(db.records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CyclicRelationWarning)
            for record in db:
                assert upper_bound(record, db) == want[record.name]
            rows = report_table(db)
        assert {row.name: row.upper for row in rows} == {n: v for n, (v, _) in want.items()}
        for record in db:
            assert bound_report(record, db).upper_witness == want[record.name][1]


class TestOwnRecordAndCopy:
    """The db's own record reads the db's closure; an equal copy walks a merged mapping."""

    @staticmethod
    def upper_and_warnings(record, db):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            upper = upper_bound(record, db)
        return upper, [(w.category, str(w.message)) for w in caught]

    @settings(max_examples=60, deadline=None)
    @given(any_db())
    def test_same_value_witness_and_warning(self, db):
        for record in db:
            copy = record._replace()
            assert copy == record and copy is not record
            assert self.upper_and_warnings(copy, db) == self.upper_and_warnings(record, db)


class TestCycleWarning:
    @settings(max_examples=60, deadline=None)
    @given(acyclic_db("a"), st.booleans(), st.data())
    def test_only_cycles_the_record_depends_on(self, outside, via_sum, data):
        cycle = [
            KnotRecord("c0", 0, clasp_plus=1, concordant_to="c1"),
            KnotRecord("c1", 0, connected_sum_of=("c0",)) if via_sum
            else KnotRecord("c1", 0, concordant_to="c0"),
        ]
        records = list(outside)
        for rec in cycle:
            records.insert(data.draw(st.integers(0, len(records))), rec)
        db = db_of(records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CyclicRelationWarning)
            for record in outside:
                bound_report(record, db)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report_table(db)
            bound_report(cycle[0], db)
        assert sum(issubclass(w.category, CyclicRelationWarning) for w in caught) == 2

    def test_cycle_needs_a_second_sweep(self):
        # Walking from a lists b, d, a; b sees a's bound only on the second sweep.
        db = db_of([
            KnotRecord("a", 0, concordant_to="b", connected_sum_of=("d",)),
            KnotRecord("b", 0, concordant_to="a"),
            KnotRecord("d", 0, clasp_plus=1),
        ])
        rows = quiet(report_table, db)
        assert [(row.name, row.upper) for row in rows] == [("a", 4), ("b", 4), ("d", 4)]
        assert quiet(upper_bound, db.get("b"), db) == (4, "concordant to a (<= 4)")

    def test_warning_names_the_caller(self):
        a = KnotRecord("a", 0, concordant_to="b")
        db = db_of([a, KnotRecord("b", 0, concordant_to="a")])
        calls = (lambda: upper_bound(a, db), lambda: bound_report(a, db), lambda: report_table(db))
        for call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == [CyclicRelationWarning]
            assert caught[0].filename == __file__


class TestSharedClosure:
    """One closure per database serves every later query on it."""

    @staticmethod
    def outcome(call, name, db):
        """A call's answer for ``name`` and the reference-cycle warnings it issued."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if call == "upper_bound":
                answer = upper_bound(db.get(name), db)
            elif call == "bound_report":
                report = bound_report(db.get(name), db)
                answer = (report.upper, report.upper_witness)
            else:
                answer = [(row.name, row.upper, row.display) for row in report_table(db)]
        return answer, [(w.category, str(w.message), w.filename) for w in caught]

    @settings(max_examples=60, deadline=None)
    @given(any_db(), st.data())
    def test_any_call_order_matches_a_fresh_database(self, db, data):
        calls = st.sampled_from(["upper_bound", "bound_report", "report_table"])
        for call, name in data.draw(st.lists(st.tuples(calls, st.sampled_from(list(db.records))))):
            fresh = db_of(db)
            assert self.outcome(call, name, db) == self.outcome(call, name, fresh), (call, name)

    def test_chain_closes_once(self, monkeypatch):
        links = [
            KnotRecord(f"link{i}", -2, concordant_to=f"link{i - 1}" if i > 1 else "3_1")
            for i in range(240, 0, -1)
        ]
        db = db_of(links + [TREFOIL])
        calls = []
        fixpoint = engine._upper_fixpoint

        def counting(records, roots):
            calls.append(roots)
            return fixpoint(records, roots)

        monkeypatch.setattr(engine, "_upper_fixpoint", counting)
        want = reference_uppers(db.records)
        for record in db:
            report = bound_report(record, db)
            assert (report.upper, report.upper_witness) == want[record.name]
        assert len(db) == 241 and len(calls) == 1

    def test_records_are_read_only(self):
        records = {TREFOIL.name: TREFOIL}
        db = KnotDatabase(records)
        with pytest.raises(TypeError):
            db.records["9_42"] = TREFOIL  # type: ignore[index]
        records["9_42"] = TREFOIL
        assert list(db.records) == ["3_1"]
