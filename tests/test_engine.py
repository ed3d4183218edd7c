"""Engine tests: lower/upper bounds, beta table, report assembly."""

import itertools
import json
import time
from fractions import Fraction

import pytest

from slicedeg.engine import (
    ClassBattery,
    CyclicRelationWarning,
    EngineConfig,
    beta_table,
    bound_report,
    display_interval,
    lower_bound,
    report_table,
    report_to_jsonable,
    upper_bound,
    _gamma_c_vectors,
)
from slicedeg.knots import (
    FriendshipRecord,
    KnotDatabase,
    KnotRecord,
    UpperWitness,
    VsSpec,
)
from slicedeg.lattice import HomologyClass
from slicedeg.obstructions import stau_bound

TREFOIL = KnotRecord(
    "3_1", -2, s_invariants={0: 2}, tau=1, vs_spec=VsSpec("thin"), clasp_plus=1
)
UNKNOT = KnotRecord("0_1", 0, s_invariants={0: 0}, tau=0, vs_spec=VsSpec("thin"), slicing_number=0)
SEVEN_FOUR = KnotRecord(
    "7_4",
    -2,
    s_invariants={0: 2},
    tau=1,
    vs_spec=VsSpec("thin"),
    clasp_plus=2,
    gamma={1: Fraction(3, 5)},
)


def db_of(*records):
    return KnotDatabase({r.name: r for r in records})


class TestLowerBound:
    def test_trefoil(self):
        search = lower_bound(TREFOIL)
        assert search.level == 4
        assert search.surviving_class.a == (2,)
        assert not search.exhausted
        assert [c.level for c in search.certificates] == [0, 1, 2, 3]

    def test_7_4_gamma_pushes_to_five(self):
        search = lower_bound(SEVEN_FOUR, EngineConfig(max_k=8))
        assert search.level == 5
        assert search.surviving_class.a == (2, 1)
        level4 = next(c for c in search.certificates if c.level == 4)
        rules = {cert.cls.a: cert.rule for cert in level4.classes}
        assert rules[(2,)] == "gamma"

    def test_unknot(self):
        search = lower_bound(UNKNOT)
        assert search.level == 0
        assert search.surviving_class.a == ()

    def test_beta_only_battery(self):
        cfg = EngineConfig(max_k=20, obstructions=frozenset({"s"}))
        rec4 = KnotRecord("b4", 0, s_invariants={0: 4})
        rec8 = KnotRecord("b8", 0, s_invariants={0: 8})
        assert lower_bound(rec4, cfg).level == 8
        assert lower_bound(rec8, cfg).level == 13
        assert lower_bound(rec4, cfg).level > stau_bound(4) == 7
        assert lower_bound(rec8, cfg).level > stau_bound(8) == 12

    def test_best_characteristic_wins(self):
        rec = KnotRecord("seed", 0, s_invariants={0: -2, 2: 2})
        assert lower_bound(rec, EngineConfig(max_k=6)).level == 4

    def test_nu_plus_route(self):
        rec = KnotRecord("nu", 0, s_invariants={0: -2}, vs_spec=VsSpec("explicit", (1,)))
        assert lower_bound(rec, EngineConfig(max_k=6)).level == 4

    def test_exhaustion(self):
        search = lower_bound(TREFOIL, EngineConfig(max_k=2))
        assert search.level == 3 and search.exhausted
        assert search.surviving_class is None

    def test_friend_covers_all_lower_levels(self):
        rec = KnotRecord("K_B(2)", 0, friends=(FriendshipRecord(2, "K_G", 2),))
        search = lower_bound(rec, EngineConfig(max_k=5))
        assert search.level == 3
        assert [c.kind for c in search.certificates] == ["friend"] * 3

    def test_friend_disabled(self):
        rec = KnotRecord("K_B(2)", 0, friends=(FriendshipRecord(2, "K_G", 2),))
        cfg = EngineConfig(max_k=5, obstructions=frozenset({"s", "vs", "gamma"}))
        assert lower_bound(rec, cfg).level == 0

    def test_thin_records_reach_4tau(self):
        for tau in range(1, 5):
            rec = KnotRecord(
                f"thin{tau}",
                -2 * tau,
                s_invariants={0: 2 * tau},
                tau=tau,
                vs_spec=VsSpec("thin"),
            )
            assert lower_bound(rec, EngineConfig(max_k=4 * tau)).level == 4 * tau

    def test_monotone_in_obstruction_set(self):
        subsets = [
            frozenset({"s"}),
            frozenset({"s", "gamma"}),
            frozenset({"s", "gamma", "vs"}),
            frozenset({"s", "gamma", "vs", "friend"}),
        ]
        for rec in (TREFOIL, SEVEN_FOUR):
            levels = [
                lower_bound(rec, EngineConfig(max_k=8, obstructions=sub)).level
                for sub in subsets
            ]
            assert levels == sorted(levels)

    def test_adding_gamma_data_never_lowers(self):
        without = KnotRecord("x", -2, s_invariants={0: 2}, tau=1, vs_spec=VsSpec("thin"))
        assert lower_bound(without, EngineConfig(max_k=8)).level <= lower_bound(
            SEVEN_FOUR, EngineConfig(max_k=8)
        ).level

    def test_gamma_c_sweep_can_sharpen(self):
        # with c = (1), kappa_min of class (2) drops to 0 and the index hits 0,
        # so a stored Gamma(0) > 0 obstructs; with c = 0 the index is 1 (unknown)
        rec = KnotRecord("sweep", -2, s_invariants={0: 2}, gamma={0: Fraction(1, 2)})
        plain = lower_bound(rec, EngineConfig(max_k=8))
        swept = lower_bound(rec, EngineConfig(max_k=8, gamma_c_sweep=True))
        assert plain.level == 4 and plain.surviving_class.a == (2,)
        assert swept.level == 8 and swept.surviving_class.a == (2, 2)
        killed = {c.cls.a: c.rule for cert in swept.certificates for c in cert.classes}
        assert killed.get((2,)) == "gamma"


class TestLazyLevels:
    @pytest.mark.parametrize("level, survivor", [(301, (17, 3, 1, 1, 1)), (1100, (33, 3, 1, 1))])
    def test_friend_skip_checks_only_the_first_class(self, level, survivor):
        # the friend covers every lower level; this level has far too many classes to list
        record = KnotRecord(
            "skip",
            -2,
            s_invariants={0: 2},
            tau=1,
            vs_spec=VsSpec("thin"),
            friends=(FriendshipRecord(level - 1, "f", level + level % 2),),
            upper_witnesses=(UpperWitness(level, "w"),),
        )
        start = time.perf_counter()
        search = lower_bound(record)
        assert time.perf_counter() - start < 1.0
        assert (search.level, search.surviving_class.a) == (level, survivor)
        assert [c.kind for c in search.certificates] == ["friend"] * level


def least_in_orbit(a, c):
    """The lexicographically least c' reached by permuting c among equal entries of a."""
    n = len(a)
    return min(
        tuple(c[p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
        if all(a[p[i]] == a[i] for i in range(n))
    )


class TestGammaCVectors:
    def test_without_sweep_only_zero(self):
        assert _gamma_c_vectors((3, 1, 1), False) == [(0, 0, 0)]

    @pytest.mark.parametrize("a", [(1,), (2, 1), (2, 2), (3, 2, 2, 1, 1, 1), (4, 3, 3, 2, 1, 1)])
    def test_one_least_member_per_orbit_in_lex_order(self, a):
        # odd entries keep c_i = 0: a_i - 2*c_i is odd either way, so c_i cannot matter
        orbits = {
            least_in_orbit(a, c)
            for c in itertools.product((0, 1), repeat=len(a))
            if not any(ci and ai % 2 for ai, ci in zip(a, c))
        }
        assert _gamma_c_vectors(a, True) == sorted(orbits)

    def test_sixteen_ones(self):
        assert _gamma_c_vectors((1,) * 16, True) == [(0,) * 16]
        vectors = _gamma_c_vectors((2,) * 16, True)
        assert len(vectors) == 17
        assert all(x < y for x, y in zip(vectors, vectors[1:]))
        # with all entries equal, a vector is least in its orbit iff it is non-decreasing
        assert all(list(c) == sorted(c) for c in vectors)

    def test_battery_sweeps_a_long_class(self):
        # with j ones in c, 16*kappa = 4*(24 - j) and k = 96, so the index is 1 - j:
        # only j <= 1 reaches a non-negative index; Gamma(0) is unknown and Gamma(1) = 1 <= 12
        record = KnotRecord("g", -2, gamma={1: Fraction(1)})
        battery = ClassBattery(record, EngineConfig(gamma_c_sweep=True))
        verdicts = list(battery.verdicts(HomologyClass((2,) * 24)))
        assert [rv.rule for rv in verdicts] == ["gamma"] * 25
        assert not any(rv.verdict.obstructed for rv in verdicts)


class TestUpperBound:
    def test_clasp(self):
        assert upper_bound(TREFOIL) == (4, "4*clasp_plus = 4")

    def test_witness(self):
        rec = KnotRecord(
            "8_19", -6, upper_witnesses=(UpperWitness(9, "annulus trace construction"),)
        )
        value, desc = upper_bound(rec)
        assert value == 9 and "annulus trace" in desc

    def test_no_source(self):
        assert upper_bound(KnotRecord("bare", 0)) == (None, None)

    def test_min_across_sources(self):
        rec = KnotRecord(
            "multi", 0, clasp_plus=3, slicing_number=2, upper_witnesses=(UpperWitness(5, "x"),)
        )
        value, desc = upper_bound(rec)
        assert value == 5 and desc.startswith("witness")

    def test_concordance_transfer(self):
        partner = KnotRecord("partner", -2, clasp_plus=1)
        rec = KnotRecord("follower", -2, concordant_to="partner")
        value, desc = upper_bound(rec, db_of(partner))
        assert value == 4 and "concordant to partner" in desc

    def test_connected_sum_transfer(self):
        rec = KnotRecord("granny", -4, connected_sum_of=("3_1", "3_1"))
        value, desc = upper_bound(rec, db_of(TREFOIL))
        assert value == 8 and "connected sum" in desc

    def test_transfer_chains(self):
        a = KnotRecord("a", 0, concordant_to="b")
        b = KnotRecord("b", 0, concordant_to="c")
        c = KnotRecord("c", 0, slicing_number=1)
        assert upper_bound(a, db_of(a, b, c))[0] == 4

    def test_cycle_warns_but_converges(self):
        a = KnotRecord("a", 0, concordant_to="b", clasp_plus=2)
        b = KnotRecord("b", 0, concordant_to="a")
        with pytest.warns(CyclicRelationWarning):
            value, _ = upper_bound(b, db_of(a, b))
        assert value == 8


class TestBetaTable:
    def test_expected_rows(self):
        rows = beta_table([2, 4, 6, 8, 10, 12, 14, 16])
        got = [(r.beta, r.min_k, r.witness.a) for r in rows]
        assert got == [
            (2, 4, (2,)),
            (4, 8, (2, 2)),
            (6, 9, (3,)),
            (8, 13, (3, 2)),
            (10, 16, (4,)),
            (12, 16, (4,)),
            (14, 20, (4, 2)),
            (16, 24, (4, 2, 2)),
        ]

    def test_non_positive_beta(self):
        rows = beta_table([0, -2])
        assert [(r.beta, r.min_k, r.witness.a) for r in rows] == [(0, 0, ()), (-2, 0, ())]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            beta_table([])


class TestBoundReport:
    def test_trefoil_report(self):
        report = bound_report(TREFOIL)
        assert (report.lower, report.upper) == (4, 4)
        assert report.display == "4"

    def test_7_4_interval(self):
        report = bound_report(SEVEN_FOUR)
        assert (report.lower, report.upper) == (5, 8)
        assert report.display == "[5,8]"

    def test_unknown_upper_display(self):
        assert display_interval(3, None) == "[3,?]"

    def test_inconsistent_data_raises(self):
        bad = KnotRecord("bad", -2, s_invariants={0: 2}, upper_witnesses=(UpperWitness(1, "wrong"),))
        with pytest.raises(ValueError, match="exceeds upper bound"):
            bound_report(bad)

    def test_deterministic_across_parallelism(self):
        for rec in (TREFOIL, SEVEN_FOUR):
            payloads = [
                json.dumps(
                    report_to_jsonable(bound_report(rec, cfg=EngineConfig(parallelism=p))),
                    sort_keys=True,
                )
                for p in (1, 4)
            ]
            assert payloads[0] == payloads[1]

    def test_json_roundtrips(self):
        payload = report_to_jsonable(bound_report(SEVEN_FOUR))
        again = json.loads(json.dumps(payload))
        assert again["lower"] == 5 and again["upper"] == 8
        assert again["surviving_class"] == [2, 1]
        level4 = next(c for c in again["certificates"] if c["level"] == 4)
        gamma_cert = next(c for c in level4["classes"] if c["rule"] == "gamma")
        assert gamma_cert["witness"]["gamma"] == "3/5"


class TestReportTable:
    def test_rows(self):
        db = db_of(UNKNOT, TREFOIL, SEVEN_FOUR)
        rows = report_table(db)
        assert [(r.name, r.display) for r in rows] == [
            ("0_1", "0"),
            ("3_1", "4"),
            ("7_4", "[5,8]"),
        ]

    def test_inline_error(self):
        bad = KnotRecord("bad", -2, s_invariants={0: 2}, upper_witnesses=(UpperWitness(1, "no"),))
        rows = report_table(db_of(TREFOIL, bad))
        by_name = {r.name: r for r in rows}
        assert by_name["3_1"].display == "4"
        assert by_name["bad"].error is not None

    def test_programming_error_propagates(self, monkeypatch):
        from slicedeg import engine

        def broken(record, cfg=None):
            raise TypeError("bug in the search")

        monkeypatch.setattr(engine, "lower_bound", broken)
        with pytest.raises(TypeError, match="bug in the search"):
            report_table(db_of(TREFOIL))

    def test_soundness_lower_le_upper(self):
        db = db_of(UNKNOT, TREFOIL, SEVEN_FOUR)
        for row in report_table(db):
            assert row.error is None
            if row.upper is not None:
                assert row.lower <= row.upper


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_k=-1)
        with pytest.raises(ValueError):
            EngineConfig(obstructions=frozenset({"nope"}))
        with pytest.raises(ValueError):
            EngineConfig(parallelism=0)


class TestBundledDatabases:
    def test_beta_only_bound_dominates_sqrt_bound(self):
        from slicedeg.knots import bundled_database_path, load_knot_db

        db = load_knot_db(bundled_database_path("knots"))
        cfg = EngineConfig(max_k=24, obstructions=frozenset({"s"}))
        for record in db:
            positive = [v for v in record.s_invariants.values() if v > 0]
            if not positive:
                continue
            assert lower_bound(record, cfg).level >= stau_bound(max(positive)), record.name

    def test_all_bundled_records_validate_clean(self):
        from slicedeg.knots import bundled_database_path, load_knot_db, validate_record

        for name in ("knots", "families"):
            for record in load_knot_db(bundled_database_path(name)):
                errors = [d for d in validate_record(record) if d.severity == "error"]
                assert errors == [], (record.name, errors)
