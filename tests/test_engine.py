"""Engine tests: lower/upper bounds, beta table, report assembly."""

import gc
import itertools
import json
import random
import sys
import threading
import time
import weakref
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedeg import cli, engine, obstructions
from slicedeg.engine import (
    ALL_OBSTRUCTIONS,
    DEFAULT_MAX_K,
    BetaTableRow,
    ClassBattery,
    ClassCertificate,
    CyclicRelationWarning,
    EngineConfig,
    LevelCertificate,
    LowerBoundSearch,
    beta_table,
    bound_report,
    display_interval,
    lower_bound,
    report_table,
    report_to_jsonable,
    upper_bound,
    _direct_upper,
    _friend_coverage,
    _jsonable,
)
from slicedeg.knots import (
    FriendshipRecord,
    KnotDatabase,
    KnotRecord,
    UpperWitness,
    VsSpec,
    bundled_database_path,
    format_rational,
    load_knot_db,
)
from slicedeg.lattice import HomologyClass, iter_classes, kappa16
from slicedeg.obstructions import gamma_general, gamma_walk, null_class_check, stau_bound
from test_obstructions import unit_step_sequences

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

    def test_friend_levels_are_listed_on_read(self, monkeypatch):
        # a friendship at k = 10^6 covers levels 0..10^6: a search that listed them
        # took seconds, and one ten times deeper ran out of memory
        k = 10**6
        record = KnotRecord("far", 0, friends=(FriendshipRecord(k, "f", k),),
                            upper_witnesses=(UpperWitness(k + 1, "w"),))
        built = []
        real = engine.LevelCertificate
        monkeypatch.setattr(engine, "LevelCertificate",
                            lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
        search = lower_bound(record)
        assert (search.level, search.surviving_class.a) == (k + 1, (1000, 1))
        assert built == []


# A thin record with slicing number 17: its search walks levels 0..68.
DEEP = KnotRecord(
    "d", -34, s_invariants={0: 34}, tau=17, vs_spec=VsSpec("thin"), slicing_number=17
)


def reference_lower_bound(record: KnotRecord, cfg: EngineConfig | None = None) -> LowerBoundSearch:
    """The level walk without the adjunction floor or the blow-up descent.

    Each level is streamed, and each class is certified by its first
    obstructed ``verdicts()`` entry.
    """
    cfg = cfg or EngineConfig()
    battery = ClassBattery(record, cfg)
    cap = cfg.max_k
    if cap is None:
        direct_upper, _ = _direct_upper(record)
        cap = direct_upper if direct_upper is not None else DEFAULT_MAX_K
    friend_cap, friend_witness = _friend_coverage(record, cfg)
    certificates = []
    for k in range(0, cap + 1):
        if k < friend_cap:
            certificates.append(LevelCertificate(k, "friend", witness=friend_witness))
            continue
        if k == 0:
            vd = null_class_check(record, battery.v)
            if vd.obstructed:
                certificates.append(LevelCertificate(0, "null_class", witness=vd.witness))
                continue
            return LowerBoundSearch(0, False, HomologyClass(()), tuple(certificates))
        kills = []
        for cls in iter_classes(k):
            for rv in battery.verdicts(cls):
                if rv.verdict.obstructed:
                    kills.append(ClassCertificate(cls, rv.rule, rv.verdict))
                    break
            else:
                return LowerBoundSearch(k, False, cls, tuple(certificates))
        certificates.append(LevelCertificate(k, "classes", classes=tuple(kills)))
    return LowerBoundSearch(cap + 1, True, None, tuple(certificates))


BUNDLED = [
    (record, db)
    for db in (load_knot_db(bundled_database_path(name)) for name in ("knots", "families"))
    for record in db
]
# Every set of obstructions, the empty one included.
OBSTRUCTION_SUBSETS = [
    frozenset(rules)
    for size in range(5)
    for rules in itertools.combinations(("s", "vs", "gamma", "friend"), size)
]


def first_obstructed(battery: ClassBattery, cls: HomologyClass):
    """The rule and verdict of the first obstructed ``verdicts()`` entry, or None."""
    rv = next((rv for rv in battery.verdicts(cls) if rv.verdict.obstructed), None)
    return None if rv is None else (rv.rule, rv.verdict)


class TestFirstKill:
    """A class's first kill, its first obstructed ``verdicts()`` entry, needs no earlier call."""

    def test_killing_energies_follow_the_level(self):
        # classes of levels 1..24 in shuffled order: a shared battery kills each as a fresh
        # one does, so no first kill depends on an earlier call
        record = KnotRecord("g", -2, gamma={0: Fraction(1, 3), 1: Fraction(3, 5), 3: Fraction(2)})
        cfg = EngineConfig(obstructions=frozenset({"gamma"}), gamma_c_sweep=True)
        shared = ClassBattery(record, cfg)
        classes = [cls for k in range(1, 25) for cls in iter_classes(k)]
        random.Random(18).shuffle(classes)
        kills = 0
        for cls in classes:
            kill = first_obstructed(shared, cls)
            assert kill == first_obstructed(ClassBattery(record, cfg), cls), cls
            kills += kill is not None
        assert kills > 0


# The default battery, the c-sweep, and one rule alone.
DECIDER_CONFIGS = [
    EngineConfig(),
    EngineConfig(gamma_c_sweep=True),
    EngineConfig(obstructions=frozenset({"vs"})),
    EngineConfig(obstructions=frozenset({"gamma"})),
]


class TestKills:
    """The walk's ``kills`` kills exactly the classes a ``verdicts()`` entry obstructs."""

    def test_every_bundled_record_and_class_up_to_norm_20(self):
        # a walk's battery decides and a listing's battery explains, as in a search
        classes = [cls for k in range(1, 21) for cls in iter_classes(k)]
        kills = 0
        for record, _ in BUNDLED:
            for cfg in DECIDER_CONFIGS:
                walk, listing = ClassBattery(record, cfg), ClassBattery(record, cfg)
                for cls in classes:
                    want = first_obstructed(listing, cls) is not None
                    assert bool(walk.kills(cls)) == want, (record.name, cfg.obstructions, cls)
                    kills += want
        assert 0 < kills < len(BUNDLED) * len(DECIDER_CONFIGS) * len(classes)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        record=st.builds(
            lambda sigma, s0, values, gamma: KnotRecord(
                "h", 2 * sigma, s_invariants={0: s0}, vs_spec=VsSpec("explicit", values),
                gamma=gamma,
            ),
            st.integers(-8, 2),
            st.integers(-4, 16),
            st.lists(st.integers(1, 60), max_size=6).map(lambda v: tuple(sorted(v, reverse=True))),
            st.dictionaries(st.integers(0, 60), st.fractions(0, 12, max_denominator=16),
                            max_size=40),
        ),
        k=st.integers(21, 40),
        cfg=st.sampled_from(DECIDER_CONFIGS),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_random_steep_sequences_and_gamma_maps(self, record, k, cfg, shuffle):
        walk, listing = ClassBattery(record, cfg), ClassBattery(record, cfg)
        classes = list(iter_classes(k))
        shuffle.shuffle(classes)
        for cls in classes:
            assert bool(walk.kills(cls)) == (first_obstructed(listing, cls) is not None), cls

    def test_a_survivor_the_walk_killed_fails_the_read(self, monkeypatch):
        # a forged decider kills the trefoil's survivor (2,) at level 4: the search
        # exhausts its cap, and the listing finds the class alive
        monkeypatch.setattr(ClassBattery, "kills", lambda self, cls: True)
        search = lower_bound(TREFOIL)
        assert (search.level, search.exhausted) == (5, True)
        with pytest.raises(RuntimeError, match=r"class \(2\) of level 4 survives"):
            search.certificates


class TestReferenceWalk:
    """``lower_bound`` certificates equal those of the streamed walk."""

    @pytest.mark.parametrize("sweep", [False, True])
    def test_bundled_databases(self, sweep):
        for record, db in BUNDLED:
            upper, _ = upper_bound(record, db)
            for rules in OBSTRUCTION_SUBSETS:
                cfg = EngineConfig(max_k=DEFAULT_MAX_K if upper is None else upper,
                                   obstructions=rules, gamma_c_sweep=sweep)
                assert lower_bound(record, cfg) == reference_lower_bound(record, cfg), (
                    record.name, rules)

    def test_deep_thin_record(self):
        search = lower_bound(DEEP)
        assert search == reference_lower_bound(DEEP)
        assert (search.level, len(search.certificates)) == (68, 68)


def walk_decisions(monkeypatch, record: KnotRecord, cfg: EngineConfig):
    """The search, and each class its walk decides with that class's ``kills`` value."""
    decided = {}
    real = ClassBattery.kills

    def kills(self, cls):
        decided[cls.a] = kill = real(self, cls)
        return kill

    monkeypatch.setattr(ClassBattery, "kills", kills)
    search = lower_bound(record, cfg)
    monkeypatch.undo()
    return search, decided


class TestBlowUpDescent:
    """The walk decides (a, 1) only when the instanton check alone killed a."""

    def test_7_4_decides_the_gamma_only_extension(self, monkeypatch):
        # level 3 dies below the floor (4), so level 4 skips (1,1,1,1); (2) dies by Gamma
        # alone, so level 5 decides (2,1), which survives
        for sweep in (False, True):
            search, decided = walk_decisions(monkeypatch, SEVEN_FOUR,
                                             EngineConfig(max_k=8, gamma_c_sweep=sweep))
            assert (search.level, search.surviving_class.a) == (5, (2, 1))
            assert decided == {(2,): "gamma", (2, 1): False}

    def test_bundled_records_skip_what_beta_and_vs_kill(self, monkeypatch):
        carried = skipped = by_vs = 0
        for record, db in BUNDLED:
            upper, _ = upper_bound(record, db)
            for cfg in DECIDER_CONFIGS:
                cfg = EngineConfig(DEFAULT_MAX_K if upper is None else upper, cfg.obstructions,
                                   cfg.gamma_c_sweep)
                search, decided = walk_decisions(monkeypatch, record, cfg)
                first = min((sum(x * x for x in a) for a in decided), default=None)
                beta_max = ClassBattery(record, cfg).beta_max
                for a, kill in decided.items():
                    k = sum(x * x for x in a)
                    if a[-1] == 1 and k > first:
                        assert decided.get(a[:-1]) == "gamma", (record.name, cfg, a)
                    if kill and k + 1 < search.level:  # the level above is walked whole
                        assert ((*a, 1) in decided) == (kill == "gamma"), (record.name, cfg, a)
                        carried += kill == "gamma"
                        skipped += kill is True
                        by_vs += kill is True and k - sum(a) >= beta_max
        assert carried and skipped and by_vs  # not vacuous

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        record=st.builds(
            lambda sigma, s0, values, gamma, friends: KnotRecord(
                "h", 2 * sigma, s_invariants={} if s0 is None else {0: s0},
                vs_spec=VsSpec("explicit", values), gamma=gamma, friends=friends,
            ),
            st.integers(-8, 2),
            st.none() | st.integers(-4, 16),
            st.lists(st.integers(1, 60), max_size=6).map(lambda v: tuple(sorted(v, reverse=True))),
            st.dictionaries(st.integers(0, 60), st.fractions(0, 12, max_denominator=16),
                            max_size=40),
            st.lists(st.builds(lambda k, s: FriendshipRecord(k, "f", s), st.integers(0, 30),
                               st.integers(0, 36)), max_size=2).map(tuple),
        ),
        cap=st.integers(0, 30),
        rules=st.sampled_from(OBSTRUCTION_SUBSETS),
        sweep=st.booleans(),
    )
    def test_random_records_match_the_reference_walk(self, record, cap, rules, sweep):
        # steep V, Gamma maps and friendships, each level walked to the cap
        cfg = EngineConfig(max_k=cap, obstructions=rules, gamma_c_sweep=sweep)
        assert search_fields(lower_bound(record, cfg)) == search_fields(
            reference_lower_bound(record, cfg))


def floor_of(record: KnotRecord, cfg: EngineConfig) -> int:
    """The adjunction floor by beta_table: the first level where a class passes every beta,
    and 2*nu+ when the V_s check runs (its cost-0 shortcut)."""
    battery = ClassBattery(record, cfg)
    betas = [beta for _, beta in battery.betas] + ([2 * battery.v.nu] if battery.vs else [])
    return beta_table([max(betas)])[0].min_k if betas else 0


def search_fields(search: LowerBoundSearch) -> tuple:
    return search.level, search.exhausted, search.surviving_class, search.certificates


def synthetic(sigma, s0, tau, nu, friend, gamma) -> KnotRecord:
    """A record with adjunction bounds s0, 2*tau and 2*nu (None: absent).

    ``friend`` is the level of a firing friendship (None: none), so the
    friend coverage is ``friend + 1``.
    """
    return KnotRecord(
        "syn",
        sigma,
        s_invariants={} if s0 is None else {0: s0},
        tau=tau,
        vs_spec=VsSpec("unknown") if nu is None else VsSpec("explicit", tuple(range(nu, 0, -1))),
        gamma=gamma,
        friends=() if friend is None else (FriendshipRecord(friend, "f", friend + 1),),
    )


class TestAdjunctionFloor:
    """The walk starts at the coin-change floor; the levels below it are listed on read."""

    def test_least_is_the_least_sum_up_to_norm_120(self):
        least = list(itertools.islice(engine._least_sums(), 121))
        assert least == [min(sum(cls.a) for cls in iter_classes(k)) for k in range(121)]

    def test_small_records_match_the_reference_walk(self):
        # floors 0, 4, 8 and 13; friend coverage 3 and 13; caps 4 and 14
        rule_sets = (ALL_OBSTRUCTIONS, frozenset({"s", "friend"}), frozenset({"vs"}),
                     frozenset({"gamma", "vs", "friend"}))
        for case in itertools.product((None, 0, 3, 8), (None, 2), (None, 1, 4), (None, 2, 12),
                                      (4, 14), rule_sets):
            *bounds, friend, cap, rules = case
            record = synthetic(-2, *bounds, friend, {1: Fraction(3, 5)})
            cfg = EngineConfig(max_k=cap, obstructions=rules)
            assert search_fields(lower_bound(record, cfg)) == search_fields(
                reference_lower_bound(record, cfg)), case

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        record=st.builds(
            synthetic,
            st.integers(-4, 0),
            st.none() | st.integers(0, 16),
            st.none() | st.integers(0, 8),
            st.none() | st.integers(0, 8),
            st.none() | st.integers(0, 30),
            st.sampled_from([{}, {1: Fraction(3, 5)}, {0: Fraction(1, 2), 2: Fraction(5, 3)},
                             {i: Fraction(1000) for i in range(40)}]),
        ),
        cap=st.integers(0, 30),
        rules=st.sampled_from(OBSTRUCTION_SUBSETS),
        sweep=st.booleans(),
    )
    def test_random_records_match_the_reference_walk(self, record, cap, rules, sweep):
        cfg = EngineConfig(max_k=cap, obstructions=rules, gamma_c_sweep=sweep)
        assert search_fields(lower_bound(record, cfg)) == search_fields(
            reference_lower_bound(record, cfg))

    def test_cap_below_the_floor_lists_no_class(self, monkeypatch):
        record = synthetic(0, 16, None, None, None, {})
        cfg = EngineConfig(max_k=5)
        assert floor_of(record, cfg) == 24
        calls = []
        monkeypatch.setattr(engine, "beta_adjunction", lambda cls, beta: calls.append(cls))
        search = lower_bound(record, cfg)
        assert (search.level, search.exhausted, search.surviving_class) == (6, True, None)
        assert calls == []
        monkeypatch.undo()
        assert search == reference_lower_bound(record, cfg)

    def test_equality_reads_the_listed_levels(self):
        search, want = lower_bound(DEEP), reference_lower_bound(DEEP)
        assert floor_of(DEEP, EngineConfig()) == 44
        level5 = want.certificates[5]
        tampered = (*want.certificates[:5], level5._replace(classes=level5.classes[1:]),
                    *want.certificates[6:])
        assert search == want
        assert search != LowerBoundSearch(want.level, False, want.surviving_class, tampered)

    def test_survivor_below_the_floor_raises(self, monkeypatch):
        real = engine._adjunction_floor
        monkeypatch.setattr(engine, "_adjunction_floor", lambda beta_max: real(beta_max) + 1)
        search = lower_bound(DEEP)
        with pytest.raises(RuntimeError, match="below the adjunction floor"):
            search.certificates

    def test_one_battery_per_search(self, monkeypatch):
        # the walk's battery explains the listing; a kept search whose certificates are
        # unread pins none of the V_s layers the walk built, and the read lets the battery go
        want = reference_lower_bound(DEEP).certificates
        batteries, built = [], []
        real_init, real_build = ClassBattery.__init__, obstructions._build

        def init(self, record, cfg):
            real_init(self, record, cfg)
            batteries.append(weakref.ref(self))

        def build(head, rest, top):
            layers = real_build(head, rest, top)
            built.append(weakref.ref(layers))
            return layers

        monkeypatch.setattr(ClassBattery, "__init__", init)
        monkeypatch.setattr(obstructions, "_build", build)
        search = lower_bound(DEEP)
        gc.collect()
        assert len(batteries) == 1 and batteries[0]() is not None
        assert built and not any(ref() for ref in built)
        assert search.certificates == want
        gc.collect()
        assert len(batteries) == 1 and batteries[0]() is None

    def test_racing_readers_build_equal_certificates(self):
        want = reference_lower_bound(DEEP).certificates
        search = lower_bound(DEEP)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(search.certificates))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4 and all(r == want for r in results)
        assert search.certificates is search.certificates


VS_RULE_SETS = [frozenset({"vs"}), frozenset({"vs", "gamma"})]


def vs_record(values: tuple[int, ...]) -> KnotRecord:
    """An explicit-V_s record with 7_4's signature and Gamma(1), and no adjunction bound."""
    return KnotRecord("v", -2, vs_spec=VsSpec("explicit", values), gamma={1: Fraction(3, 5)})


class TestVsOnlyFloor:
    """Without "s" the V_s check's cost-0 shortcut sets the floor, beta_max = 2*nu+."""

    def test_every_unit_step_sequence_up_to_norm_16(self):
        # a class of norm k reads V_j only for j <= k/2, so each sequence cut at 9 entries
        # stands for every unit-step sequence that begins with it
        skipped = 0
        for values in unit_step_sequences(4, 9):
            record = vs_record(values)
            for rules in VS_RULE_SETS:
                cfg = EngineConfig(max_k=16, obstructions=rules)
                assert ClassBattery(record, cfg).beta_max == 2 * len(values)
                search, want = lower_bound(record, cfg), reference_lower_bound(record, cfg)
                assert search_fields(search) == search_fields(want), (values, rules)
                skipped += min(floor_of(record, cfg), search.level) > 1
        assert skipped > 300  # not vacuous: the walk starts above level 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.integers(1, 60), min_size=1, max_size=8).map(
            lambda v: tuple(sorted(v, reverse=True))
        ),
        cap=st.integers(17, 30),
        rules=st.sampled_from(VS_RULE_SETS),
    )
    def test_steep_sequences_up_to_norm_30(self, values, cap, rules):
        record, cfg = vs_record(values), EngineConfig(max_k=cap, obstructions=rules)
        assert search_fields(lower_bound(record, cfg)) == search_fields(
            reference_lower_bound(record, cfg))


class TestTablesSkipTheFloor:
    """A table, or `bound` without --json, lists no class below a record's adjunction floor."""

    @staticmethod
    def spy_deciders(monkeypatch) -> list:
        """(record searched, norm of the class decided) for each later call of a class decider.

        The walk's deciders are ``ClassBattery.kills`` and the Gamma and V_s deciders it
        calls; the listing's are the verdict functions.
        """
        calls = []
        current = [None]
        real_lower_bound = engine.lower_bound

        def searching(record, cfg=None):
            current[0] = record
            try:
                return real_lower_bound(record, cfg)
            finally:
                current[0] = None

        def deciding(decider):
            def decide(cls, *args):
                calls.append((current[0], cls.norm))
                return decider(cls, *args)
            return decide

        monkeypatch.setattr(engine, "lower_bound", searching)
        for decider in ("gamma_kills", "vs_kills", "beta_adjunction", "gamma_general",
                        "vs_obstruction"):
            monkeypatch.setattr(engine, decider, deciding(getattr(engine, decider)))
        real_kills = ClassBattery.kills
        kills = deciding(lambda cls, battery: real_kills(battery, cls))
        monkeypatch.setattr(ClassBattery, "kills", lambda self, cls: kills(cls, self))
        return calls

    @pytest.mark.parametrize("name", ["knots", "families"])
    def test_no_decider_below_the_floor(self, monkeypatch, name):
        db = load_knot_db(bundled_database_path(name))
        calls = self.spy_deciders(monkeypatch)
        rows = report_table(db)
        assert all(row.error is None for row in rows)
        floors = {id(r): floor_of(r, EngineConfig()) for r in db}
        skipped = [r for r in db if floors[id(r)] > max(1, _friend_coverage(r, EngineConfig())[0])]
        assert len(skipped) == {"knots": 59, "families": 7}[name]  # not vacuous
        assert calls and all(record is not None for record, _ in calls)
        assert all(norm >= floors[id(record)] for record, norm in calls)
        del calls[:]
        assert bound_report(skipped[0], db).certificates  # read: the listing runs now
        assert any(norm < floors[id(skipped[0])] for _, norm in calls)

    @pytest.mark.parametrize("name", ["knots", "families"])
    def test_bound_text_lists_no_level_below_the_floor(self, monkeypatch, capsys, name):
        path = str(bundled_database_path(name))
        db = load_knot_db(path)
        floors = {r.name: floor_of(r, EngineConfig()) for r in db}
        calls = self.spy_deciders(monkeypatch)
        for record in db:
            assert cli.main(["bound", record.name, "--db", path]) == 0
        assert calls and all(norm >= floors[record.name] for record, norm in calls)
        del calls[:]
        start = {r.name: max(1, _friend_coverage(r, EngineConfig())[0]) for r in db}
        skipped = next(r for r in db if floors[r.name] > start[r.name])
        assert cli.main(["bound", skipped.name, "--json", "--db", path]) == 0  # prints them
        assert any(norm < floors[skipped.name] for _, norm in calls)
        capsys.readouterr()


def reference_first_killing_c(cls: HomologyClass, sigma: int, gamma) -> tuple[int, ...] | None:
    """The first c of the full {0,1}^n sweep, in lexicographic order, whose verdict kills.

    The verdict reads c only through 16*kappa, a sum of one term per
    coordinate, so the sweep is folded from the last coordinate: for each
    16*kappa a suffix of c can add, the least such suffix (0 before 1 at each
    coordinate).  The first killing c is the least of the vectors kept for
    the energies that kill.
    """
    least = {0: ()}
    for ai in reversed(cls.a):
        longer = {}
        for ci in (0, 1):
            term = kappa16((ai,), (ci,))
            for energy, suffix in least.items():
                longer.setdefault(energy + term, (ci, *suffix))
        least = longer
    kills = [c for c in least.values() if gamma_general(cls, c, sigma, gamma).obstructed]
    return min(kills, default=None)


class TestCSweepReference:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        sigma=st.integers(-6, 2).map(lambda x: 2 * x),
        gamma=st.dictionaries(
            st.integers(0, 8), st.fractions(0, 8, max_denominator=16), min_size=1, max_size=6
        ),
    )
    def test_first_killing_c_is_that_of_the_full_sweep(self, sigma, gamma):
        battery = ClassBattery(
            KnotRecord("g", sigma, gamma=gamma),
            EngineConfig(obstructions=frozenset({"gamma"}), gamma_c_sweep=True),
        )
        for k in range(1, 25):
            for cls in iter_classes(k):
                want = reference_first_killing_c(cls, sigma, gamma)
                if cls.n <= 8:  # the folded sweep against the literal one
                    literal = itertools.product((0, 1), repeat=cls.n)
                    assert want == next(
                        (c for c in literal if gamma_general(cls, c, sigma, gamma).obstructed), None
                    )
                kill = first_obstructed(battery, cls)
                assert (kill[1].witness["c"] if kill else None) == want, cls


def least_in_orbit(a, c):
    """The lexicographically least c' reached by permuting c among equal entries of a."""
    n = len(a)
    return min(
        tuple(c[p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
        if all(a[p[i]] == a[i] for i in range(n))
    )


def reference_gamma_walk(a: tuple[int, ...], sweep: bool):
    """The orbit walk as a generator over per-run choices, as the engine built it before caching.

    Yields each c: per run of m equal entries, the choices 0^(m-j) 1^j
    (only j = 0 for odd entries or without the sweep), and the product of
    the choices in order.
    """
    runs = [(x, len(list(group))) for x, group in itertools.groupby(a)]
    choices = [
        [(0,) * (m - j) + (1,) * j for j in range(m + 1)]
        if sweep and x % 2 == 0 else [(0,) * m]
        for x, m in runs
    ]
    for parts in itertools.product(*choices):
        yield tuple(itertools.chain.from_iterable(parts))


class TestGammaWalk:
    """The orbit walk, one list per class, equals the generator it replaced."""

    @pytest.mark.parametrize("sweep", [False, True])
    def test_every_class_up_to_norm_40(self, sweep):
        for k in range(1, 41):
            for cls in iter_classes(k):
                assert gamma_walk(cls.a, sweep) == list(reference_gamma_walk(cls.a, sweep)), cls

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        runs=st.dictionaries(st.integers(1, 9), st.integers(1, 12), min_size=1, max_size=5),
        sweep=st.booleans(),
    )
    def test_long_runs(self, runs, sweep):
        a = tuple(x for x in sorted(runs, reverse=True) for _ in range(runs[x]))
        assert gamma_walk(a, sweep) == list(reference_gamma_walk(a, sweep))


class TestGammaCVectors:
    def test_without_sweep_only_zero(self):
        assert gamma_walk((3, 1, 1), False) == [(0, 0, 0)]

    @pytest.mark.parametrize("a", [(1,), (2, 1), (2, 2), (3, 2, 2, 1, 1, 1), (4, 3, 3, 2, 1, 1)])
    def test_one_least_member_per_orbit_in_lex_order(self, a):
        # odd entries keep c_i = 0: a_i - 2*c_i is odd either way, so c_i cannot matter
        orbits = {
            least_in_orbit(a, c)
            for c in itertools.product((0, 1), repeat=len(a))
            if not any(ci and ai % 2 for ai, ci in zip(a, c))
        }
        assert gamma_walk(a, True) == sorted(orbits)

    def test_sixteen_ones(self):
        assert gamma_walk((1,) * 16, True) == [(0,) * 16]
        vectors = gamma_walk((2,) * 16, True)
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


def reference_beta_table(betas) -> list[BetaTableRow]:
    """One walk over the levels for every beta, as beta_table ran before its coin-change DP.

    Each class decides the undecided betas up to its margin k - sum(a),
    from the smallest up.
    """
    pending = sorted(set(betas), reverse=True)  # the smallest undecided beta last
    rows = {}
    for k in itertools.count():
        for cls in iter_classes(k):
            while pending and pending[-1] <= k - sum(cls.a):
                beta = pending.pop()
                rows[beta] = BetaTableRow(beta, k, cls)
            if not pending:
                return [rows[beta] for beta in betas]


class TestBetaTable:
    def test_dp_matches_reference_walk(self):
        betas = list(range(2, 161))
        assert beta_table(betas) == reference_beta_table(betas)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-20, 70), min_size=1, max_size=30))
    def test_unsorted_duplicate_and_non_positive_betas(self, betas):
        assert beta_table(betas) == reference_beta_table(betas)

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


def reference_jsonable(value):
    """The certificate conversion as one isinstance chain."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    return value


def same_typed(x, y):
    """Equal, with the same type at every node (so True never matches 1)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, list):
        return len(x) == len(y) and all(same_typed(a, b) for a, b in zip(x, y))
    if isinstance(x, dict):
        return list(x) == list(y) and all(same_typed(x[k], y[k]) for k in x)
    return x == y


WITNESS_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.text(max_size=6),
    st.fractions(),
    st.integers(-50, 50).map(Fraction),
)
WITNESS_VALUES = st.recursive(
    WITNESS_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(-40, 40), max_size=8).map(tuple),
        st.dictionaries(st.integers(-9, 9), inner, max_size=4),
        st.dictionaries(st.sampled_from(["rule", "lambda", "j", "gamma"]), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(WITNESS_VALUES)
    def test_matches_reference_conversion(self, value):
        got, want = _jsonable(value), reference_jsonable(value)
        assert same_typed(got, want)
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2)

    def test_bool_and_fraction_leaves(self):
        witness = {"rule": "gamma", "ok": True, "gamma": Fraction(3, 5), "c": (0, 1)}
        got = _jsonable(witness)
        assert got == {"rule": "gamma", "ok": True, "gamma": "3/5", "c": [0, 1]}
        assert type(got["ok"]) is bool


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
        from slicedeg import cli, engine

        def broken(record, cfg=None):
            raise TypeError("bug in the search")

        monkeypatch.setattr(engine, "lower_bound", broken)
        with pytest.raises(TypeError, match="bug in the search"):
            report_table(db_of(TREFOIL))

    def test_value_error_in_the_search_propagates(self, monkeypatch):
        # only data faults (DatabaseError, OracleDisagreement) become error rows
        from slicedeg import cli, engine

        def broken(record, cfg=None):
            raise ValueError("bug in the search")

        monkeypatch.setattr(engine, "lower_bound", broken)
        with pytest.raises(ValueError, match="bug in the search"):
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

    def test_unknown_obstructions_named_once(self):
        with pytest.raises(ValueError, match="^unknown obstructions: a, nope$"):
            EngineConfig(obstructions=frozenset({"nope", "a", "s"}))


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
