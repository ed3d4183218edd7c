"""Obstruction battery tests."""

import gc
import itertools
import math
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import laurent_from_terms

from slicedeg import engine
from slicedeg.engine import ClassBattery, EngineConfig, lower_bound
from slicedeg.knots import KnotRecord, VsSpec
from slicedeg.lattice import (
    HomologyClass,
    LaurentPoly,
    enumerate_classes,
    enumerate_odd_vectors,
    eta,
    iter_classes,
)
from slicedeg import obstructions
from slicedeg.obstructions import (
    Verdict,
    beta_adjunction,
    double_twist_gamma,
    friend_rule,
    gamma_general,
    gamma_walk,
    null_class_check,
    stau_bound,
    vs_kills,
    vs_obstruction,
)
from slicedeg.staircase import VsSequence, vs_of, vs_thin


def reference_vs_obstruction(
    cls: HomologyClass, v: VsSequence, max_cost: int | None = None
) -> Verdict:
    """The first violating lambda of the depth-first odd-vector enumeration.

    With ``max_cost``, the first whose cost sum(lambda_i^2 - 1) is at most that.
    """
    if v.is_zero():
        return Verdict(False)
    for lam in enumerate_odd_vectors(cls, v.v(0)):
        dot = sum(l * a for l, a in zip(lam.values, cls.a))
        j = (cls.norm - dot) // 2
        lhs = sum(l * l for l in lam.values) - cls.n
        rhs = 8 * v.v(j)
        if lhs < rhs and (max_cost is None or lhs <= max_cost):
            return Verdict(
                True, {"rule": "vs", "lambda": lam.values, "j": j, "lhs": lhs, "rhs": rhs}
            )
    return Verdict(False)


@lru_cache(maxsize=None)
def reference_kappa_eta(a: tuple, c: tuple) -> tuple[Fraction, LaurentPoly]:
    """kappa_min in Fractions, and eta summed over the expanded argmin set Phi_min.

    The library's computation before it went per coordinate in integers.
    """
    total = Fraction(0)
    per_coord_mins = []
    for ai, ci in zip(a, c):
        f = Fraction(ai, 4) - Fraction(ci, 2)
        z0 = (-f).numerator // (-f).denominator
        best, argmin = None, []
        for z in (z0, z0 + 1):
            val = (z + f) ** 2
            if best is None or val < best:
                best, argmin = val, [z]
            elif val == best:
                argmin.append(z)
        total += best
        per_coord_mins.append(argmin)
    terms = []
    for z in itertools.product(*per_coord_mins):
        sign = -1 if sum(zi * zi for zi in z) % 2 else 1
        terms.append((sum(ai * (ci - 2 * zi) for ai, ci, zi in zip(a, c, z)), sign))
    return total, laurent_from_terms(terms)


@lru_cache(maxsize=None)
def reference_index(kappa: Fraction, k: int, sigma: int) -> Fraction:
    return 4 * kappa - Fraction(k, 4) - Fraction(sigma, 2)


def reference_gamma_general(cls: HomologyClass, c, sigma: int, gamma) -> Verdict:
    """The instanton check in Fractions, with eta from the expanded Phi_min.

    The library's check before it went to integers; the index is memoised
    only to keep the exhaustive test fast.
    """
    kappa, count = reference_kappa_eta(cls.a, tuple(c))
    if count.is_zero():
        return Verdict(False)
    index = reference_index(kappa, cls.norm, sigma)
    if index < 0:
        return Verdict(False)
    if index.denominator != 1:
        return Verdict(False, note=f"non-integral index {index}")
    value = gamma.get(int(index))
    if value is None or not value > 2 * kappa:
        return Verdict(False)
    return Verdict(
        True,
        {
            "rule": "gamma",
            "kappa_min": kappa,
            "i": int(index),
            "eta": str(count),
            "gamma": value,
            "bound": 2 * kappa,
            "c": tuple(c),
        },
    )


def reference_gamma_21(p: int, q: int, sigma: int, gamma) -> Verdict:
    """Closed form of :func:`gamma_general` at c = 0 for classes (2 x p, 1 x q).

    Obstructed iff sigma <= 0 and Gamma_K(-sigma/2) is known and exceeds
    p/2 + q/8.
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    if sigma > 0:
        return Verdict(False)
    i = -sigma // 2
    value = gamma.get(i)
    if value is None:
        return Verdict(False)
    bound = Fraction(p, 2) + Fraction(q, 8)
    if value > bound:
        return Verdict(
            True,
            {"rule": "gamma_21", "p": p, "q": q, "i": i, "gamma": value, "bound": bound},
        )
    return Verdict(False)


def unsorted_class(values) -> HomologyClass:
    """A HomologyClass whose tuple deliberately breaks the sort invariant."""
    cls = HomologyClass.from_values(values)
    object.__setattr__(cls, "a", tuple(values))
    return cls


class TestBetaAdjunction:
    def test_two_survives_at_four(self):
        assert not beta_adjunction(HomologyClass((2,)), 2).obstructed

    def test_all_ones_killed(self):
        vd = beta_adjunction(HomologyClass((1, 1, 1)), 2)
        assert vd.obstructed and vd.witness["rhs"] == 0

    def test_three_two_survives_beta_eight(self):
        assert not beta_adjunction(HomologyClass((3, 2)), 8).obstructed

    def test_padding_with_ones_never_changes_verdict(self):
        for k in range(1, 26):
            for cls in enumerate_classes(k):
                for beta in (0, 2, 4, 6):
                    padded = HomologyClass(cls.a + (1,))
                    assert (
                        beta_adjunction(cls, beta).obstructed
                        == beta_adjunction(padded, beta).obstructed
                    )

    def test_symmetry_under_permutation(self):
        for perm in [(1, 2, 1), (2, 1, 1), (1, 1, 2)]:
            assert not beta_adjunction(unsorted_class(perm), 0).obstructed
            assert beta_adjunction(unsorted_class(perm), 4).obstructed


class TestStauBound:
    def test_small_values(self):
        assert stau_bound(2) == 4
        assert stau_bound(6) == 9
        assert stau_bound(0) == 0

    def test_non_positive(self):
        assert stau_bound(-4) == 0

    def test_intermediate_values(self):
        assert stau_bound(4) == 7
        assert stau_bound(8) == 12

    def test_defining_property(self):
        for s in range(1, 40):
            k = stau_bound(s)
            assert (k - s) ** 2 >= k > 0
            assert k - 1 < s or (k - 1 - s) ** 2 < k - 1

    @staticmethod
    def reference_stau_bound(s_p):
        """The search the closed form replaced: step k up from s_p."""
        if s_p <= 0:
            return 0
        k = s_p
        while not (k - s_p) ** 2 >= k:
            k += 1
        return k

    def test_closed_form_matches_search(self):
        for s in range(-3, 10**4 + 1):
            assert stau_bound(s) == self.reference_stau_bound(s), s

    def test_huge_s_p(self):
        s = 10**30
        k = stau_bound(s)
        assert (k - s) ** 2 >= k
        assert not (k - 1 - s) ** 2 >= k - 1


class TestVsObstruction:
    def test_four_ones_killed_by_v1(self):
        vd = vs_obstruction(HomologyClass((1, 1, 1, 1)), VsSequence((1,)))
        assert vd.obstructed
        assert vd.witness["lambda"] == (1, 1, 1, 1)
        assert vd.witness["j"] == 0
        assert vd.witness["lhs"] == 0 and vd.witness["rhs"] == 8

    def test_two_survives_v1(self):
        assert not vs_obstruction(HomologyClass((2,)), VsSequence((1,))).obstructed

    def test_zero_sequence_never_obstructs(self):
        zero = VsSequence(())
        for k in range(1, 30):
            for cls in enumerate_classes(k):
                assert not vs_obstruction(cls, zero).obstructed

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            vs_obstruction(HomologyClass(()), VsSequence((1,)))

    @pytest.mark.parametrize("tau", [1, 2, 3, 4])
    def test_thin_knots_all_classes_below_4tau_obstructed(self, tau):
        v = vs_thin(tau)
        for k in range(1, 4 * tau):
            for cls in enumerate_classes(k):
                assert vs_obstruction(cls, v).obstructed, (tau, cls.a)

    def test_symmetry_under_permutation(self):
        v = VsSequence((2, 1))
        sorted_vd = vs_obstruction(HomologyClass((2, 1, 1)), v)
        for perm in [(1, 2, 1), (1, 1, 2)]:
            assert vs_obstruction(unsorted_class(perm), v).obstructed == sorted_vd.obstructed

    # The two all-ones cases below are decided at cost 0, before any layer is
    # built; the two after them take (2, 1, ..., 1), which builds layers.
    def test_class_deeper_than_recursion_limit(self):
        n = 2 * sys.getrecursionlimit()
        vd = vs_obstruction(HomologyClass((1,) * n), VsSequence((1,)))
        assert vd.obstructed
        assert vd.witness == {"rule": "vs", "lambda": (1,) * n, "j": 0, "lhs": 0, "rhs": 8}

    def test_long_class_keeps_bounded_tables(self):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vs_obstruction(HomologyClass((1,) * 2000), VsSequence((1,)))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 2 * 1024 * 1024

    @staticmethod
    def counting_builds(monkeypatch):
        """The list of heads that the layer builder ``_build`` is called with, from now on."""
        built = []
        build = obstructions._build
        monkeypatch.setattr(
            obstructions, "_build",
            lambda head, rest, top: built.append(head) or build(head, rest, top),
        )
        return built

    def test_tables_deeper_than_recursion_limit(self, monkeypatch):
        # j0 = 1 and V_1 = 0, so the DP decides; lambda ends (..., 1, 3) at d = k
        n = 2 * sys.getrecursionlimit()
        built = self.counting_builds(monkeypatch)
        vd = vs_obstruction(HomologyClass((2,) + (1,) * n), VsSequence((2,)))
        assert len(built) == n  # the layers of a[1:] .. a[n:], none of the whole class
        assert vd.witness == {"rule": "vs", "lambda": (1,) * n + (3,), "j": 0, "lhs": 8, "rhs": 16}

    def test_long_surviving_class_keeps_bounded_tables(self, monkeypatch):
        # the call's own dict of layers is freed when it returns
        built = self.counting_builds(monkeypatch)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vd = vs_obstruction(HomologyClass((2,) + (1,) * 2000), VsSequence((1,)))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not vd.obstructed and len(built) == 2000
        assert kept <= 2 * 1024 * 1024

    def test_missing_suffix_rebuilds_only_its_table(self, monkeypatch):
        # layers are keyed by (suffix, cap), not by the layers of the shorter suffix
        built = self.counting_builds(monkeypatch)
        cls, v, tables = HomologyClass((3, 2, 1, 1)), VsSequence((1,)), {}
        first = vs_obstruction(cls, v, tables)
        assert built == [1, 1, 2]  # (1,), (1, 1), (2, 1, 1); the whole class has none
        del tables[((1,), 7)]  # cap = 8 * V_0 - 1
        assert vs_obstruction(cls, v, tables) == first
        assert built[3:] == [1] and len(tables) == 3

    def test_inconsistent_table_raises_instead_of_spinning(self):
        # (2, 1) survives V = (1,); forged layers of (1,) claim d = 3 at cost 0
        # (bit (3 + offset) / 2 = 3), so lambda_0 = 1 reaches d = k = 5, and no
        # lambda_1 within the cap 7 (layer 0) does
        forged = {((1,), 7): obstructions._Layers(3, (0b1000,))}
        with pytest.raises(RuntimeError, match="no witness value"):
            vs_obstruction(HomologyClass((2, 1)), VsSequence((1,)), forged)

    def test_search_builds_each_table_once(self, monkeypatch):
        # the walk decides with vs_kills and the listing explains with vs_obstruction, each
        # pass on its own battery's dict: one build per (suffix, cap) key in each
        built = self.counting_builds(monkeypatch)
        dicts = {"vs_kills": [], "vs_obstruction": []}
        for name, seen in dicts.items():
            def spy(cls, v, tables=None, setups=None, decide=getattr(engine, name), seen=seen):
                seen.append(tables)
                return decide(cls, v, tables, setups)

            monkeypatch.setattr(engine, name, spy)
        builds = dict.fromkeys(dicts, 0)
        for record, cfg in torus_ladder_searches():
            built.clear()
            for seen in dicts.values():
                seen.clear()
            search = lower_bound(record, cfg)
            walked = len(built)
            search.certificates
            for name, count in (("vs_kills", walked), ("vs_obstruction", len(built) - walked)):
                seen = dicts[name]
                assert all(tables is seen[0] for tables in seen), (record.name, name)
                assert count == (len(seen[0]) if seen else 0), (record.name, name)
                builds[name] += count
            if all(dicts.values()):
                assert dicts["vs_kills"][0] is not dicts["vs_obstruction"][0], record.name
        assert all(builds.values()), builds

    def test_search_leaves_no_table_behind(self, monkeypatch):
        made = []
        build = obstructions._build

        def tracked(head, rest, top):
            layers = build(head, rest, top)
            made.append(weakref.ref(layers))
            return layers

        monkeypatch.setattr(obstructions, "_build", tracked)
        for record, cfg in torus_ladder_searches():
            lower_bound(record, cfg)
        gc.collect()
        assert made and all(ref() is None for ref in made)


def torus_ladder_searches():
    """The torus-ladder benchmark's searches: thin T(2,2m+1) and vs-only explicit V_s."""
    ladder = [
        KnotRecord(f"T(2,{2 * m + 1})", -2 * m, s_invariants={0: 2 * m}, tau=m,
                   vs_spec=VsSpec("thin"), slicing_number=m)
        for m in range(1, 9)
    ]
    shapes = [
        (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 1, 1),
        (3, 2, 2, 2), (3, 3, 2, 2), (3, 3, 3, 2), (3, 3, 3, 3),
    ]
    vs_only = EngineConfig(max_k=16, obstructions=frozenset({"vs"}))
    return [(record, EngineConfig()) for record in ladder] + [
        (KnotRecord(f"V{values}", 0, vs_spec=VsSpec("explicit", values)), vs_only)
        for values in shapes
    ]


DIFFERENTIAL_SEQUENCES = [
    VsSequence(values) for values in ((1,), (1, 1), (2, 1), (3, 2, 1), (2, 2, 1, 1), (3, 3, 3, 3))
] + [vs_thin(tau) for tau in range(1, 5)]


class TestVsAgainstEnumeration:
    """The DP against the depth-first enumeration, witness included."""

    def test_every_class_up_to_norm_14(self):
        pairs = 0
        for v in DIFFERENTIAL_SEQUENCES:
            for k in range(1, 15):
                for cls in enumerate_classes(k):
                    assert vs_obstruction(cls, v) == reference_vs_obstruction(cls, v), (cls.a, v)
                    pairs += 1
        assert pairs == 430

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(15, 18).flatmap(lambda k: st.sampled_from(enumerate_classes(k))),
        st.lists(st.integers(0, 2), max_size=6).map(
            lambda values: VsSequence.from_values(sorted(values, reverse=True))
        ),
    )
    def test_random_sequences_at_norms_15_to_18(self, cls, v):
        assert vs_obstruction(cls, v) == reference_vs_obstruction(cls, v)


def unit_step_sequences(v0_max: int, length: int) -> list[tuple[int, ...]]:
    """Every unit-step V_s sequence with V_0 <= v0_max, as its values V_0 .. V_(length - 1).

    A sequence cut at ``length`` may end above 1; one that ends sooner ends at 1.
    """
    found, grow = [()], [(v0,) for v0 in range(1, v0_max + 1)]
    while grow:
        found += [values for values in grow if values[-1] == 1 or len(values) == length]
        grow = [values + (values[-1] - drop,) for values in grow if len(values) < length
                for drop in (0, 1) if values[-1] > drop]
    return found


class TestVsLayersAgainstReference:
    """The cost-layer kernel against the enumeration, and one battery's layers against fresh ones."""

    def test_every_unit_step_sequence_up_to_norm_20(self):
        # a class reads V_j only for j <= k/2, so each cut sequence stands for
        # every unit-step sequence that begins with it.  The enumeration takes
        # about a minute past norm 16 ((2, 1, ..., 1) of norm 20 under V = (1,)
        # alone 9 s), so there the least costs decide the verdict alone.
        pairs = 0
        for k in range(1, 21):
            sequences = [VsSequence(values) for values in unit_step_sequences(4, k // 2 + 1)]
            for cls in enumerate_classes(k):
                least = least_costs(cls)
                for v in sequences:
                    vd = vs_obstruction(cls, v)
                    assert vd.obstructed == any(
                        cost < 8 * v.v((k - d) // 2) for d, cost in least.items()
                    ), (cls.a, v)
                    if k <= 16:
                        assert vd == reference_vs_obstruction(cls, v), (cls.a, v)
                    pairs += 1
        assert pairs == 26577

    # Under a steep V the first violator may take a negative entry; the
    # other differential tests never meet such a witness.
    @pytest.mark.parametrize(
        "a, values, first",
        [
            ((3, 3, 2), (60, 3, 2), (1, -1, 11)),
            ((3, 3, 3, 2, 2), (60, 3), (1, 1, -1, 1, 15)),
            ((4, 3, 2, 2), (30, 8, 1), (1, -1, 1, 15)),
            ((5, 2), (60, 5), (-1, 17)),
            # lambda_1 = 5 completes only through d = -1 on the suffix (1,): its layers need
            # -mag, and +1 on the entry left would overshoot d = k (j = -1)
            ((4, 3, 1), (5,), (3, 5, -1)),
            ((4, 3, 1), (5, 3, 2, 2, 2, 1, 1, 1, 1), (3, 5, -1)),
        ],
    )
    def test_first_violator_with_a_negative_entry(self, a, values, first):
        cls, v = HomologyClass(a), VsSequence(values)
        vd = vs_obstruction(cls, v)
        assert vd == reference_vs_obstruction(cls, v, min(8 * v.v(0) - 1, class_cap(cls)))
        assert vd.witness["lambda"] == first

    def test_layers_kept_under_a_lower_cap_are_not_reused(self):
        # under V = (10,) the class (2, 1, 1) keeps the layers 0 .. 8 of (1, 1)
        # under cap 70; (3, 2, 2, 1, 1) has cap 79, and its first violator
        # spends 72 = 8 * 9 on (1, 1), so it needs layer 9 of that suffix
        v, tables = VsSequence((10,)), {}
        vs_obstruction(HomologyClass((2, 1, 1)), v, tables)
        vd = vs_obstruction(HomologyClass((3, 2, 2, 1, 1)), v, tables)
        assert vd == vs_obstruction(HomologyClass((3, 2, 2, 1, 1)), v)
        assert vd.witness["lambda"] == (1, 1, 1, 5, 7)

    def test_setups_kept_under_a_lower_cap_are_not_reused(self):
        # under V = (22,) the class (3, 2, 2) of norm 17 has cap 167, so its set-up holds
        # the targets of layers 0 .. 20; (4, 1), of the same norm, has cap 175, and its first
        # violator (1, 13) completes its first coordinate only through layer 21 of (1,)
        v, tables, setups = VsSequence((22,)), {}, {}
        vs_obstruction(HomologyClass((3, 2, 2)), v, tables, setups)
        vd = vs_obstruction(HomologyClass((4, 1)), v, tables, setups)
        assert vd == vs_obstruction(HomologyClass((4, 1)), v)
        assert vd.witness["lambda"] == (1, 13)

    def test_one_battery_decides_a_suffix_kept_at_another_norm(self):
        # (2, 2, 1), of norm 9, keeps the layers of its suffix (1); (2, 2, 1, 1), of norm 10,
        # reads them and dies, as a fresh call finds
        v = VsSequence((2, 1))
        vs_only = EngineConfig(obstructions=frozenset({"vs"}))
        battery = ClassBattery(KnotRecord("x", 0, vs_spec=VsSpec("explicit", (2, 1))), vs_only)
        for a in ((2, 2, 1), (2, 2, 1, 1)):
            (shared,) = battery.verdicts(HomologyClass(a))
            assert shared.verdict == vs_obstruction(HomologyClass(a), v), a
        assert shared.verdict.obstructed

    # Layers kept under (suffix, cap) serve every later class with that suffix
    # and cap, whatever its norm; a layer whose bits were placed by the class
    # that built it would answer wrongly for the next one.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 14), min_size=1, max_size=8).map(
            lambda values: tuple(sorted(values, reverse=True))
        ),
        st.lists(st.integers(1, 69), min_size=2, max_size=4, unique=True),
        st.randoms(use_true_random=False),
    )
    def test_one_battery_decides_shuffled_levels_like_fresh_calls(self, values, levels, rng):
        v = VsSequence(values)
        vs_only = EngineConfig(obstructions=frozenset({"vs"}))
        battery = ClassBattery(KnotRecord("x", 0, vs_spec=VsSpec("explicit", values)), vs_only)
        classes = [cls for k in levels for cls in iter_classes(k)]
        rng.shuffle(classes)
        for cls in classes:
            (shared,) = battery.verdicts(cls)
            assert shared.verdict == vs_obstruction(cls, v), (cls.a, values)
            if cls.norm <= 18:
                cap = min(8 * v.v(0) - 1, class_cap(cls))
                assert shared.verdict == reference_vs_obstruction(cls, v, cap), (cls.a, values)


def class_cap(cls: HomologyClass) -> int:
    """B = floor(F^2 * k) - n, the class's bound on the least cost of any d in [0, k].

    F = 1 + a_1/a_n + a_n/a_1 = (a_1^2 + a_1*a_n + a_n^2) / (a_1*a_n).
    """
    hi, lo = cls.a[0], cls.a[-1]
    return (hi * hi + hi * lo + lo * lo) ** 2 * cls.norm // (hi * lo) ** 2 - cls.n


def least_costs(cls: HomologyClass) -> dict[int, int]:
    """The least cost of each reachable d in [0, k], by brute force over prefixes.

    Every reachable d is reached with |lambda_i| <= (a_1 + 2) * a_i, the
    exchange argument's looser bound, so no least cost is missed.
    """
    least = {0: 0}  # dot product of a prefix -> least cost
    for a_i in cls.a:
        top = (cls.a[0] + 2) * a_i
        step: dict[int, int] = {}
        for dot, cost in least.items():
            for lam in range(-top | 1, top + 1, 2):
                d, c = dot + lam * a_i, cost + lam * lam - 1
                if c < step.get(d, c + 1):
                    step[d] = c
        least = step
    period = 2 * math.gcd(*cls.a)  # d is reachable iff d = sum(a) mod period
    return {d: least[d] for d in range(sum(cls.a) % period, cls.norm + 1, period)}


class TestVsShortcutAndCap:
    """The cost-0 shortcut and the class cap of the V_s DP against the enumeration."""

    def test_cap_bounds_least_cost_up_to_norm_14(self):
        classes = 0
        for k in range(1, 15):
            for cls in enumerate_classes(k):
                for d, cost in least_costs(cls).items():
                    assert cost <= class_cap(cls), (cls.a, d)
                classes += 1
        assert classes == 43

    def test_cap_bounds_least_cost_without_unit_entries(self):
        # with a_n >= 2, F < a_1 + 2, so each of these classes has a tighter cap
        # than the bound the brute force searches within
        classes = 0
        for k in range(1, 61):
            for cls in enumerate_classes(k):
                if cls.a[-1] >= 2:
                    assert class_cap(cls) < (cls.a[0] + 2) ** 2 * k - cls.n
                    for d, cost in least_costs(cls).items():
                        assert cost <= class_cap(cls), (cls.a, d)
                    classes += 1
        assert classes == 177

    def test_shortcut_builds_no_table(self, monkeypatch):
        def build(head, rest):
            raise AssertionError("a table was built")

        monkeypatch.setattr(obstructions, "_build", build)
        v = vs_thin(10)  # V_j > 0 for every j <= k/2 <= 7
        for k in range(1, 15):
            for cls in enumerate_classes(k):
                vd = vs_obstruction(cls, v)
                assert vd == reference_vs_obstruction(cls, v)
                assert vd.witness["lambda"] == (1,) * cls.n and vd.witness["lhs"] == 0
                assert vs_kills(cls, v)

    def test_steep_sequences_up_to_norm_10(self):
        capped = 0
        for v in [VsSequence((v0,)) for v0 in range(9, 41)] + [VsSequence((20, 1))]:
            for k in range(1, 11):
                for cls in enumerate_classes(k):
                    cap = min(8 * v.v(0) - 1, class_cap(cls))
                    vd = vs_obstruction(cls, v)
                    assert vd.obstructed == reference_vs_obstruction(cls, v).obstructed
                    assert vd == reference_vs_obstruction(cls, v, cap), (cls.a, v)
                    capped += cap < 8 * v.v(0) - 1 and not v.v((k - sum(cls.a)) // 2)
        assert capped == 344  # pairs that build tables under the lowered cap

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_battery_shares_tables_over_steep_sequences(self, shuffled):
        # the class cap varies per class here, so a table kept in the battery's
        # dict serves a later class only under the cap it was built with: under
        # V = (16,), the table of (2,) made for the class (2, 2), cap 70, would
        # let (2, 2, 2), cap 105, complete on an unreached entry
        classes = [cls for k in range(1, 13) for cls in iter_classes(k)]
        if shuffled:
            random.Random(11).shuffle(classes)
        vs_only = EngineConfig(obstructions=frozenset({"vs"}))
        for values in [(v0,) for v0 in range(9, 41)] + [(20, 1)]:
            v = VsSequence(values)
            battery = ClassBattery(KnotRecord("x", 0, vs_spec=VsSpec("explicit", values)), vs_only)
            for cls in classes:
                cap = min(8 * v.v(0) - 1, class_cap(cls))
                (shared,) = battery.verdicts(cls)
                assert shared.verdict == vs_obstruction(cls, v), (cls.a, values)
                assert shared.verdict == reference_vs_obstruction(cls, v, cap), (cls.a, values)
            assert battery.tables, values

    def test_unreached_entries_never_complete(self):
        # B = 9*12 - 3 = 105 < 8*V_0 - 1, and the suffix tables of (2, 2, 2) hold
        # unreached entries (cap + 1) between reachable d; odd lambda never reach
        # d = k = 12, so only a target lowered to cap + 1 keeps them from completing
        cls, v = HomologyClass((2, 2, 2)), VsSequence((40,))
        assert class_cap(cls) < 8 * v.v(0) - 1
        assert vs_obstruction(cls, v) == reference_vs_obstruction(cls, v) == Verdict(False)

    @pytest.mark.parametrize(
        "a, v0, first, capped",
        [
            # the first violator costs 21024, above B = 16661
            ((9, 9, 1), 3000, (1, 1, 145), (1, 3, 127)),
            # the first violator costs 12768, above B = 10738
            ((8, 8, 1), 2000, (1, 1, 113), (1, 3, 97)),
        ],
    )
    def test_capped_witness_is_first_within_cap(self, a, v0, first, capped):
        cls, v = HomologyClass(a), VsSequence((v0,))
        assert reference_vs_obstruction(cls, v).witness["lambda"] == first
        vd = vs_obstruction(cls, v)
        assert vd == reference_vs_obstruction(cls, v, class_cap(cls))
        assert vd.witness["lambda"] == capped


class TestGammaGeneral:
    def test_7_4_class_two(self):
        vd = gamma_general(HomologyClass((2,)), (0,), -2, {1: Fraction(3, 5)})
        assert vd.obstructed
        assert vd.witness["kappa_min"] == Fraction(1, 4)
        assert vd.witness["i"] == 1
        assert vd.witness["bound"] == Fraction(1, 2)

    def test_9_5_five_ones(self):
        vd = gamma_general(HomologyClass((1,) * 5), (0,) * 5, -2, {1: Fraction(15, 23)})
        assert vd.obstructed
        assert vd.witness["kappa_min"] == Fraction(5, 16)

    def test_class_four_negative_index_passes(self):
        # i = -4 - sigma/2 is negative exactly for sigma > -8
        for sigma in (0, -2, -4, -6):
            vd = gamma_general(HomologyClass((4,)), (0,), sigma, {0: Fraction(1)})
            assert not vd.obstructed
        # at sigma = -6 the index is -1: a value stored there is never read
        assert not gamma_general(HomologyClass((4,)), (0,), -6, {-1: Fraction(100)}).obstructed

    def test_class_four_zero_index_obstructs(self):
        # at sigma = -8 the index reaches 0 and any positive Gamma(0) beats 2*kappa = 0
        assert gamma_general(HomologyClass((4,)), (0,), -8, {0: Fraction(1)}).obstructed

    def test_unknown_gamma_passes(self):
        assert not gamma_general(HomologyClass((2,)), (0,), -2, {}).obstructed

    def test_boundary_not_strict(self):
        assert not gamma_general(
            HomologyClass((1,) * 4), (0,) * 4, -2, {1: Fraction(1, 2)}
        ).obstructed

    def test_gamma_at_the_bound_passes_and_just_above_kills(self):
        # (1,1,1,1), c = 0, sigma = -2: 16*kappa = 4, i = 1, bound 2*kappa = 1/2
        cls, c = HomologyClass((1,) * 4), (0,) * 4
        assert not gamma_general(cls, c, -2, {1: Fraction(4, 8)}).obstructed
        above = Fraction(1, 2) + Fraction(1, 10**12)
        vd = gamma_general(cls, c, -2, {1: above})
        assert vd.obstructed
        assert vd.witness["gamma"] == above
        assert vd.witness["kappa_min"] == Fraction(1, 4)
        assert vd.witness["bound"] == Fraction(1, 2)
        assert not gamma_general(cls, c, -2, {1: Fraction(1, 2) - Fraction(1, 10**12)}).obstructed

    def test_integer_gamma(self):
        # eight ones, c = 0, sigma = -2: 16*kappa = 8, i = 1, bound 2*kappa = 1
        cls, c = HomologyClass((1,) * 8), (0,) * 8
        assert not gamma_general(cls, c, -2, {1: 1}).obstructed
        vd = gamma_general(cls, c, -2, {1: 2})
        assert vd.obstructed
        assert vd.witness["gamma"] == 2
        assert vd.witness["bound"] == Fraction(1)
        assert vd.witness["kappa_min"] == Fraction(1, 2)
        for value in (1, 2, 3):
            assert (
                gamma_general(cls, c, -2, {1: value})
                == gamma_general(cls, c, -2, {1: Fraction(value)})
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gamma_general(HomologyClass((2,)), (0, 0), -2, {})

    def test_symmetry_under_permutation(self):
        gamma = {1: Fraction(15, 23)}
        base = gamma_general(HomologyClass((2, 1)), (0, 0), -2, gamma)
        for perm in [(1, 2)]:
            assert gamma_general(unsorted_class(perm), (0, 0), -2, gamma).obstructed == base.obstructed


# Gamma values on the 1/8 grid of the bound 2*kappa (so ties occur), the
# bundled double-twist values, and a sparse map.
GAMMA_MAPS = (
    {i: Fraction(i + 1, 4) for i in range(8)},
    {0: Fraction(1, 3), 1: Fraction(3, 5), 2: Fraction(15, 23), 3: Fraction(12, 11), 5: Fraction(2)},
    {1: Fraction(7, 8), 2: Fraction(1, 2), 4: Fraction(9, 4), 6: Fraction(1, 16)},
)


class TestGammaAgainstReference:
    """The integer check against the Phi_min-expanding one, witness included."""

    def test_every_class_and_c_up_to_norm_12(self):
        """Every verdict matches, and so does the first kill of each sweep.

        The full sweep runs over sorted({0,1}^n) with the reference check, the
        engine's over one c per orbit (``gamma_walk``) with the integer one.
        """
        pairs = kills = notes = first_kills = 0
        for k in range(1, 13):
            for cls in enumerate_classes(k):
                full = sorted(itertools.product((0, 1), repeat=cls.n))
                orbits = gamma_walk(cls.a, True)
                for sigma in range(-6, 3):
                    for gamma in GAMMA_MAPS:
                        first = None
                        for c in full:
                            got = gamma_general(cls, c, sigma, gamma)
                            expected = reference_gamma_general(cls, c, sigma, gamma)
                            assert got == expected, (cls.a, c, sigma, gamma)
                            if got.obstructed and first is None:
                                first = got
                            pairs += 1
                            kills += got.obstructed
                            notes += got.note is not None
                        swept = (gamma_general(cls, c, sigma, gamma) for c in orbits)
                        assert next((vd for vd in swept if vd.obstructed), None) == first
                        first_kills += first is not None
        assert pairs == 253098
        assert (kills, notes, first_kills) == (1670, 82245, 123)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(13, 18)
        .flatmap(lambda k: st.sampled_from(enumerate_classes(k)))
        .flatmap(
            lambda cls: st.tuples(
                st.just(cls), st.lists(st.integers(0, 1), min_size=cls.n, max_size=cls.n)
            )
        ),
        st.integers(-6, 2),
        st.sampled_from(GAMMA_MAPS),
    )
    def test_random_pairs_at_norms_13_to_18(self, cls_c, sigma, gamma):
        cls, c = cls_c
        assert gamma_general(cls, c, sigma, gamma) == reference_gamma_general(cls, c, sigma, gamma)


def same_verdict(got: Verdict, want: Verdict) -> bool:
    """Equal verdicts whose witness values also have the same types."""
    if got != want:
        return False
    witness = got.witness or {}
    return all(type(v) is type((want.witness or {})[key]) for key, v in witness.items())


# Gamma(i) = 9/2 beats every bound 2*kappa <= n/2 of a class with n <= 8 entries.
KILL_ALL = {i: Fraction(9, 2) for i in range(20)}


class TestGammaGeneralDifferential:
    """``gamma_general`` against the Fraction and Phi_min reference, witness types included."""

    def test_every_class_and_c_up_to_norm_24(self):
        # sigma = -k and -k - 1 make 4*i = 16*kappa + k (+ 2) >= 0: every c of every class
        # reaches an integral index under one of them and a non-integral one under the other
        kills = notes = 0
        for k in range(1, 25):
            for cls in enumerate_classes(k):
                if cls.n > 8:
                    continue
                for c in itertools.product((0, 1), repeat=cls.n):
                    for sigma in (-k, -k - 1):
                        for gamma in (KILL_ALL, GAMMA_MAPS[0]):
                            got = gamma_general(cls, c, sigma, gamma)
                            want = reference_gamma_general(cls, c, sigma, gamma)
                            assert same_verdict(got, want), (cls, c, sigma)
                            kills += got.obstructed
                            notes += got.note is not None
        # 6040 pairs (cls, c): KILL_ALL kills each once, and each gets a note per map
        assert (kills, notes) == (6040 + 3642, 2 * 6040)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 40)
        .flatmap(lambda k: st.sampled_from(enumerate_classes(k)))
        .flatmap(
            lambda cls: st.tuples(
                st.just(cls), st.lists(st.integers(0, 1), min_size=cls.n, max_size=cls.n)
            )
        ),
        st.integers(-48, 6),
        st.dictionaries(st.integers(0, 16), st.fractions(0, 6, max_denominator=16), max_size=8)
        | st.sampled_from(GAMMA_MAPS),
    )
    def test_random_sigma_and_gamma_maps(self, cls_c, sigma, gamma):
        cls, c = cls_c
        want = reference_gamma_general(cls, c, sigma, gamma)
        assert same_verdict(gamma_general(cls, c, sigma, gamma), want)

    def test_two_kills_return_equal_but_independent_witnesses(self):
        cls, c, gamma = HomologyClass((2, 1)), [0, 0], {1: Fraction(15, 23)}
        first = gamma_general(cls, c, -2, gamma)
        second = gamma_general(cls, tuple(c), -2, gamma)
        assert first.obstructed and first == second
        assert first.witness is not second.witness
        with pytest.raises(TypeError):
            first.witness["eta"] = "changed"
        third = gamma_general(cls, c, -2, gamma)
        assert third == second == first and third.witness["eta"] != "changed"
        # the same (a, c) under another sigma has the same kappa but names its own index
        other = gamma_general(cls, c, -6, {3: Fraction(2)})
        assert (other.witness["i"], other.witness["kappa_min"]) == (3, second.witness["kappa_min"])

    def test_eta_is_read_through_this_module_once_per_kill(self, monkeypatch):
        calls = []

        def counted_eta(a, c):
            calls.append((a, c))
            return eta(a, c)

        monkeypatch.setattr(obstructions, "eta", counted_eta)
        # 16*kappa(a, 0) = 6 and k = 14, so 4*i = -8 - 2*sigma; 16*kappa(a, (0, 1, 0)) = 2
        cls, gamma = HomologyClass((3, 2, 1)), {0: Fraction(9), 1: Fraction(1, 16)}
        kill = (0, 0, 0)
        verdicts = [gamma_general(cls, kill, sigma, gamma) for sigma in (-4, -4, -5, -6, 0)]
        verdicts.append(gamma_general(cls, (0, 1, 0), -4, gamma))
        assert [vd.obstructed for vd in verdicts] == [True, True, False, False, False, False]
        assert [vd.note is not None for vd in verdicts] == [False, False, True, False, False, False]
        assert calls == [((3, 2, 1), kill)] * 2


class TestGamma21:
    def test_9_10(self):
        assert reference_gamma_21(2, 0, -4, {2: Fraction(36, 33)}).obstructed

    def test_9_5_two_one(self):
        assert reference_gamma_21(1, 1, -2, {1: Fraction(15, 23)}).obstructed

    def test_boundary_case_passes(self):
        assert not reference_gamma_21(0, 4, -2, {1: Fraction(1, 2)}).obstructed

    def test_positive_signature_passes(self):
        assert not reference_gamma_21(2, 0, 2, {0: Fraction(9)}).obstructed

    def test_agrees_with_general(self):
        samples = [Fraction(1, 2), Fraction(3, 5), Fraction(15, 23), Fraction(12, 11), Fraction(2)]
        for p in range(0, 7):
            for q in range(0, 7 - p):
                if p + q == 0:
                    continue
                cls = HomologyClass((2,) * p + (1,) * q)
                for sigma in (0, -2, -4):
                    for value in samples:
                        for i in (0, 1, 2, 3):
                            gamma = {i: value}
                            a = reference_gamma_21(p, q, sigma, gamma).obstructed
                            b = gamma_general(cls, (0,) * cls.n, sigma, gamma).obstructed
                            assert a == b, (p, q, sigma, value, i)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            reference_gamma_21(0, 0, -2, {})


def test_package_exports_what_ships():
    import slicedeg

    for name in ("gamma_21", "OddVector", "enumerate_odd_vectors", "kappa_min"):
        assert not hasattr(slicedeg, name), name
    assert slicedeg.kappa16 is slicedeg.lattice.kappa16


class TestDoubleTwistGamma:
    def test_values(self):
        assert double_twist_gamma(2, 2) == Fraction(3, 5)
        assert double_twist_gamma(2, 3) == Fraction(15, 23)
        assert double_twist_gamma(1, 1) == Fraction(1, 3)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            double_twist_gamma(0, 1)


class TestNullClassCheck:
    def test_negative_signature(self):
        rec = KnotRecord("9_42-ish", -2)
        vd = null_class_check(rec, None)
        assert vd.obstructed and vd.witness["reason"] == "signature"

    def test_positive_s(self):
        rec = KnotRecord("x", 0, s_invariants={0: 2})
        vd = null_class_check(rec, None)
        assert vd.obstructed and vd.witness["reason"] == "s_0"

    def test_clean_record_passes(self):
        rec = KnotRecord("x", 0, s_invariants={0: 0, 2: -2}, vs_spec=VsSpec("explicit", ()))
        assert not null_class_check(rec, vs_of(rec)).obstructed

    def test_positive_v0(self):
        rec = KnotRecord("x", 0, vs_spec=VsSpec("explicit", (1,)))
        vd = null_class_check(rec, vs_of(rec))
        assert vd.obstructed and vd.witness["reason"] == "V_0"

    def test_unknown_vs_gives_no_conclusion(self):
        rec = KnotRecord("x", 0)
        assert not null_class_check(rec, None).obstructed


class TestFriendRule:
    def test_level_two(self):
        assert friend_rule(2, 2).obstructed

    def test_level_four_boundary(self):
        assert not friend_rule(4, 2).obstructed

    def test_level_zero(self):
        assert friend_rule(0, 2).obstructed
        assert not friend_rule(0, 0).obstructed
        assert not friend_rule(0, -2).obstructed

    def test_exactness_against_float_scan(self):
        # float comparison is only a sanity check here; ties never occur since
        # sqrt(k) is irrational unless k is a perfect square
        import math

        for k in range(0, 200):
            for s in range(-6, 15):
                exact = friend_rule(k, s).obstructed
                approx = s > k - math.sqrt(k)
                if not math.isclose(s, k - math.sqrt(k)):
                    assert exact == approx, (k, s)
                else:
                    assert not exact  # strict inequality fails on exact equality


class TestVerdict:
    def test_obstructed_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(True)
