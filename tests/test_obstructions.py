"""Obstruction battery tests."""

import gc
import itertools
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedeg.engine import EngineConfig, _gamma_c_vectors, lower_bound
from slicedeg.knots import KnotRecord, VsSpec
from slicedeg.lattice import HomologyClass, LaurentPoly, enumerate_classes, enumerate_odd_vectors
from slicedeg import obstructions
from slicedeg.obstructions import (
    Verdict,
    beta_adjunction,
    double_twist_gamma,
    friend_rule,
    gamma_21,
    gamma_general,
    null_class_check,
    stau_bound,
    vs_obstruction,
)
from slicedeg.staircase import VsSequence, vs_of, vs_thin


def reference_vs_obstruction(cls: HomologyClass, v: VsSequence) -> Verdict:
    """The first violating lambda of the depth-first odd-vector enumeration."""
    if v.is_zero():
        return Verdict(False)
    for lam in enumerate_odd_vectors(cls, v.v(0)):
        dot = sum(l * a for l, a in zip(lam.values, cls.a))
        j = (cls.norm - dot) // 2
        lhs = sum(l * l for l in lam.values) - cls.n
        rhs = 8 * v.v(j)
        if lhs < rhs:
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
    return total, LaurentPoly.from_terms(terms)


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

    def test_torus_ladder_tables_stay_resident(self, monkeypatch):
        # the torus-ladder benchmark's searches: thin T(2,2m+1) and vs-only explicit V_s
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
        searches = [(record, EngineConfig()) for record in ladder] + [
            (KnotRecord(f"V{values}", 0, vs_spec=VsSpec("explicit", values)), vs_only)
            for values in shapes
        ]
        first = [lower_bound(record, cfg) for record, cfg in searches]

        def rebuilt(head, rest):
            raise AssertionError("a table was evicted and rebuilt")

        monkeypatch.setattr(obstructions, "_build", rebuilt)
        assert [lower_bound(record, cfg) for record, cfg in searches] == first


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

    def test_class_four_zero_index_obstructs(self):
        # at sigma = -8 the index reaches 0 and any positive Gamma(0) beats 2*kappa = 0
        assert gamma_general(HomologyClass((4,)), (0,), -8, {0: Fraction(1)}).obstructed

    def test_unknown_gamma_passes(self):
        assert not gamma_general(HomologyClass((2,)), (0,), -2, {}).obstructed

    def test_boundary_not_strict(self):
        assert not gamma_general(
            HomologyClass((1,) * 4), (0,) * 4, -2, {1: Fraction(1, 2)}
        ).obstructed

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
        engine's over one c per orbit (``_gamma_c_vectors``) with the integer one.
        """
        pairs = kills = notes = first_kills = 0
        for k in range(1, 13):
            for cls in enumerate_classes(k):
                full = sorted(itertools.product((0, 1), repeat=cls.n))
                orbits = _gamma_c_vectors(cls.a, True)
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


class TestGamma21:
    def test_9_10(self):
        assert gamma_21(2, 0, -4, {2: Fraction(36, 33)}).obstructed

    def test_9_5_two_one(self):
        assert gamma_21(1, 1, -2, {1: Fraction(15, 23)}).obstructed

    def test_boundary_case_passes(self):
        assert not gamma_21(0, 4, -2, {1: Fraction(1, 2)}).obstructed

    def test_positive_signature_passes(self):
        assert not gamma_21(2, 0, 2, {0: Fraction(9)}).obstructed

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
                            a = gamma_21(p, q, sigma, gamma).obstructed
                            b = gamma_general(cls, (0,) * cls.n, sigma, gamma).obstructed
                            assert a == b, (p, q, sigma, value, i)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_21(0, 0, -2, {})


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
