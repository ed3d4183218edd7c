"""Obstruction battery tests."""

from fractions import Fraction

import pytest

from slicedeg.knots import KnotRecord, VsSpec
from slicedeg.lattice import HomologyClass, enumerate_classes
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
