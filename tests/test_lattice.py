"""Lattice-layer tests: class enumeration, odd vectors, kappa_min / eta.

Expected values are frozen from the brute-force oracles defined at the top
of the file, which are deliberately dumber than the library code.
"""

import functools
import gc
import math
import sys
from fractions import Fraction
from itertools import product

import pytest

from slicedeg.engine import BetaTableRow, beta_table
from slicedeg.lattice import (
    HomologyClass,
    LaurentPoly,
    OddVector,
    enumerate_classes,
    enumerate_odd_vectors,
    eta,
    iter_classes,
    kappa16,
    kappa_min,
)


@functools.lru_cache(maxsize=None)
def brute_square_partitions(k: int) -> frozenset[tuple[int, ...]]:
    """All descending tuples of positive ints with sum of squares k, by blunt recursion."""
    if k == 0:
        return frozenset({()})
    found = set()
    for first in range(1, k + 1):
        if first * first > k:
            break
        for rest in brute_square_partitions(k - first * first):
            tup = tuple(sorted(rest + (first,), reverse=True))
            if all(x <= tup[0] for x in tup):
                found.add(tup)
    return frozenset(found)


def recursive_classes(k: int) -> list[HomologyClass]:
    """The recursive enumerator that iter_classes replaced: one call per part."""
    out: list[HomologyClass] = []

    def descend(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(HomologyClass(tuple(prefix)))
            return
        top = min(max_part, math.isqrt(remaining))
        for part in range(top, 0, -1):
            prefix.append(part)
            descend(remaining - part * part, part, prefix)
            prefix.pop()

    descend(k, k, [])
    return out


def level_loop_beta_table(betas: list[int]) -> list[BetaTableRow]:
    """The level loop that beta_table replaced, with its inline adjunction test."""
    rows = []
    for beta in betas:
        if beta <= 0:
            rows.append(BetaTableRow(beta, 0, HomologyClass(())))
            continue
        k = 1
        while True:
            hit = next(
                (cls for cls in recursive_classes(k) if beta <= cls.norm - sum(cls.a)), None
            )
            if hit is not None:
                rows.append(BetaTableRow(beta, k, hit))
                break
            k += 1
    return rows


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def brute_odd_vectors(a: tuple[int, ...], v0: int) -> set[tuple[int, ...]]:
    """Direct product scan of the odd-vector domain for the V_s search."""
    budget = 8 * v0
    k = sum(x * x for x in a)
    biggest = 1
    while (biggest + 2) ** 2 - 1 <= budget:
        biggest += 2
    values = [v for mag in range(1, biggest + 1, 2) for v in (mag, -mag)]
    out = set()
    for lam in product(values, repeat=len(a)):
        if sum(v * v - 1 for v in lam) > budget:
            continue
        dot = sum(v * x for v, x in zip(lam, a))
        if 0 <= dot <= k:
            out.add(lam)
    return out


def brute_kappa_coord(a: int, c: int) -> tuple[Fraction, list[int]]:
    best = None
    argmin: list[int] = []
    for z in range(-abs(a) - 2, abs(a) + 3):
        val = (Fraction(z) + Fraction(a, 4) - Fraction(c, 2)) ** 2
        if best is None or val < best:
            best, argmin = val, [z]
        elif val == best:
            argmin.append(z)
    return best, argmin


class TestHomologyClass:
    def test_normalization(self):
        cls = HomologyClass.from_values([-1, 2, 0, 1, -3])
        assert cls.a == (3, 2, 1, 1)
        assert cls.norm == 15
        assert cls.n == 4

    def test_empty_class(self):
        cls = HomologyClass(())
        assert cls.n == 0 and cls.norm == 0
        assert str(cls) == "()"

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            HomologyClass((1, 2))
        with pytest.raises(ValueError):
            HomologyClass((2, 0))

    def test_str(self):
        assert str(HomologyClass((2, 1))) == "(2,1)"


class TestEnumerateClasses:
    def test_k0(self):
        assert enumerate_classes(0) == [HomologyClass(())]

    def test_k4(self):
        assert [c.a for c in enumerate_classes(4)] == [(2,), (1, 1, 1, 1)]

    def test_k9(self):
        assert [c.a for c in enumerate_classes(9)] == [
            (3,),
            (2, 2, 1),
            (2, 1, 1, 1, 1, 1),
            (1,) * 9,
        ]

    def test_matches_bruteforce_sets_small(self):
        for k in range(0, 41):
            assert {c.a for c in enumerate_classes(k)} == brute_square_partitions(k)

    def test_counts_up_to_60(self):
        # independent count: DP over square parts
        def count(k: int, max_part: int) -> int:
            if k == 0:
                return 1
            total = 0
            part = min(max_part, int(k**0.5))
            while part >= 1:
                total += count(k - part * part, part)
                part -= 1
            return total

        for k in range(0, 61):
            assert len(enumerate_classes(k)) == count(k, k)

    def test_lexicographic_descending_order(self):
        for k in (9, 12, 16, 25):
            tuples = [c.a for c in enumerate_classes(k)]
            assert tuples == sorted(tuples, reverse=True)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_classes(-1)
        with pytest.raises(ValueError):
            next(iter_classes(-1))

    def test_same_order_as_recursive_reference(self):
        for k in range(0, 61):
            assert list(iter_classes(k)) == recursive_classes(k), k

    def test_beta_table_matches_level_loop(self):
        betas = list(range(-3, 41))
        assert beta_table(betas) == level_loop_beta_table(betas)

    def test_deep_level_needs_no_recursion(self):
        # the recursive enumerator needs a call per part: 80 frames for (1^80)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 50)
        try:
            classes = enumerate_classes(80)
        finally:
            sys.setrecursionlimit(limit)
        assert len(classes) == 476
        assert classes[-1].a == (1,) * 80

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for k in range(1, 31):
                enumerate_classes(k)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumerateOddVectors:
    def test_single_two(self):
        got = list(enumerate_odd_vectors(HomologyClass((2,)), 1))
        assert [v.values for v in got] == [(1,)]

    def test_pair_of_ones(self):
        # brute oracle: {(1,1),(1,-1),(-1,1),(-1,3),(3,-1)}; budget 8 is inclusive
        cls = HomologyClass((1, 1))
        assert brute_odd_vectors((1, 1), 1) == {(1, 1), (1, -1), (-1, 1), (-1, 3), (3, -1)}
        got = [v.values for v in enumerate_odd_vectors(cls, 1)]
        assert set(got) == brute_odd_vectors((1, 1), 1)
        # deterministic order: all-ones first, magnitudes grow outward
        assert got[0] == (1, 1)
        assert got[:3] == [(1, 1), (1, -1), (-1, 1)]

    def test_single_one_v0_zero(self):
        got = list(enumerate_odd_vectors(HomologyClass((1,)), 0))
        assert [v.values for v in got] == [(1,)]

    @pytest.mark.parametrize("a", [(2,), (2, 1), (3, 1, 1), (2, 2, 2), (1, 1, 1, 1)])
    @pytest.mark.parametrize("v0", [0, 1, 2])
    def test_matches_bruteforce(self, a, v0):
        got = sorted(v.values for v in enumerate_odd_vectors(HomologyClass(a), v0))
        assert got == sorted(brute_odd_vectors(a, v0))

    def test_no_duplicates(self):
        got = [v.values for v in enumerate_odd_vectors(HomologyClass((2, 2, 1)), 2)]
        assert len(got) == len(set(got))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_odd_vectors(HomologyClass(()), 1))

    def test_odd_vector_validates(self):
        with pytest.raises(ValueError):
            OddVector((2,))


class TestKappaMin:
    def test_known_energy_values(self):
        assert kappa_min((2,), (0,)) == (Fraction(1, 4), [(-1,), (0,)])
        assert kappa_min((1,), (0,)) == (Fraction(1, 16), [(0,)])
        assert kappa_min((4,), (0,)) == (Fraction(0), [(-1,)])

    def test_per_coordinate_bruteforce(self):
        for a in range(-12, 13):
            for c in range(-2, 3):
                val, phi = kappa_min((a,), (c,))
                bval, bargs = brute_kappa_coord(a, c)
                assert val == bval
                assert kappa16((a,), (c,)) == 16 * bval
                assert [z[0] for z in phi] == bargs

    def test_separable(self):
        v1, _ = kappa_min((2,), (0,))
        v2, _ = kappa_min((3,), (1,))
        v12, phi = kappa_min((2, 3), (0, 1))
        assert v12 == v1 + v2
        assert len(phi) == 2  # two minimizers from the first coordinate

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kappa_min((1, 2), (0,))

    def test_empty(self):
        assert kappa_min((), ()) == (Fraction(0), [()])


class TestEta:
    def test_single_two(self):
        assert eta((2,), (0,)) == LaurentPoly({0: 1, 4: -1})

    def test_two_twos_squares(self):
        assert eta((2, 2), (0, 0)) == LaurentPoly({0: 1, 4: -2, 8: 1})

    def test_single_one(self):
        assert eta((1,), (0,)) == LaurentPoly({0: 1})

    def test_zero_padding_is_identity(self):
        base = eta((2, 1), (0, 0))
        padded = eta((2, 1, 0, 0), (0, 0, 0, 0))
        assert base == padded

    def test_multiplicative_over_concatenation(self):
        for a1, a2 in [((2,), (1,)), ((2, 2), (3,)), ((4, 1), (2, 2))]:
            c1 = (0,) * len(a1)
            c2 = (0,) * len(a2)
            assert eta(a1 + a2, c1 + c2) == eta(a1, c1) * eta(a2, c2)

    def test_nonzero_c(self):
        # a=2, c=1: f = 1/2 - 1/2 = 0, unique z = 0, nu = 2*(1-0) = 2
        assert eta((2,), (1,)) == LaurentPoly({2: 1})

    def test_product_equals_phi_min_expansion(self):
        # signed and zero entries included: a zero entry with odd c has two
        # argmins whose terms cancel, so eta is zero there
        zeros = 0
        for n in (1, 2, 3):
            for a in product(range(-3, 4), repeat=n):
                for c in product((-1, 0, 1), repeat=n):
                    _, phi = kappa_min(a, c)
                    expanded = LaurentPoly.from_terms(
                        (
                            sum(ai * (ci - 2 * zi) for ai, ci, zi in zip(a, c, z)),
                            -1 if sum(zi * zi for zi in z) % 2 else 1,
                        )
                        for z in phi
                    )
                    assert eta(a, c) == expanded, (a, c)
                    zeros += expanded.is_zero()
        assert zeros > 0

    def test_str_rendering(self):
        assert str(eta((2,), (0,))) == "1 - T^4"
        assert str(LaurentPoly({0: 1})) == "1"
        assert str(LaurentPoly({})) == "0"


class TestStability:
    """Widening the odd-vector search box never creates new violations.

    A violating lambda needs sum(lam^2) - n < 8*V_j <= 8*V_0, so it already
    lies inside the enumerated budget; vectors admitted by a wider box can
    only satisfy the inequality.  Checked directly on small classes by
    comparing violation sets over the two boxes.
    """

    @staticmethod
    def violations(a: tuple[int, ...], vs: list[int], box: set[tuple[int, ...]]):
        k = sum(x * x for x in a)
        n = len(a)

        def v(j: int) -> int:
            return vs[j] if 0 <= j < len(vs) else 0

        out = set()
        for lam in box:
            dot = sum(l * x for l, x in zip(lam, a))
            j = (k - dot) // 2
            if sum(l * l for l in lam) - n < 8 * v(j):
                out.add(lam)
        return out

    def test_box_enlargement(self):
        sequences = [[], [1], [2, 1], [3, 2, 1], [2, 2, 1], [1, 1, 1], [3, 1, 1]]
        classes = [c.a for k in range(1, 21) for c in enumerate_classes(k) if c.n <= 4]
        for a in classes:
            k = sum(x * x for x in a)
            for vs in sequences:
                v0 = vs[0] if vs else 0
                base = brute_odd_vectors(a, v0)
                cap = 1
                while (cap + 2) ** 2 - 1 <= 8 * v0:
                    cap += 2
                wide_values = [v for m in range(1, cap + 3, 2) for v in (m, -m)]
                wide = {
                    lam
                    for lam in product(wide_values, repeat=len(a))
                    if 0 <= sum(l * x for l, x in zip(lam, a)) <= k
                }
                assert self.violations(a, vs, base) == self.violations(a, vs, wide)
