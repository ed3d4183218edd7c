"""Staircase / V_s tests.

The torus-knot Alexander polynomials used as fixtures are generated by the
integer polynomial arithmetic at the top of this file (expand
(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) and symmetrize), independently of
the library code under test.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from slicedeg.staircase import (
    NotLSpaceForm,
    OracleDisagreement,
    Staircase,
    VsSequence,
    VsUnavailable,
    WindowTooSmall,
    _ThinVs,
    _tower_level,
    _generator_positions,
    staircase_from_alexander,
    torsion_sequence,
    vs_lspace_formula,
    vs_of,
    vs_staircase_oracle,
    vs_thin,
)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_divexact(num, den):
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        coef = num[shift + len(den) - 1] // den[-1]
        quot[shift] = coef
        for j, b in enumerate(den):
            num[shift + j] -= coef * b
    assert all(c == 0 for c in num), "division was not exact"
    return quot


def torus_alexander(p, q):
    """Dense symmetric coefficient list of the T(p,q) Alexander polynomial."""
    def cyc(n):  # t^n - 1
        out = [0] * (n + 1)
        out[0], out[n] = -1, 1
        return out

    num = poly_mul(cyc(p * q), cyc(1))
    r = poly_divexact(num, cyc(p))
    r = poly_divexact(r, cyc(q))
    genus = (p - 1) * (q - 1) // 2
    assert len(r) == 2 * genus + 1
    return r


T23 = torus_alexander(2, 3)
T25 = torus_alexander(2, 5)
T27 = torus_alexander(2, 7)
T34 = torus_alexander(3, 4)
T45 = torus_alexander(4, 5)


def all_staircases(max_top):
    """Every strictly increasing positive exponent tuple with n_m <= max_top."""
    from itertools import combinations

    for size in range(1, max_top + 1):
        for combo in combinations(range(1, max_top + 1), size):
            yield Staircase(combo)


def staircase_coeffs(st):
    """Rebuild the alternating +-1 Alexander coefficients of a staircase."""
    g = st.n[-1]
    coeffs = [0] * (2 * g + 1)
    m = st.m
    coeffs[g] = (-1) ** m
    for idx, ni in enumerate(st.n, start=1):
        coeffs[g + ni] = (-1) ** (m - idx)
        coeffs[g - ni] = (-1) ** (m - idx)
    return coeffs


def reference_torsion_coefficients(coeffs, s):
    """Torsion coefficient t_s = sum_{j>=1} j * a_{s+j} of the polynomial, term by term.

    Kept as the differential reference for ``torsion_sequence``.
    """
    g = len(coeffs) // 2
    return sum(j * coeffs[g + s + j] for j in range(1, g - s + 1))


def reference_vs_lspace_formula(st):
    """The paper's piecewise statement of V_s, one branch per parity of m.

    With l_0 = 0, l_{m+1} = +infinity and w the staircase width:

    * m odd:  on s in [sum_{k<N} l_{2k}, sum_{k<=N} l_{2k}), 1 <= N <= ceil(m/2):
        V_s = w - max_{1<=i<=N} min(sum_{k<i} l_{2k+1}, s - sum_{k<i} l_{2k})
    * m even: on s in [sum_{k<N} l_{2k+1}, sum_{k<=N} l_{2k+1}), 0 <= N <= m/2:
        V_s = w - max_{0<=i<=N} min(sum_{k<=i} l_{2k}, s - sum_{k<i} l_{2k+1})

    Kept as the differential reference for ``vs_lspace_formula``.
    """
    m = st.m
    ln = (0,) + st.stair_lengths()  # l_0..l_m; l_{m+1} handled as infinity
    width = st.width

    def l(idx):
        return ln[idx] if idx <= m else None  # None = +infinity

    def sum_l(indices):
        total = 0
        for idx in indices:
            li = l(idx)
            assert li is not None, "infinite stair inside a finite sum"
            total += li
        return total

    def value(s):
        if m % 2 == 1:
            for big_n in range(1, (m + 1) // 2 + 1):
                lo = sum_l(2 * k for k in range(big_n))
                hi_l = l(2 * big_n)
                if s >= lo and (hi_l is None or s < lo + hi_l):
                    return width - max(
                        min(
                            sum_l(2 * k + 1 for k in range(i)),
                            s - sum_l(2 * k for k in range(i)),
                        )
                        for i in range(1, big_n + 1)
                    )
        else:
            for big_n in range(0, m // 2 + 1):
                lo = sum_l(2 * k + 1 for k in range(big_n))
                hi_l = l(2 * big_n + 1)
                if s >= lo and (hi_l is None or s < lo + hi_l):
                    return width - max(
                        min(
                            sum_l(2 * k for k in range(i + 1)),
                            s - sum_l(2 * k + 1 for k in range(i)),
                        )
                        for i in range(0, big_n + 1)
                    )
        raise AssertionError(f"s = {s} not covered by the stair intervals")

    return VsSequence.from_values([value(s) for s in range(st.n[-1] + 1)])


class TestAlexanderFixtures:
    def test_expansions(self):
        assert T23 == [1, -1, 1]
        assert T25 == [1, -1, 1, -1, 1]
        assert T34 == [1, -1, 0, 1, 0, -1, 1]
        assert T45 == [1, -1, 0, 0, 1, 0, -1, 0, 1, 0, 0, -1, 1]


class TestStaircaseFromAlexander:
    def test_trefoil(self):
        st = staircase_from_alexander(T23)
        assert st.n == (1,)
        assert st.width == 1
        assert st.e == (1, 0, -1)
        assert st.gaps == (1, 1)

    def test_t34(self):
        st = staircase_from_alexander(T34)
        assert st.n == (2, 3)
        assert st.gaps == (1, 2, 2, 1)
        assert st.width == 1
        assert st.stair_lengths() == (2, 1)

    def test_t45(self):
        st = staircase_from_alexander(T45)
        assert st.n == (2, 5, 6)
        assert st.width == 3

    def test_rejects_coefficient_two(self):
        with pytest.raises(NotLSpaceForm):
            staircase_from_alexander([1, -2, 3, -2, 1])

    def test_rejects_wrong_sign_pattern(self):
        # palindromic, evaluates to 1, but signs do not alternate
        with pytest.raises(NotLSpaceForm):
            staircase_from_alexander([-1, 1, 1, 1, -1])

    def test_rejects_non_palindromic(self):
        with pytest.raises(ValueError):
            staircase_from_alexander([1, -1, 1, 0, 0])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            staircase_from_alexander([1, 0, 1])

    def test_gap_invariants_hold_everywhere(self):
        for st in all_staircases(6):
            gaps = st.gaps
            assert all(g > 0 for g in gaps)
            assert gaps == tuple(reversed(gaps))
            assert sum(gaps) == 2 * st.n[-1]
            assert st.width >= 1


class TestTorsionCoefficients:
    def test_trefoil_t0(self):
        assert reference_torsion_coefficients(T23, 0) == torsion_sequence(T23).v(0) == 1

    def test_t34_t2(self):
        assert reference_torsion_coefficients(T34, 2) == torsion_sequence(T34).v(2) == 1

    def test_vanishes_past_genus(self):
        for coeffs in (T23, T34, T45):
            g = len(coeffs) // 2
            for s in (g, g + 5):
                assert reference_torsion_coefficients(coeffs, s) == torsion_sequence(coeffs).v(s) == 0

    def test_t45_sequence(self):
        assert torsion_sequence(T45).values == (3, 2, 1, 1, 1, 1)

    def test_sequence_checks_once_and_matches_each_coefficient(self, monkeypatch):
        import slicedeg.staircase as sc

        fixtures = [T23, T25, T34, T45, torus_alexander(5, 6)]
        fixtures += [staircase_coeffs(st) for st in all_staircases(6)]
        want = [[reference_torsion_coefficients(c, s) for s in range(len(c) // 2 + 1)]
                for c in fixtures]
        calls = []
        check = sc.check_alexander
        monkeypatch.setattr(sc, "check_alexander", lambda coeffs: calls.append(1) or check(coeffs))
        for coeffs, values in zip(fixtures, want):
            before = len(calls)
            assert torsion_sequence(coeffs) == VsSequence.from_values(values)
            assert len(calls) == before + 1


class TestVsThin:
    def test_tau_one(self):
        assert vs_thin(1).values == (1,)

    def test_tau_zero_and_negative(self):
        assert vs_thin(0).values == ()
        assert vs_thin(-3).values == ()

    def test_tau_three_matches_staircase_oracle(self):
        st = staircase_from_alexander(T27)
        assert vs_thin(3) == vs_staircase_oracle(st, 3)
        assert vs_thin(3).values == (2, 1, 1)

    def test_nu_plus_recovers_tau(self):
        for tau in range(0, 9):
            assert vs_thin(tau).nu == tau

    def test_unit_steps_and_vanishing(self):
        for tau in range(0, 9):
            seq = vs_thin(tau)
            assert seq.steps_are_unit()
            assert seq.v(max(tau, 0)) == 0

    def test_formula_matches_stored_values(self):
        for tau in range(1, 12):
            seq, stored = vs_thin(tau), VsSequence(vs_thin(tau).values)
            assert seq == stored and stored == seq and hash(seq) == hash(stored)
            assert [seq.v(s) for s in range(tau + 3)] == [stored.v(s) for s in range(tau + 3)]
            assert all(seq.prefix(n) == stored.prefix(n) for n in range(tau + 3))
        assert vs_thin(3) != VsSequence((2, 1)) and vs_thin(4) != vs_thin(3)

    def test_huge_tau_is_not_listed(self, monkeypatch):
        def listed(seq):
            raise AssertionError("the whole sequence was listed")

        monkeypatch.setattr(_ThinVs, "values", property(listed))
        tau = 10**30
        seq = vs_thin(tau)
        assert seq.nu == tau and not seq.is_zero()
        assert seq.v(0) == tau // 2 and seq.v(tau - 1) == 1 and seq.v(tau) == 0
        assert seq.prefix(3) == (tau // 2, tau // 2, tau // 2 - 1)
        assert seq == vs_thin(tau) and seq != vs_thin(tau + 1)
        assert seq != VsSequence((1,)) and hash(seq) == hash(vs_thin(tau))
        assert repr(seq) == f"vs_thin({tau})"

    def test_prefix_in_any_order_of_lengths(self):
        stored = VsSequence(vs_thin(9).values)
        for lengths in ((4, 2, 12, 9, 0), (12, 4), (0, 1, 2, 3)):
            seq = vs_thin(9)
            assert [seq.prefix(n) for n in lengths] == [stored.prefix(n) for n in lengths]


class TestVsLspaceFormula:
    def test_small_torus_knots(self):
        assert vs_lspace_formula(staircase_from_alexander(T23)).values == (1,)
        assert vs_lspace_formula(staircase_from_alexander(T25)).values == (1, 1)
        assert vs_lspace_formula(staircase_from_alexander(T34)).values == (1, 1, 1)

    def test_t45(self):
        assert vs_lspace_formula(staircase_from_alexander(T45)).values == (3, 2, 1, 1, 1, 1)

    def test_agrees_with_thin_on_t2_family(self):
        for m in (*range(1, 7), 20000):
            st = Staircase(tuple(range(1, m + 1)))
            assert vs_lspace_formula(st) == vs_thin(m)

    def test_matches_reference_and_torsion_exhaustive(self):
        count = 0
        for st in all_staircases(10):
            formula = vs_lspace_formula(st)
            assert formula == reference_vs_lspace_formula(st), f"n = {st.n}"
            assert formula == torsion_sequence(staircase_coeffs(st)), f"n = {st.n}"
            count += 1
        assert count == 1023

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        hst.integers(11, 48).flatmap(
            lambda top: hst.sets(hst.integers(1, top - 1)).map(
                lambda rest: Staircase(tuple(sorted(rest)) + (top,))
            )
        )
    )
    def test_matches_torsion_deep(self, st):
        formula = vs_lspace_formula(st)
        assert formula == reference_vs_lspace_formula(st)
        assert formula == torsion_sequence(staircase_coeffs(st))

    def test_reads_width_once(self, monkeypatch):
        # width is O(m); read per s it made the formula O(n_m * m) in width alone
        reads = []
        width = Staircase.width.fget
        monkeypatch.setattr(Staircase, "width", property(lambda st: reads.append(1) or width(st)))
        st = staircase_from_alexander(T45)
        assert vs_lspace_formula(st).values == (3, 2, 1, 1, 1, 1)
        assert len(reads) == 1


class TestStaircaseOracle:
    def test_trefoil_levels(self):
        positions = _generator_positions(staircase_from_alexander(T23))
        assert positions == [(0, 1), (1, 1), (1, 0)]
        window = (-3, 2)
        assert _tower_level(positions, lambda i, j: i >= 0, window) == 0
        assert _tower_level(positions, lambda i, j: max(i, j) >= 0, window) == -1

    def test_trefoil(self):
        st = staircase_from_alexander(T23)
        assert vs_staircase_oracle(st, 1).values == (1,)

    def test_t34(self):
        st = staircase_from_alexander(T34)
        assert vs_staircase_oracle(st, 3) == torsion_sequence(T34)

    def test_vanishes_at_top_exponent(self):
        for st in (staircase_from_alexander(T34), staircase_from_alexander(T45)):
            seq = vs_staircase_oracle(st, st.n[-1] + 3)
            assert seq.v(st.n[-1]) == 0

    def test_window_too_small(self):
        positions = _generator_positions(staircase_from_alexander(T45))
        with pytest.raises(WindowTooSmall):
            _tower_level(positions, lambda i, j: max(i, j) >= 0, (-1, 1))

    def test_triple_agreement_exhaustive(self):
        # acceptance widens this to n_m <= 8; keep the unit run snappy
        for st in all_staircases(5):
            formula = vs_lspace_formula(st)
            oracle = vs_staircase_oracle(st, st.n[-1])
            torsion = torsion_sequence(staircase_coeffs(st))
            assert formula == oracle == torsion, f"disagreement at n = {st.n}"

    def test_produced_sequences_have_unit_steps(self):
        for st in all_staircases(5):
            seq = vs_staircase_oracle(st, st.n[-1])
            assert seq.steps_are_unit()
            assert seq.v(0) == st.width

    def test_first_gap_parity_is_path_homology(self):
        """For every keep/drop pattern of a path x_0 - ... - x_2m (2m + 1 <= 13),
        the tower class survives iff x_0 is kept and not in the GF(2) span of
        the kept odd generators' boundaries restricted to the kept evens."""
        for m in range(1, 7):
            size = 2 * m + 1
            positions = [(t, 0) for t in range(size)]
            for keep in range(1 << size):
                columns = [
                    ((1 << (t - 1)) | (1 << (t + 1))) & keep
                    for t in range(1, size, 2)
                    if keep >> t & 1
                ]
                spans_x0 = False
                for subset in range(1 << len(columns)):
                    acc = 0
                    for bit, col in enumerate(columns):
                        if subset >> bit & 1:
                            acc ^= col
                    spans_x0 = spans_x0 or acc == 1
                survives = bool(keep & 1) and not spans_x0
                # a point (t + level, level): level -1 keeps x_0, x_1 and drops
                # x_2 (a dead class), level 0 is the pattern, level 1 keeps all
                masks = {-1: 0b11, 0: keep, 1: (1 << size) - 1}
                level = _tower_level(positions, lambda i, j: masks[j] >> (i - j) & 1, (-1, 1))
                assert level == (0 if survives else 1), (m, bin(keep))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        hst.integers(9, 24).flatmap(
            lambda top: hst.sets(hst.integers(1, top - 1)).map(
                lambda rest: Staircase(tuple(sorted(rest)) + (top,))
            )
        )
    )
    def test_matches_formula_deep(self, st):
        assert vs_staircase_oracle(st) == vs_lspace_formula(st)


class TestVsSequence:
    def test_from_values_trims_zero_tail(self):
        assert VsSequence.from_values([1, 0]).values == (1,)
        assert VsSequence.from_values([]).values == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            VsSequence.from_values([0, 1])

    def test_order_checked_once_before_positivity(self):
        with pytest.raises(ValueError, match=r"V_s must be non-increasing: \[2, 0, 1\]"):
            VsSequence.from_values([2, 0, 1])
        with pytest.raises(ValueError, match=r"V_s must be non-increasing: \[2, 0, 1\]"):
            VsSequence((2, 0, 1))
        with pytest.raises(ValueError, match="positive integers"):
            VsSequence((1, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VsSequence.from_values([1, -1])

    def test_accessor_zero_tail(self):
        seq = VsSequence((2, 1))
        assert [seq.v(s) for s in range(5)] == [2, 1, 0, 0, 0]

    def test_steps_are_unit(self):
        assert VsSequence((2, 1, 1)).steps_are_unit()
        assert not VsSequence((3, 1)).steps_are_unit()
        assert not VsSequence((2,)).steps_are_unit()  # drops 2 -> 0 at the tail

    def test_nu_plus(self):
        assert VsSequence(()).nu == 0
        assert VsSequence((1,)).nu == 1
        assert VsSequence((2, 1, 1)).nu == 3


def _record(**kw):
    base = dict(name="test", tau=None, alexander=None)
    base.update(kw)
    return SimpleNamespace(**base)


class TestVsOf:
    def test_thin_dispatch(self):
        rec = _record(vs_spec=SimpleNamespace(kind="thin"), tau=1)
        assert vs_of(rec).values == (1,)

    def test_mirror_lspace(self):
        rec = _record(vs_spec=SimpleNamespace(kind="mirror_lspace"))
        assert vs_of(rec).values == ()

    def test_explicit_passthrough(self):
        rec = _record(vs_spec=SimpleNamespace(kind="explicit", values=(1,)))
        assert vs_of(rec).values == (1,)

    def test_lspace_pipeline(self):
        rec = _record(vs_spec=SimpleNamespace(kind="lspace"), alexander=tuple(T34))
        assert vs_of(rec).values == (1, 1, 1)

    def test_unknown_raises(self):
        rec = _record(vs_spec=SimpleNamespace(kind="unknown"))
        with pytest.raises(VsUnavailable):
            vs_of(rec)

    def test_thin_without_tau_raises(self):
        rec = _record(vs_spec=SimpleNamespace(kind="thin"))
        with pytest.raises(VsUnavailable):
            vs_of(rec)

    def test_oracle_disagreement_surfaces(self, monkeypatch):
        import slicedeg.staircase as sc

        monkeypatch.setattr(sc, "torsion_sequence", lambda coeffs: VsSequence((9,)))
        rec = _record(vs_spec=SimpleNamespace(kind="lspace"), alexander=tuple(T34))
        with pytest.raises(OracleDisagreement):
            sc.vs_of(rec)
