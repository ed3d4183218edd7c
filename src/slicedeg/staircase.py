"""V_s sequences of knots from staircase data.

Three independent routes produce the non-increasing sequence V_0, V_1, ...
for a knot whose full knot Floer complex is a single staircase:

* ``vs_thin``          -- closed formula in tau for Floer thin knots;
* ``vs_lspace_formula``-- one walk over the stair lengths l_k read off
                          an L-space-form Alexander polynomial;
* ``vs_staircase_oracle`` -- mod-2 homology of the truncated staircase
                          complex, decided per translate level by the
                          parity of the first generator the region drops;
                          used as the ground truth.

The torsion coefficients t_s = sum_{j>=1} j*a_{s+j} of the Alexander
polynomial give a fourth cross-check: they equal V_s whenever the complex
is a single staircase, that is, whenever ``staircase_from_alexander``
accepts the polynomial.  ``staircase_of`` makes that check for a record,
once for every route that needs it.  Disagreement between routes is
surfaced as ``OracleDisagreement``, never resolved silently.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _Frozen

if TYPE_CHECKING:  # pragma: no cover
    from .knots import KnotRecord


class NotLSpaceForm(ValueError):
    """Alexander coefficients do not have the alternating +-1 staircase shape."""


class VsUnavailable(LookupError):
    """The record carries no route to its V_s sequence."""


class OracleDisagreement(RuntimeError):
    """Two independent V_s computations produced different sequences."""


class WindowTooSmall(RuntimeError):
    """The translate window provably truncates a needed staircase copy."""


class VsSequence(_Frozen):
    """Non-increasing, eventually-zero sequence of non-negative integers.

    Only the positive prefix is stored; ``v(s)`` returns 0 past it.  The
    search reads only ``nu``, ``v`` and ``prefix``, which a thin knot's
    sequence answers from its formula (:func:`vs_thin`).
    """

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
            raise ValueError(f"V_s must be non-increasing: {list(values)}")
        if any(not isinstance(x, int) or x <= 0 for x in values):
            raise ValueError(f"stored prefix must be positive integers: {values}")
        self._set(values)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "VsSequence":
        """Build from a raw list of non-negative entries, trimming the zero tail."""
        vals = list(values)
        if any(v < 0 for v in vals):
            raise ValueError(f"V_s entries must be non-negative: {vals}")
        while vals and vals[-1] == 0:
            vals.pop()
        return cls(tuple(vals))

    @property
    def nu(self) -> int:
        """Smallest s with V_s = 0: the length of the positive prefix."""
        return len(self.values)

    def prefix(self, n: int) -> tuple[int, ...]:
        """The positive values among V_0 .. V_(n-1)."""
        return self.values[:n]

    def v(self, s: int) -> int:
        if s < 0:
            raise ValueError("s must be non-negative")
        return self.values[s] if s < len(self.values) else 0

    def is_zero(self) -> bool:
        return self.nu == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VsSequence):
            return NotImplemented
        return self.nu == other.nu and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.nu, self.v(0)))

    def steps_are_unit(self) -> bool:
        """True when consecutive drops (including onto the zero tail) are 0 or 1."""
        full = list(self.values) + [0]
        return all(0 <= full[i] - full[i + 1] <= 1 for i in range(len(full) - 1))

    def __str__(self) -> str:
        return "[" + ", ".join(str(x) for x in self.values) + "]"


class _ThinVs(VsSequence):
    """V_s = floor((tau + 1 - s) / 2) for s < tau, else 0: a thin knot with tau > 0.

    Only tau is kept, so ``nu`` and ``v`` are O(1), ``prefix(n)`` computes
    its min(n, tau) values from the formula on each call, and ``==``,
    ``hash`` and ``repr`` never list the sequence; ``values`` lists all tau
    of them.
    """

    __slots__ = _fields = ("tau",)

    def __init__(self, tau: int) -> None:
        self._set(tau)

    @property
    def values(self) -> tuple[int, ...]:  # type: ignore[override]
        return self.prefix(self.tau)

    @property
    def nu(self) -> int:
        return self.tau

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple((self.tau + 1 - s) // 2 for s in range(min(n, self.tau)))

    def v(self, s: int) -> int:
        if s < 0:
            raise ValueError("s must be non-negative")
        return max((self.tau + 1 - s) // 2, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ThinVs):
            return self.tau == other.tau
        return super().__eq__(other)

    __hash__ = VsSequence.__hash__

    def __repr__(self) -> str:
        return f"vs_thin({self.tau})"


class Staircase(_Frozen):
    """Staircase data of an L-space-type Alexander polynomial.

    ``n`` lists the positive support exponents n_1 < ... < n_m.  The full
    support is e_0 > ... > e_2m = (n_m, ..., n_1, 0, -n_1, ..., -n_m); the
    gaps are the consecutive differences and the width is the alternating
    sum n_m - n_{m-1} + ... +- n_1.
    """

    __slots__ = _fields = ("n",)

    def __init__(self, n: tuple[int, ...]) -> None:
        if not n:
            raise ValueError("staircase needs at least one positive exponent")
        if any(x < 1 for x in n) or any(n[i] >= n[i + 1] for i in range(len(n) - 1)):
            raise ValueError(f"exponents must be strictly increasing positives: {n}")
        self._set(n)

    @property
    def m(self) -> int:
        return len(self.n)

    @property
    def e(self) -> tuple[int, ...]:
        pos = tuple(reversed(self.n))
        return pos + (0,) + tuple(-x for x in self.n)

    @property
    def gaps(self) -> tuple[int, ...]:
        e = self.e
        return tuple(e[t - 1] - e[t] for t in range(1, len(e)))

    @property
    def width(self) -> int:
        return sum(x if i % 2 == 0 else -x for i, x in enumerate(reversed(self.n)))

    def stair_lengths(self) -> tuple[int, ...]:
        """l_k = n_k - n_{k-1} with n_0 = 0, for k = 1..m."""
        return tuple(b - a for a, b in zip((0,) + self.n, self.n))


def _genus(coeffs: Sequence[int]) -> int:
    if len(coeffs) % 2 == 0:
        raise ValueError("coefficient list must have odd length (exponents -g..g)")
    return len(coeffs) // 2


def check_alexander(coeffs: Sequence[int]) -> None:
    """Raise ValueError unless the list is a symmetric Alexander polynomial.

    That is: odd length (exponents -g..g), palindromic, value 1 at t = 1.
    """
    g = _genus(coeffs)
    if any(coeffs[g + i] != coeffs[g - i] for i in range(g + 1)):
        raise ValueError("coefficients must be palindromic")
    if sum(coeffs) != 1:
        raise ValueError(f"polynomial evaluates to {sum(coeffs)} at t=1, expected 1")


def staircase_from_alexander(coeffs: Sequence[int]) -> Staircase:
    """Read the staircase exponents off an L-space-form Alexander polynomial.

    Requires coefficient (-1)^(m-i) at exponent n_i, (-1)^m at 0, and zero
    elsewhere, for some 0 < n_1 < ... < n_m.
    """
    check_alexander(coeffs)
    g = _genus(coeffs)
    support = [i for i in range(1, g + 1) if coeffs[g + i] != 0]
    if not support:
        raise NotLSpaceForm("no positive support exponents")
    m = len(support)
    for idx, ni in enumerate(support, start=1):
        expected = (-1) ** (m - idx)
        if coeffs[g + ni] != expected:
            raise NotLSpaceForm(
                f"coefficient at exponent {ni} is {coeffs[g + ni]}, expected {expected}"
            )
    if coeffs[g] != (-1) ** m:
        raise NotLSpaceForm(f"constant coefficient is {coeffs[g]}, expected {(-1) ** m}")
    return Staircase(tuple(support))


def torsion_sequence(coeffs: Sequence[int]) -> VsSequence:
    """Torsion coefficients t_0, t_1, ... in O(g): t_g = 0, t_s - t_(s+1) = sum_{i>s} a_i."""
    check_alexander(coeffs)
    tails = accumulate(reversed(coeffs[_genus(coeffs) + 1 :]))  # sum_{i>s} a_i, s = g-1 .. 0
    return VsSequence.from_values(reversed([0, *accumulate(tails)]))


def vs_thin(tau: int) -> VsSequence:
    """V_s of a Floer thin knot: max(floor((tau+1-s)/2), 0), zero for tau <= 0.

    Values are read off the formula when asked for, so nu+ = tau and the
    V_j a search reads cost O(1) each however large tau is.
    """
    return _ThinVs(tau) if tau > 0 else VsSequence(())


def vs_lspace_formula(st: Staircase) -> VsSequence:
    """Closed formula for V_s in the stair lengths, as one walk over the stairs.

    The paper states it piecewise.  With l_0 = 0, l_{m+1} = +infinity and w
    the staircase width (indices of l are 0-based over l_0..l_{m+1}; empty
    sums are 0):

    * m odd:  on s in [sum_{k<N} l_{2k}, sum_{k<=N} l_{2k}), 1 <= N <= ceil(m/2):
        V_s = w - max_{1<=i<=N} min(sum_{k<i} l_{2k+1}, s - sum_{k<i} l_{2k})
    * m even: on s in [sum_{k<N} l_{2k+1}, sum_{k<=N} l_{2k+1}), 0 <= N <= m/2:
        V_s = w - max_{0<=i<=N} min(sum_{k<=i} l_{2k}, s - sum_{k<i} l_{2k+1})

    The inner max rises by 1 per step of s along every other stair, ending
    with the last stair l_m, and is level along the rest.  So V_0 = w, and
    V_s falls by 1 per step on l_m, l_{m-2}, l_{m-4}, ... and stays level on
    l_{m-1}, l_{m-3}, ...; those falls add up to w, so V_(n_m) = 0.

    Work: O(n_m + m).
    """
    falls = []
    for k, length in enumerate(st.stair_lengths()):
        fall = (st.m - k) % 2
        falls += [fall] * length
    return VsSequence.from_values(accumulate(falls, sub, initial=st.width))


# --- staircase homology oracle ---------------------------------------------


def _generator_positions(st: Staircase) -> list[tuple[int, int]]:
    """Lattice positions of the 2m+1 staircase generators.

    x_0 sits at (0, n_m); odd steps move right by the gap, even steps move
    down, so the chain ends at (n_m, 0).  The differential of an odd
    generator hits its two even neighbours and is non-increasing in both
    coordinates.
    """
    pos = [(0, st.n[-1])]
    for t, gap in enumerate(st.gaps, start=1):
        i, j = pos[-1]
        pos.append((i + gap, j) if t % 2 == 1 else (i, j - gap))
    return pos


def _tower_level(
    positions: list[tuple[int, int]], region, window: tuple[int, int]
) -> int:
    """Lowest level in the window at which the projected tower class survives.

    The differential preserves the translate level, so homology splits as a
    direct sum over levels.  At one level the quotient keeps the generators
    inside the region.  They lie on the path x_0 - x_1 - ... - x_2m, and each
    kept odd generator bounds its kept even neighbours.  The tower class is
    represented by the corner x_0 (any even generator gives the same class).
    A sum of boundaries equal to x_0 must use x_1, then x_3 to cancel x_2,
    and so on, so x_0 is a boundary exactly when x_1, x_3, ..., x_(2r-1) are
    kept and x_2r is the first generator dropped.  The class therefore
    survives iff the first generator outside the region has odd index,
    counting x_0 as index 0 and using 2m + 1 when none is dropped.
    """
    lo, hi = window
    for level in range(lo, hi + 1):
        gap = next(
            (t for t, (i, j) in enumerate(positions) if not region(i + level, j + level)),
            len(positions),
        )
        if gap % 2 == 1:
            if level == lo:
                raise WindowTooSmall(
                    f"tower already non-zero at window bottom {lo}; "
                    "a lower translate may be needed"
                )
            return level
    raise WindowTooSmall(f"tower not found below level {hi}")


def vs_staircase_oracle(st: Staircase, s_max: int | None = None) -> VsSequence:
    """V_s from the mod-2 homology of the truncated staircase complex.

    For each region A_s = {max(i, j - s) >= 0} and B = {i >= 0}, scans the
    diagonal translates of the staircase inside the window (-n_m - 2, 2)
    and finds the lowest level whose tower class survives; V_s is the
    difference of the two levels.  The complex is a path, so survival at a
    level is exact first-gap parity (see ``_tower_level``), not a general
    elimination.  The window provably contains both levels; ``_tower_level``
    still raises WindowTooSmall if a level falls at or outside its edge.

    The full sequence down to its vanishing point is always computed, so the
    implicit zero tail of the result is genuine; s_max (default n_m, past
    which V_s vanishes) only extends the scan.
    """
    if s_max is None:
        s_max = st.n[-1]
    if s_max < 0:
        raise ValueError("s_max must be non-negative")
    top = st.n[-1]
    window = (-top - 2, 2)
    positions = _generator_positions(st)

    level_b = _tower_level(positions, lambda i, j: i >= 0, window)
    values = []
    for s in range(max(s_max, top) + 1):
        level_a = _tower_level(
            positions, lambda i, j, s=s: max(i, j - s) >= 0, window
        )
        values.append(level_b - level_a)
    return VsSequence.from_values(values)


def staircase_of(record: "KnotRecord") -> Staircase:
    """The record's staircase: torsion and homology equal V_s only for one."""
    if record.alexander is None:
        raise VsUnavailable(f"{record.name}: no Alexander polynomial in the record")
    try:
        return staircase_from_alexander(record.alexander)
    except NotLSpaceForm as exc:
        raise NotLSpaceForm(f"{record.name}: no L-space-form Alexander polynomial: {exc}") from exc


def vs_of(record: "KnotRecord") -> VsSequence:
    """Dispatch a knot record to its V_s sequence.

    Explicit values pass through; thin records use the tau formula; L-space
    records pass ``staircase_of``, run the stair-length formula and must
    agree with the torsion coefficients of their Alexander polynomial;
    mirrors of L-space knots have vanishing V_s.
    """
    spec = record.vs_spec
    if spec.kind == "explicit":
        return VsSequence.from_values(spec.values)
    if spec.kind == "thin":
        if record.tau is None:
            raise VsUnavailable(f"{record.name}: thin V_s needs tau")
        return vs_thin(record.tau)
    if spec.kind == "lspace":
        formula = vs_lspace_formula(staircase_of(record))
        torsion = torsion_sequence(record.alexander)
        if formula != torsion:
            raise OracleDisagreement(
                f"{record.name}: stair formula {formula} != torsion coefficients {torsion}"
            )
        return formula
    if spec.kind == "mirror_lspace":
        return VsSequence(())
    raise VsUnavailable(f"{record.name}: V_s specification is unknown")
