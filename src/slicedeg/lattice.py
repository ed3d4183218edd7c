"""Integer-lattice search spaces for the obstruction engine.

Candidate disk homology classes in a diagonal negative-definite form are
multisets of positive integers (a1 >= ... >= an >= 1) with norm
k = sum(ai^2).  Permuting coordinates and flipping signs are symmetries of
every obstruction we apply (sign flips are absorbed by the lambda/z
variables), so classes are stored sign-normalized, sorted descending, with
zero coordinates dropped; :func:`iter_classes` streams a level lazily.

This module also computes the minimal topological energy kappa_min of
reducibles over the integer lattice, its argmin set Phi_min, and the signed
Laurent count eta weighted by monopole number, all one coordinate at a
time.  eta is in closed form: a signed monomial times one binomial
1 - T^(2*a_i) per coordinate with two argmins, with sign and shift summed
in integers and the binomials expanded in one dict.  Everything is exact:
norms and energies are integers (energies scaled by 16) or Fractions,
never floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import _Frozen


class HomologyClass(_Frozen):
    """A normalized disk homology class: positive entries, sorted descending.

    The empty class (n = 0) is the null-homologous disk with k = 0.  The
    stored norm k = sum(a_i^2) takes no part in equality, hash or repr.
    """

    __slots__ = ("a", "norm")
    _fields = ("a",)

    def __init__(self, a: tuple[int, ...]) -> None:
        if any(not isinstance(x, int) or x < 1 for x in a):
            raise ValueError(f"class entries must be positive integers: {a}")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise ValueError(f"class entries must be sorted descending: {a}")
        self._set(a, sum(x * x for x in a))

    @classmethod
    def _trusted(cls, a: tuple[int, ...], norm: int) -> "HomologyClass":
        """A class its caller built valid, with its norm, skipping the two scans."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "a", a)
        object.__setattr__(obj, "norm", norm)
        return obj

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "HomologyClass":
        """Normalize arbitrary integer coordinates: drop zeros, strip signs, sort."""
        return cls(tuple(sorted((abs(v) for v in values if v != 0), reverse=True)))

    @property
    def n(self) -> int:
        return len(self.a)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.a) + ")"


class OddVector(_Frozen):
    """A vector of odd integers paired with a homology class of equal length."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        if any(v % 2 == 0 for v in values):
            raise ValueError(f"entries must be odd: {values}")
        self._set(values)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


class LaurentPoly(_Frozen):
    """Integer Laurent polynomial in T, stored as exponent -> coefficient."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None) -> None:
        coeffs = {} if coeffs is None else coeffs
        if any(c == 0 for c in coeffs.values()):
            raise ValueError("zero coefficients must not be stored")
        self._set(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs):
            coef = self.coeffs[exp]
            if exp == 0:
                term = str(abs(coef))
            else:
                base = "T" if exp == 1 else f"T^{exp}"
                term = base if abs(coef) == 1 else f"{abs(coef)}*{base}"
            if not parts:
                parts.append(term if coef > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if coef > 0 else f"- {term}")
        return " ".join(parts)


def iter_classes(k: int) -> Iterator[HomologyClass]:
    """Stream the multisets of positive integers with sum of squares k, without recursion.

    Lexicographically descending on the sorted tuples; k = 0 yields only the
    empty class.  Each class is completed greedily (largest part that fits),
    and the next one lowers the last part above 1 and drops the ones after it.
    Once the greedy part reaches 1 the remaining ones are appended in one
    step, and after the yield that trailing run is dropped by one slice
    delete, so a run of ones costs no per-part loop.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    parts: list[int] = []
    rest, top = k, k
    while True:
        while rest:
            top = min(top, math.isqrt(rest))
            if top == 1:
                break
            parts.append(top)
            rest -= top * top
        parts += [1] * rest  # rest is now the length of the trailing run of ones
        yield HomologyClass._trusted(tuple(parts), k)
        del parts[len(parts) - rest :]
        if not parts:
            return
        top = parts.pop()
        rest, top = rest + top * top, top - 1


def enumerate_classes(k: int) -> list[HomologyClass]:
    """All classes of norm k, as a list in :func:`iter_classes` order."""
    return list(iter_classes(k))


def enumerate_odd_vectors(cls: HomologyClass, v0: int) -> Iterator[OddVector]:
    """Stream the odd vectors relevant to the V_s obstruction on ``cls``.

    Yields every odd vector lam with 0 <= sum(lam_i * a_i) <= k and
    sum(lam_i^2 - 1) <= 8*v0, each exactly once.  Any vector that can
    violate the V_s inequality lies in this domain: a violation needs
    sum(lam_i^2) - n < 8*V_j <= 8*V_0.

    Coordinate values are tried in the order 1, -1, 3, -3, ... so the
    all-ones vector comes first.

    This is the reference enumeration, not the engine path: the engine
    decides the V_s check by the cost-layer bitsets of
    :func:`slicedeg.obstructions.vs_obstruction`, whose witness is the first
    violating vector of cost <= cap in this order (the first violating one
    outright when cap = 8*V_0 - 1), and the tests compare the two.  The
    search is exponential in n and in v0, and recurses once per coordinate.
    """
    if cls.n == 0:
        raise ValueError("class must be non-empty")
    if v0 < 0:
        raise ValueError("v0 must be non-negative")
    budget = 8 * v0
    k = cls.norm
    a = cls.a
    n = cls.n

    def candidates(spent: int) -> Iterator[int]:
        mag = 1
        while mag * mag - 1 <= budget - spent:
            yield mag
            yield -mag
            mag += 2

    def rec(i: int, spent: int, dot: int, prefix: list[int]) -> Iterator[OddVector]:
        if i == n:
            if 0 <= dot <= k:
                yield OddVector(tuple(prefix))
            return
        for val in candidates(spent):
            new_dot = dot + val * a[i]
            # prune: even with extremal tails the dot product cannot re-enter [0, k]
            tail = _tail_reach(a, i + 1, budget - spent - (val * val - 1))
            if new_dot + tail < 0 or new_dot - tail > k:
                continue
            prefix.append(val)
            yield from rec(i + 1, spent + val * val - 1, new_dot, prefix)
            prefix.pop()

    yield from rec(0, 0, 0, [])


def _tail_reach(a: Sequence[int], start: int, budget_left: int) -> int:
    """Upper bound on |sum of lam_j a_j| over odd tails within the budget."""
    reach = 0
    for j in range(start, len(a)):
        mag = 1
        while (mag + 2) ** 2 - 1 <= budget_left:
            mag += 2
        reach += mag * a[j]
    return reach


# The values of 4z + t nearest to 0 over integer z, by t mod 4.
_NEAREST = ((0,), (1,), (-2, 2), (-1,))


def _coordinate_minimizers(ai: int, ci: int) -> tuple[int, tuple[int, ...]]:
    """16 * min over integer z of (z + ai/4 - ci/2)^2, and its argmins in increasing order.

    With t = ai - 2*ci the energy is (4z + t)^2 / 16, so the minimum and
    its argmins depend only on t mod 4 (see ``_NEAREST``): one argmin, or
    two when t = 2 mod 4.
    """
    t = ai - 2 * ci
    nearest = _NEAREST[t % 4]
    return nearest[0] ** 2, tuple((v - t) // 4 for v in nearest)


def kappa16(cls_signed: Sequence[int], c: Sequence[int]) -> int:
    """16 * kappa_min(cls_signed, c), in integers and without the argmins."""
    if len(cls_signed) != len(c):
        raise ValueError("class and c must have the same length")
    return sum(_NEAREST[(ai - 2 * ci) % 4][0] ** 2 for ai, ci in zip(cls_signed, c))


def kappa_min(
    cls_signed: Sequence[int], c: Sequence[int]
) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Minimal energy sum((z_i + a_i/4 - c_i/2)^2) over integer z, with argmins.

    The form is separable, so the minimum and the full argmin set Phi_min
    are computed per coordinate; Phi_min is their Cartesian product, up to
    2^n points.  Exact rationals throughout (denominator divides 16).
    """
    if len(cls_signed) != len(c):
        raise ValueError("class and c must have the same length")
    minima = [_coordinate_minimizers(ai, ci) for ai, ci in zip(cls_signed, c)]
    phi = list(itertools.product(*(zs for _, zs in minima)))
    return Fraction(sum(m for m, _ in minima), 16), phi


def eta(cls_signed: Sequence[int], c: Sequence[int]) -> LaurentPoly:
    """Signed Laurent count of minimal reducibles.

    eta = sum over z in Phi_min of (-1)^(sum z_i^2) * T^(sum a_i (c_i - 2 z_i)).

    Sign and exponent factor over the coordinates.  With t = a_i - 2*c_i and
    z the least argmin of coordinate i, its factor is the monomial
    (-1)^z * T^(a_i (c_i - 2z)) when t != 2 mod 4, and otherwise (argmins z
    and z + 1) (-1)^(z+1) * T^(a_i (c_i - 2z) - 2 a_i) * (1 - T^(2 a_i)).
    So eta = (-1)^f * T^E * prod over t_i = 2 mod 4 of (1 - T^(2 a_i)):
    f and E are summed as integers, and each binomial is multiplied into one
    exponent -> coefficient dict by a single update pass.  A zero entry
    with t = 2 mod 4 contributes 1 - T^0 = 0, so eta is zero there.
    Phi_min is never expanded; the product spans at most sum|a_i| + 1
    exponents, so the work is O(n + b * sum|a_i|) for b binomial factors.
    """
    if len(cls_signed) != len(c):
        raise ValueError("class and c must have the same length")
    flips = shift = 0
    steps = []  # 2*a_i of each binomial factor 1 - T^(2*a_i)
    for ai, ci in zip(cls_signed, c):
        t = ai - 2 * ci
        z = (_NEAREST[t % 4][0] - t) // 4
        shift += ai * (ci - 2 * z)
        if t % 4 == 2:
            flips += z + 1
            shift -= 2 * ai
            steps.append(2 * ai)
        else:
            flips += z
    coeffs = {shift: -1 if flips % 2 else 1}
    for step in steps:
        product = dict(coeffs)
        for exp, coef in coeffs.items():
            product[exp + step] = product.get(exp + step, 0) - coef
        coeffs = product
    return LaurentPoly({exp: coef for exp, coef in coeffs.items() if coef})
