"""The obstruction battery.

Each operation decides whether a candidate disk homology class (or a whole
self-intersection level) is ruled out for a given knot, and returns a
:class:`Verdict` carrying the witness that justifies an obstruction.  All
checks are necessary conditions for the disk to exist, so "pass" never
means "realizable", only "no conclusion".  Missing invariants never
obstruct.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .lattice import HomologyClass, LaurentPoly, enumerate_odd_vectors, eta, kappa_min
from .staircase import VsSequence

if TYPE_CHECKING:  # pragma: no cover
    from .knots import KnotRecord


@dataclass(frozen=True)
class Verdict:
    """Outcome of one obstruction check.

    ``witness`` is present exactly when the check obstructs; ``note``
    records a non-conclusive oddity (e.g. a non-integral instanton index).
    """

    obstructed: bool
    witness: Mapping[str, object] | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.obstructed and self.witness is None:
            raise ValueError("an obstructing verdict must carry a witness")


PASS = Verdict(False)


def beta_adjunction(cls: HomologyClass, beta: int) -> Verdict:
    """Adjunction-type bound: the class survives only if beta <= k - sum(a_i).

    Applied with beta = s_p (any stored characteristic), beta = 2*tau and
    beta = 2*nu_plus.
    """
    rhs = cls.norm - sum(cls.a)
    if beta > rhs:
        return Verdict(True, {"rule": "beta_adjunction", "beta": beta, "rhs": rhs})
    return PASS


def stau_bound(s_p: int) -> int:
    """Smallest k with k - sqrt(k) >= s_p, i.e. ceil(s_p + 1/2 + sqrt(s_p + 1/4)).

    Evaluated in exact integer arithmetic; 0 for non-positive s_p.
    """
    if s_p <= 0:
        return 0
    k = s_p
    while not (k - s_p) ** 2 >= k:
        k += 1
    return k


def vs_obstruction(cls: HomologyClass, v: VsSequence) -> Verdict:
    """Search the odd-vector domain for a violation of the V_s inequality.

    Obstructed iff some odd lambda with 0 <= sum(lambda_i a_i) <= k has

        sum(lambda_i^2) - n < 8 * V_j,   j = (k - sum(lambda_i a_i)) / 2,

    which j is always integral since k = sum(a_i^2) = sum(a_i) mod 2.
    An all-zero sequence can never obstruct.
    """
    if cls.n == 0:
        raise ValueError("class must be non-empty")
    if v.is_zero():
        return PASS
    k = cls.norm
    n = cls.n
    for lam in enumerate_odd_vectors(cls, v.v(0)):
        dot = sum(l * a for l, a in zip(lam.values, cls.a))
        j = (k - dot) // 2
        lhs = sum(l * l for l in lam.values) - n
        rhs = 8 * v.v(j)
        if lhs < rhs:
            return Verdict(
                True,
                {
                    "rule": "vs",
                    "lambda": lam.values,
                    "j": j,
                    "lhs": lhs,
                    "rhs": rhs,
                },
            )
    return PASS


def gamma_general(
    cls: HomologyClass,
    c: Sequence[int],
    sigma: int,
    gamma: Mapping[int, Fraction],
) -> Verdict:
    """Instanton energy obstruction for an arbitrary class.

    With kappa = kappa_min(a, c) and index
    i = 4*kappa - k/4 - sigma/2: if the signed count eta is non-zero and
    i >= 0, the value Gamma_K(i) can be at most 2*kappa.  Unknown
    Gamma_K(i) gives no conclusion.
    """
    if len(c) != cls.n:
        raise ValueError("c must match the class length")
    kappa, _ = kappa_min(cls.a, c)
    count = eta(cls.a, c)
    if count.is_zero():
        return PASS
    index = 4 * kappa - Fraction(cls.norm, 4) - Fraction(sigma, 2)
    if index < 0:
        return PASS
    if index.denominator != 1:
        return Verdict(False, note=f"non-integral index {index}")
    i = int(index)
    value = gamma.get(i)
    if value is None:
        return PASS
    if value > 2 * kappa:
        return Verdict(
            True,
            {
                "rule": "gamma",
                "kappa_min": kappa,
                "i": i,
                "eta": str(count),
                "gamma": value,
                "bound": 2 * kappa,
                "c": tuple(c),
            },
        )
    return PASS


def gamma_21(p: int, q: int, sigma: int, gamma: Mapping[int, Fraction]) -> Verdict:
    """Closed-form instanton obstruction for classes (2 x p, 1 x q).

    Obstructed iff sigma <= 0 and Gamma_K(-sigma/2) is known and exceeds
    p/2 + q/8.  Agrees with :func:`gamma_general` on the same class with
    c = 0.
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    if sigma > 0:
        return PASS
    i = -sigma // 2
    value = gamma.get(i)
    if value is None:
        return PASS
    bound = Fraction(p, 2) + Fraction(q, 8)
    if value > bound:
        return Verdict(
            True,
            {"rule": "gamma_21", "p": p, "q": q, "i": i, "gamma": value, "bound": bound},
        )
    return PASS


def double_twist_gamma(m: int, n: int) -> Fraction:
    """Gamma(1) of the double twist knot D_{m,n}: (2m-1)(2n-1)/(4mn-1)."""
    if m < 1 or n < 1:
        raise ValueError("twist parameters must be positive")
    return Fraction((2 * m - 1) * (2 * n - 1), 4 * m * n - 1)


def null_class_check(record: "KnotRecord", v: VsSequence | None) -> Verdict:
    """Obstruct the k = 0 level (a null-homologous disk).

    Fires when the signature is negative, some stored s_p is positive, or
    V_0 is positive.  ``v`` is the record's V_s sequence, or None when the
    record has no route to it.
    """
    if record.signature < 0:
        return Verdict(
            True, {"rule": "null_class", "reason": "signature", "sigma": record.signature}
        )
    for p in sorted(record.s_invariants):
        if record.s_invariants[p] > 0:
            return Verdict(
                True,
                {"rule": "null_class", "reason": f"s_{p}", "value": record.s_invariants[p]},
            )
    if v is not None and v.v(0):
        return Verdict(True, {"rule": "null_class", "reason": "V_0", "value": v.v(0)})
    return PASS


def friend_rule(k: int, friend_s: int) -> Verdict:
    """Surgery-friend obstruction for a whole level.

    A friend sharing the k-surgery whose s-invariant exceeds k - sqrt(k)
    rules out every disk of norm k (and hence every smaller norm, since
    k-sliceness is monotone in k).  Decided exactly: friend_s > k - sqrt(k)
    iff friend_s > k, or friend_s <= k and (k - friend_s)^2 < k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    fires = friend_s > k or (k - friend_s) ** 2 < k
    if fires:
        return Verdict(True, {"rule": "friend", "k": k, "friend_s": friend_s})
    return PASS
