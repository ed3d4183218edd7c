"""The obstruction battery.

Each operation decides whether a candidate disk homology class (or a whole
self-intersection level) is ruled out for a given knot, and returns a
:class:`Verdict` carrying the witness that justifies an obstruction.  All
checks are necessary conditions for the disk to exist, so "pass" never
means "realizable", only "no conclusion".  Missing invariants never
obstruct.  All arithmetic is exact.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .lattice import HomologyClass, eta, kappa16

# The reference enumeration of vs_obstruction's domain, and kappa_min with
# its Phi_min expansion, stay importable here because bench/tracing.py
# wraps them at this module.
from .lattice import enumerate_odd_vectors, kappa_min  # noqa: F401
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


@dataclass(frozen=True, eq=False)
class _SuffixTable:
    """Least cost sum(lambda_i^2 - 1) of odd lambda on a suffix of a class, per dot product.

    ``costs[i]`` is the least cost reaching d = lo + 2i (every d has the
    parity of the suffix sum); a value above ``cap`` means no lambda within
    ``cap`` reaches d.  Tables compare by identity: a cached table stands
    for its (suffix, cap), so it keys the cache entry of each longer suffix.
    """

    cap: int
    lo: int
    costs: tuple[int, ...]


def _odd_values(limit: int) -> Iterator[int]:
    """Odd lambda_i with lambda_i^2 - 1 <= limit, in the order 1, -1, 3, -3, ..."""
    mag = 1
    while mag * mag - 1 <= limit:
        yield mag
        yield -mag
        mag += 2


@lru_cache(maxsize=64)
def _empty_table(cap: int) -> _SuffixTable:
    """The table of the empty suffix, one object per cap."""
    return _SuffixTable(cap, 0, (0,))


def _build(head: int, rest: _SuffixTable) -> _SuffixTable:
    """The table of (head, *suffix) from the table ``rest`` of the suffix."""
    cap = rest.cap
    unreached = cap + 1
    top = max(_odd_values(cap))
    width = len(rest.costs) + top * head
    rows = []
    for mag in range(1, top + 1, 2):
        spent = mag * mag - 1
        moved = [c + spent if c + spent <= cap else unreached for c in rest.costs]
        for shift in ((top - mag) * head // 2, (top + mag) * head // 2):
            rows.append([unreached] * shift + moved + [unreached] * (width - shift - len(moved)))
    costs = rows[0]
    for row in rows[1:]:
        costs = [c if c < r else r for c, r in zip(costs, row)]
    first = next(i for i in range(width) if costs[i] <= cap)
    last = next(i for i in range(width - 1, -1, -1) if costs[i] <= cap)
    return _SuffixTable(cap, rest.lo - top * head + 2 * first, tuple(costs[first : last + 1]))


class _TableCache:
    """Least-recently-used memo of suffix tables, bounded by the costs it keeps alive.

    An entry maps (head, table of the suffix) to the table of the longer
    suffix, so it holds two tables and is charged both lengths.  Entries
    are evicted, oldest use first, until the charge is at most ``budget``;
    so one long class cannot keep more than that many costs resident,
    however many coordinates it has.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.charge = 0
        self.entries: OrderedDict[tuple[int, _SuffixTable], _SuffixTable] = OrderedDict()

    def extend(self, head: int, rest: _SuffixTable) -> _SuffixTable:
        """The table of (head, *suffix) from the table ``rest`` of the suffix."""
        key = (head, rest)
        table = self.entries.get(key)
        if table is not None:
            self.entries.move_to_end(key)
            return table
        table = _build(head, rest)
        self.entries[key] = table
        self.charge += len(rest.costs) + len(table.costs)
        while self.charge > self.budget:
            (_, old_rest), old = self.entries.popitem(last=False)
            self.charge -= len(old_rest.costs) + len(old.costs)
        return table


# 32768 costs: 256 KiB of references while costs are small ints.  The
# torus-ladder benchmark's 276 tables are charged 8836 in all.
_TABLES = _TableCache(budget=1 << 15)


def vs_obstruction(cls: HomologyClass, v: VsSequence) -> Verdict:
    """Decide the V_s inequality over all odd lambda by a min-cost DP on the dot product.

    Obstructed iff some odd lambda with 0 <= d = sum(lambda_i a_i) <= k has

        sum(lambda_i^2) - n < 8 * V_j,   j = (k - d) / 2,

    which j is always integral since k = sum(a_i^2) = sum(a_i) mod 2.
    An all-zero sequence can never obstruct.

    The inequality sees lambda only through d and the cost
    sum(lambda_i^2 - 1), and a violation needs cost <= cap = 8*V_0 - 1 and
    V_j > 0.  So the check builds, for every suffix a[i:] and in one
    explicit loop from the shortest, the least cost of each reachable d
    within ``cap``; the class is obstructed iff the full table meets
    8*V_j at some d = k - 2j.  Tables are cached by (suffix, cap), up to
    a bounded total size, so sorted classes that share a suffix share its
    table.  The witness is rebuilt one coordinate at a time, taking the
    first value in the order 1, -1, 3, -3, ... whose suffix table still
    completes a violation: it is the first violating lambda of the
    depth-first enumeration
    (:func:`~slicedeg.lattice.enumerate_odd_vectors`).

    Work: with M the largest odd magnitude, M^2 <= 8*V_0, a table holds at
    most M*sum(a) + 1 <= M*k + 1 entries, and each coordinate costs that
    times the (M + 1)/2 magnitudes; so O(n * k * V_0) time and
    O(n * k * sqrt(V_0)) memory in all.  The witness adds, per coordinate,
    at most M + 1 values times min(nu+, k/2 + 1) table lookups.
    """
    if cls.n == 0:
        raise ValueError("class must be non-empty")
    if v.is_zero():
        return PASS
    k = cls.norm
    cap = 8 * v.v(0) - 1
    targets = [(k - 2 * j, 8 * v_j) for j, v_j in enumerate(v.values[: k // 2 + 1])]

    def completes(dot: int, spent: int, rest: _SuffixTable) -> bool:
        """Whether some lambda on the suffix of ``rest`` completes a violation."""
        lo, costs = dot + rest.lo, rest.costs
        for d, rhs in targets:
            i = (d - lo) // 2
            if 0 <= i < len(costs) and spent + costs[i] < rhs:
                return True
        return False

    tables = [_empty_table(cap)]  # tables[-1 - i] is the table of cls.a[i:]
    for head in reversed(cls.a):
        tables.append(_TABLES.extend(head, tables[-1]))
    if not completes(0, 0, tables.pop()):
        return PASS
    lam: list[int] = []
    dot = spent = 0
    for a_i in cls.a:
        rest = tables.pop()
        val = next(
            x
            for x in _odd_values(cap - spent)
            if completes(dot + x * a_i, spent + x * x - 1, rest)
        )
        lam.append(val)
        dot += val * a_i
        spent += val * val - 1
    j = (k - dot) // 2
    return Verdict(
        True,
        {"rule": "vs", "lambda": tuple(lam), "j": j, "lhs": spent, "rhs": 8 * v.v(j)},
    )


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

    Decided in integers: 16*kappa is a sum of per-coordinate minima
    (:func:`~slicedeg.lattice.kappa16`) and 4*i = 16*kappa - k - 2*sigma.
    For a class, every a_i is non-zero, so each coordinate's factor of
    eta has one term or two terms with exponents 2*a_i apart, and eta, a
    product of non-zero Laurent polynomials, is never zero.  It is
    computed only for an obstructing witness.  Work: O(n) integer
    operations per call, plus O(n * sum(a)) for an obstructing witness's eta.
    """
    if len(c) != cls.n:
        raise ValueError("c must match the class length")
    energy16 = kappa16(cls.a, c)
    index4 = energy16 - cls.norm - 2 * sigma
    if index4 < 0:
        return PASS
    if index4 % 4:
        return Verdict(False, note=f"non-integral index {Fraction(index4, 4)}")
    i = index4 // 4
    value = gamma.get(i)
    if value is None:
        return PASS
    if 8 * value > energy16:
        kappa = Fraction(energy16, 16)
        return Verdict(
            True,
            {
                "rule": "gamma",
                "kappa_min": kappa,
                "i": i,
                "eta": str(eta(cls.a, c)),
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
