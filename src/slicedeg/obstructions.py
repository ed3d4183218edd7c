"""The obstruction battery.

Each operation decides whether a candidate disk homology class (or a whole
self-intersection level) is ruled out for a given knot, and returns a
:class:`Verdict` carrying the witness that justifies an obstruction; a
per-class rule's decider (``*_kills``) answers as a bool and builds none.
All checks are necessary conditions for the disk to exist, so "pass" never
means "realizable", only "no conclusion".  Missing invariants never
obstruct.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import and_, lshift, mul, rshift
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from . import _Frozen
from .lattice import HomologyClass, eta, kappa16

# The reference enumeration of vs_obstruction's domain, and kappa_min with
# its Phi_min expansion, stay importable here because bench/tracing.py
# wraps them at this module.
from .lattice import enumerate_odd_vectors, kappa_min  # noqa: F401
from .staircase import VsSequence

if TYPE_CHECKING:  # pragma: no cover
    from .knots import KnotRecord


class Verdict(_Frozen):
    """Outcome of one obstruction check.

    ``witness``, kept as a read-only view, is present exactly when the check
    obstructs; ``note`` records an oddity, e.g. a non-integral index.
    """

    __slots__ = _fields = ("obstructed", "witness", "note")

    def __init__(
        self, obstructed: bool, witness: Mapping[str, object] | None = None, note: str | None = None
    ) -> None:
        if witness is not None:
            witness = MappingProxyType(witness)
        elif obstructed:
            raise ValueError("an obstructing verdict must carry a witness")
        object.__setattr__(self, "obstructed", obstructed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "note", note)


PASS = Verdict(False)


def beta_adjunction(cls: HomologyClass, beta: int) -> Verdict:
    """Adjunction-type bound: the class survives only if beta <= k - sum(a_i).

    Applied with beta = s_p (any stored characteristic), beta = 2*tau and
    beta = 2*nu+.
    """
    rhs = cls.norm - sum(cls.a)
    if beta_kills(beta, rhs):
        return Verdict(True, {"rule": "beta_adjunction", "beta": beta, "rhs": rhs})
    return PASS


def beta_kills(beta: int, rhs: int) -> bool:
    """Whether beta exceeds rhs = k - sum(a): the one adjunction kill test."""
    return beta > rhs


def stau_bound(s_p: int) -> int:
    """Smallest k with k - sqrt(k) >= s_p, i.e. ceil(s_p + 1/2 + sqrt(s_p + 1/4)).

    Evaluated in exact integer arithmetic; 0 for non-positive s_p.
    """
    if s_p <= 0:
        return 0
    t = (math.isqrt(4 * s_p + 1) + 1) // 2  # k = s_p + t, the least t with t^2 - t >= s_p
    return s_p + t + (t * t - t < s_p)


class _Layers(_Frozen):
    """The dot products odd lambda reach on a suffix of a class, one int per cost layer.

    Bit (d + offset) / 2 of ``layers[c]`` is set iff the least cost sum(lambda_i^2 - 1) of
    odd lambda on the suffix reaching d is 8*c, so each d is in one layer at most; ``offset``
    = M * sum(suffix), M the largest magnitude allowed.  Empty: ``_Layers(0, (1,))``.
    """

    __slots__ = _fields = ("offset", "layers")

    def __init__(self, offset: int, layers: tuple[int, ...]) -> None:
        self._set(offset, layers)


_EMPTY = _Layers(0, (1,))


def _build(head: int, rest: _Layers, top: int) -> _Layers:
    """The layers 0 .. ``top`` of (head, *suffix) from the layers ``rest`` of the suffix."""
    top_mag = math.isqrt(8 * top + 1) - 1 | 1  # the largest odd M with (M^2 - 1) / 8 <= top
    layers = [0] * (top + 1)
    reached = [(c, bits) for c, bits in enumerate(rest.layers) if bits]
    for mag in range(1, top_mag + 1, 2):
        up = mag * mag >> 3
        low, high = (top_mag - mag) // 2 * head, (top_mag + mag) // 2 * head  # -mag, +mag
        for c, bits in reached:
            if c + up > top:
                break
            layers[c + up] |= bits << low | bits << high
    below = 0  # the d reached below c: layer c keeps only the d it reaches first
    for c, bits in enumerate(layers):
        if bits:
            below, layers[c] = below | bits, bits & ~below
    return _Layers(rest.offset + top_mag * head, tuple(layers))


def vs_obstruction(cls: HomologyClass, v: VsSequence, tables: dict | None = None,
                   setups: dict | None = None) -> Verdict:
    """The V_s check, witnessed by :func:`_vs_lambda` (``tables``, ``setups``: see there)."""
    lam = _vs_lambda(cls, v, tables, setups, False)
    if lam is None:
        return PASS
    j = (cls.norm - sum(map(mul, lam, cls.a))) // 2
    lhs = sum(map(mul, lam, lam)) - cls.n
    return Verdict(True, {"rule": "vs", "lambda": tuple(lam), "j": j, "lhs": lhs, "rhs": 8 * v.v(j)})


def vs_kills(cls: HomologyClass, v: VsSequence, tables: dict | None = None,
             setups: dict | None = None) -> bool:
    """Whether :func:`vs_obstruction` obstructs: its set-up and first coordinate, no witness."""
    return _vs_lambda(cls, v, tables, setups, True) is not None


def _vs_lambda(cls: HomologyClass, v: VsSequence, tables: dict | None, setups: dict | None,
               decide: bool) -> list[int] | None:
    """The first violating lambda (only its first coordinate if ``decide``), None if none.

    Obstructed iff some odd lambda with 0 <= d = sum(lambda_i a_i) <= k has

        sum(lambda_i^2) - n < 8 * V_j,   j = (k - d) / 2,

    which j is always integral since k = sum(a_i^2) = sum(a_i) mod 2.
    An all-zero sequence can never obstruct.

    Cost 0 first: lambda = (1, ..., 1) reaches d = sum(a_i) at cost 0, so
    it violates iff V_j0 > 0, j0 = (k - sum(a_i)) / 2; it is then the first
    witness of the loop below (+1 first everywhere) and is returned
    before any layer is built.  As V_j0 > 0 iff 2*nu+ > k - sum(a_i), the
    battery's beta[2nu+] kills such a class first whenever it runs, so the
    shortcut decides only in V_s-only searches and ``check-class``.

    Otherwise the inequality sees lambda only through d and the cost
    sum(lambda_i^2 - 1), and a violation needs cost <= 8*V_0 - 1 and
    V_j > 0.  The class caps the cost too: with a_1 and a_n its largest
    and smallest entries and F = 1 + a_1/a_n + a_n/a_1, every reachable d
    in [0, k] has least cost at most B = floor(F^2 * k) - n.  For a
    least-cost lambda reaching d and p != q,

        lambda_q/a_q - lambda_p/a_p <= a_p/a_q + a_q/a_p <= F - 1,

    or (lambda_p + 2a_q, lambda_q - 2a_p) would keep d and cost less.  The
    a_i^2-weighted mean of lambda_i/a_i is d/k in [0, 1], so every
    |lambda_i| <= (1 + a_1/a_n + a_n/a_1) * a_i, sum(lambda_i^2 - 1) <= B,
    and ``cap = min(8*V_0 - 1, B)`` keeps every d's least cost and the
    verdict.  Only steep sequences get cap < 8*V_0 - 1: F >= 3, so B >= 8k,
    and V_j0 = 0 with unit steps gives V_0 <= j0 <= k/2, so 8*V_0 - 1 < 4k.

    Every odd lambda has lambda^2 - 1 = 8 * T((|lambda| - 1) / 2), so a cost is 8*c for a
    layer c <= top = cap // 8, and violates at j iff c < V_j.  ``masks[c]`` holds bit
    (d - low) / 2 of each target d = k - 2j with c < V_j, low = k - 2*(nu - 1), nu the
    positive V_j with j <= k/2.  This set-up, the thin ``prefix`` of V and the masks, depends
    only on (k, cap) and on whether the class has more than one entry (a one-entry class
    needs no masks), so it is made once per such key in ``setups``.  The :class:`_Layers` of
    a[1:], ..., a[n-1:] are built from the shortest, each from the next, or read from
    ``tables``, a dict keyed by (suffix, cap) that the engine's battery keeps for one search
    (None: a dict for this call, as for ``setups``); deciding builds or reads every suffix,
    as explaining does.
    A prefix with dot product ``dot`` and layer ``spent`` is completed iff bit b of some layer
    c of its suffix meets bit b + shift of ``masks[spent + c]``, shift = (dot - offset -
    low) / 2, skipped past the masks (so a huge norm never shifts by k); the last entry reads
    V_j at its own d instead.  Least costs suffice: a lower layer violates at every j a higher
    one does, and the rest of a least-cost lambda is least-cost for its own dot product.

    Each coordinate tries mag = 1, 3, 5, ..., +mag before -mag, and keeps the first value
    whose suffix still completes a violation: lambda is the first violating lambda with cost
    <= cap of the depth-first enumeration (:func:`~slicedeg.lattice.enumerate_odd_vectors`),
    and the first violating lambda outright when cap = 8*V_0 - 1.  The first coordinate
    decides (the class passes iff no lambda_0 completes against a[1:]), so the whole class's
    layers are never built, and :func:`vs_kills` stops there.  Once +1 on every entry left
    completes, lambda ends in 1s.  A later coordinate past layer top raises
    ``RuntimeError``, which consistent layers never allow.

    Work: with M the largest odd magnitude, M^2 <= cap + 1, and top <= min(V_0, F^2 * k / 8),
    a build does one shift-OR per magnitude and per non-empty layer of its suffix (at most
    top + 1) on ints of about M*sum(a) + 2*nu bits, then O(top) ORs; a set-up makes top + 1
    masks; each coordinate tries at most M + 1 values, each one AND per layer of its suffix.
    """
    if cls.n == 0:
        raise ValueError("class must be non-empty")
    k = cls.norm
    if v.v((k - sum(cls.a)) // 2):
        return [1] * cls.n
    if v.is_zero():
        return None
    hi, lo = cls.a[0], cls.a[-1]  # B = floor(F^2 * k) - n, F = (hi^2 + hi*lo + lo^2) / (hi*lo)
    cap = min(8 * v.v(0) - 1, (hi * hi + hi * lo + lo * lo) ** 2 * k // (hi * lo) ** 2 - cls.n)
    top = cap >> 3
    setups = {} if setups is None else setups
    setup = setups.get(key := (k, cap, cls.n > 1))
    if setup is None:
        prefix = v.prefix(k // 2 + 1)
        nu = len(prefix)
        masks, reach = [], nu  # masks[c] for each layer c of a[1:], if any
        for c in range(top + 1 if cls.n > 1 else 0):
            while reach and prefix[reach - 1] <= c:  # reach: the j with c < V_j
                reach -= 1
            masks.append(((1 << reach) - 1) << (nu - reach))
        setup = setups[key] = prefix, nu, masks
    prefix, nu, masks = setup
    low = k - 2 * nu + 2  # the lowest target d

    tables = {} if tables is None else tables
    rests = [_EMPTY]  # rests[-1 - i] holds the layers of cls.a[i + 1:]
    for i in range(cls.n - 1, 0, -1):
        key = (cls.a[i:], cap)
        layers = tables.get(key)
        if layers is None:
            layers = tables[key] = _build(cls.a[i], rests[-1], top)
        rests.append(layers)
    lam: list[int] = []
    dot, spent, left = 0, 0, sum(cls.a)  # left: the sum of the entries not yet decided
    for a_i in cls.a:
        rest = rests.pop()
        mag, val = -1, 0
        while not val:
            mag += 2
            layer = spent + (mag * mag >> 3)
            if layer > top:
                if not lam:
                    return None
                raise RuntimeError(f"no witness value completes the suffix layers of {cls}")
            window = masks[layer : layer + len(rest.layers)]
            for sign in (mag, -mag):
                shift = (dot + sign * a_i - rest.offset - low) >> 1  # bit b meets mask bit b+shift
                if -rest.offset <= shift < nu and (
                    layer < prefix[nu - 1 - shift] if rest is _EMPTY  # last entry: d is target j
                    else any(map(and_, rest.layers, map(
                        rshift if shift >= 0 else lshift, window, itertools.repeat(abs(shift))
                    )))
                ):
                    val = sign
                    break
        lam.append(val)
        if decide:
            return lam
        dot, spent, left = dot + val * a_i, layer, left - a_i
        j = (k - dot - left) >> 1  # the j that +1 on every entry left reaches at no cost
        if 0 <= j < nu and spent < prefix[j]:  # the loop would keep +1: lambda ends in 1s
            lam += [1] * (cls.n - len(lam))
            break
    return lam


def _gamma_kills(energy16: int, g: Fraction | int) -> bool:
    """Whether Gamma_K(i) = g = p/q exceeds 2*kappa = energy16 / 8: the one instanton kill test."""
    return 8 * g.numerator > energy16 * g.denominator


def gamma_walk(a: tuple[int, ...], sweep: bool) -> list[tuple[int, ...]]:
    """Each c the instanton check tries on the sorted class ``a``.

    Without the sweep only c = 0.  With it, the lexicographically least c
    of each orbit under permuting equal entries of ``a`` (which keeps kappa,
    the index and eta): 0^(m-j) 1^j, j = 0..m, on each run of m equal even
    entries, and 0 on odd ones, where a_i - 2*c_i is odd either way.  These
    prod(m_j + 1) vectors come in lexicographic order, so the first killing
    c is that of the full 2^n sweep.
    """
    walk: list[tuple[int, ...]] = [()]
    for x, group in itertools.groupby(a):
        m = len(list(group))
        ones = range(m + 1) if sweep and x % 2 == 0 else (0,)
        walk = [c + (0,) * (m - j) + (1,) * j for c in walk for j in ones]
    return walk


def gamma_general(cls: HomologyClass, c: Sequence[int], sigma: int,
                  gamma: Mapping[int, Fraction | int]) -> Verdict:
    """Instanton energy obstruction for an arbitrary class.

    With kappa = kappa_min(a, c) and index
    i = 4*kappa - k/4 - sigma/2: if the signed count eta is non-zero and
    i >= 0, the value Gamma_K(i) can be at most 2*kappa.  Unknown
    Gamma_K(i) gives no conclusion.

    Decided in integers by :func:`_gamma_test`.  For a class, every a_i is
    non-zero, so eta, a signed monomial times binomials 1 - T^(2*a_i), is
    never zero, and only a kill computes it, through this module's ``eta``.
    Work: O(n), plus O(n + b * sum(a)) for eta's b binomial factors on a kill.
    """
    c = tuple(c)
    energy16, index4, value = _gamma_test(cls, c, sigma, gamma)
    if value is None:
        return Verdict(False, note=f"non-integral index {Fraction(index4, 4)}") if (
            index4 > 0 and index4 % 4) else PASS
    return Verdict(True, {"rule": "gamma", "kappa_min": Fraction(energy16, 16), "i": index4 // 4,
                          "eta": str(eta(cls.a, c)), "gamma": value,
                          "bound": Fraction(energy16, 8), "c": c})


def gamma_kills(cls: HomologyClass, c: Sequence[int], sigma: int,
                gamma: Mapping[int, Fraction | int]) -> bool:
    """Whether :func:`gamma_general` obstructs: its integer test, with no eta and no Fraction."""
    return _gamma_test(cls, c, sigma, gamma)[2] is not None


def _gamma_test(cls: HomologyClass, c: Sequence[int], sigma: int,
                gamma: Mapping[int, Fraction | int]) -> tuple[int, int, Fraction | int | None]:
    """(16*kappa, 4*i, Gamma_K(i)), the value None unless it kills the class: iff i is a
    non-negative integer and :func:`_gamma_kills` holds (:func:`~.lattice.kappa16`)."""
    energy16 = kappa16(cls.a, c)
    index4 = energy16 - cls.norm - 2 * sigma
    value = gamma.get(index4 // 4) if index4 >= 0 and not index4 % 4 else None
    return energy16, index4, value if value is not None and _gamma_kills(energy16, value) else None


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
