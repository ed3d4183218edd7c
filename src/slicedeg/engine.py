"""Bound aggregation engine.

``lower_bound`` ascends the self-intersection levels k = 0, 1, 2, ...,
certifying each level obstructed until one survives: level 0 via the
null-class check, higher levels either by a surgery-friend certificate or
by killing every candidate class with the per-class battery
(:class:`ClassBattery`, in one fixed order: the adjunction bounds
``betas``, then the instanton check ``gamma``, then the V_s check ``vs``;
the order decides which rule a certificate names).  The first unobstructed
level is a sound lower bound because every check is a necessary condition
for the disk.  Each level stops at its first survivor, and is streamed: the
engine keeps no class between searches.  The class walk only decides
(:meth:`ClassBattery.kills`: no verdict, witness or certificate is built).
Every level below the answer is listed when the search's ``certificates``
are first read (``bound --json`` reads them; a table, and ``bound``
without ``--json``, never do), by :func:`_deferred_certificates`, which
certifies each class by its first obstructed :meth:`ClassBattery.verdicts`
entry of the walk's battery: the battery's rules are written twice, once to
explain and once to decide, and a search computes its V_s sequence once.

The walk starts at the adjunction floor.  Let beta_max be the battery's
margin below which every class dies (:class:`ClassBattery`) and least[k]
the least sum(a) over the classes of norm k (a coin change over the
squares, :func:`_least_sums`).  k - sum(a) <= k - least[k], so every class
of a level below the floor F, the first k with k - least[k] >= beta_max,
is killed, and such levels are certified without listing a class (F is
computed once per process for each beta_max).

Above the floor the walk descends by blow-ups: a kill of a by a beta or the
V_s check kills (a, 1) (the margin k - sum(a) is kept; (lambda, 1) violates
where lambda does, at the same j), a Gamma kill need not (16*kappa gains 1).
So past a level killed class by class, it decides (a, 1) only if Gamma killed a.

``upper_bound`` takes the minimum over the record's direct constructions
(4 * positive clasp number, 4 * slicing number, explicit witnesses) and
closes it under concordance and connected-sum transfer by a monotone
fixed point: one relax sweep in walk order, repeated only on a reference
cycle.  The closure of a database's records is computed once, by the
first ``upper_bound``, ``bound_report`` or ``report_table`` call on it,
and kept on the database.  A record outside the database or shadowing one
in it, and any record of a database with a cycle (so that it warns only
about a cycle it depends on), is walked alone over the records it
references, directly or not.  Every walked record's bound is kept with its
finished witness text, written by the relax step that improves it.

The database also keeps its 1024 latest successful lower-bound searches,
keyed by the search's inputs, its capping upper bound and the configuration
(``parallelism`` aside), for every ``report_table`` and ``bound_report`` call
on it; ``report_table`` reads it once per distinct search.  Reports of one
search share its read-only certificates: a search and its reports read them
through one reader, :func:`_read_certificates`.

Reports are deterministic: identical inputs and configuration produce
byte-identical serialized output.
"""

from __future__ import annotations

import itertools
import math
import warnings as _warnings
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

from . import _Frozen
from .knots import INT_KEYED_FIELDS, DatabaseError, KnotDatabase, KnotRecord, format_rational
# enumerate_classes stays importable here because bench/tracing.py wraps it at this module.
from .lattice import HomologyClass, enumerate_classes, iter_classes  # noqa: F401
from .obstructions import (
    PASS,
    Verdict,
    beta_adjunction,
    beta_kills,
    friend_rule,
    gamma_general,
    gamma_kills,
    gamma_walk,
    null_class_check,
    vs_kills,
    vs_obstruction,
)
from .staircase import OracleDisagreement, VsSequence, VsUnavailable, vs_of

ALL_OBSTRUCTIONS = frozenset({"s", "vs", "gamma", "friend"})

DEFAULT_MAX_K = 64


class CyclicRelationWarning(UserWarning):
    """Concordance / connected-sum references form a cycle."""


class EngineConfig(_Frozen):
    """Search cap, enabled obstruction set, gamma c-sweep, parallelism degree.

    ``max_k = None`` means: cap at the record's upper bound when one is
    known, else at ``DEFAULT_MAX_K``.  ``parallelism`` is validated and
    accepted for compatibility, but the search is serial at every value,
    so it takes no part in equality or hash.
    """

    __slots__ = _fields = ("max_k", "obstructions", "gamma_c_sweep", "parallelism")
    _key = property(attrgetter("max_k", "obstructions", "gamma_c_sweep"))

    def __init__(self, max_k: int | None = None, obstructions: frozenset[str] = ALL_OBSTRUCTIONS,
                 gamma_c_sweep: bool = False, parallelism: int = 1) -> None:
        if max_k is not None and max_k < 0:
            raise ValueError("max_k must be non-negative")
        unknown = set(obstructions) - ALL_OBSTRUCTIONS
        if unknown:
            raise ValueError(f"unknown obstructions: {', '.join(sorted(unknown))}")
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        self._set(max_k, obstructions, gamma_c_sweep, parallelism)


class ClassCertificate(NamedTuple):
    cls: HomologyClass
    rule: str
    verdict: Verdict


class LevelCertificate(NamedTuple):
    level: int
    kind: str  # "null_class" | "friend" | "classes"
    witness: Mapping[str, object] | None = None
    classes: tuple[ClassCertificate, ...] = ()


def _read_certificates(self) -> tuple[LevelCertificate, ...]:
    """``certificates`` of a search or report: a function given in their place
    runs on the first read, and its tuple is kept for every later read."""
    certificates = self._certificates
    if callable(certificates):
        certificates = certificates()
        object.__setattr__(self, "_certificates", certificates)
    return certificates


class LowerBoundSearch(_Frozen):
    """Result of the ascending level search: (L, certificates) plus extras.

    ``certificates`` is given as a tuple, or as a function that builds it:
    :func:`lower_bound` defers the listing of every level it did not walk
    that way.  The function runs on the first read of
    ``certificates`` (:func:`_read_certificates`).  It is deterministic, so
    two threads that race to the first read build equal tuples.  Searches
    compare equal when their level, exhaustion, surviving class and
    certificates do.
    """

    __slots__ = ("level", "exhausted", "surviving_class", "_certificates")
    _fields = (*__slots__[:-1], "certificates")

    def __init__(self, level: int, exhausted: bool, surviving_class: HomologyClass | None,
                 certificates: tuple[LevelCertificate, ...] | Callable[[], tuple]) -> None:
        self._set(level, exhausted, surviving_class, certificates)

    certificates = property(_read_certificates)
    # Certificates hold read-only mappings, so hashing fails, and fails before listing them.
    __hash__ = None


def _check_interval(knot: str, lower: int, upper: int | None) -> None:
    """Raise DatabaseError when the certified lower bound exceeds the upper bound."""
    if upper is not None and lower > upper:
        raise DatabaseError(
            f"{knot}: certified lower bound {lower} exceeds upper bound "
            f"{upper}; the record data is inconsistent"
        )


class BoundReport(_Frozen):
    """Certified interval for one knot.

    ``certificates``, a tuple or, as for :class:`LowerBoundSearch`, a function
    that builds it, is read on first access by the same
    :func:`_read_certificates`, so a report whose certificates are never read
    (``slicedeg bound`` without ``--json``) never lists them.
    """

    __slots__ = ("knot", "lower", "lower_exhausted", "upper", "upper_witness",
                 "surviving_class", "_certificates")
    _fields = (*__slots__[:-1], "certificates")

    def __init__(self, knot: str, lower: int, lower_exhausted: bool, upper: int | None,
                 upper_witness: str | None, surviving_class: HomologyClass | None,
                 certificates: tuple[LevelCertificate, ...] | Callable[[], tuple]) -> None:
        _check_interval(knot, lower, upper)
        self._set(knot, lower, lower_exhausted, upper, upper_witness, surviving_class, certificates)

    certificates = property(_read_certificates)
    __hash__ = None  # as LowerBoundSearch's

    @property
    def display(self) -> str:
        return display_interval(self.lower, self.upper)


def display_interval(lower: int, upper: int | None) -> str:
    if upper is None:
        return f"[{lower},?]"
    if lower == upper:
        return str(lower)
    return f"[{lower},{upper}]"


# --- lower bounds -----------------------------------------------------------


class ClassBattery:
    """The per-class obstruction battery for one record and configuration.

    The record's V_s sequence (``v``, None when the record has no route to
    it; ``OracleDisagreement`` propagates) and its adjunction-type scalar
    bounds (each stored s_p, 2*tau, 2*nu+) are computed once, here, and
    shared by every class checked.  The enabled rules with data on the
    record run in one fixed order, ``betas``, ``gamma`` (per c of
    :func:`~.obstructions.gamma_walk`), ``vs``, in :meth:`verdicts`, which
    explains, and :meth:`kills`, which decides.
    ``beta_max``: every class with k - sum(a) below it dies, by a beta or by
    the V_s check's cost-0 shortcut (2*nu+).  The V_s check shares its suffix
    layers, ``tables``, and set-ups, ``setups``, over one pass of a search:
    the walk's, emptied when it returns, then the listing's.
    """

    def __init__(self, record: KnotRecord, cfg: EngineConfig) -> None:
        self.record = record
        self.cfg = cfg
        try:
            self.v: VsSequence | None = vs_of(record)
        except VsUnavailable:
            self.v = None
        betas = [(f"beta[s_{p}]", record.s_invariants[p]) for p in sorted(record.s_invariants)]
        betas += [("beta[2tau]", 2 * record.tau)] if record.tau is not None else []
        betas += [("beta[2nu+]", 2 * self.v.nu)] if self.v is not None else []
        self.betas = betas if "s" in cfg.obstructions else []
        self.gamma = "gamma" in cfg.obstructions and bool(record.gamma)
        self.vs = "vs" in cfg.obstructions and self.v is not None
        self.beta_max = max([beta for _, beta in self.betas]
                            + ([2 * self.v.nu] if self.vs else []), default=0)
        self.tables: dict = {}  # (suffix, cap) -> that suffix's V_s cost layers
        self.setups: dict = {}  # (k, cap, n > 1) -> the V_s targets of such classes

    def verdicts(self, cls: HomologyClass) -> Iterator[ClassCertificate]:
        """Each rule's verdict on the class as a certificate, in the fixed order; Gamma's per c.

        Each entry is built when it is read, and a beta's verdict only when the beta
        kills, so reading up to the first obstructed entry calls ``beta_adjunction`` or
        ``vs_obstruction``, or builds an eta, only for that kill.
        """
        record = self.record
        rhs = cls.norm - sum(cls.a)
        for rule, beta in self.betas:
            yield ClassCertificate(cls, rule,
                                   beta_adjunction(cls, beta) if beta_kills(beta, rhs) else PASS)
        if self.gamma:
            for c in gamma_walk(cls.a, self.cfg.gamma_c_sweep):
                yield ClassCertificate(cls, "gamma",
                                       gamma_general(cls, c, record.signature, record.gamma))
        if self.vs:
            yield ClassCertificate(cls, "vs", vs_obstruction(cls, self.v, self.tables, self.setups))

    def kills(self, cls: HomologyClass) -> bool | str:
        """Whether a :meth:`verdicts` entry obstructs, by the deciders alone; "gamma" by Gamma's."""
        if beta_kills(self.beta_max, cls.norm - sum(cls.a)):  # a beta or the V_s shortcut
            return True
        if self.gamma:
            record = self.record
            for c in gamma_walk(cls.a, self.cfg.gamma_c_sweep):
                if gamma_kills(cls, c, record.signature, record.gamma):
                    return "gamma"
        return self.vs and vs_kills(cls, self.v, self.tables, self.setups)


def _least_sums() -> Iterator[int]:
    """least[k] for k = 0, 1, 2, ...: the least sum(a) over the classes of norm k.

    A coin change over the squares: a norm-k class is a norm-(k - i^2) class
    with an entry i added, so least[k] = min(least[k - i^2] + i) over
    1 <= i <= sqrt(k).  Appending a 1 to a class keeps its margin k - sum(a),
    so k - least[k] never falls.
    """
    least = [0]
    yield 0
    for k in itertools.count(1):
        least.append(min(least[k - i * i] + i for i in range(1, math.isqrt(k) + 1)))
        yield least[k]


@cache
def _adjunction_floor(beta_max: int) -> int:
    """The first level k with k - least[k] >= beta_max (:func:`_least_sums`)."""
    return next(k for k, least in enumerate(_least_sums()) if not beta_kills(beta_max, k - least))


def _friend_coverage(record: KnotRecord, cfg: EngineConfig) -> tuple[int, Mapping | None]:
    """Highest level k whose friendships certify sd+ > k, as (k + 1, witness).

    A firing friendship at level k obstructs every level <= k, since a
    norm-j disk blows up to a norm-k disk for any k >= j.
    """
    if "friend" not in cfg.obstructions:
        return 0, None
    best = 0
    witness: Mapping | None = None
    for fr in record.friends:
        vd = friend_rule(fr.k, fr.friend_s)
        if vd.obstructed and fr.k + 1 > best:
            best = fr.k + 1
            witness = MappingProxyType(dict(vd.witness, friend_name=fr.friend_name))
    return best, witness


def lower_bound(record: KnotRecord, cfg: EngineConfig | None = None) -> LowerBoundSearch:
    """Certified lower bound for sd+ of the record's knot.

    Level 0 is always decided by the full null-class check; levels below a
    firing friendship are covered by its certificate; any other level k is
    obstructed only if every class of norm k is killed.  Levels below the
    adjunction floor (see the module docstring) are obstructed by the
    adjunction bounds, or the V_s check's cost-0 shortcut, alone, so the
    class walk starts at the floor, or past the friend coverage when that
    is higher.  The walk decides (:meth:`ClassBattery.kills`) only what the
    blow-up descent (module docstring) leaves, and stops at the first
    survivor.  No level is listed until ``certificates`` is first read
    (:func:`_deferred_certificates`, with this battery, whose V_s scratch
    the walk drops when it returns).  If the cap is reached with
    everything obstructed, the floor above it included, returns cap + 1 with
    ``exhausted`` set.  Certificate witnesses are read-only mappings.
    """
    cfg = cfg or EngineConfig()
    battery = ClassBattery(record, cfg)
    cap = cfg.max_k
    if cap is None:
        direct_upper, _ = _direct_upper(record)
        cap = direct_upper if direct_upper is not None else DEFAULT_MAX_K

    friend_cap, friend_witness = _friend_coverage(record, cfg)
    null = None  # level 0's verdict, when no friendship covers it
    if friend_cap == 0:
        null = null_class_check(record, battery.v)
        if not null.obstructed:
            return LowerBoundSearch(0, False, HomologyClass(()), ())

    # a floor is at least its beta_max, so past the cap it is not computed
    floor = _adjunction_floor(battery.beta_max) if battery.beta_max <= cap else cap + 1
    start = max(1, friend_cap)  # the first level the classes decide
    walk = max(start, floor)  # every class of levels start .. walk - 1 dies below beta_max
    listing = partial(_deferred_certificates, battery, friend_witness,
                      range(min(friend_cap, cap + 1)), null, start, walk)
    gamma_only = set() if walk > start else None  # the level below's Gamma-only kills; None: all
    try:
        for k in range(walk, cap + 1):
            below, gamma_only = gamma_only, set()
            for cls in iter_classes(k):
                if below is None or cls.a[-1] != 1 or cls.a[:-1] in below:
                    if not (kill := battery.kills(cls)):
                        return LowerBoundSearch(k, False, cls, partial(listing, k))
                    if kill == "gamma":
                        gamma_only.add(cls.a)
        return LowerBoundSearch(cap + 1, True, None, partial(listing, cap + 1))
    finally:  # a kept search pins none of the walk's V_s layers; the listing builds its own
        battery.tables, battery.setups = {}, {}


def _deferred_certificates(battery: ClassBattery, friend_witness: Mapping | None,
                           friend_levels: range, null: Verdict | None, start: int, walk: int,
                           level: int) -> tuple[LevelCertificate, ...]:
    """A search's certificates as one tuple, listed when they are first read.

    ``friend_levels`` by ``friend_witness``, level 0 by ``null`` (if any), then each class
    of levels ``start`` .. ``level`` - 1 by the first obstructed
    :meth:`~ClassBattery.verdicts` entry of the search's ``battery``.  A class that the
    walk (from ``walk`` up) or, below it, the floor's lemma (k - sum(a) < beta_max)
    kills, and that does not die, raises RuntimeError.
    """
    listed = [LevelCertificate(k, "friend", witness=friend_witness) for k in friend_levels]
    if null is not None:
        listed.append(LevelCertificate(0, "null_class", witness=null.witness))
    for k in range(start, level):
        kills = []
        for cls in iter_classes(k):
            for kill in battery.verdicts(cls):
                if kill.verdict.obstructed:
                    break
            else:
                kill = None
            if kill is None or k < walk and not beta_kills(battery.beta_max, k - sum(cls.a)):
                where = ", below the adjunction floor," if k < walk else ""
                raise RuntimeError(f"class {cls} of level {k}{where} survives what the search "
                                   "said kills it")
            kills.append(kill)
        listed.append(LevelCertificate(k, "classes", classes=tuple(kills)))
    return tuple(listed)


# --- upper bounds -----------------------------------------------------------


def _direct_upper(record: KnotRecord) -> tuple[int | None, str | None]:
    """Best record-local construction, ignoring cross-record transfer."""
    candidates: list[tuple[int, str]] = []
    if record.clasp_plus is not None:
        candidates.append((4 * record.clasp_plus, f"4*clasp_plus = {4 * record.clasp_plus}"))
    if record.slicing_number is not None:
        candidates.append(
            (4 * record.slicing_number, f"4*slicing_number = {4 * record.slicing_number}")
        )
    for w in record.upper_witnesses:
        candidates.append((w.k, f"witness: {w.description}" if w.description else "witness"))
    return min(candidates, key=lambda c: c[0]) if candidates else (None, None)


def _upper_fixpoint(
    records: Mapping[str, KnotRecord], roots: Iterable[str]
) -> tuple[dict[str, tuple[int | None, str | None]], CyclicRelationWarning | None]:
    """Upper bounds of ``roots`` and of every record they reference, directly or not.

    A depth-first walk with an explicit stack lists those records, each after
    its references, and keeps the first cycle.  One relax sweep over that list
    is final unless the walk met a back edge; only a cycle repeats it until
    nothing changes.  The relax step that improves a bound writes its witness
    text, so every bound is kept with its finished text.  Returns those pairs
    and the cycle's warning (None without a cycle), which the public entry point
    issues so that it names its caller.
    """

    def refs(r: KnotRecord) -> Iterator[str]:
        if r.connected_sum_of:
            return iter([t for t in (r.concordant_to, *r.connected_sum_of) if t and t in records])
        return iter((r.concordant_to,) if r.concordant_to and r.concordant_to in records else ())

    order: list[KnotRecord] = []
    listed: dict[str, bool] = {}  # False while on the walk's path, True once listed
    warning: CyclicRelationWarning | None = None
    for root in roots:
        if root in listed:
            continue
        listed[root] = False
        stack = [(root, records[root], refs(records[root]))]
        while stack:
            name, record, pending = stack[-1]
            nxt = next(pending, None)
            if nxt is None:
                stack.pop()
                listed[name] = True
                order.append(record)
            elif nxt not in listed:
                listed[nxt] = False
                stack.append((nxt, records[nxt], refs(records[nxt])))
            elif not listed[nxt] and warning is None:
                path = [n for n, _, _ in stack]
                cycle = " -> ".join(path[path.index(nxt):] + [nxt])
                warning = CyclicRelationWarning(
                    f"concordance/connected-sum references cycle: {cycle}"
                )
    best: dict[str, tuple[int | None, str | None]] = {r.name: _direct_upper(r) for r in order}
    changed = True
    while changed:
        changed = False
        for record in order:
            name, to, summands = record.name, record.concordant_to, record.connected_sum_of
            current = best[name][0]
            if to and to in best:
                via = best[to][0]
                if via is not None and (current is None or via < current):
                    best[name] = (via, f"concordant to {to} (<= {via})")
                    current = via
                    changed = True
            if summands:
                parts = [best.get(n, (None, None))[0] for n in summands]
                if all(p is not None for p in parts):
                    total = sum(parts)  # type: ignore[arg-type]
                    if current is None or total < current:
                        best[name] = (total, f"connected sum {' + '.join(summands)} (<= {total})")
                        changed = True
        changed = changed and warning is not None  # acyclic: the first sweep is final
    return best, warning


def _closure(
    db: KnotDatabase,
) -> tuple[dict[str, tuple[int | None, str | None]], CyclicRelationWarning | None]:
    """The upper-bound closure of every record of ``db``.

    Read as ``db.derived(_closure)``, so each database computes it once.
    """
    return _upper_fixpoint(db.records, db.records)


def _upper(
    record: KnotRecord, db: KnotDatabase | None
) -> tuple[tuple[int | None, str | None], CyclicRelationWarning | None]:
    """``record``'s upper bound and witness, and the cycle warning to issue.

    A record of ``db`` reads the database's closure, which without a cycle
    does not depend on walk order.  With a cycle it is walked alone, so it
    warns only about a cycle it depends on.
    """
    if db is not None and db.records.get(record.name) is record:
        best, warning = db.derived(_closure)
        if warning is not None:
            best, warning = _upper_fixpoint(db.records, [record.name])
    else:  # outside the db, or shadowing its namesake: merge it in
        records = {**(db.records if db is not None else {}), record.name: record}
        best, warning = _upper_fixpoint(records, [record.name])
    return best[record.name], warning


def upper_bound(record: KnotRecord, db: KnotDatabase | None = None) -> tuple[int | None, str | None]:
    """Least upper bound for sd+ from constructions and relation transfer.

    The minimum over 4*clasp_plus, 4*slicing_number, explicit witnesses,
    the upper bound of a concordant knot, and the sum over connected-sum
    summands, closed under transfer along the records of ``db`` it depends
    on by a monotone fixed point.  Returns (None, None) when no source applies.
    """
    upper, warning = _upper(record, db)
    if warning:
        _warnings.warn(warning, stacklevel=2)
    return upper


# --- tables -----------------------------------------------------------------


class BetaTableRow(NamedTuple):
    beta: int
    min_k: int
    witness: HomologyClass


def beta_table(betas: Sequence[int]) -> list[BetaTableRow]:
    """For each beta, the first level with a class surviving the adjunction bound.

    The witness is the first surviving class in the canonical enumeration
    order (descending tuples, lexicographically descending); beta <= 0
    gives level 0 and the empty class.  A class lets a beta through iff
    beta <= k - sum(a), so a beta's level is the first k with
    k - least[k] >= beta (:func:`_least_sums`).  k - least[k] never falls,
    so one pass over k serves every beta, ascending; only the deciding
    level is streamed.
    """
    if not betas:
        raise ValueError("betas must be non-empty")
    levels = enumerate(_least_sums())
    k, least = next(levels)
    rows = {}
    for beta in sorted(set(betas)):
        while beta_kills(beta, k - least):
            k, least = next(levels)
        witness = next(cls for cls in iter_classes(k) if not beta_kills(beta, k - sum(cls.a)))
        rows[beta] = BetaTableRow(beta, k, witness)
    return [rows[beta] for beta in betas]


class TableRow(NamedTuple):
    name: str
    lower: int | None
    upper: int | None
    display: str
    error: str | None = None


# KnotRecord fields that only the upper bound reads.  Every other field, one
# added later included, is a search input: a new field can cost memo hits in
# ``report_table`` but never share a search between records it tells apart.
_UPPER_ONLY_FIELDS = frozenset(
    {"name", "clasp_plus", "slicing_number", "upper_witnesses", "concordant_to", "connected_sum_of"}
)
# Int-keyed map fields hold unhashable dicts; the key holds their sorted items.
_SEARCH_FIELDS = [f for f in KnotRecord._fields if f not in _UPPER_ONLY_FIELDS]
_search_values = attrgetter(*(f for f in _SEARCH_FIELDS if f not in INT_KEYED_FIELDS))
_search_maps = attrgetter(*(f for f in _SEARCH_FIELDS if f in INT_KEYED_FIELDS))


def _search_key(record: KnotRecord) -> tuple:
    """The record's search inputs as one hashable tuple."""
    s_invariants, gamma = _search_maps(record)  # every INT_KEYED_FIELDS map, in field order
    return (_search_values(record), tuple(sorted(s_invariants.items())) if s_invariants else (),
            tuple(sorted(gamma.items())) if gamma else ())


def _searches(db: KnotDatabase) -> OrderedDict[tuple, LowerBoundSearch]:
    return OrderedDict()  # the database's search memo, read as db.derived(_searches)


def _search(record: KnotRecord, upper: int | None, cfg: EngineConfig,
            searches: OrderedDict[tuple, LowerBoundSearch]) -> LowerBoundSearch:
    """Lower-bound search capped at ``upper`` (unless cfg sets a cap).

    ``searches`` keeps the latest 1024 successful searches by their inputs:
    the record's search fields, ``upper`` and ``cfg`` (equal at any
    ``parallelism``).  A failed search is not stored, so it fails again.
    """
    key = (_search_key(record), upper, cfg)
    search = searches.pop(key, None)  # put back last, as most recently used
    if search is None:
        if cfg.max_k is None:
            max_k = upper if upper is not None else DEFAULT_MAX_K
            cfg = EngineConfig(max_k, cfg.obstructions, cfg.gamma_c_sweep, cfg.parallelism)
        search = lower_bound(record, cfg)
    searches[key] = search
    if len(searches) > 1024:
        searches.popitem(last=False)
    return search


def bound_report(
    record: KnotRecord, db: KnotDatabase | None = None, cfg: EngineConfig | None = None
) -> BoundReport:
    """``record``'s interval and certificates; ``db`` gives its upper bound and keeps its search.

    The report lists its search's certificates when its own are first read.
    Raises DatabaseError when the certified lower bound exceeds the upper bound.
    """
    (upper, upper_witness), warning = _upper(record, db)
    if warning:
        _warnings.warn(warning, stacklevel=2)
    searches = db.derived(_searches) if db is not None else OrderedDict()
    search = _search(record, upper, cfg or EngineConfig(), searches)
    return BoundReport(record.name, search.level, search.exhausted, upper, upper_witness,
                       search.surviving_class, lambda: search.certificates)


def report_table(db: KnotDatabase, cfg: EngineConfig | None = None) -> list[TableRow]:
    """Per-record intervals over the whole database, failures reported inline.

    Records with the same search inputs (every field but the upper-only ones)
    and upper bound share one lower-bound search, kept on ``db`` for later
    calls.  Each record is looked up once, among this call's searches, and the
    memo only on a miss; a failing search or report fails, and is reported,
    for each record.
    """
    cfg = cfg or EngineConfig()
    uppers, warning = db.derived(_closure)
    if warning:
        _warnings.warn(warning, stacklevel=2)
    searches = db.derived(_searches)
    levels: dict[tuple, int] = {}  # (search inputs, upper) -> lower, for this call only
    rows = []
    for record in db:
        try:  # a TableRow has no witness or certificates, so none is formatted or listed
            upper = uppers[record.name][0]
            lower = levels.get(key := (_search_key(record), upper))
            if lower is None:
                lower = levels[key] = _search(record, upper, cfg, searches).level
            _check_interval(record.name, lower, upper)
            rows.append(TableRow(record.name, lower, upper, display_interval(lower, upper)))
        except (DatabaseError, OracleDisagreement) as exc:
            rows.append(TableRow(record.name, None, None, "error", error=str(exc)))
    return rows


# --- serialization ----------------------------------------------------------


def _jsonable(value):
    """A witness value as JSON data: Fractions as text, sequences as lists, keys as str.

    Witnesses hold only ints, strs, None, Fractions, tuples, lists and (read-only)
    dicts, so exact types are tested; any other value is returned as it is.
    """
    kind = type(value)
    if kind is tuple or kind is list:
        return [v if type(v) is int else _jsonable(v) for v in value]
    if kind is MappingProxyType or kind is dict:
        return {str(k): _jsonable(v) for k, v in value.items()}
    if kind is Fraction:
        return format_rational(value)
    return value


def report_to_jsonable(report: BoundReport) -> dict:
    """BoundReport as plain JSON data, deterministic field order."""
    certs = []
    for cert in report.certificates:
        entry: dict[str, object] = {"level": cert.level, "kind": cert.kind}
        if cert.witness is not None:
            entry["witness"] = _jsonable(cert.witness)
        if cert.classes:
            entry["classes"] = [
                {
                    "class": list(c.cls.a),
                    "rule": c.rule,
                    "witness": _jsonable(c.verdict.witness),
                }
                for c in cert.classes
            ]
        certs.append(entry)
    survivor = report.surviving_class
    return {
        "name": report.knot,
        "lower": report.lower,
        "lower_exhausted": report.lower_exhausted,
        "upper": report.upper,
        "upper_witness": report.upper_witness,
        "surviving_class": list(survivor.a) if survivor is not None else None,
        "interval": report.display,
        "certificates": certs,
    }
