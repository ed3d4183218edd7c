"""Bound aggregation engine.

``lower_bound`` ascends the self-intersection levels k = 0, 1, 2, ...,
certifying each level obstructed until one survives: level 0 via the
null-class check, higher levels either by a surgery-friend certificate or
by killing every candidate class with the per-class battery
(:class:`ClassBattery`: adjunction bounds first, then the instanton energy
check, then the V_s check; the fixed order decides which rule a
certificate names).  The first
unobstructed level is a sound lower bound because every check is a
necessary condition for the disk.  The search is serial and lazy: each
level streams its classes from :func:`~slicedeg.lattice.iter_classes` and
stops at its first surviving class, as ``beta_table`` does.

``upper_bound`` takes the minimum over the record's direct constructions
(4 * positive clasp number, 4 * slicing number, explicit witnesses) and
closes it under concordance and connected-sum transfer by a monotone
fixed point over just the records it references, directly or not.

Reports are deterministic: identical inputs and configuration produce
byte-identical serialized output.
"""

from __future__ import annotations

import itertools
import warnings as _warnings
from collections import ChainMap
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .knots import KnotDatabase, KnotRecord, format_rational
# enumerate_classes stays importable here because bench/tracing.py wraps it at this module.
from .lattice import HomologyClass, enumerate_classes, iter_classes  # noqa: F401
from .obstructions import (
    Verdict,
    beta_adjunction,
    friend_rule,
    gamma_general,
    null_class_check,
    vs_obstruction,
)
from .staircase import OracleDisagreement, VsSequence, VsUnavailable, nu_plus, vs_of

ALL_OBSTRUCTIONS = frozenset({"s", "vs", "gamma", "friend"})

DEFAULT_MAX_K = 64


class CyclicRelationWarning(UserWarning):
    """Concordance / connected-sum references form a cycle."""


@dataclass(frozen=True)
class EngineConfig:
    """Search cap, enabled obstruction set, gamma c-sweep, parallelism degree.

    ``max_k = None`` means: cap at the record's upper bound when one is
    known, else at ``DEFAULT_MAX_K``.  ``parallelism`` is validated and
    accepted for compatibility, but the search is serial at every value.
    """

    max_k: int | None = None
    obstructions: frozenset[str] = ALL_OBSTRUCTIONS
    gamma_c_sweep: bool = False
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.max_k is not None and self.max_k < 0:
            raise ValueError("max_k must be non-negative")
        unknown = set(self.obstructions) - ALL_OBSTRUCTIONS
        if unknown:
            raise ValueError(f"unknown obstructions: {sorted(unknown)}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass(frozen=True)
class ClassCertificate:
    cls: HomologyClass
    rule: str
    verdict: Verdict


@dataclass(frozen=True)
class LevelCertificate:
    level: int
    kind: str  # "null_class" | "friend" | "classes"
    witness: Mapping[str, object] | None = None
    classes: tuple[ClassCertificate, ...] = ()


@dataclass(frozen=True)
class LowerBoundSearch:
    """Result of the ascending level search: (L, certificates) plus extras."""

    level: int
    exhausted: bool
    surviving_class: HomologyClass | None
    certificates: tuple[LevelCertificate, ...]


@dataclass(frozen=True)
class BoundReport:
    """Certified interval for one knot."""

    knot: str
    lower: int
    lower_exhausted: bool
    upper: int | None
    upper_witness: str | None
    surviving_class: HomologyClass | None
    certificates: tuple[LevelCertificate, ...]

    def __post_init__(self) -> None:
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(
                f"{self.knot}: certified lower bound {self.lower} exceeds upper bound "
                f"{self.upper}; the record data is inconsistent"
            )

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


def _gamma_c_vectors(a: Sequence[int], sweep: bool) -> list[tuple[int, ...]]:
    """The c-vectors the instanton check tries on the sorted class ``a``.

    Without the sweep only c = 0.  With it, one c in {0,1}^n per orbit
    under permutations among equal entries of ``a``, which leave kappa,
    the index and eta unchanged: the lexicographically least member, which
    over each run of m equal even entries is 0^(m-j) 1^j for j = 0..m.  Odd
    entries keep c_i = 0: a_i - 2*c_i is odd either way, so kappa, the index
    and the verdict do not depend on c_i.  That is prod(m_j + 1) vectors
    over the even runs, in lexicographic order, so the first killing c is
    the first killing c of the full 2^n sweep in that order.
    Each is decided by :func:`gamma_general` in O(n) integer operations,
    plus O(n * sum(a)) once for the eta of a killing c's witness.
    """
    if not sweep:
        return [(0,) * len(a)]
    runs = [(len(list(group)), x % 2) for x, group in itertools.groupby(a)]
    choices = [[(0,) * (m - j) + (1,) * j for j in range(1 if odd else m + 1)] for m, odd in runs]
    return [tuple(itertools.chain.from_iterable(parts)) for parts in itertools.product(*choices)]


class RuleVerdict(NamedTuple):
    """One battery rule's verdict on one class.

    Adjunction rules also carry both sides of their inequality, ``beta``
    and ``rhs = k - sum(a)``, so a pass can be shown with its margin.
    """

    rule: str
    verdict: Verdict
    beta: int | None = None
    rhs: int | None = None


class ClassBattery:
    """The per-class obstruction battery for one record and configuration.

    The record's V_s sequence (``v``, None when the record has no route to
    it; ``OracleDisagreement`` propagates) and its adjunction-type scalar
    bounds (``betas``: each stored s_p, 2*tau, 2*nu+) are computed once,
    here, and shared by every class checked.
    """

    def __init__(self, record: KnotRecord, cfg: EngineConfig) -> None:
        self.record = record
        self.cfg = cfg
        self.v: VsSequence | None
        try:
            self.v = vs_of(record)
        except VsUnavailable:
            self.v = None
        self.betas = [
            (f"beta[s_{p}]", record.s_invariants[p]) for p in sorted(record.s_invariants)
        ]
        if record.tau is not None:
            self.betas.append(("beta[2tau]", 2 * record.tau))
        if self.v is not None:
            self.betas.append(("beta[2nu+]", 2 * nu_plus(self.v)))

    def verdicts(self, cls: HomologyClass) -> Iterator[RuleVerdict]:
        """Each enabled rule's verdict on the class, in a fixed order.

        Adjunction bounds first (one per stored beta), then the instanton
        check once per c-vector (c = 0, or with the c-sweep one c per
        orbit under permuting equal entries, see :func:`_gamma_c_vectors`),
        then the V_s check.  Rules without
        data on the record (no Gamma values, no V_s) yield nothing.  The
        class is obstructed iff some verdict is; consumers that only need
        the first kill stop early.
        """
        record, cfg, v = self.record, self.cfg, self.v
        if "s" in cfg.obstructions:
            rhs = cls.norm - sum(cls.a)
            for rule, beta in self.betas:
                yield RuleVerdict(rule, beta_adjunction(cls, beta), beta, rhs)
        if "gamma" in cfg.obstructions and record.gamma:
            for c in _gamma_c_vectors(cls.a, cfg.gamma_c_sweep):
                yield RuleVerdict("gamma", gamma_general(cls, c, record.signature, record.gamma))
        if "vs" in cfg.obstructions and v is not None:
            yield RuleVerdict("vs", vs_obstruction(cls, v))


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
            witness = dict(vd.witness or {}, friend_name=fr.friend_name)
    return best, witness


def lower_bound(record: KnotRecord, cfg: EngineConfig | None = None) -> LowerBoundSearch:
    """Certified lower bound for sd+ of the record's knot.

    Level 0 is always decided by the full null-class check; levels below a
    firing friendship are covered by its certificate; any other level k is
    obstructed only if every class of norm k is killed.  Classes are
    checked one at a time and the search stops at the first survivor.  If
    the cap is reached with everything obstructed, returns cap + 1 with
    ``exhausted`` set.
    """
    cfg = cfg or EngineConfig()
    battery = ClassBattery(record, cfg)
    cap = cfg.max_k
    if cap is None:
        direct_upper, _ = _direct_upper(record)
        cap = direct_upper if direct_upper is not None else DEFAULT_MAX_K

    friend_cap, friend_witness = _friend_coverage(record, cfg)
    certificates: list[LevelCertificate] = []

    for k in range(0, cap + 1):
        if k < friend_cap:
            certificates.append(LevelCertificate(k, "friend", witness=friend_witness))
            continue
        if k == 0:
            vd = null_class_check(record, battery.v)
            if vd.obstructed:
                certificates.append(LevelCertificate(0, "null_class", witness=vd.witness))
                continue
            return LowerBoundSearch(0, False, HomologyClass(()), tuple(certificates))
        kills = []
        for cls in iter_classes(k):
            for rv in battery.verdicts(cls):
                if rv.verdict.obstructed:
                    kills.append(ClassCertificate(cls, rv.rule, rv.verdict))
                    break
            else:
                return LowerBoundSearch(k, False, cls, tuple(certificates))
        certificates.append(LevelCertificate(k, "classes", classes=tuple(kills)))
    return LowerBoundSearch(cap + 1, True, None, tuple(certificates))


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
    if not candidates:
        return None, None
    best = min(c[0] for c in candidates)
    desc = next(d for val, d in candidates if val == best)
    return best, desc


def _upper_fixpoint(
    records: Mapping[str, KnotRecord], roots: Iterable[str]
) -> tuple[dict[str, tuple[int | None, str | None]], CyclicRelationWarning | None]:
    """Upper bounds of ``roots`` and of every record they reference, directly or not.

    A depth-first walk with an explicit stack lists those records, each after
    its references, and keeps the first cycle; the relax loop sweeps that list.
    Returns the bounds and the cycle's warning (None without a cycle), which
    the public entry point issues so that it names the entry point's caller.
    """

    def refs(name: str) -> Iterator[str]:
        r = records[name]
        return (t for t in (r.concordant_to, *(r.connected_sum_of or ())) if t and t in records)

    order: list[str] = []
    listed: dict[str, bool] = {}  # False while on the walk's path, True once listed
    warning: CyclicRelationWarning | None = None
    for root in roots:
        if root in listed:
            continue
        listed[root] = False
        stack = [(root, refs(root))]
        while stack:
            name, pending = stack[-1]
            nxt = next(pending, None)
            if nxt is None:
                stack.pop()
                listed[name] = True
                order.append(name)
            elif nxt not in listed:
                listed[nxt] = False
                stack.append((nxt, refs(nxt)))
            elif not listed[nxt] and warning is None:
                path = [n for n, _ in stack]
                cycle = " -> ".join(path[path.index(nxt):] + [nxt])
                warning = CyclicRelationWarning(
                    f"concordance/connected-sum references cycle: {cycle}"
                )
    best = {name: _direct_upper(records[name]) for name in order}
    changed = True
    while changed:
        changed = False
        for name in order:
            record = records[name]
            current = best[name][0]
            if record.concordant_to and record.concordant_to in best:
                via, _ = best[record.concordant_to]
                if via is not None and (current is None or via < current):
                    best[name] = (via, f"concordant to {record.concordant_to} (<= {via})")
                    current = via
                    changed = True
            if record.connected_sum_of:
                parts = [best.get(n, (None, None))[0] for n in record.connected_sum_of]
                if all(p is not None for p in parts):
                    total = sum(parts)  # type: ignore[arg-type]
                    if current is None or total < current:
                        best[name] = (
                            total,
                            "connected sum "
                            + " + ".join(record.connected_sum_of)
                            + f" (<= {total})",
                        )
                        changed = True
    return best, warning


def _upper(
    record: KnotRecord, db: KnotDatabase | None
) -> tuple[tuple[int | None, str | None], CyclicRelationWarning | None]:
    """``record``'s upper bound and witness, and the cycle warning to issue."""
    records = ChainMap({record.name: record}, db.records) if db else {record.name: record}
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


@dataclass(frozen=True)
class BetaTableRow:
    beta: int
    min_k: int
    witness: HomologyClass


def beta_table(betas: Sequence[int]) -> list[BetaTableRow]:
    """For each beta, the first level with a class surviving the adjunction bound.

    The witness is the first surviving class in the canonical enumeration
    order (descending tuples, lexicographically descending); beta <= 0
    gives level 0 and the empty class.
    """
    if not betas:
        raise ValueError("betas must be non-empty")
    rows = []
    for beta in betas:
        k, cls = next(
            (k, cls) for k in itertools.count() for cls in iter_classes(k)
            if not beta_adjunction(cls, beta).obstructed
        )
        rows.append(BetaTableRow(beta, k, cls))
    return rows


@dataclass(frozen=True)
class TableRow:
    name: str
    lower: int | None
    upper: int | None
    display: str
    error: str | None = None


def _report(
    record: KnotRecord, upper: int | None, upper_witness: str | None, cfg: EngineConfig
) -> BoundReport:
    """Lower-bound search capped at ``upper`` (unless cfg sets a cap), paired with it.

    Raises ValueError when the certified lower bound exceeds ``upper``.
    """
    if cfg.max_k is None:
        cfg = replace(cfg, max_k=upper if upper is not None else DEFAULT_MAX_K)
    search = lower_bound(record, cfg)
    return BoundReport(
        knot=record.name,
        lower=search.level,
        lower_exhausted=search.exhausted,
        upper=upper,
        upper_witness=upper_witness,
        surviving_class=search.surviving_class,
        certificates=search.certificates,
    )


def bound_report(
    record: KnotRecord, db: KnotDatabase | None = None, cfg: EngineConfig | None = None
) -> BoundReport:
    upper, warning = _upper(record, db)
    if warning:
        _warnings.warn(warning, stacklevel=2)
    return _report(record, *upper, cfg or EngineConfig())


def report_table(db: KnotDatabase, cfg: EngineConfig | None = None) -> list[TableRow]:
    """Per-record intervals over the whole database, failures reported inline."""
    cfg = cfg or EngineConfig()
    uppers, warning = _upper_fixpoint(db.records, db.records)
    if warning:
        _warnings.warn(warning, stacklevel=2)
    rows = []
    for record in db:
        try:
            report = _report(record, *uppers[record.name], cfg)
            rows.append(TableRow(record.name, report.lower, report.upper, report.display))
        except (ValueError, OracleDisagreement) as exc:
            rows.append(TableRow(record.name, None, None, "error", error=str(exc)))
    return rows


# --- serialization ----------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, HomologyClass):
        return list(value.a)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
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
    return {
        "name": report.knot,
        "lower": report.lower,
        "lower_exhausted": report.lower_exhausted,
        "upper": report.upper,
        "upper_witness": report.upper_witness,
        "surviving_class": list(report.surviving_class.a) if report.surviving_class else None,
        "interval": report.display,
        "certificates": certs,
    }
