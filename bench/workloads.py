"""Seeded workload generators for the slicedeg benchmark.

Each generator turns a seed into plain data: database documents as JSON
text, the certificate requests to make against them, the documents to
tabulate, and the answers the generator knows.  Nothing here imports
slicedeg; the program only ever sees the generated JSON.

Every generated record is built so that the work the program does on it
is the same for every seed (see each generator), which keeps the
benchmark's figures comparable across seeds while the inputs differ.
The only upper-bound data a generated record carries is the slicing
number m of T(2,2m+1), whose bound 4m is exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("catalogue", "torus-ladder", "gamma-sweep")

# Bundled CLI traffic: one `bound --json` subprocess per sampled name and pass.
CLI_SAMPLE = 6

# catalogue sizes
SUMS = 40
CHAIN_LINKS = 240
CHAIN_SAMPLE = 24
STRESS_CHAIN_LINKS = 3000

# torus-ladder: T(2,2m+1) rungs, and vs-only records with explicit V_s.
LADDER_RUNGS = range(1, 9)  # m = 9 alone takes about 50 s today
EXPLICIT_CAP = 16
# Unit-step V_s sequences with V_0 <= 3 and four positive entries whose
# vs-only search is obstructed at every level up to EXPLICIT_CAP, so the
# lambda search costs about the same per record.  Each shape appears twice
# per pass, in seeded order, so every seed does the same work.  With the 8
# rungs that makes 24 certificates a pass, which puts p90 inside the
# T(2,13) rung rather than between two rungs.
EXPLICIT_SHAPES = (
    (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 1, 1),
    (3, 2, 2, 2), (3, 3, 2, 2), (3, 3, 3, 2), (3, 3, 3, 3),
)

# gamma-sweep templates: (tau, {index: t}).  For a thin record with
# signature -2*tau, a class of norm k whose instanton index is i is killed
# by Gamma(i) exactly when k < 8*Gamma(i) - 4*(i - tau).  Drawing Gamma(i)
# strictly inside (t, t + 1) after that shift therefore kills the same
# classes for every seed: norms k <= t at index i.  "all" means a t beyond
# every norm the search reaches.  Index tau carries a double-twist value
# D(m, n) with floor(8*Gamma) = t.  With the c-sweep every template ends
# at a surviving level (16 for tau = 2, 18 for tau = 3) below any cap
# drawn from GAMMA_CAPS, so the cap is seeded without changing the work.
GAMMA_TEMPLATES = (
    (2, {0: "all", 2: 5, 3: "all", 5: "all"}),
    (2, {0: "all", 2: 6, 4: 7, 6: 10}),
    (2, {0: "all", 2: 3, 3: 10, 5: "all", 6: 11}),
    (2, {0: "all", 2: 5, 1: "all", 6: "all"}),
    (2, {0: "all", 2: 6, 1: "all", 3: 8, 5: "all"}),
    (2, {0: "all", 2: 3, 1: "all", 4: "all"}),
    (3, {0: "all", 3: 6, 2: "all", 4: "all"}),
    (3, {0: "all", 3: 5, 2: "all", 4: 5, 5: "all", 6: 10}),
    (3, {0: "all", 3: 3, 1: "all"}),
    (3, {0: "all", 3: 5, 1: "all", 5: "all", 6: "all"}),
    (3, {0: "all", 3: 6, 1: "all", 2: "all", 6: 4}),
    (3, {0: "all", 3: 6, 1: "all", 4: "all"}),
)
GAMMA_ALL = (24, 40)
GAMMA_CAPS = (18, 22)
BUNDLED_GAMMA = ("7_4", "9_5", "9_10")


@dataclass(frozen=True)
class Job:
    """One certificate request: record `name` of document `doc`."""

    doc: str
    name: str
    max_k: int | None = None
    obstructions: tuple[str, ...] | None = None
    gamma_c_sweep: bool = False
    # Known answers; None means unknown to the generator.
    interval: str | None = None
    upper: int | None = None
    reference: str | None = None  # key into the committed payload hashes


@dataclass
class Workload:
    name: str
    seed: int
    docs: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    # Documents tabulated with report_table each pass; rows are checked
    # against `table_expect[doc][name]` = (interval or None, upper or None).
    tables: list[str] = field(default_factory=list)
    table_expect: dict[str, dict[str, tuple[str | None, int | None]]] = field(
        default_factory=dict
    )
    # Tabulated each pass and counted in the failure rate, but left out of
    # table_s: documents that exercise a known defect.
    stress_tables: list[str] = field(default_factory=list)
    cli_names: list[str] = field(default_factory=list)


def upper_of(interval: str) -> int:
    """Upper end of a table interval such as "4" or "[5,8]"."""
    return int(interval.strip("[]").split(",")[-1])


def _bundled(root: Path) -> tuple[str, str]:
    data = root / "src" / "slicedeg" / "data"
    return (
        (data / "knots.json").read_text(encoding="utf-8"),
        (data / "families.json").read_text(encoding="utf-8"),
    )


def _dump(records: list[dict]) -> str:
    return json.dumps(records, indent=1)


def _bundled_tables(wl: Workload, knots_text: str, families_text: str, ref: dict) -> None:
    """The bundled `slicedeg table` traffic and the sampled CLI names, on every workload."""
    wl.docs["knots"] = knots_text
    wl.docs["families"] = families_text
    for doc in ("knots", "families"):
        wl.tables.append(doc)
        wl.table_expect[doc] = {
            name: (iv, upper_of(iv)) for name, iv in ref["intervals"][doc].items()
        }
    rng = random.Random(f"{wl.seed}:cli")
    wl.cli_names = rng.sample(sorted(ref["intervals"]["knots"]), CLI_SAMPLE)


def _chain(base: dict, links: int, prefix: str, reverse: bool, carry: bool) -> list[dict]:
    """A concordance chain hanging off a copy of `base`.

    Link i is concordant to link i - 1 and link 1 to the base.  With
    `carry`, each link repeats the base's concordance invariants
    (signature, s, tau, V_s); otherwise only the signature.  `reverse`
    writes the links last-first, so each sweep of a file-order fixed
    point moves the upper bound one link.
    """
    head = {k: v for k, v in base.items() if k != "sources"}
    links_out = []
    prev = base["name"]
    for i in range(1, links + 1):
        rec = {"name": f"{prefix}{i}", "signature": base["signature"]}
        if carry:
            for key in ("s_invariants", "tau", "vs_spec"):
                if key in base:
                    rec[key] = base[key]
        rec["concordant_to"] = prev
        prev = rec["name"]
        links_out.append(rec)
    if reverse:
        return links_out[::-1] + [head]
    return [head] + links_out


def catalogue(seed: int, root: Path, ref: dict) -> Workload:
    """Bundled tables, seeded connected sums and concordance chains.

    The table and `bound --json` traffic: parsing, the whole-database
    upper fixed point and the cheap adjunction kills do the work.
    """
    knots_text, families_text = _bundled(root)
    wl = Workload("catalogue", seed)
    _bundled_tables(wl, knots_text, families_text, ref)
    knots = ref["intervals"]["knots"]
    families = ref["intervals"]["families"]
    for name, iv in knots.items():
        wl.jobs.append(Job("knots", name, interval=iv, reference=f"knots/{name}"))
    for name, iv in families.items():
        wl.jobs.append(Job("families", name, interval=iv, reference=f"families/{name}"))

    rng = random.Random(f"{seed}:catalogue")
    base = json.loads(knots_text)
    by_name = {r["name"]: r for r in base}

    # Connected sums of two knots with interval 4: signature, s_0 and
    # tau add.  V_s is left unknown (the lambda search on a large-tau sum
    # would swamp the pass, and it has its own workload).  The only upper
    # bound is the sum of the summands' bounds.  Drawing summands from
    # one cost class keeps the work per seed alike.
    summands = sorted(n for n, iv in knots.items() if iv == "4")
    sums = []
    sums_expect = {}
    for i in range(SUMS):
        parts = [rng.choice(summands) for _ in range(2)]
        recs = [by_name[p] for p in parts]
        rec = {
            "name": f"sum{i}:" + "#".join(parts),
            "signature": sum(r["signature"] for r in recs),
            "s_invariants": {"0": sum(r["s_invariants"]["0"] for r in recs)},
            "tau": sum(r["tau"] for r in recs),
        }
        rec["connected_sum_of"] = parts
        sums.append(rec)
        upper = sum(upper_of(knots[p]) for p in parts)
        sums_expect[rec["name"]] = (None, upper)
        wl.jobs.append(Job("sums", rec["name"], upper=upper))
    wl.docs["sums"] = _dump(base + sums)
    wl.tables.append("sums")
    wl.table_expect["sums"] = {
        **{n: (iv, upper_of(iv)) for n, iv in knots.items()},
        **sums_expect,
    }

    # Chain heads: thin records with interval 4 and no gamma.  A link
    # carries all a head's lower-bound data (signature, s, tau, thin V_s),
    # so every link's interval equals the head's; all 26 such bundled
    # knots have signature -2, s_0 = 2 and tau = 1, so every seed's chains
    # cost the same.
    heads = sorted(
        r["name"] for r in base
        if knots[r["name"]] == "4" and "gamma" not in r
        and r.get("vs_spec", {}).get("type") == "thin"
    )
    for doc, reverse in (("chain_fwd", False), ("chain_rev", True)):
        head = rng.choice(heads)
        records = _chain(by_name[head], CHAIN_LINKS, f"{doc}-{head}-", reverse, carry=True)
        wl.docs[doc] = _dump(records)
        iv = knots[head]
        wl.tables.append(doc)
        wl.table_expect[doc] = {r["name"]: (iv, upper_of(iv)) for r in records}
        for i in sorted(rng.sample(range(1, CHAIN_LINKS + 1), CHAIN_SAMPLE)):
            wl.jobs.append(Job(doc, f"{doc}-{head}-{i}", interval=iv))

    # A reversed chain of 3000 links, deeper than the interpreter's default
    # recursion limit, so a relation check that recurses once per link
    # fails on it.  Any failure is counted, never filtered.  Links carry
    # only the signature, so a table that succeeds stays cheap; only the
    # upper bound is known.
    head = rng.choice(heads)
    records = _chain(by_name[head], STRESS_CHAIN_LINKS, f"long-{head}-", True, carry=False)
    wl.docs["chain_rev_3000"] = _dump(records)
    wl.stress_tables.append("chain_rev_3000")
    up = upper_of(knots[head])
    wl.table_expect["chain_rev_3000"] = {r["name"]: (None, up) for r in records}
    wl.table_expect["chain_rev_3000"][head] = (knots[head], up)
    return wl


def torus_ladder(seed: int, root: Path, ref: dict) -> Workload:
    """Thin T(2,2m+1) for m = 1..8 and vs-only explicit-V_s records.

    The paper's family, whose interval closes at 4m; the V_s lambda
    search does the work.
    """
    knots_text, families_text = _bundled(root)
    wl = Workload("torus-ladder", seed)
    _bundled_tables(wl, knots_text, families_text, ref)
    ladder = []
    for m in LADDER_RUNGS:
        name = f"T(2,{2 * m + 1})"
        ladder.append({
            "name": name,
            "signature": -2 * m,
            "s_invariants": {"0": 2 * m},
            "tau": m,
            "vs_spec": {"type": "thin"},
            "slicing_number": m,
        })
        wl.jobs.append(Job("ladder", name, interval=str(4 * m), reference=f"ladder/{name}"))
    wl.docs["ladder"] = _dump(ladder)

    rng = random.Random(f"{seed}:torus-ladder")
    shapes = list(EXPLICIT_SHAPES) * 2
    rng.shuffle(shapes)
    explicit = []
    for i, values in enumerate(shapes):
        name = f"V{i}-" + "".join(map(str, values)) + f"-{rng.randrange(16**4):04x}"
        # The signature only decides which null-class reason fires at k = 0.
        explicit.append({
            "name": name,
            "signature": -2 * rng.randint(0, 3),
            "vs_spec": {"type": "explicit", "values": list(values)},
        })
        wl.jobs.append(Job("explicit", name, max_k=EXPLICIT_CAP, obstructions=("vs",)))
    wl.docs["explicit"] = _dump(explicit)
    return wl


def double_twist_gamma(m: int, n: int) -> Fraction:
    """Gamma(1) of the double twist knot D(m, n): (2m-1)(2n-1)/(4mn-1)."""
    return Fraction((2 * m - 1) * (2 * n - 1), 4 * m * n - 1)


def _double_twist_bands(limit: int = 9) -> dict[int, list[tuple[int, int]]]:
    """Double-twist parameters (m, n) grouped by floor(8 * Gamma), non-integers only."""
    bands: dict[int, list[tuple[int, int]]] = {}
    for m in range(1, limit + 1):
        for n in range(m, limit + 1):
            eight = 8 * double_twist_gamma(m, n)
            if eight.denominator != 1:
                bands.setdefault(eight.numerator // eight.denominator, []).append((m, n))
    return bands


def gamma_sweep(seed: int, root: Path, ref: dict) -> Workload:
    """Gamma-bearing thin records searched with the full c-sweep.

    The 2^n c-vector sweep of the instanton check does the work; the
    catalogue only ever checks c = 0.
    """
    knots_text, families_text = _bundled(root)
    wl = Workload("gamma-sweep", seed)
    _bundled_tables(wl, knots_text, families_text, ref)
    rng = random.Random(f"{seed}:gamma-sweep")
    bands = _double_twist_bands()
    records = []
    templates = list(GAMMA_TEMPLATES)
    rng.shuffle(templates)
    for i, (tau, thresholds) in enumerate(templates):
        gamma = {}
        for index, t in sorted(thresholds.items()):
            if index == tau:
                m, n = rng.choice(bands[t])
                value = double_twist_gamma(m, n)
            else:
                if t == "all":
                    t = rng.randint(*GAMMA_ALL)
                value = Fraction(4 * (index - tau) + t, 8) + Fraction(rng.randint(1, 6), 56)
            gamma[str(index)] = f"{value.numerator}/{value.denominator}"
        name = f"G{i}-tau{tau}-{rng.randrange(16**4):04x}"
        records.append({
            "name": name,
            "signature": -2 * tau,
            "s_invariants": {"0": 2 * tau},
            "tau": tau,
            "vs_spec": {"type": "thin"},
            "gamma": gamma,
        })
        wl.jobs.append(Job("gamma", name, max_k=rng.randint(*GAMMA_CAPS), gamma_c_sweep=True))
    wl.docs["gamma"] = _dump(records)
    for name in BUNDLED_GAMMA:
        wl.jobs.append(Job("knots", name, gamma_c_sweep=True, reference=f"sweep/{name}"))
    return wl


GENERATORS = {"catalogue": catalogue, "torus-ladder": torus_ladder, "gamma-sweep": gamma_sweep}


def build(name: str, seed: int, root: Path, ref: dict) -> Workload:
    return GENERATORS[name](seed, root, ref)
