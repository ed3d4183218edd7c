"""Soundness mutants: each deliberate fault in a decider must fail its named tests.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant names a file under ``src/``, a snippet that must occur there
exactly once (or a tuple of snippets, each once), its replacement (or a
tuple of them), and the pytest node ids that must each fail once the
replacements are made.  The gate first runs every named id on the
unmutated tree; then, for each mutant, it copies ``src/``, ``tests/``,
``pyproject.toml``, ``bench/reference.json`` (the payload hashes a test
reads) and ``bench/tracing.py`` (the trace points a test installs) to a
temporary directory, applies the mutant there and runs its ids
(``pyproject.toml`` puts the copied ``src/`` first on the import path).
It exits 1 if the unmutated ids fail, if a snippet does not occur exactly
once (so a refactor must update its mutant and cannot drop it silently),
or if pytest does not report each of a mutant's ids as failed under it
(a parametrized id without its ``[param]`` suffix fails when any of its
cases does).  Hypothesis tests run under the ``mutants`` profile
(``tests/conftest.py``): the same examples, with no shrinking of a failing
one, which only the report would read.  The repository itself is never edited.
Every change that adds a decider, a fast path or an equality that a memo key
relies on adds its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str | tuple[str, ...]
    replacement: str | tuple[str, ...]
    tests: tuple[str, ...]

    def hunks(self) -> list[tuple[str, str]]:
        """The (snippet, replacement) pairs the mutant applies."""
        if isinstance(self.snippet, str):
            return [(self.snippet, self.replacement)]
        return list(zip(self.snippet, self.replacement))


OBS = "src/slicedeg/obstructions.py"
ENGINE = "src/slicedeg/engine.py"
KNOTS = "src/slicedeg/knots.py"
T_OBS = "tests/test_obstructions.py::"
T_VS = T_OBS + "TestVsLayersAgainstReference::"
T_MEMO = "tests/test_table_memo.py::"
T_FLOOR = "tests/test_engine.py::TestAdjunctionFloor::"
T_VS_FLOOR = "tests/test_engine.py::TestVsOnlyFloor::"
T_KILLS = "tests/test_engine.py::TestKills::"
T_DESCENT = "tests/test_engine.py::TestBlowUpDescent::"

MUTANTS = (
    Mutant(
        "gamma-ge",
        OBS,
        "return 8 * g.numerator > energy16 * g.denominator",
        "return 8 * g.numerator >= energy16 * g.denominator",
        (T_OBS + "TestGammaGeneral::test_boundary_not_strict",),
    ),
    Mutant(
        "gamma-negative-index",
        OBS,
        "if index4 >= 0 and not index4 % 4 else None",
        "if not index4 % 4 else None",
        (T_OBS + "TestGammaGeneral::test_class_four_negative_index_passes",),
    ),
    Mutant(
        "beta-ge",
        OBS,
        "    return beta > rhs\n",
        "    return beta >= rhs\n",
        (
            T_OBS + "TestBetaAdjunction::test_two_survives_at_four",
            "tests/test_engine.py::TestBetaTable::test_expected_rows",
            "tests/test_acceptance.py::test_c05_tables_reproduction",
            "tests/test_reference_payloads.py::test_bundled_payloads_match_reference_hashes",
        ),
    ),
    Mutant(
        "friend-boundary",
        OBS,
        "(k - friend_s) ** 2 < k",
        "(k - friend_s) ** 2 <= k",
        (
            T_OBS + "TestFriendRule::test_level_four_boundary",
            T_OBS + "TestFriendRule::test_exactness_against_float_scan",
        ),
    ),
    Mutant(
        "vs-shortcut-at-zero",
        OBS,
        "    if v.v((k - sum(cls.a)) // 2):\n",
        "    if v.v((k - sum(cls.a)) // 2) >= 0:\n",
        (
            T_OBS + "TestVsObstruction::test_two_survives_v1",
            T_OBS + "TestVsAgainstEnumeration::test_every_class_up_to_norm_14",
        ),
    ),
    # The decider and the witness share one walk; without its cost-0 shortcut the layers
    # still decide every class alike, but a shortcut class builds them.
    Mutant(
        "vs-decide-without-shortcut",
        OBS,
        "    if v.v((k - sum(cls.a)) // 2):\n        return [1] * cls.n\n",
        "",
        (T_OBS + "TestVsShortcutAndCap::test_shortcut_builds_no_table",),
    ),
    Mutant(
        "setup-key-without-cap",
        OBS,
        "setup = setups.get(key := (k, cap, cls.n > 1))",
        "setup = setups.get(key := (k, cls.n > 1))",
        (T_VS + "test_setups_kept_under_a_lower_cap_are_not_reused",),
    ),
    Mutant(
        "vs-ones-tail-le",
        OBS,
        "if 0 <= j < nu and spent < prefix[j]:",
        "if 0 <= j < nu and spent <= prefix[j]:",
        (T_VS + "test_every_unit_step_sequence_up_to_norm_20",),
    ),
    Mutant(
        "vs-ones-rule-negative-j",
        OBS,
        "if 0 <= j < nu and spent < prefix[j]:",
        "if j < nu and spent < prefix[j]:",
        (T_VS + "test_first_violator_with_a_negative_entry",),
    ),
    Mutant(
        "vs-build-plus-only",
        OBS,
        "layers[c + up] |= bits << low | bits << high",
        "layers[c + up] |= bits << high",
        (T_VS + "test_first_violator_with_a_negative_entry",),
    ),
    Mutant(
        "vs-target-unclamped",
        OBS,
        "masks.append(((1 << reach) - 1) << (nu - reach))",
        "masks.append(-1 << (nu - reach))",
        (T_OBS + "TestVsShortcutAndCap::test_unreached_entries_never_complete",),
    ),
    Mutant(
        "vs-witness-sign-order",
        OBS,
        "for sign in (mag, -mag):",
        "for sign in (-mag, mag):",
        (
            T_VS + "test_every_unit_step_sequence_up_to_norm_20",
            T_OBS + "TestVsShortcutAndCap::test_capped_witness_is_first_within_cap",
        ),
    ),
    Mutant(
        "vs-key-without-cap",
        OBS,
        "key = (cls.a[i:], cap)",
        "key = cls.a[i:]",
        (T_VS + "test_layers_kept_under_a_lower_cap_are_not_reused",),
    ),
    Mutant(
        "vs-completes-le",
        OBS,
        "while reach and prefix[reach - 1] <= c:",
        "while reach and prefix[reach - 1] < c:",
        (T_OBS + "TestVsAgainstEnumeration::test_every_class_up_to_norm_14",),
    ),
    Mutant(
        "vs-table-max",
        OBS,
        "layers[c + up] |= bits << low | bits << high",
        "layers[c + up] ^= bits << low | bits << high",
        (T_OBS + "TestVsAgainstEnumeration::test_every_class_up_to_norm_14",),
    ),
    # Every layer built in a call places its bits above an origin taken from
    # the class (sum(a)), and the call's own check allows for it (the masks
    # are made for a one-entry class too, whose last entry no longer sees the
    # empty suffix): each call alone agrees, but layers kept for a suffix
    # mislead a class of another sum.
    Mutant(
        "vs-layer-offset-from-class",
        OBS,
        (
            "for c in range(top + 1 if cls.n > 1 else 0):",
            "rests = [_EMPTY if head is None else head]",
            "shift = (dot + sign * a_i - rest.offset - low) >> 1  # bit b meets mask bit b+shift\n"
            "                if -rest.offset <= shift < nu and",
        ),
        (
            "for c in range(top + 1):",
            "rests = [_Layers(0, (1 << sum(cls.a),)) if head is None else head]",
            "shift = ((dot + sign * a_i - rest.offset - low) >> 1) - sum(cls.a)\n"
            "                if -rest.offset - sum(cls.a) <= shift < nu and",
        ),
        (
            T_VS + "test_one_battery_decides_a_suffix_kept_at_another_norm",
            T_VS + "test_one_battery_decides_shuffled_levels_like_fresh_calls",
        ),
    ),
    Mutant(
        "vs-cap-drops-middle-term",
        OBS,
        "hi * hi + hi * lo + lo * lo",
        "hi * hi + lo * lo",
        (T_OBS + "TestVsShortcutAndCap::test_capped_witness_is_first_within_cap",),
    ),
    Mutant(
        "floor-late",
        ENGINE,
        "walk = max(start, floor)",
        "walk = max(start, floor + 1)",
        (
            T_FLOOR + "test_small_records_match_the_reference_walk",
            T_FLOOR + "test_random_records_match_the_reference_walk",
            "tests/test_engine.py::TestReferenceWalk::test_bundled_databases",
        ),
    ),
    Mutant(
        "vs-floor-off-by-one",
        ENGINE,
        "[2 * self.v.nu] if self.vs",
        "[2 * self.v.nu + 2] if self.vs",
        (
            T_VS_FLOOR + "test_every_unit_step_sequence_up_to_norm_16",
            T_VS_FLOOR + "test_steep_sequences_up_to_norm_30",
        ),
    ),
    # The blow-up descent carries beta and V_s kills to (a, 1), not instanton kills, and
    # only from a level killed class by class.
    Mutant(
        "descent-skips-gamma-only",
        ENGINE,
        "gamma_only.add(cls.a)",
        "pass",
        (
            "tests/test_engine.py::TestLowerBound::test_7_4_gamma_pushes_to_five",
            "tests/test_engine.py::TestReferenceWalk::test_bundled_databases",
            T_DESCENT + "test_7_4_decides_the_gamma_only_extension",
        ),
    ),
    Mutant(
        "descent-at-first-level",
        ENGINE,
        "gamma_only = set() if walk > start else None",
        "gamma_only = set()",
        (
            "tests/test_engine.py::TestLowerBound::test_friend_covers_all_lower_levels",
            "tests/test_engine.py::TestLazyLevels::test_friend_skip_checks_only_the_first_class",
        ),
    ),
    Mutant(
        "kills-skips-vs",
        ENGINE,
        "        return self.vs and vs_kills(cls, self.v, self.tables, self.setups)\n",
        "        return False\n",
        (
            T_KILLS + "test_every_bundled_record_and_class_up_to_norm_20",
            "tests/test_engine.py::TestReferenceWalk::test_bundled_databases",
        ),
    ),
    Mutant(
        "listing-trusts-walk",
        ENGINE,
        "            else:\n                kill = None\n",
        "            else:\n                continue\n",
        (T_KILLS + "test_a_survivor_the_walk_killed_fails_the_read",),
    ),
    # The listing explains with the walk's battery, so the walk must drop its V_s layers when
    # it returns, or every kept search whose certificates are unread pins them.
    Mutant(
        "listing-keeps-walk-layers",
        ENGINE,
        "battery.tables, battery.setups = {}, {}",
        "pass",
        (T_FLOOR + "test_one_battery_per_search",),
    ),
    # The listing reads verdicts up to the first obstructed one; a beta that does not kill
    # must build no verdict there, so each beta-certified class costs one beta_adjunction.
    Mutant(
        "verdicts-builds-every-beta",
        ENGINE,
        "beta_adjunction(cls, beta) if beta_kills(beta, rhs) else PASS",
        "beta_adjunction(cls, beta)",
        ("tests/test_trace_points.py::test_engine_wrap_points_fire",),
    ),
    Mutant(
        "least-off-by-one",
        ENGINE,
        "least[k - i * i] + i",
        "least[k - i * i] + i + 1",
        (
            T_FLOOR + "test_least_is_the_least_sum_up_to_norm_120",
            T_FLOOR + "test_small_records_match_the_reference_walk",
            "tests/test_engine.py::TestBetaTable::test_dp_matches_reference_walk",
        ),
    ),
    Mutant(
        "friend-levels-past-cap",
        ENGINE,
        "range(min(friend_cap, cap + 1))",
        "range(friend_cap)",
        (T_FLOOR + "test_small_records_match_the_reference_walk",),
    ),
    Mutant(
        "memo-no-eviction",
        ENGINE,
        "searches.popitem(last=False)",
        "pass",
        (T_MEMO + "TestDatabaseMemo::test_keeps_the_latest_1024",),
    ),
    Mutant(
        "memo-no-refresh",
        ENGINE,
        "searches.pop(key, None)",
        "searches.get(key)",
        (T_MEMO + "TestDatabaseMemo::test_keeps_the_latest_1024",),
    ),
    Mutant(
        "memo-bypass",
        ENGINE,
        "search = searches.pop(key, None)",
        "search = None",
        (T_MEMO + "TestDatabaseMemo::test_repeat_runs_no_search",),
    ),
    Mutant(
        "key-drops-upper",
        ENGINE,
        "key = (_search_key(record), upper, cfg)",
        "key = (_search_key(record), cfg)",
        (T_MEMO + "TestKey::test_other_upper_does_not_share",),
    ),
    Mutant(
        "table-shares-failure",
        ENGINE,
        "            if lower is None:\n"
        "                lower = levels[key] = _search(record, upper, cfg, searches).level\n",
        "            if isinstance(lower, Exception):\n"
        "                raise lower\n"
        "            if lower is None:\n"
        "                try:\n"
        "                    lower = levels[key] = _search(record, upper, cfg, searches).level\n"
        "                except (DatabaseError, OracleDisagreement) as exc:\n"
        "                    levels[key] = exc\n"
        "                    raise\n",
        (T_MEMO + "TestKey::test_failed_search_names_each_record",),
    ),
    Mutant(
        "table-key-drops-upper",
        ENGINE,
        "key := (_search_key(record), upper)",
        "key := _search_key(record)",
        (T_MEMO + "TestDatabaseMemo::test_after_table_runs_no_search",),
    ),
    Mutant(
        "config-eq-parallelism",
        ENGINE,
        'attrgetter("max_k", "obstructions", "gamma_c_sweep")',
        'attrgetter("max_k", "obstructions", "gamma_c_sweep", "parallelism")',
        (
            T_MEMO + "TestDatabaseMemo::test_parallelism_does_not_split",
            "tests/test_types.py::test_parallelism_is_not_compared",
        ),
    ),
    Mutant(
        "value-eq-identity",
        "src/slicedeg/__init__.py",
        "        return self._key == other._key\n",
        "        return self is other\n",
        (
            T_MEMO + "TestDatabaseMemo::test_repeat_runs_no_search",
            "tests/test_types.py::test_copies_equal_where_they_did",
        ),
    ),
    Mutant(
        "certificates-rebuilt",
        ENGINE,
        '        object.__setattr__(self, "_certificates", certificates)\n',
        "        pass\n",
        (
            "tests/test_types.py::test_deferred_certificates_are_built_once",
            T_MEMO + "TestDatabaseMemo::test_repeat_runs_no_search",
        ),
    ),
    Mutant(
        "derived-forgets",
        KNOTS,
        "        return self._derived[compute]\n",
        "        return compute(self)\n",
        ("tests/test_upper_transfer.py::TestSharedClosure::test_chain_closes_once",),
    ),
    Mutant(
        "scalar-bool-is-int",
        KNOTS,
        "return raw if type(raw) is typ or",
        "return raw if isinstance(raw, typ) or",
        (
            "tests/test_knots.py::TestCodecMatchesReference::test_each_fault_like_reference",
            "tests/test_knots.py::TestRationals::test_booleans_rejected_like_int_fields",
        ),
    ),
    Mutant(
        "rational-bool-is-int",
        KNOTS,
        "    if type(text) is int:\n",
        "    if isinstance(text, int):\n",
        (
            "tests/test_knots.py::TestCodecMatchesReference::test_each_fault_like_reference",
            "tests/test_knots.py::TestRationals::test_booleans_rejected_like_int_fields",
        ),
    ),
    Mutant(
        "plan-in-file-order",
        KNOTS,
        "[p for p in _PARSERS if p[0] in keys]",
        "sorted((p for p in _PARSERS if p[0] in keys), key=lambda p: keys.index(p[0]))",
        ("tests/test_knots.py::TestCodecMatchesReference::test_first_of_two_faults_like_reference",),
    ),
    Mutant(
        "parsed-maps-shared",
        KNOTS,
        "        row[slot] = {}\n",
        "        pass\n",
        ("tests/test_types.py::test_no_default_map_is_shared",),
    ),
    Mutant(
        "thin-eq-lists",
        "src/slicedeg/staircase.py",
        "        if isinstance(other, _ThinVs):\n            return self.tau == other.tau\n",
        "",
        ("tests/test_staircase.py::TestVsThin::test_huge_tau_is_not_listed",),
    ),
    Mutant(
        "stair-walk-parity",
        "src/slicedeg/staircase.py",
        "fall = (st.m - k) % 2",
        "fall = k % 2",
        (
            "tests/test_staircase.py::TestVsLspaceFormula::test_matches_reference_and_torsion_exhaustive",
            "tests/test_acceptance.py::test_c06_vs_triple_agreement",
        ),
    ),
)


def _pytest(cwd: Path, ids: list[str]) -> tuple[int, set[str], str]:
    """Run the ids under ``cwd``: the exit code, the node ids that failed, the output's last lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *ids],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    failed = {line.split(" ")[1] for line in lines if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed, "\n".join(lines[-3:])


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "bench").mkdir()
    for name in ("reference.json", "tracing.py"):
        shutil.copy2(ROOT / "bench" / name, dest / "bench" / name)


def run() -> int:
    failures = []
    for m in MUTANTS:
        for snippet, _ in m.hunks():
            count = (ROOT / m.path).read_text().count(snippet)
            if count != 1:
                failures.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    if failures:
        print("\n".join(failures))
        return 1

    ids = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        code, _, tail = _pytest(base, ids)
        if code != 0:
            print(f"unmutated tree fails its mutants' tests:\n{tail}")
            return 1
        print(f"unmutated: {len(ids)} test ids pass")
        for m in MUTANTS:
            start = time.perf_counter()
            tree = Path(tmp) / m.name
            _copy_tree(tree)
            target = tree / m.path
            text = target.read_text()
            for snippet, replacement in m.hunks():
                text = text.replace(snippet, replacement)
            target.write_text(text)
            _, failed, _ = _pytest(tree, list(m.tests))
            shutil.rmtree(tree)
            survived = [t for t in m.tests
                        if not any(f == t or f.startswith(t + "[") for f in failed)]
            verdict = "SURVIVED" if survived else "killed"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if survived:
                failures.append(f"{m.name}: not failed: {', '.join(survived)}")
    if failures:
        print("\n".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
