"""CLI behaviour tests (run in-process through main())."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import slicedeg
from slicedeg import cli
from slicedeg.cli import main
from slicedeg.engine import ClassBattery, EngineConfig, lower_bound
from slicedeg.knots import bundled_database_path, load_knot_db
from slicedeg.lattice import enumerate_classes

KNOTS = str(bundled_database_path("knots"))
FAMILIES = str(bundled_database_path("families"))
# s_0 = 2 forces lower bound 2, above the stated upper witness 1.
INCONSISTENT = [
    {"name": "bad", "signature": -2, "s_invariants": {"0": 2}, "upper_witnesses": [{"k": 1}]}
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_7_4(self, capsys):
        code, out, _ = run(capsys, "bound", "7_4", "--db", KNOTS, "--quiet")
        assert code == 0
        assert "lower: 5" in out and "upper: 8" in out and "interval: [5,8]" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "bound", "9_10", "--db", KNOTS, "--quiet", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 9 and payload["upper"] == 12
        assert payload["interval"] == "[9,12]"
        levels = {c["level"] for c in payload["certificates"]}
        assert levels == set(range(9))

    def test_unknown_knot_lists_near_matches(self, capsys):
        code, _, err = run(capsys, "bound", "9_420", "--db", KNOTS, "--quiet")
        assert code == 1
        assert "unknown knot" in err and "9_42" in err

    def test_obstruction_subsets_monotone(self, capsys):
        lowers = []
        for subset in ("s", "s,gamma", "s,gamma,vs,friend"):
            code, out, _ = run(
                capsys, "bound", "7_4", "--db", KNOTS, "--quiet",
                "--obstructions", subset, "--json",
            )
            assert code == 0
            lowers.append(json.loads(out)["lower"])
        assert lowers == sorted(lowers)

    def test_bad_obstruction_name(self, capsys):
        code, _, err = run(capsys, "bound", "7_4", "--db", KNOTS, "--quiet", "--obstructions", "zeta")
        assert code == 1 and "unknown obstructions" in err

    def test_bad_obstruction_names_listed_once(self, capsys):
        code, _, err = run(
            capsys, "bound", "7_4", "--db", KNOTS, "--quiet", "--obstructions", "s,zeta,alpha"
        )
        assert (code, err) == (1, "error: unknown obstructions: alpha, zeta\n")

    def test_negative_max_k_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "bound", "7_4", "--db", KNOTS, "--quiet", "--max-k", "-3")
        assert exc.value.code == 2

    def test_max_k_cap(self, capsys):
        code, out, _ = run(capsys, "bound", "3_1", "--db", KNOTS, "--quiet", "--max-k", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 3 and payload["lower_exhausted"] is True

    def test_inconsistent_record_is_data_error(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(INCONSISTENT))
        code, out, err = run(capsys, "bound", "bad", "--db", str(db))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad: certified lower bound 2 exceeds upper bound 1")


class TestVs:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "vs", "7_1", "--db", KNOTS, "--quiet")
        assert code == 0 and "[2, 1, 1]" in out

    def test_all_oracles_agree(self, capsys):
        code, out, _ = run(capsys, "vs", "8_19", "--db", KNOTS, "--quiet", "--oracle", "all")
        assert code == 0
        assert out.count("[1, 1, 1]") == 3 and "agreement: ok" in out

    def test_negative_max_s_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "vs", "3_1", "--db", KNOTS, "--quiet", "--max-s", "-2", "--oracle", "all")
        assert exc.value.code == 2

    def test_max_s(self, capsys):
        code, out, _ = run(capsys, "vs", "9_1", "--db", KNOTS, "--quiet", "--max-s", "5")
        assert code == 0 and "[2, 2, 1, 1, 0, 0]" in out

    def test_max_s_across_chunks(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(
            json.dumps([{"name": "t", "signature": 0, "tau": 9000, "vs_spec": {"type": "thin"}}])
        )
        code, out, _ = run(capsys, "vs", "t", "--db", str(db), "--max-s", "10000")
        values = [max((9001 - s) // 2, 0) for s in range(10001)]
        assert code == 0 and out == "formula: [" + ", ".join(map(str, values)) + "]\n"

    def test_long_sequence_shows_256_values(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps([
            {"name": f"t{tau}", "signature": 0, "tau": tau, "vs_spec": {"type": "thin"}}
            for tau in (256, 257)
        ]))
        _, out, _ = run(capsys, "vs", "t256", "--db", str(db))
        assert out.endswith(", 1, 1] (V_s = 0 for s >= 256)\n") and out.count(",") == 255
        _, out, _ = run(capsys, "vs", "t257", "--db", str(db))
        assert out.endswith(", 2, 1, ...] (V_s = 0 for s >= 257)\n") and out.count(",") == 256

    def test_staircase_needs_alexander(self, capsys):
        code, _, err = run(capsys, "vs", "7_4", "--db", KNOTS, "--quiet", "--oracle", "staircase")
        assert code == 1 and "Alexander" in err

    def test_unknown_vs_spec_is_data_error(self, capsys):
        code, _, err = run(capsys, "vs", "9_49", "--db", KNOTS, "--quiet")
        assert code == 1 and "unknown" in err

    def test_non_lspace_alexander_is_data_error(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps([{"name": "x", "signature": 0, "alexander": [-1, 1, 1, 1, -1]}]))
        for oracle in ("torsion", "staircase"):
            code, out, err = run(capsys, "vs", "x", "--db", str(db), "--oracle", oracle)
            assert (code, out) == (1, "")
            assert err.startswith("error: x: no L-space-form Alexander polynomial")
        code, out, err = run(capsys, "vs", "x", "--db", str(db), "--oracle", "all")
        assert code == 0 and err == ""
        assert out == (
            "formula: unavailable\ntorsion: unavailable\nstaircase: unavailable\n"
            "agreement: n/a\n"
        )


class TestClasses:
    def test_k4(self, capsys):
        code, out, _ = run(capsys, "classes", "4", "--db", KNOTS, "--quiet")
        assert code == 0 and out == "(2)\n(1,1,1,1)\n"

    def test_k0(self, capsys):
        code, out, _ = run(capsys, "classes", "0", "--db", KNOTS, "--quiet")
        assert code == 0 and out == "()\n"

    def test_negative_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classes", "-2", "--db", KNOTS, "--quiet")
        assert exc.value.code == 2


class TestCheckClass:
    def test_gamma_witness_shown(self, capsys):
        code, out, _ = run(capsys, "check-class", "7_4", "2", "--db", KNOTS, "--quiet")
        assert code == 0
        assert "gamma: OBSTRUCTED" in out and "3/5" in out
        assert "overall: OBSTRUCTED" in out

    def test_pass_through_class(self, capsys):
        code, out, _ = run(capsys, "check-class", "7_4", "2,1", "--db", KNOTS, "--quiet")
        assert code == 0 and "overall: pass" in out

    def test_normalization_note(self, capsys):
        code, out, err = run(capsys, "check-class", "7_4", "1,-2,0", "--db", KNOTS, "--quiet")
        assert code == 0
        assert "normalized to (2,1)" in err

    def test_malformed_class_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check-class", "7_4", "2,x", "--db", KNOTS, "--quiet")
        assert exc.value.code == 2

    def test_verdicts_match_engine_battery(self, capsys, monkeypatch):
        """check-class agrees with the engine on every bundled knot and class of norm 1..10."""
        db = load_knot_db(KNOTS)
        monkeypatch.setattr(cli, "load_knot_db", lambda path: db)
        engine_checked = 0
        for record in db:
            battery = ClassBattery(record, EngineConfig())
            search = lower_bound(record, EngineConfig(max_k=10))
            certified = {c.cls: c.rule for level in search.certificates for c in level.classes}
            for k in range(1, 11):
                for cls in enumerate_classes(k):
                    arg = ",".join(str(x) for x in cls.a)
                    code, out, _ = run(capsys, "check-class", record.name, arg, "--db", KNOTS)
                    lines = out.splitlines()
                    where = (record.name, cls)
                    kills = [rv for rv in battery.verdicts(cls) if rv.verdict.obstructed]
                    assert code == 0, where
                    assert lines[-1] == ("overall: OBSTRUCTED" if kills else "overall: pass"), where
                    if cls == search.surviving_class:
                        assert not kills, where
                        engine_checked += 1
                    if kills:
                        first = next(line for line in lines if ": OBSTRUCTED" in line)
                        rule = re.sub(r"=[^\]]*\]", "]", first.partition(":")[0])
                        assert rule == kills[0].rule, where
                        if cls in certified:
                            assert rule == certified[cls], where
                            engine_checked += 1
        # the engine certifies or leaves surviving 509 of the 1870 (knot, class) pairs
        assert engine_checked >= 500


class TestCheckClassErrors:
    def test_class_normalized_to_empty_is_data_error(self, capsys):
        code, out, err = run(capsys, "check-class", "7_4", "0", "--db", KNOTS, "--quiet")
        assert (code, out) == (1, "")
        assert err == ("note: class normalized to ()\nerror: the empty class is decided by the "
                       "level-0 null check, not per-class rules\n")

    def test_bare_parentheses_are_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check-class", "7_4", "()", "--db", KNOTS, "--quiet")
        assert exc.value.code == 2
        assert "error: malformed class '()'; expected a1,a2,..." in capsys.readouterr().err


class TestBetaTable:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "beta-table", "--max", "16", "--db", KNOTS, "--quiet")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta | sd+ >= | class"
        assert len(lines) == 9
        assert lines[1] == "2 | 4 | (2)"
        assert lines[4] == "8 | 13 | (3,2)"

    def test_without_db(self, capsys):
        # The table depends only on --max: the same rows as acceptance c01.
        code, out, err = run(capsys, "beta-table", "--max", "16")
        assert (code, err) == (0, "")
        assert out == run(capsys, "beta-table", "--max", "16", "--db", KNOTS, "--quiet")[1]

    def test_max_below_two_is_data_error(self, capsys):
        assert run(capsys, "beta-table", "--max", "1") == (
            1, "", "error: --max 1 leaves no beta values\n")

    def test_given_db_is_still_validated(self, capsys, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([{"name": "bad", "signature": 1}]))
        code, out, err = run(capsys, "beta-table", "--max", "4", "--db", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid database:")


class TestTable:
    def test_md(self, capsys):
        code, out, _ = run(capsys, "table", "--db", KNOTS, "--quiet")
        assert code == 0
        assert "| 7_4 | [5,8] |" in out
        assert "| 9_42 | 1 |" in out
        assert "| 8_13 | 0 |" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--db", KNOTS, "--quiet", "--format", "json")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)}
        assert rows["9_5"]["display"] == "[6,8]"
        assert rows["9_5"]["lower"] == 6 and rows["9_5"]["upper"] == 8

    def test_json_bytes_of_a_clean_and_an_error_row(self, capsys, tmp_path):
        # only the error row has an "error" key
        db = tmp_path / "db.json"
        clean = {"name": "u", "signature": 0, "upper_witnesses": [{"k": 1}]}
        db.write_text(json.dumps([clean] + INCONSISTENT))
        code, out, _ = run(capsys, "table", "--db", str(db), "--quiet", "--format", "json")
        assert code == 0
        assert out == (
            '[\n  {\n    "name": "u",\n    "lower": 0,\n    "upper": 1,\n    "display": "[0,1]"\n'
            '  },\n  {\n    "name": "bad",\n    "lower": null,\n    "upper": null,\n'
            '    "display": "error",\n    "error": "bad: certified lower bound 2 exceeds upper '
            'bound 1; the record data is inconsistent"\n  }\n]\n'
        )

    def test_families(self, capsys):
        code, out, _ = run(capsys, "table", "--db", FAMILIES, "--quiet")
        assert code == 0
        assert "| K_B(2) | 3 |" in out
        assert "| T(4,5) | 16 |" in out

    def test_error_row_warning_names_the_knot_once(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(INCONSISTENT))
        code, out, err = run(capsys, "table", "--db", str(db))
        assert code == 0
        assert "| bad | error: bad: certified lower bound 2 exceeds upper bound 1;" in out
        assert err.startswith("warning: bad: certified lower bound 2 exceeds upper bound 1;")

    def test_quiet_drops_error_row_warnings(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(INCONSISTENT))
        code, out, err = run(capsys, "table", "--db", str(db), "--quiet")
        assert code == 0
        assert "| bad | error: bad: certified lower bound 2 exceeds upper bound 1;" in out
        assert err == ""
        code, _, err = run(capsys, "table", "--db", str(db))
        assert code == 0 and "warning: bad: certified lower bound 2" in err


class TestCycleWarnings:
    """A reference cycle is one ``warning:`` line on stderr per call, dropped by --quiet."""

    CYCLE = [{"name": "e", "signature": 0, "concordant_to": "e"}]
    MESSAGE = "warning: concordance/connected-sum references cycle: e -> e\n"

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]])
    @pytest.mark.parametrize("command", [["bound", "e"], ["table"]])
    def test_one_line_unless_quiet(self, capsys, tmp_path, command, quiet):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(self.CYCLE))
        code, out, err = run(capsys, *command, "--db", str(db), *quiet)
        assert code == 0 and "[0,?]" in out
        assert err == ("" if quiet else self.MESSAGE)

    def test_printed_before_a_data_error(self, capsys, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps([dict(INCONSISTENT[0], concordant_to="bad")]))
        code, _, err = run(capsys, "bound", "bad", "--db", str(db))
        assert code == 1
        assert err.startswith("warning: concordance/connected-sum references cycle: bad -> bad\n")
        assert "error: bad: certified lower bound 2 exceeds upper bound 1" in err


def _limit_address_space(limit: int = 1 << 30) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestExtremeInput:
    """Huge V_s: a thin record with tau = 10^30 and an explicit record with V_0 = 10^12.

    The search reads only V_j for j <= k/2 and nu+ = tau, and the V_s check
    bounds its tables by the class, not by V_0.  A deep beta table lists
    only the class that answers each beta.
    """

    HUGE_TAU = [
        {"name": "t", "signature": 0, "tau": 10**30, "vs_spec": {"type": "thin"}}
    ]
    HUGE_V0 = [
        {"name": "x", "signature": 0, "vs_spec": {"type": "explicit", "values": [10**12]}}
    ]
    THIN_D = [
        {"name": "d", "signature": -34, "s_invariants": {"0": 34}, "tau": 17,
         "vs_spec": {"type": "thin"}, "slicing_number": 17}
    ]
    STEEP_DROP = "warning: record 'x': warning: field 'vs_spec': V_s drops by more than 1\n"

    @staticmethod
    def slicedeg(*argv, limit=1 << 30, stdout=subprocess.PIPE):
        """The CLI in a fresh interpreter, under 1 GiB of address space and a 20 s timeout."""
        env = dict(os.environ, PYTHONPATH=str(Path(slicedeg.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-c", "import sys; from slicedeg.cli import main; sys.exit(main())",
             *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=20,
            preexec_fn=lambda: _limit_address_space(limit),
        )

    # 2*tau kills every level up to the cap 64.
    @pytest.mark.parametrize(
        "command, line", [(["bound", "t"], "interval: [65,?]"), (["table"], "| t | [65,?] |")]
    )
    def test_finishes(self, tmp_path, command, line):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(self.HUGE_TAU))
        done = self.slicedeg(*command, "--db", str(db))
        assert (done.returncode, done.stderr) == (0, "")
        assert line in done.stdout

    # Each once died with a MemoryError traceback or ran out of time: the V_s
    # tables grew with sqrt(V_0), one table's shifted rows were all held at
    # once (cap about 6.8e6 for the class (50)), the whole class's table was
    # built (cap about 1.35e7 for (50, 50), and 7e9 entries for (10^9)), the
    # class cap (a_1 + 2)^2 * k - n was about 2e7 for (50, 50, 50) (now 67497),
    # and `vs` listed all tau values.
    @pytest.mark.parametrize(
        "records, command, lines",
        [
            (HUGE_V0, ["bound", "x"], ["interval: [4,?]", "surviving class: (2)"]),
            (HUGE_TAU, ["bound", "t", "--obstructions", "vs"], ["interval: [65,?]"]),
            (HUGE_TAU, ["check-class", "t", "1"], ["vs: OBSTRUCTED (lambda = (1), j = 0, "]),
            (HUGE_V0, ["check-class", "x", "50"], ["vs: pass"]),
            (HUGE_V0, ["check-class", "x", "50,50"], ["vs: OBSTRUCTED (lambda = (1,99), j = 0, "]),
            (HUGE_V0, ["check-class", "x", "50,50,50"], ["vs: pass"]),
            (HUGE_V0, ["check-class", "x", "50,50,50,50"],
             ["vs: OBSTRUCTED (lambda = (1,1,1,197), j = 0, 38808 < 8000000000000)"]),
            (THIN_D, ["check-class", "d", "1000000000"], ["vs: pass"]),
            # V_0 .. V_255, then the suffix
            (HUGE_TAU, ["vs", "t"], [f"{(10**30 - 254) // 2}, ...] (V_s = 0 for s >= {10**30})"]),
        ],
        ids=["bound-x", "bound-t-vs", "check-class-t-1", "check-class-x-50",
             "check-class-x-50-50", "check-class-x-50-50-50", "check-class-x-50-50-50-50",
             "check-class-d-1e9", "vs-t"],
    )
    def test_vs_paths_finish(self, tmp_path, records, command, lines):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(records))
        done = self.slicedeg(*command, "--db", str(db))
        assert done.returncode == 0 and "Traceback" not in done.stderr
        assert done.stderr in ("", self.STEEP_DROP)
        for line in lines:
            assert line in done.stdout

    # A thin record with slicing number 20 searches levels 0..80, past the
    # levels kept in memory, and evicts V_s tables throughout.
    def test_deep_thin_search_finishes(self, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps([{"name": "e", "signature": -40, "s_invariants": {"0": 40},
                                   "tau": 20, "vs_spec": {"type": "thin"}, "slicing_number": 20}]))
        done = self.slicedeg("bound", "e", "--db", str(db), "--json")
        assert (done.returncode, done.stderr) == (0, "")
        payload = json.loads(done.stdout)
        assert (payload["interval"], payload["surviving_class"]) == ("80", [8, 4])

    # Listing every class of levels 0..425 once took minutes.
    def test_deep_beta_table_finishes(self, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(self.HUGE_TAU))
        done = self.slicedeg("beta-table", "--max", "400", "--db", str(db))
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert (len(lines), lines[-1]) == (201, "400 | 425 | (20,5)")

    def test_vs_max_s_streams(self, tmp_path):
        # Three million 30-digit values once died as one joined string under 300 MB.
        db = tmp_path / "db.json"
        db.write_text(json.dumps(self.HUGE_TAU))
        done = self.slicedeg(
            "vs", "t", "--max-s", "3000000", "--db", str(db),
            limit=300 * 10**6, stdout=subprocess.DEVNULL,
        )
        assert (done.returncode, done.stderr) == (0, "")


class TestExtremeOneEntryClass:
    """One-entry classes under V_0 = 10^12: the cap is 9a^2 - 1, or 8*V_0 - 1 past it.

    With no suffix to build, the V_s check tries about M = sqrt(cap) values,
    each read against V_j at its own d; nothing in the check grows with
    cap / 8 layers.  Once it listed one target mask per layer and copied the
    masks above each value's layer, so (3000) ran out of time and (10^9)
    asked for a list of 10^12 masks.
    """

    @pytest.mark.parametrize("entry", ["3000", "1000000000"])
    def test_check_class_finishes(self, tmp_path, entry):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(TestExtremeInput.HUGE_V0))
        done = TestExtremeInput.slicedeg("check-class", "x", entry, "--db", str(db))
        assert (done.returncode, done.stderr) == (0, TestExtremeInput.STEEP_DROP)
        assert "vs: pass" in done.stdout


class TestGlobals:
    def test_db_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classes", "4")
        assert exc.value.code == 2

    def test_missing_db_file(self, capsys):
        code, _, err = run(capsys, "table", "--db", "/nonexistent.json", "--quiet")
        assert code == 1 and "cannot read database" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe[]",  # not UTF-8
            b'[{"name": "a", "signature": ' + b"2" * 5000 + b"}]",  # past int's digit limit
            b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        ],
        ids=["non-utf8", "long-integer", "deep-nesting"],
    )
    def test_malformed_file_is_data_error(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "table", "--db", str(path))
        assert code == 1
        assert err.startswith("error: invalid database:") and "Traceback" not in err

    def test_warnings_printed_without_quiet(self, capsys, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([{"name": "a", "signature": 0, "provenance": "x"}]))
        code, _, err = run(capsys, "classes", "0", "--db", str(path))
        assert code == 0 and "ignored unknown field 'provenance'" in err

    def test_quiet_suppresses_warnings(self, capsys):
        code, _, err = run(capsys, "classes", "0", "--db", KNOTS, "--quiet")
        assert code == 0 and err == ""
