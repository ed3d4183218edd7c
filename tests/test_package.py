"""The package namespace: what it exports and what importing it loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicedeg

# Every name `slicedeg` exported when it imported its submodules eagerly, by
# submodule; the submodules themselves were attributes too.
EXPORTS = {
    "engine": [
        "ALL_OBSTRUCTIONS", "BetaTableRow", "BoundReport", "ClassCertificate",
        "CyclicRelationWarning", "EngineConfig", "LevelCertificate", "LowerBoundSearch",
        "TableRow", "beta_table", "bound_report", "display_interval", "lower_bound",
        "report_table", "report_to_jsonable", "upper_bound",
    ],
    "knots": [
        "DatabaseError", "Diagnostic", "FriendshipRecord", "KnotDatabase", "KnotRecord",
        "UpperWitness", "VsSpec", "bundled_database_path", "load_knot_db", "parse_knot_db",
        "serialize_knot_db", "validate_record",
    ],
    "lattice": ["HomologyClass", "LaurentPoly", "enumerate_classes", "eta", "kappa16"],
    "obstructions": [
        "Verdict", "beta_adjunction", "double_twist_gamma", "friend_rule", "gamma_general",
        "null_class_check", "stau_bound", "vs_obstruction",
    ],
    "staircase": [
        "NotLSpaceForm", "OracleDisagreement", "Staircase", "VsSequence", "VsUnavailable",
        "WindowTooSmall", "staircase_from_alexander", "torsion_sequence", "vs_lspace_formula",
        "vs_of", "vs_staircase_oracle", "vs_thin",
    ],
}
SUBMODULES = list(EXPORTS)
NAMES = [name for names in EXPORTS.values() for name in names]


def fresh(code: str) -> object:
    """Run `code` in a new interpreter that imports this checkout's slicedeg.

    `code` prints one JSON value, which is returned.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(slicedeg.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_name_is_its_modules_object(module, name):
    assert getattr(slicedeg, name) is getattr(importlib.import_module(f"slicedeg.{module}"), name)


def test_dir_lists_every_name():
    assert set(SUBMODULES + NAMES) <= set(dir(slicedeg))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from slicedeg import *", namespace)
    for name in SUBMODULES + NAMES:
        assert namespace[name] is getattr(slicedeg, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        slicedeg.no_such_name


def test_bare_import_resolves_submodules():
    assert fresh(
        "import json, slicedeg\n"
        f"names = [getattr(slicedeg, m).__name__ for m in {SUBMODULES!r}]\n"
        "print(json.dumps([*names, slicedeg.engine.bound_report.__module__]))\n"
    ) == [f"slicedeg.{m}" for m in SUBMODULES] + ["slicedeg.engine"]


def test_loading_databases_leaves_engine_unimported():
    loaded = fresh(
        "import json, sys\n"
        "import slicedeg\n"
        "slicedeg.load_knot_db(slicedeg.bundled_database_path('knots'))\n"
        "slicedeg.load_knot_db(slicedeg.bundled_database_path('families'))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('slicedeg'))))\n"
    )
    assert loaded == ["slicedeg", "slicedeg.knots", "slicedeg.staircase"]


@pytest.mark.parametrize("argv", [["vs", "3_1"], ["classes", "2"]])
def test_cli_without_search_leaves_engine_unimported(argv):
    # `vs` and `classes` load the database but neither search nor certify.
    loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from slicedeg import bundled_database_path\n"
        "from slicedeg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r} + ['--db', str(bundled_database_path())])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('slicedeg'))]))\n"
    )
    assert loaded[0] == 0
    assert not {"slicedeg.engine", "slicedeg.obstructions"} & set(loaded[1])


def test_cli_calls_engine_names_through_its_module(monkeypatch, capsys):
    # A wrapper set on `slicedeg.cli` before a command runs is the one the
    # command calls, as when the engine was imported at the top of cli.py.
    from slicedeg import cli, engine

    assert cli.report_to_jsonable is engine.report_to_jsonable
    calls = []
    monkeypatch.setattr(cli, "bound_report", lambda *a: calls.append(a) or engine.bound_report(*a))
    assert cli.main(["bound", "3_1", "--json", "--db", str(slicedeg.bundled_database_path())]) == 0
    assert len(calls) == 1 and json.loads(capsys.readouterr().out)["name"] == "3_1"
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_processes_import_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: about 10 ms of every process's start-up.
    loaded = fresh(
        "import contextlib, io, json, sys\n"
        "import slicedeg\n"
        "slicedeg.load_knot_db(slicedeg.bundled_database_path('knots'))\n"
        "slicedeg.load_knot_db(slicedeg.bundled_database_path('families'))\n"
        "unwanted = {'dataclasses', 'inspect'}\n"
        "after_load = sorted(unwanted & set(sys.modules))\n"
        "from slicedeg.cli import main\n"
        "db = str(slicedeg.bundled_database_path())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['bound', '3_1', '--json', '--db', db])\n"
        "print(json.dumps([after_load, code, sorted(unwanted & set(sys.modules))]))\n"
    )
    assert loaded == [[], 0, []]
