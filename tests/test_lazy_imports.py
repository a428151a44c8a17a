"""The package and the CLI load the library's modules only on first use.

``import tchoukaillon`` binds each public name when it is first read,
and each ``tchouk`` command imports only the modules it calls into.  The
CLI's library names stay attributes of ``tchoukaillon.cli``: a tracer
replaces them there, and the commands must call the replacement.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tchoukaillon
from tchoukaillon import cli

SRC = str(Path(tchoukaillon.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
PATH3 = {"vertices": 4, "edges": [[1, 0], [2, 1], [3, 2]], "ruma": [0]}


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60, check=True
    )


@pytest.fixture
def path3(tmp_path):
    path = tmp_path / "path3.json"
    path.write_text(json.dumps(PATH3))
    return str(path)


class TestPackageSurface:
    @pytest.mark.parametrize("name", tchoukaillon.__all__)
    def test_name_is_the_defining_modules_object(self, name):
        module = importlib.import_module(f"tchoukaillon.{tchoukaillon._MODULE_OF[name]}")
        assert getattr(tchoukaillon, name) is getattr(module, name)

    def test_dir_lists_every_public_name(self):
        assert set(tchoukaillon.__all__) <= set(dir(tchoukaillon))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            tchoukaillon.nonesuch  # noqa: B018
        with pytest.raises(ImportError):
            from tchoukaillon import nonesuch  # noqa: F401

    def test_bare_import_loads_no_module(self):
        out = python(
            "-c", "import sys, tchoukaillon; print(sorted(m for m in sys.modules if 'tchoukaillon' in m))"
        ).stdout
        assert out == "['tchoukaillon']\n"

    def test_star_import_in_a_fresh_interpreter(self):
        out = python("-c", "from tchoukaillon import *; print(board_from_stones(15).bins, make_star(2, 1))").stdout
        assert out.startswith("(1, 2, 0, 2, 4, 6) SowingGraph(")

    def test_submodule_after_bare_import(self):
        out = python("-c", "import tchoukaillon; print(tchoukaillon.crt.__name__, tchoukaillon.graph.__name__)").stdout
        assert out == "tchoukaillon.crt tchoukaillon.graph\n"


LOADED = {
    ("board", "1000"): {"checked", "core"},
    ("board", "4", "--moves", "--format", "json"): {"checked", "core"},
    ("table", "17", "--format", "csv"): {"checked", "core"},
    ("enumerate", "6"): {"checked", "core", "length"},
    ("nf", "10"): {"checked", "core", "length"},
    ("nf", "--sequence", "10"): {"checked", "core", "length"},
    ("sieve", "3", "9"): {"checked", "core", "sieve"},
    ("reconstruct", "m3=1", "m7=2", "--minimal"): {"checked", "core", "crt"},
    ("reconstruct", "m5=1", "m6=2"): {"checked", "core", "crt"},
    ("graph", "PATH3", "enumerate"): {"checked", "graph"},
}


# `python -m tchoukaillon.cli`, listing at exit the package modules it loaded.
CHILD = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.split(".")[0] == "tchoukaillon"), file=sys.stderr))
runpy.run_module("tchoukaillon.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", LOADED, ids=" ".join)
def test_command_loads_only_its_modules(argv, path3):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *[path3 if arg == "PATH3" else arg for arg in argv]],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    loaded = proc.stderr.splitlines()[-1].split()
    assert loaded == sorted({"tchoukaillon"} | {f"tchoukaillon.{module}" for module in LOADED[argv]})


# Standard modules no command needs: `dataclasses` and what it pulls in
# cost a `tchouk` child more start-up time than any library module.
UNLOADED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def bare_child(modules: set[str]) -> str:
    """`python -m tchoukaillon.cli`, listing at exit which of *modules* it loaded."""
    return f"""
import atexit, runpy, sys
atexit.register(lambda: print(*sorted({sorted(modules)!r} & sys.modules.keys()), file=sys.stderr))
runpy.run_module("tchoukaillon.cli", run_name="__main__", alter_sys=True)
"""


def loaded_of(modules: set[str], argv, path3: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", bare_child(modules), *[path3 if arg == "PATH3" else arg for arg in argv]],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stderr.splitlines()[-1].split()


# One child per command: its first argv in LOADED.
FIRST_ARGV = {argv[0]: argv for argv in reversed(LOADED)}


@pytest.mark.parametrize("command", sorted(FIRST_ARGV))
def test_command_loads_no_introspection_modules(command, path3):
    assert loaded_of(UNLOADED, FIRST_ARGV[command], path3) == []


# Commands printing a table, which read and write no JSON.
TABLE_FORMAT = [
    ("board", "1000"),
    ("table", "17"),
    ("enumerate", "6"),
    ("nf", "10"),
    ("nf", "--sequence", "10"),
    ("sieve", "3", "9"),
    ("reconstruct", "m5=1", "m6=2"),
]


@pytest.mark.parametrize("argv", TABLE_FORMAT, ids=" ".join)
def test_table_format_loads_no_json(argv, path3):
    assert loaded_of({"json"}, argv, path3) == []


# `array` is loaded by the calls that sieve stage 6 (play_sequence,
# min_stones_sequence, sieve_stage past stage 6), not by the commands that
# print one answer or a stage tiled straight from its period.
@pytest.mark.parametrize(
    "argv", [("nf", "6"), ("nf", "6", "--bounds"), ("board", "15"), ("sieve", "3", "9")], ids=" ".join
)
def test_single_answer_commands_load_no_array(argv, path3):
    assert loaded_of({"array"}, argv, path3) == []


def test_sequence_command_loads_array(path3):
    # The check above would pass vacuously if the child never reported it.
    assert loaded_of({"array"}, ("nf", "--sequence", "10"), path3) == ["array"]


def test_sieve_past_stage_six_loads_array(path3):
    assert loaded_of({"array"}, ("sieve", "9", "3"), path3) == ["array"]


# The names a tracer wraps on the cli module, each with a command that calls it.
TRACED = {
    "board_from_stones": ["board", "15"],
    "play_sequence": ["board", "4", "--moves"],
    "min_stones": ["nf", "6"],
    "min_stones_sequence": ["nf", "--sequence", "5"],
    "check_bounds": ["nf", "6", "--bounds"],
    "sieve_stage": ["sieve", "3", "9"],
    "reconstruct": ["reconstruct", "m3=1", "m7=2"],
    "reconstruct_minimal": ["reconstruct", "m3=1", "m7=2", "--minimal"],
    "enumerate_winning_boards": ["graph", "PATH3", "enumerate"],
    "has_finite_game_graph": ["graph", "PATH3", "check-finite"],
    "game_graph_to_json": ["graph", "PATH3", "enumerate", "--format", "json"],
    "game_graph_to_dot": ["graph", "PATH3", "dot"],
}


@pytest.mark.parametrize("name", TRACED)
def test_main_calls_a_replaced_name(name, path3, monkeypatch, capsys):
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    assert cli.main([path3 if arg == "PATH3" else arg for arg in TRACED[name]]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_cli_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        cli.nonesuch  # noqa: B018
