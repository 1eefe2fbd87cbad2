"""What a CLI process loads: each subcommand imports only the modules it runs.

The package imports none of its modules, the CLI's front imports none at
module level, and the front's parser adds a subcommand's arguments, and
loads the command layer, only when that subcommand is parsed. These tests
pin all three, and check the help texts and usage errors against the ones
recorded in ``help_texts.json`` (with Python 3.11: argparse lays out help
differently in other versions). When a change alters them on purpose,
re-record them with ``PYTHONPATH=src python tests/test_startup.py`` and say
why in CHANGES.md.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxrefine
from boxrefine.cli import build_parser

from test_golden import write_inputs

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

# the subcommands that load each module not every subcommand needs
RUN_BY = {
    "boxrefine.correction": {"correct", "simulate"},
    "boxrefine.evaluation": {"evaluate", "simulate"},
    "boxrefine.noise": {"inject-noise", "simulate"},
    "boxrefine.simloop": {"simulate"},
    "boxrefine.streams": {"inject-noise", "simulate"},
}
# no subcommand loads numpy.random, whose streams may change between numpy
# releases, nor OpenSSL (through hashlib, or secrets, which numpy.random
# loads): noise is drawn from the package's own streams
NO_RANDOM = {"_hashlib", "numpy.random", "secrets"}

ARGV = {
    "inject-noise": ["inject-noise", "--input", "clean.json", "--box-noise", "0.2",
                     "--out", "noisy"],
    "correct": ["correct", "--targets", "noisy/annotations.json",
                "--detections", "dets.json", "--distance-limit", "0.6",
                "--mining-threshold", "0.5", "--out", "corrected"],
    "evaluate": ["evaluate", "--ground-truth", "clean.json", "--predictions", "dets.json",
                 "--annotations", "corrected/corrected.json", "--out", "metrics"],
    "render": ["render", "--dataset", "clean.json", "--detections", "dets.json",
               "--out", "svg"],
    "simulate": ["simulate", "--images", "2", "--iterations", "1", "--out", "sim"],
}

# runs boxrefine.cli as ``python -m`` does, and when it ends the process
# with ``os._exit`` (which runs no ``atexit`` hook) first writes the names of
# the loaded modules to the file named by its first argument; ``-X importtime``
# would miss a module loaded by ``importlib.import_module``
PROBE = """
import os, pathlib, runpy, sys
path = pathlib.Path(sys.argv.pop(1))
real_exit = os._exit
def probe_exit(code):
    path.write_text("\\n".join(sys.modules))
    real_exit(code)
os._exit = probe_exit
runpy.run_module("boxrefine.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(argv: list[str], cwd, code: int = 0) -> set[str]:
    """The modules loaded at exit by a fresh ``python -m boxrefine.cli``
    process, which exits with ``code``."""
    path = cwd / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(path), *argv],
        cwd=cwd, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    loaded = set(path.read_text().split("\n"))
    # the front runs as __main__ and is not compiled a second time
    assert "boxrefine.cli" not in loaded
    return loaded


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    write_inputs(tmp_path)
    for name, argv in ARGV.items():  # in order: correct reads inject-noise's output
        loaded = loaded_modules(argv, tmp_path)
        assert {"boxrefine.commands", "boxrefine.datamodel"} <= loaded, name
        for module, commands in RUN_BY.items():
            assert (module in loaded) == (name in commands), (name, module)
        assert "numpy.ma" not in loaded, name
        assert not loaded & NO_RANDOM, name


@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), ([], 2), (["bogus"], 2)], ids=["help", "none", "bogus"]
)
def test_no_subcommand_loads_no_work_module(tmp_path, argv, code):
    # the front alone: no command layer, no work module, no numpy, and none
    # of the standard modules that only the command layer uses
    loaded = loaded_modules(argv, tmp_path, code)
    assert not {m for m in loaded if m.partition(".")[0] == "numpy"}
    assert {m for m in loaded if m.partition(".")[0] == "boxrefine"} == {"boxrefine"}
    assert not loaded & {"_hashlib", "json", "csv", "copy"}


def test_command_layer_reaches_the_package_through_the_front():
    """commands.py imports a package module only for type checking. It
    reads every other package name as ``_cli.<name>``, through the front's
    table, except the constants that the package root itself assigns."""
    package = Path(boxrefine.__file__).parent
    root = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    constants = {t.id for node in root.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()}
    tree = ast.parse((package / "commands.py").read_text(encoding="utf-8"))
    typing_only = {id(node) for guard in ast.walk(tree)
                   if isinstance(guard, ast.If) and ast.unparse(guard.test) == "TYPE_CHECKING"
                   for node in ast.walk(guard)}
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            assert all(a.name.partition(".")[0] != "boxrefine" for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "boxrefine"):
            assert (node.level, node.module) == (1, None), ast.unparse(node)
            assert {a.name for a in node.names} <= constants, ast.unparse(node)


HELP_TEXTS = Path(__file__).with_name("help_texts.json")
# every top-level and subcommand help text, and the usage error of each
# subcommand and of a missing or unknown one
RECORDED_ARGV = ([["--help"]] + [[name, "--help"] for name in ARGV] + [[], ["bogus"]]
                 + [[name] for name in ARGV])


def cli_process(argv: list[str]) -> dict:
    """A fresh ``python -m boxrefine.cli`` process's exit code and output,
    formatted for an 80-column terminal."""
    proc = subprocess.run(
        [sys.executable, "-m", "boxrefine.cli", *argv],
        env=dict(ENV, COLUMNS="80"), capture_output=True, text=True,
    )
    return {"argv": argv, "code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


@pytest.mark.parametrize(
    "argv", [["--help"]] + [[name, "--help"] for name in ARGV]
)
def test_lazy_parser_prints_the_same_help(argv, capsys, monkeypatch):
    """The parser prints each help text as recorded, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    recorded = json.loads(HELP_TEXTS.read_text(encoding="utf-8"))
    (recorded,) = [r for r in recorded if r["argv"] == argv]
    assert capsys.readouterr().out == recorded["stdout"]


def test_processes_print_the_recorded_help_and_usage_errors():
    recorded = json.loads(HELP_TEXTS.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == RECORDED_ARGV
    for row in recorded:
        assert cli_process(row["argv"]) == row


def test_package_import_loads_no_module():
    code = """
import json, sys
import boxrefine
fresh = sorted(m for m in sys.modules if m.startswith("boxrefine."))
star = {}
exec("from boxrefine import *", star)
names = {}
for name in boxrefine.__all__:
    obj = getattr(boxrefine, name)
    home = getattr(obj, "__module__", None)
    defined = home is not None and getattr(sys.modules[home], name) is obj
    names[name] = [home, defined, star[name] is obj]
modules = [boxrefine.geometry is sys.modules["boxrefine.geometry"]]
print(json.dumps({"fresh": fresh, "names": names, "modules": modules}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout)
    assert got["fresh"] == [] and got["modules"] == [True]
    assert got["names"].pop("__version__")[2]
    for name, (home, defined, star) in got["names"].items():
        assert home.startswith("boxrefine.") and defined and star, name


if __name__ == "__main__":
    rows = [cli_process(argv) for argv in RECORDED_ARGV]
    HELP_TEXTS.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
