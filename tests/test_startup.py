"""What a CLI process loads: each subcommand imports only the modules it runs.

The package imports none of its modules, and the CLI's parser adds a
subcommand's arguments only when that subcommand is parsed. These tests pin
both, and check that the lazy parser reads every command line and prints
every help text as the parser built with all arguments does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from boxrefine.cli import build_parser

from test_golden import RUNS, write_inputs

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

# the subcommands that load each module not every subcommand needs
RUN_BY = {
    "boxrefine.correction": {"correct", "simulate"},
    "boxrefine.evaluation": {"evaluate", "simulate"},
    "boxrefine.simloop": {"simulate"},
}
# subcommands that draw no random numbers: hashlib's OpenSSL and
# numpy.random cost them startup and memory for nothing
NO_RANDOM = {"correct", "evaluate", "render", "--help"}

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
    "--help": ["--help"],
}


def loaded_modules(argv: list[str], cwd) -> set[str]:
    """The modules a fresh ``python -m boxrefine.cli`` process imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "boxrefine.cli", *argv],
        cwd=cwd, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # importtime lines end in "| <indent><module name>"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    write_inputs(tmp_path)
    for name, argv in ARGV.items():  # in order: correct reads inject-noise's output
        loaded = loaded_modules(argv, tmp_path)
        assert "boxrefine.datamodel" in loaded, name
        for module, commands in RUN_BY.items():
            assert (module in loaded) == (name in commands), (name, module)
        assert "numpy.ma" not in loaded, name
        if name in NO_RANDOM:
            assert not loaded & {"_hashlib", "numpy.random"}, name


def help_text(parser, argv: list[str], capsys) -> str:
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["--help"]] + [[name, "--help"] for name in ARGV if name != "--help"]
)
def test_lazy_parser_prints_the_same_help(argv, capsys):
    eager = help_text(build_parser(), argv, capsys)
    assert help_text(build_parser(lazy=True), argv, capsys) == eager
    assert eager.startswith("usage: boxrefine")


def test_lazy_parser_reads_every_golden_argv_alike():
    for argv in RUNS:
        assert build_parser(lazy=True).parse_args(argv) == build_parser().parse_args(argv)


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
