"""Command-line entry point binding the toolkit into reproducible runs.

This module is the front: the top-level parser and the process's entry
point. Everything a subcommand runs (its options, the resolution of its
configuration, the command itself) is in :mod:`boxrefine.commands`, loaded
the first time a subcommand's parser runs, so ``--help`` and a top-level
usage error compile only this module.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

__all__ = ["RunConfig", "PROFILES", "main", "console_main"]

# Every name this module takes from the package, by defining module. Each is
# imported the first time it is read from this module (``__getattr__``), so a
# process loads only the modules its subcommand runs, and one that runs none
# (``--help``, a usage error) loads none; a new name goes here, not into a
# top-level import. The command layer reads these as ``_cli.<name>``, so a
# function replaced on this module is the one called: bench/spans.py traces
# each work function that way (``correct_targets`` too, which no subcommand
# calls).
_WORK = {
    "Dataset": "datamodel",
    "LAYER_COLORS": "datamodel",
    "PROVENANCE_CODES": "datamodel",
    "PROVENANCE_CORRECTED": "datamodel",
    "load_annotations": "datamodel",
    "match_images": "datamodel",
    "parse_json": "datamodel",
    "read_text": "datamodel",
    "render_svg": "datamodel",
    "save_annotations": "datamodel",
    "NoiseConfig": "noise",
    "SuperfluousConfig": "noise",
    "corrupt_dataset": "noise",
    "CorrectionConfig": "correction",
    "DISTANCES": "correction",
    "correct_sets": "correction",
    "correct_targets": "correction",
    "evaluate_ap50": "evaluation",
    "error_breakdown": "evaluation",
    "quality_stats": "evaluation",
    "LoopConfig": "simloop",
    "check_truth_arg": "simloop",
    "synthesize_truth": "simloop",
    "build_scenario": "simloop",
    "run_loop": "simloop",
}

# the names of the command layer that this module exports too
_COMMAND_NAMES = ("RunConfig", "PROFILES")


def __getattr__(name: str) -> object:
    if name in _COMMAND_NAMES:
        return getattr(_commands(), name)
    if name not in _WORK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # every subcommand reads datasets. Without a bytecode cache, compiling
    # datamodel inside the import of a module that needs it (noise, whose
    # settings inject-noise reads first) costs each stage process about 0.6 MB more
    # peak RSS than compiling it first
    import_module(".datamodel", __package__)
    value = getattr(import_module(f".{_WORK[name]}", __package__), name)
    globals()[name] = value
    return value


# this module, through which the command layer calls the work above
_cli = sys.modules[__name__]


def _commands():
    """The command layer, loaded on first use and pointed at this module."""
    commands = import_module(".commands", __package__)
    commands._cli = _cli
    return commands


# each subcommand's line in the top-level help
_HELP = {
    "inject-noise": "corrupt a clean dataset",
    "correct": "refine targets against detections",
    "evaluate": "score predictions against ground truth",
    "simulate": "run the teacher-student surrogate loop",
    "render": "render dataset boxes as SVG",
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. With ``pending`` set to its subcommand, it adds
    that subcommand's arguments the first time it parses, so only the
    subcommand named on the command line loads the command layer and what
    its options need."""

    pending: str | None = None

    def parse_known_args(self, args=None, namespace=None):
        if self.pending is not None:
            command, self.pending = self.pending, None
            _commands()._add_arguments(self, command)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, without any subcommand's arguments: each
    subcommand's parser adds its own when it first parses."""
    parser = argparse.ArgumentParser(
        prog="boxrefine",
        description="Refine noisy and incomplete bounding-box annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, help_text in _HELP.items():
        sub.add_parser(command, help=help_text).pending = command
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = _commands()
    try:
        run = commands.resolve_config(args)
        run.write_config()
        commands.COMMANDS[run.command].run(run)
    # CliError, ConfigError and DatasetFormatError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    """Run ``main`` and end the process with its code (0 or 1), or with
    argparse's (0 after ``--help``, 2 for a usage error), skipping the
    interpreter's teardown, which costs each process tens of milliseconds.
    Every file a subcommand writes is closed before ``main`` returns, and
    both standard streams are flushed here; if a flush fails, or ``main``
    raises anything else, the process ends through the interpreter."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
