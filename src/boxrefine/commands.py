"""The command layer of the CLI: each subcommand's options, the resolution
of its configuration and the command itself.

Every subcommand resolves its configuration from four layers, later layers
winning: built-in defaults, a named ``--profile``, a JSON ``--config`` file,
then explicit flags. The fully resolved configuration is written to
``<out>/config.json`` before any processing, and records only what defines
the result (inputs, seed, hyperparameters), never execution details like the
output path, so re-runs compare byte-identical.

The front, :mod:`boxrefine.cli`, loads this module the first time a
subcommand's parser runs, so ``--help`` and a top-level usage error do not
compile it.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import re
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import DEFAULT_SEED

if TYPE_CHECKING:
    from types import ModuleType

    from .correction import CorrectionConfig
    from .datamodel import Annotation, Dataset, ImageRecord
    from .noise import NoiseConfig
    from .simloop import LoopConfig

# The running CLI module: ``boxrefine.cli``, or ``__main__`` under ``python
# -m``. The front sets it when it loads this module. The commands read every
# name the front's ``_WORK`` table lists as ``_cli.<name>``, so a function
# replaced on the front is the one called; importing ``boxrefine.cli`` here
# instead would compile the front a second time under ``python -m``.
_cli: ModuleType


def _fields(cls, *names: str) -> tuple[dict, dict]:
    """The defaults and the type annotations of the dataclass ``cls``'s
    fields: the named ones, or all of them."""
    from dataclasses import fields

    chosen = [f for f in fields(cls) if not names or f.name in names]
    return {f.name: f.default for f in chosen}, {f.name: f.type for f in chosen}


class _Sections(Mapping):
    """A mapping whose every value is read by its reader the first time it
    is needed: the settings tree by section, each section from its module."""

    def __init__(self, **readers: Callable[[], object]) -> None:
        self._readers, self._read = readers, {}

    def __getitem__(self, section: str) -> object:
        if section not in self._read:
            self._read[section] = self._readers[section]()
        return self._read[section]

    def __contains__(self, section: object) -> bool:
        return section in self._readers  # without reading it

    def __iter__(self) -> Iterator[str]:
        return iter(self._readers)

    def __len__(self) -> int:
        return len(self._readers)


def _noise_settings() -> tuple[dict, dict]:
    defaults, types = _fields(_cli.NoiseConfig, "box_noise", "sparsity", "superfluous")
    # noise.superfluous holds SuperfluousConfig's fields or is null
    types["superfluous"] = _fields(_cli.SuperfluousConfig)[1]
    return defaults, types


def _correction_settings() -> tuple[dict, dict]:
    from .correction import CorrectionConfig

    return _fields(CorrectionConfig)


# the loop section's keys for the arguments of ``synthesize_truth``
_TRUTH_ARGS = {"images": "num_images", "boxes_per_image": "boxes_per_image",
               "classes": "num_classes", "image_size": "image_size"}


def _loop_settings() -> tuple[dict, dict]:
    from .simloop import LoopConfig

    defaults, types = _fields(LoopConfig, "iterations", "keep_rate")
    for key, arg in _TRUTH_ARGS.items():
        defaults[key], types[key] = _parameter("synthesize_truth", arg)
    return defaults, types


def _parameter(function: str, name: str) -> tuple[object, object]:
    """The default and the type annotation of the parameter ``name`` of the
    work function ``function``: an option that config files do not set
    takes both from there."""
    import inspect

    param = inspect.signature(getattr(_cli, function)).parameters[name]
    return param.default, param.annotation


# every setting a config file may give, as its built-in default and its type
# annotation: the master seed, and each section's, read in one pass from the
# config dataclasses and synthesize_truth when the section is first needed
_SETTINGS: Mapping[str, tuple] = _Sections(
    seed=lambda: (DEFAULT_SEED, "int"),
    noise=_noise_settings,
    correction=_correction_settings,
    loop=_loop_settings,
)


def _is_number(value: object) -> bool:
    # json.loads also reads NaN and Infinity, which every range check lets through
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _read_size(text: str) -> object:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    return [int(match[1]), int(match[2])] if match else text


def _sparsity_type() -> tuple[str, Callable[[object], bool], Callable[[str], object]]:
    extreme = _cli.SPARSITY_EXTREME
    return (
        f"a finite number or {extreme!r}",
        lambda v: v == extreme or _is_number(v),
        lambda t: extreme if t.lower() in ("extreme", "ex", "ex.") else float(t),
    )


# for a setting of each annotated type: the JSON values it may take, whether
# a value is one (``type() is`` keeps true and false out of the numbers), and
# how a flag's text reads as that value (a ValueError leaves the text as it
# is); the sparsity's entry names noise's word, so each is built when first read
_JSON_TYPES: Mapping[str, tuple[str, Callable[[object], bool], Callable[[str], object]]] = (
    _Sections(**{
        "int": lambda: ("an integer", lambda v: type(v) is int, int),
        "float": lambda: ("a finite number", _is_number, float),
        "float | None": lambda: (
            "a finite number or null ('none' as a flag)",
            lambda v: v is None or _is_number(v),
            lambda t: None if t.lower() in ("none", "off") else float(t),
        ),
        "float | str": _sparsity_type,
        "str": lambda: ("a string", lambda v: type(v) is str, str),
        "tuple[int, int]": lambda: (
            "a list of two integers (WIDTHxHEIGHT as a flag)",
            lambda v: type(v) is list and len(v) == 2 and all(type(x) is int for x in v),
            _read_size,
        ),
    })
)


def _checked(value: object, annotation: str, name: str) -> object:
    """``value`` if it is a JSON value of type ``annotation``; else a CliError naming it."""
    what, accepts, _ = _JSON_TYPES[annotation]
    if not accepts(value):
        raise CliError(f"{name} must be {what}, got {value!r}")
    return value


def _read_flag(text: str, annotation: str, option: str) -> object:
    """A flag's text as the config-file value of type ``annotation``, checked alike."""
    try:
        value = _JSON_TYPES[annotation][2](text)
    except ValueError:
        value = text
    return _checked(value, annotation, option)


def _noise_profile(box_noise: float, sparsity: float | str) -> dict:
    return {"box_noise": box_noise, "sparsity": sparsity}


# Named hyperparameter presets: the assignment radius d and mining threshold
# tau that work best at each noise level, plus the detector-specific variants
# and the fixed-size point-annotation setting.
PROFILES: dict[str, dict] = {
    "nb0-ns0": {
        "noise": _noise_profile(0.0, 0.0),
        "correction": {"distance_limit": 0.1, "mining_threshold": 0.95},
    },
    "nb0-ns50": {
        "noise": _noise_profile(0.0, 0.5),
        "correction": {"distance_limit": None, "mining_threshold": 0.9},
    },
    "nb0-ex": {
        "noise": _noise_profile(0.0, "extreme"),
        "correction": {"distance_limit": None, "mining_threshold": 0.8},
    },
    "nb20-ns0": {
        "noise": _noise_profile(0.2, 0.0),
        "correction": {"distance_limit": 0.35, "mining_threshold": None},
    },
    "nb20-ns50": {
        "noise": _noise_profile(0.2, 0.5),
        "correction": {"distance_limit": 0.35, "mining_threshold": 0.9},
    },
    "nb20-ex": {
        "noise": _noise_profile(0.2, "extreme"),
        "correction": {"distance_limit": 0.35, "mining_threshold": 0.8},
    },
    "nb40-ns0": {
        "noise": _noise_profile(0.4, 0.0),
        "correction": {"distance_limit": 0.6, "mining_threshold": None},
    },
    "nb40-ns50": {
        "noise": _noise_profile(0.4, 0.5),
        "correction": {"distance_limit": 0.6, "mining_threshold": 0.8},
    },
    "nb40-ex": {
        "noise": _noise_profile(0.4, "extreme"),
        "correction": {"distance_limit": 0.6, "mining_threshold": 0.8},
    },
    "retinanet-nb40-ex": {
        "noise": _noise_profile(0.4, "extreme"),
        "correction": {"distance_limit": 0.6, "mining_threshold": 0.4},
    },
    "fcos-nb40-ex": {
        "noise": _noise_profile(0.4, "extreme"),
        "correction": {"distance_limit": 0.6, "mining_threshold": 0.5},
    },
    "edmonton": {
        "correction": {
            "distance": "center-normalized",
            "center_norm": 60.0,
            "distance_limit": 0.5,
            "mining_threshold": 0.8,
            "fixed_size": 60.0,
        },
        "loop": {"keep_rate": 0.95},
    },
}


class CliError(ValueError):
    """User-facing CLI failure; message goes to stderr, exit code 1."""


def _merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if (
            isinstance(value, dict)
            and isinstance(base.get(key), dict)
        ):
            _merge(base[key], value)
        else:
            base[key] = value


class _Option(NamedTuple):
    """An option, ``--<key>`` with ``_`` and ``.`` as ``-``, and where its
    value goes.

    ``kind`` is a section of the settings, whose ``<key>`` it sets (a
    ``superfluous.<field>`` key sets a field of noise.superfluous);
    ``inputs``, for a file recorded under ``inputs`` by its option's name;
    ``top``, for a value recorded at the top level; or ``run``, for one that
    defines no result and is not recorded. A section's option belongs to
    every subcommand with the section, any other to those ``commands``
    names, space-separated (all, if it names none).

    Its text is read and checked as the config-file value of its type
    (:func:`_read_flag`): a setting's, or the annotation of the parameter
    ``key`` of the function ``param`` names; an option of no type keeps its
    text, and a ``switch`` takes none and records true. ``{}`` in ``help``
    becomes the default. ``help`` and ``choices`` may be functions, called
    when the option is added.
    """

    kind: str
    key: str
    help: str | Callable[[], str] | None = None
    commands: str | None = None
    choices: tuple[str, ...] | Callable[[], tuple[str, ...]] | None = None
    required: bool = False
    param: str | None = None
    switch: bool = False

    @property
    def option(self) -> str:
        return "--" + self.key.replace(".", "-").replace("_", "-")

    @property
    def dest(self) -> str:
        return self.option[2:].replace("-", "_")


def _setting(option: _Option) -> tuple[object, object]:
    """The built-in default of ``option``'s value and the type it is read as."""
    if option.param is not None:
        return _parameter(option.param, option.key)
    if option.kind in _SETTINGS:
        defaults, types = _SETTINGS[option.kind]
        head, _, field = option.key.partition(".")
        return defaults.get(option.key), types[head][field] if field else types[head]
    return _SETTINGS[option.key] if option.key in _SETTINGS else (None, None)


# the subcommands that read boxes, which a point CSV may give
_BOX_READERS = "inject-noise correct render"

# every option of every subcommand, declared, added and applied from this one
# table, in the order of the help
_OPTIONS: tuple[_Option, ...] = (
    _Option("run", "out", "output directory", required=True),
    _Option("run", "config", "JSON config file; flags override it"),
    _Option("top", "profile", f"named hyperparameter preset: {', '.join(sorted(PROFILES))}"),
    _Option("top", "seed", "master seed (default {})"),
    _Option("top", "format", "input format", _BOX_READERS, ("coco-json", "point-csv")),
    _Option("top", "point_side", "square side when materialising point annotations "
            "(default {:g})", _BOX_READERS, param="load_annotations"),
    _Option("noise", "box_noise", "displacement fraction N_b"),
    _Option("noise", "sparsity", "removal fraction N_s or 'extreme'"),
    _Option("noise", "superfluous", "inject superfluous boxes (Binomial count, uniform "
            "geometry)", choices=("on", "off")),
    _Option("noise", "superfluous.trials"),
    _Option("noise", "superfluous.success"),
    _Option("noise", "superfluous.min_side"),
    _Option("noise", "superfluous.max_side"),
    _Option("correction", "distance", "assignment distance", choices=lambda: _cli.DISTANCES),
    _Option("correction", "center_norm", "center-distance scale, or 'none'"),
    _Option("correction", "distance_limit", "assignment radius d, or 'none' to disable"),
    _Option("correction", "temperature", "softmax temperature"),
    _Option("correction", "mining_threshold", "mining confidence tau, or 'none' to disable"),
    _Option("correction", "mining_nms_iou"),
    _Option("correction", "dedup_iou"),
    _Option("correction", "max_iterations"),
    _Option("correction", "fixed_size", "square side for the fixed-size variant, or 'none'"),
    _Option("loop", "iterations", "loop iterations (default {})"),
    _Option("loop", "keep_rate", "EMA keep rate"),
    _Option("loop", "images", "synthetic images (default {})"),
    _Option("loop", "boxes_per_image"),
    _Option("loop", "classes", "number of classes (default {})"),
    _Option("loop", "image_size", "WIDTHxHEIGHT"),
    _Option("inputs", "input", "clean annotations file", "inject-noise", required=True),
    _Option("inputs", "targets", "noisy annotations file", "correct", required=True),
    _Option("inputs", "detections", "model detections file", "correct", required=True),
    _Option("inputs", "ground_truth", None, "evaluate", required=True),
    _Option("inputs", "predictions", None, "evaluate", required=True),
    _Option("inputs", "annotations", "annotation set for quality statistics (optional)",
            "evaluate"),
    _Option("top", "score_floor", "confidence floor for the error breakdown (default {})",
            "evaluate", param="error_breakdown"),
    _Option("top", "render", "write per-iteration SVG renders", "simulate", switch=True),
    _Option("inputs", "dataset", "annotations to draw", "render", required=True),
    _Option("inputs", "detections", "detections overlay (optional)", "render"),
    _Option("inputs", "ground_truth", "ground-truth overlay (optional)", "render"),
    _Option("top", "layers", lambda: f"comma-separated subset of: {', '.join(_cli.LAYER_COLORS)}",
            "render"),
)


def _options(command: str) -> Iterator[_Option]:
    """The rows of ``command``'s options, in table order."""
    sections = COMMANDS[command].sections
    for option in _OPTIONS:
        if option.kind in _SETTINGS:
            if option.kind in sections:
                yield option
        elif option.commands is None or command in option.commands.split():
            yield option


class RunConfig:
    """A resolved run: subcommand, output directory, the config tree, and the
    config objects built from its sections."""

    noise: NoiseConfig | None = None
    correction: CorrectionConfig | None = None
    loop: LoopConfig | None = None

    def __init__(self, command: str, out: Path, resolved: dict) -> None:
        self.command, self.out, self.resolved = command, out, resolved

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    def write_config(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        _write_json(self.out / "config.json", self.resolved)


def _write_json(path: Path, payload: object) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _apply(resolved: dict, option: _Option, text: object) -> None:
    """Record the value of ``option``, given on the command line as ``text``."""
    if option.kind == "inputs":
        resolved.setdefault("inputs", {})[option.option[2:]] = text
        return
    head, _, field = option.key.partition(".")
    target = resolved if option.kind == "top" else resolved[option.kind]
    if head == "superfluous":
        if not field and text == "off":
            target[head] = None
            return
        if target[head] is None:
            # a flag that sets a field switches it on with the defaults
            target[head] = _fields(_cli.SuperfluousConfig)[0]
        if not field:
            return
        target, head = target[head], field
    annotation = _setting(option)[1]
    target[head] = text if annotation is None else _read_flag(text, annotation, option.option)


def _check_config(path: Path, cfg: dict, schema: dict, prefix: str = "") -> None:
    """Reject keys of ``cfg`` that ``schema`` lacks, and values of the wrong
    JSON type, at any depth, naming them dotted."""
    unknown = sorted(prefix + key for key in cfg if key not in schema)
    if unknown:
        raise CliError(f"{path}: unknown config keys: {unknown}")
    for key, value in cfg.items():
        name = prefix + key
        expected = schema[key]
        if isinstance(expected, dict):
            if value is None and name == "noise.superfluous":
                continue
            if not isinstance(value, dict):
                raise CliError(f"{path}: {name!r} must be a JSON object")
            _check_config(path, value, expected, name + ".")
            continue
        _checked(value, expected, f"{path}: {name!r}")


def _read_config_file(path: Path, settings: Sequence[str]) -> dict:
    """The config file at ``path``, checked against ``settings``.

    ``command`` and ``profile`` are not settings: the command line names both.
    """
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        file_cfg = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    # an integer of more digits than int() reads, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    _check_config(path, file_cfg, {key: _SETTINGS[key][1] for key in settings})
    return file_cfg


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, profile, config file, and flags into a RunConfig."""
    sections = COMMANDS[args.command].sections
    settings = ("seed", *sections)
    resolved: dict = {"command": args.command}
    for key in settings:
        resolved[key] = copy.deepcopy(_SETTINGS[key][0])

    if args.profile is not None:
        profile = PROFILES.get(args.profile)
        if profile is None:
            raise CliError(
                f"unknown profile {args.profile!r}; "
                f"available: {', '.join(sorted(PROFILES))}"
            )
        _merge(resolved, {k: v for k, v in profile.items() if k in resolved})

    if args.config is not None:
        _merge(resolved, _read_config_file(Path(args.config), settings))

    # every option given is recorded (profile too) but out and config; table
    # order applies --superfluous on/off before the superfluous fields
    for option in _options(args.command):
        text = getattr(args, option.dest)
        if text is not None and option.kind != "run":
            _apply(resolved, option, text)

    # the config objects check their ranges here, before config.json is
    # written, as the values' types were checked above
    run = RunConfig(command=args.command, out=Path(args.out), resolved=resolved)
    if "point_side" in resolved and resolved.get("format") != "point-csv":
        raise CliError("--point-side applies only with --format point-csv")
    if "point_side" in resolved and resolved["point_side"] <= 0:
        raise CliError(f"--point-side must be positive, got {resolved['point_side']}")
    if "noise" in sections:
        noise = resolved["noise"]
        sup = noise["superfluous"]
        run.noise = _cli.NoiseConfig(
            box_noise=noise["box_noise"],
            sparsity=noise["sparsity"],
            superfluous=_cli.SuperfluousConfig(**sup) if sup is not None else None,
            seed=run.seed,
        )
    if "correction" in sections:
        from .correction import CorrectionConfig

        run.correction = CorrectionConfig(**resolved["correction"])
    if "loop" in sections:
        from .simloop import DEFAULT_SCHEDULE, LoopConfig, check_truth_arg

        loop = resolved["loop"]
        for key, arg in _TRUTH_ARGS.items():
            try:
                check_truth_arg(arg, loop[key])
            except ValueError as exc:
                raise CliError(f"--{key.replace('_', '-')}: {exc}") from exc
        for key in ("images", "boxes_per_image"):
            # AP and target quality are undefined without a true box
            if loop[key] == 0:
                raise CliError(f"--{key.replace('_', '-')} must be at least 1 to simulate, got 0")
        run.loop = LoopConfig(
            iterations=loop["iterations"],
            keep_rate=loop["keep_rate"],
            correction=run.correction,
            noise=run.noise,
            schedule=DEFAULT_SCHEDULE,
        )
    return run


def _load_boxes_dataset(run: RunConfig, path: str) -> Dataset:
    """The dataset at ``path``, in the run's ``--format``; the side of a
    point's square is passed only where ``--point-side`` gives it."""
    side = {"point_side": run.resolved["point_side"]} if "point_side" in run.resolved else {}
    return _cli.load_annotations(path, fmt=run.resolved.get("format", "coco-json"), **side)


def cmd_inject_noise(run: RunConfig) -> None:
    dataset = _load_boxes_dataset(run, run.resolved["inputs"]["input"])
    corrupted, summary = _cli.corrupt_dataset(dataset, run.noise)
    _cli.save_annotations(corrupted, run.out / "annotations.json")
    _write_json(
        run.out / "summary.json", {"seed": run.seed, **run.resolved["noise"], **summary}
    )


def cmd_correct(run: RunConfig) -> None:
    inputs = run.resolved["inputs"]
    targets_ds = _load_boxes_dataset(run, inputs["targets"])
    detections_path = Path(inputs["detections"])
    if not detections_path.exists():
        raise CliError(f"detections file not found: {detections_path}")
    detections_ds = _cli.load_annotations(detections_path)
    image_ids, sizes = targets_ds.image_ids(), targets_ds.image_sizes()
    rows = _cli.match_images(image_ids, detections_ds.image_ids(), "detections")
    # each target image's detections, in the targets' image order
    detections = detections_ds.detections.select(rows)
    refined, _, reports = _cli.correct_sets(targets_ds.annotations, detections, run.correction)
    refined = refined.clip(sizes)
    _cli.save_annotations(
        _cli.Dataset.from_columns(list(targets_ds.class_names), image_ids, sizes, refined),
        run.out / "corrected.json",
    )
    corrected = _cli.PROVENANCE_CODES[_cli.PROVENANCE_CORRECTED]
    totals = {
        "images": len(image_ids),
        "corrected": int((refined.provenance == corrected).sum()),
        "mined": sum(report.mined for report in reports),
        "max_iterations": max((r.iterations for r in reports), default=0),
        "all_converged": all(r.converged for r in reports),
    }
    # the bytes of json.dumps(..., sort_keys=True, indent=2), whose indenting
    # encoder is pure Python: each image's entry comes from a template
    entries = [
        f"    {encode_basestring_ascii(image_id)}: {{\n"
        f'      "assignment_sizes": {_json_ints(report.assignment_sizes)},\n'
        f'      "converged": {"true" if report.converged else "false"},\n'
        f'      "iterations": {int.__repr__(report.iterations)},\n'
        f'      "mined": {int.__repr__(report.mined)}\n'
        "    }"
        for image_id, report in sorted(zip(image_ids, reports), key=itemgetter(0))
    ]
    images = "{\n" + ",\n".join(entries) + "\n  }" if entries else "{}"
    totals_text = json.dumps(totals, sort_keys=True, indent=2).replace("\n", "\n  ")
    (run.out / "report.json").write_text(
        f'{{\n  "images": {images},\n  "totals": {totals_text}\n}}\n', encoding="utf-8"
    )


def _json_ints(values: list[int]) -> str:
    """A list of ints as json's ``indent=2`` encoder writes it, six deep."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(int.__repr__, values)) + "\n      ]"


def _scored(run: RunConfig, gt: Dataset, score_floor: float) -> tuple:
    """AP50 and the error breakdown of the predictions file against ``gt``.
    The predictions are dropped on return, before another file is read."""
    preds_ds = _cli.load_annotations(run.resolved["inputs"]["predictions"])
    rows = _cli.match_images(gt.image_ids(), preds_ds.image_ids(), "predictions", every=True,
                             sizes=(gt.image_sizes(), preds_ds.image_sizes()))
    # in the ground truth's image order, which decides ranking ties
    predictions = preds_ds.detections.select(rows)
    del preds_ds
    return (
        _cli.evaluate_ap50(gt.annotations, predictions),
        _cli.error_breakdown(gt.annotations, predictions, score_floor),
    )


def cmd_evaluate(run: RunConfig) -> None:
    from dataclasses import asdict

    inputs = run.resolved["inputs"]
    gt = _cli.load_annotations(inputs["ground-truth"])
    score_floor = run.resolved.get(
        "score_floor", _parameter("error_breakdown", "score_floor")[0]
    )
    result, breakdown = _scored(run, gt, score_floor)
    metrics: dict = {
        "ap50": {
            "map": result.map50,
            "per_class": {str(k): v for k, v in sorted(result.per_class_ap.items())},
        },
        "counts": {
            str(k): asdict(v) for k, v in sorted(result.counts.items())
        },
        "error_breakdown": asdict(breakdown),
        "score_floor": score_floor,
    }
    if "annotations" in inputs:
        ann_ds = _cli.load_annotations(inputs["annotations"])
        metrics["quality"] = asdict(_cli.quality_stats(gt, ann_ds))
    _write_json(run.out / "metrics.json", metrics)
    with (run.out / "per_class_ap.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class_id", "class_name", "ap", "tp", "fp", "fn"])
        for label in sorted(result.counts):
            name = (
                gt.class_names[label - 1]
                if 1 <= label <= len(gt.class_names)
                else str(label)
            )
            ap = result.per_class_ap.get(label)
            counts = result.counts[label]
            writer.writerow(
                [
                    label,
                    name,
                    "" if ap is None else repr(ap),
                    counts.tp,
                    counts.fp,
                    counts.fn,
                ]
            )


def _sanitize(image_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", image_id) or "image"


def _render_records(
    out_dir: Path,
    records: Iterable[ImageRecord],
    layers: Sequence[str],
    truths: Iterable[list[Annotation] | None],
    class_names: Sequence[str],
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for rec, truth in zip(records, truths):
        stem = _sanitize(rec.image_id)
        candidate, k = stem, 1
        while candidate in used:
            candidate = f"{stem}_{k}"
            k += 1
        used.add(candidate)
        svg = _cli.render_svg(
            rec, layers=layers, ground_truth=truth, class_names=class_names
        )
        (out_dir / f"{candidate}.svg").write_text(svg, encoding="utf-8")


def cmd_simulate(run: RunConfig) -> None:
    from dataclasses import asdict

    loop = run.resolved["loop"]
    truth = _cli.synthesize_truth(
        **{arg: loop[key] for key, arg in _TRUTH_ARGS.items()}, seed=run.seed
    )
    scenario = _cli.build_scenario(truth, run.noise)
    _cli.save_annotations(truth, run.out / "truth.json")
    names, image_ids, sizes = list(truth.class_names), truth.image_ids(), truth.image_sizes()
    _cli.save_annotations(
        _cli.Dataset.from_columns(names, image_ids, sizes, scenario.targets),
        run.out / "targets.json",
    )

    def render(iteration, corrected, predictions):
        _render_records(
            run.out / "render" / f"iter_{iteration:03d}",
            _cli.Dataset.from_columns(names, image_ids, sizes, corrected, predictions).images,
            list(_cli.LAYER_COLORS),
            [rec.annotations for rec in truth.images],
            truth.class_names,
        )

    trace, final = _cli.run_loop(
        scenario, run.loop, hook=render if run.resolved.get("render") else None
    )
    with (run.out / "trace.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for record in trace:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
    _cli.save_annotations(
        _cli.Dataset.from_columns(names, image_ids, sizes, final.clip(sizes)),
        run.out / "corrected_final.json",
    )


def cmd_render(run: RunConfig) -> None:
    inputs = run.resolved["inputs"]
    dataset = _load_boxes_dataset(run, inputs["dataset"])
    # records of its own, whose detections the --detections overlay replaces
    records = dataset.images
    truths = [None] * len(records)
    if "detections" in inputs:
        det_ds = _cli.load_annotations(inputs["detections"])
        rows = _cli.match_images(dataset.image_ids(), det_ds.image_ids(), "detections")
        overlay = det_ds.images
        for rec, row in zip(records, rows):
            if row >= 0 and overlay[row].detections:
                rec.detections = overlay[row].detections
    if "ground-truth" in inputs:
        gt_ds = _cli.load_annotations(inputs["ground-truth"])
        rows = _cli.match_images(
            dataset.image_ids(), gt_ds.image_ids(), "ground-truth annotations")
        truth = gt_ds.images
        truths = [truth[row].annotations if row >= 0 else None for row in rows]
    layers_text = run.resolved.get("layers", ",".join(_cli.LAYER_COLORS))
    layers = [part.strip() for part in layers_text.split(",") if part.strip()]
    unknown_layers = [l for l in layers if l not in _cli.LAYER_COLORS]
    if unknown_layers:
        raise CliError(
            f"unknown layers: {unknown_layers}; valid: {sorted(_cli.LAYER_COLORS)}"
        )
    _render_records(run.out, records, layers, truths, dataset.class_names)


class _Command(NamedTuple):
    """A subcommand: the function that runs it, and its sections of settings."""

    run: Callable[[RunConfig], None]
    sections: tuple[str, ...] = ()


COMMANDS = {
    "inject-noise": _Command(cmd_inject_noise, ("noise",)),
    "correct": _Command(cmd_correct, ("correction",)),
    "evaluate": _Command(cmd_evaluate),
    "simulate": _Command(cmd_simulate, ("noise", "correction", "loop")),
    "render": _Command(cmd_render),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    for option in _options(command):
        help_text, choices = option.help, option.choices
        if callable(help_text):
            help_text = help_text()
        elif help_text and "{" in help_text:
            help_text = help_text.format(_setting(option)[0])
        kind = ({"action": "store_const", "const": True} if option.switch
                else {"choices": choices() if callable(choices) else choices})
        parser.add_argument(option.option, required=option.required, help=help_text, **kind)
