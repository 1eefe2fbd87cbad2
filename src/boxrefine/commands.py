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
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

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


def _fields(cls, attr: str, *names: str) -> dict:
    """``attr`` (``default`` or ``type``) of the dataclass ``cls``'s fields:
    the named ones, or all of them."""
    from dataclasses import fields

    return {f.name: getattr(f, attr) for f in fields(cls) if not names or f.name in names}


class _Sections(Mapping):
    """A mapping whose every value is read by its reader the first time it
    is needed: the settings tree by section, each section from its module."""

    def __init__(self, **readers: Callable[[], object]) -> None:
        self._readers, self._read = readers, {}

    def __getitem__(self, section: str) -> object:
        if section not in self._read:
            self._read[section] = self._readers[section]()
        return self._read[section]

    def __iter__(self) -> Iterator[str]:
        return iter(self._readers)

    def __len__(self) -> int:
        return len(self._readers)


def _correction_fields(attr: str) -> dict:
    from .correction import CorrectionConfig

    return _fields(CorrectionConfig, attr)


# the loop section's keys for the arguments of ``synthesize_truth``
_TRUTH_ARGS = {"images": "num_images", "boxes_per_image": "boxes_per_image",
               "classes": "num_classes", "image_size": "image_size"}


def _loop_fields(attr: str) -> dict:
    import inspect

    from .simloop import LoopConfig, synthesize_truth

    params = inspect.signature(synthesize_truth).parameters
    param_attr = "annotation" if attr == "type" else attr
    return {
        **_fields(LoopConfig, attr, "iterations", "keep_rate"),
        **{key: getattr(params[arg], param_attr) for key, arg in _TRUTH_ARGS.items()},
    }


def _score_floor() -> float:
    """The evaluate option's default, which config files do not set."""
    import inspect

    from .evaluation import error_breakdown

    return inspect.signature(error_breakdown).parameters["score_floor"].default


# the default of the point-input option, which config files do not set
_POINT_SIDE = 60.0

# every built-in default comes from the config dataclasses and synthesize_truth
DEFAULTS: Mapping = _Sections(
    seed=lambda: _cli.NoiseConfig.seed,
    noise=lambda: _fields(_cli.NoiseConfig, "default", "box_noise", "sparsity", "superfluous"),
    correction=lambda: _correction_fields("default"),
    loop=lambda: _loop_fields("default"),
)

# the type annotation of every setting a config file may give, from the same
# sources; noise.superfluous holds SuperfluousConfig's fields or is null
_TYPES: Mapping = _Sections(
    seed=lambda: _fields(_cli.NoiseConfig, "type", "seed")["seed"],
    noise=lambda: {
        **_fields(_cli.NoiseConfig, "type", "box_noise", "sparsity"),
        "superfluous": _fields(_cli.SuperfluousConfig, "type"),
    },
    correction=lambda: _correction_fields("type"),
    loop=lambda: _loop_fields("type"),
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


class _Flag(NamedTuple):
    """A hyperparameter flag: ``--<key>`` sets ``<section>.<key>``.

    Its text is read and checked as the config-file value of the setting's
    type (:func:`_read_flag`). ``{}`` in ``help`` becomes the default.
    ``choices`` may be a function, called when the flag is added.
    """

    section: str
    key: str
    help: str | None = None
    choices: tuple[str, ...] | Callable[[], tuple[str, ...]] | None = None

    @property
    def option(self) -> str:
        return "--" + self.key.replace(".", "-").replace("_", "-")

    @property
    def dest(self) -> str:
        return self.key.replace(".", "_")


def _distances() -> tuple[str, ...]:
    from .correction import DISTANCE_CENTER, DISTANCE_GIOU, DISTANCE_IOU

    return (DISTANCE_IOU, DISTANCE_GIOU, DISTANCE_CENTER)


# every hyperparameter flag, declared and applied from this one table; a
# ``superfluous.<field>`` key sets a field of noise.superfluous
_FLAGS: tuple[_Flag, ...] = (
    _Flag("noise", "box_noise", "displacement fraction N_b"),
    _Flag("noise", "sparsity", "removal fraction N_s or 'extreme'"),
    _Flag("noise", "superfluous",
          "inject superfluous boxes (Binomial count, uniform geometry)", ("on", "off")),
    _Flag("noise", "superfluous.trials"),
    _Flag("noise", "superfluous.success"),
    _Flag("noise", "superfluous.min_side"),
    _Flag("noise", "superfluous.max_side"),
    _Flag("correction", "distance", "assignment distance", _distances),
    _Flag("correction", "center_norm", "center-distance scale, or 'none'"),
    _Flag("correction", "distance_limit", "assignment radius d, or 'none' to disable"),
    _Flag("correction", "temperature", "softmax temperature"),
    _Flag("correction", "mining_threshold", "mining confidence tau, or 'none' to disable"),
    _Flag("correction", "mining_nms_iou"),
    _Flag("correction", "dedup_iou"),
    _Flag("correction", "max_iterations"),
    _Flag("correction", "fixed_size", "square side for the fixed-size variant, or 'none'"),
    _Flag("loop", "iterations", "loop iterations (default {})"),
    _Flag("loop", "keep_rate", "EMA keep rate"),
    _Flag("loop", "images", "synthetic images (default {})"),
    _Flag("loop", "boxes_per_image"),
    _Flag("loop", "classes", "number of classes (default {})"),
    _Flag("loop", "image_size", "WIDTHxHEIGHT"),
)


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


def _apply_flag_overrides(resolved: dict, args: argparse.Namespace) -> None:
    for name, annotation in (("seed", _TYPES["seed"]), ("point_side", "float"),
                             ("score_floor", "float")):
        text = getattr(args, name, None)
        if text is not None:
            resolved[name] = _read_flag(text, annotation, "--" + name.replace("_", "-"))
    # table order applies --superfluous on/off before the superfluous fields
    for flag in _FLAGS:
        text = getattr(args, flag.dest, None)
        if text is None:
            continue
        section, types = resolved[flag.section], _TYPES[flag.section]
        head, _, field = flag.key.partition(".")
        if head != "superfluous":
            section[head] = _read_flag(text, types[head], flag.option)
        elif text == "off":
            section["superfluous"] = None
        else:
            if section["superfluous"] is None:
                # a flag that sets a field switches it on with the defaults
                section["superfluous"] = _fields(_cli.SuperfluousConfig, "default")
            if field:
                section["superfluous"][field] = _read_flag(
                    text, types[head][field], flag.option
                )


_SECTIONS = {
    "inject-noise": ("noise",),
    "correct": ("correction",),
    "evaluate": (),
    "simulate": ("noise", "correction", "loop"),
    "render": (),
}


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


def _read_config_file(path: Path, sections: Sequence[str]) -> dict:
    """The config file at ``path``, checked against the settings of ``sections``.

    ``command`` and ``profile`` are not settings: the command line names both.
    """
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        file_cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(file_cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    schema = {"seed": _TYPES["seed"], **{section: _TYPES[section] for section in sections}}
    _check_config(path, file_cfg, schema)
    return file_cfg


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, profile, config file, and flags into a RunConfig."""
    sections = _SECTIONS[args.command]
    resolved: dict = {"command": args.command, "seed": DEFAULTS["seed"]}
    for section in sections:
        resolved[section] = copy.deepcopy(DEFAULTS[section])

    profile_name = getattr(args, "profile", None)
    if profile_name is not None:
        profile = PROFILES.get(profile_name)
        if profile is None:
            raise CliError(
                f"unknown profile {profile_name!r}; "
                f"available: {', '.join(sorted(PROFILES))}"
            )
        resolved["profile"] = profile_name
        _merge(resolved, {k: v for k, v in profile.items() if k in resolved})

    config_path = getattr(args, "config", None)
    if config_path is not None:
        _merge(resolved, _read_config_file(Path(config_path), sections))

    _apply_flag_overrides(resolved, args)

    inputs = {}
    for name in ("input", "targets", "detections", "ground_truth", "predictions",
                 "annotations", "dataset"):
        value = getattr(args, name, None)
        if value is not None:
            inputs[name.replace("_", "-")] = str(value)
    if inputs:
        resolved["inputs"] = inputs
    for name in ("format", "layers", "render"):
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value

    # the config objects check their ranges here, before config.json is
    # written, as the values' types were checked above
    run = RunConfig(command=args.command, out=Path(args.out), resolved=resolved)
    if "point_side" in resolved and resolved.get("format") != "point-csv":
        raise CliError("--point-side applies only with --format point-csv")
    if resolved.get("point_side", _POINT_SIDE) <= 0:
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
    fmt = run.resolved.get("format", "coco-json")
    dataset = _cli.load_annotations(path, fmt=fmt)
    if fmt == "point-csv":
        dataset = _cli.materialize_points(dataset, run.resolved.get("point_side", _POINT_SIDE))
    return dataset


def cmd_inject_noise(run: RunConfig) -> None:
    dataset = _load_boxes_dataset(run, run.resolved["inputs"]["input"])
    corrupted, summary = _cli.corrupt_dataset(dataset, run.noise)
    _cli.save_annotations(corrupted, run.out / "annotations.json")
    _write_json(
        run.out / "summary.json", {"seed": run.seed, **run.resolved["noise"], **summary}
    )


def _positions(dataset: Dataset) -> dict[str, int]:
    return {image_id: g for g, image_id in enumerate(dataset.image_ids())}


def cmd_correct(run: RunConfig) -> None:
    inputs = run.resolved["inputs"]
    targets_ds = _load_boxes_dataset(run, inputs["targets"])
    detections_path = Path(inputs["detections"])
    if not detections_path.exists():
        raise CliError(f"detections file not found: {detections_path}")
    detections_ds = _cli.load_annotations(detections_path)
    image_ids, sizes = targets_ds.image_ids(), targets_ds.image_sizes()
    position = _positions(detections_ds)
    unknown = sorted(set(position) - set(image_ids))
    if unknown:
        raise CliError(f"detections reference unknown image ids: {unknown}")
    # each target image's detections, in the targets' image order
    detections = detections_ds.detections.select([position.get(i, -1) for i in image_ids])
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


def cmd_evaluate(run: RunConfig) -> None:
    from dataclasses import asdict

    inputs = run.resolved["inputs"]
    gt = _cli.load_annotations(inputs["ground-truth"])
    preds_ds = _cli.load_annotations(inputs["predictions"])
    gt_ids = gt.image_ids()
    position = _positions(preds_ds)
    if set(gt_ids) != set(position):
        missing = sorted(set(gt_ids) - set(position))
        extra = sorted(set(position) - set(gt_ids))
        raise CliError(
            f"image id mismatch: missing from predictions {missing}, "
            f"unknown to ground truth {extra}"
        )
    # in the ground truth's image order, which decides ranking ties
    predictions = preds_ds.detections.select([position[i] for i in gt_ids])
    score_floor = run.resolved.get("score_floor", _score_floor())
    result = _cli.evaluate_ap50(gt.annotations, predictions)
    breakdown = _cli.error_breakdown(gt.annotations, predictions, score_floor)
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
    records: Sequence[ImageRecord],
    layers: Sequence[str],
    truth_by_id: dict[str, list[Annotation]] | None,
    class_names: Sequence[str],
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for rec in records:
        stem = _sanitize(rec.image_id)
        candidate, k = stem, 1
        while candidate in used:
            candidate = f"{stem}_{k}"
            k += 1
        used.add(candidate)
        truth = truth_by_id.get(rec.image_id) if truth_by_id else None
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
        truth_by_id = {rec.image_id: rec.annotations for rec in truth.images}
        _render_records(
            run.out / "render" / f"iter_{iteration:03d}",
            _cli.Dataset.from_columns(names, image_ids, sizes, corrected, predictions).images,
            list(_cli.LAYER_COLORS),
            truth_by_id,
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
    by_id = dataset.by_id()
    if "detections" in inputs:
        det_ds = _cli.load_annotations(inputs["detections"])
        unknown = sorted(set(det_ds.image_ids()) - set(by_id))
        if unknown:
            raise CliError(f"detections reference unknown image ids: {unknown}")
        for rec in det_ds.images:
            if rec.detections:
                by_id[rec.image_id].detections = list(rec.detections)
    truth_by_id = None
    if "ground-truth" in inputs:
        gt_ds = _cli.load_annotations(inputs["ground-truth"])
        truth_by_id = {rec.image_id: rec.annotations for rec in gt_ds.images}
    layers_text = run.resolved.get("layers", ",".join(_cli.LAYER_COLORS))
    layers = [part.strip() for part in layers_text.split(",") if part.strip()]
    unknown_layers = [l for l in layers if l not in _cli.LAYER_COLORS]
    if unknown_layers:
        raise CliError(
            f"unknown layers: {unknown_layers}; valid: {sorted(_cli.LAYER_COLORS)}"
        )
    _render_records(run.out, dataset.images, layers, truth_by_id, dataset.class_names)


COMMANDS = {
    "inject-noise": cmd_inject_noise,
    "correct": cmd_correct,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "render": cmd_render,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument(
        "--profile",
        help=f"named hyperparameter preset: {', '.join(sorted(PROFILES))}",
    )
    parser.add_argument("--seed", help=f"master seed (default {DEFAULTS['seed']})")


def _add_hyperparameter_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for flag in _FLAGS:
        if flag.section in _SECTIONS[command]:
            default = DEFAULTS[flag.section].get(flag.key)
            parser.add_argument(
                flag.option,
                choices=flag.choices() if callable(flag.choices) else flag.choices,
                help=flag.help and flag.help.format(default),
            )


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("coco-json", "point-csv"), help="input format"
    )
    parser.add_argument(
        "--point-side",
        help=f"square side when materialising point annotations (default {_POINT_SIDE:g})",
    )



def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    _add_common(p)
    if command in ("inject-noise", "correct", "render"):
        _add_format_flags(p)
    _add_hyperparameter_flags(p, command)
    if command == "inject-noise":
        p.add_argument("--input", required=True, help="clean annotations file")
    elif command == "correct":
        p.add_argument("--targets", required=True, help="noisy annotations file")
        p.add_argument("--detections", required=True, help="model detections file")
    elif command == "evaluate":
        p.add_argument("--ground-truth", required=True)
        p.add_argument("--predictions", required=True)
        p.add_argument(
            "--annotations", help="annotation set for quality statistics (optional)"
        )
        p.add_argument(
            "--score-floor", dest="score_floor",
            help=f"confidence floor for the error breakdown (default {_score_floor()})",
        )
    elif command == "simulate":
        p.add_argument(
            "--render", action="store_const", const=True,
            help="write per-iteration SVG renders",
        )
    else:  # render
        p.add_argument("--dataset", required=True, help="annotations to draw")
        p.add_argument("--detections", help="detections overlay (optional)")
        p.add_argument("--ground-truth", help="ground-truth overlay (optional)")
        p.add_argument(
            "--layers",
            help=f"comma-separated subset of: {', '.join(_cli.LAYER_COLORS)}",
        )

