"""Command-line entry point binding the toolkit into reproducible runs.

Every subcommand resolves its configuration from four layers, later layers
winning: built-in defaults, a named ``--profile``, a JSON ``--config`` file,
then explicit flags. The fully resolved configuration is written to
``<out>/config.json`` before any processing, and records only what defines
the result (inputs, seed, hyperparameters), never execution details like the
output path or worker count, so re-runs compare byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

# ``correct_targets`` is not called here; it stays bound because
# bench/spans.py traces calls through each module's own names
from .correction import (  # noqa: F401
    ConfigError,
    CorrectionConfig,
    correct_images,
    correct_targets,
)
from .datamodel import (
    Annotation,
    Dataset,
    DatasetFormatError,
    ImageRecord,
    LAYER_COLORS,
    load_annotations,
    materialize_points,
    render_svg,
    save_annotations,
)
from .evaluation import error_breakdown, evaluate_ap50, quality_stats
from .noise import NoiseConfig, SuperfluousConfig, corrupt_dataset
from .simloop import (
    DEFAULT_SCHEDULE,
    LoopConfig,
    build_scenario,
    run_loop,
    synthesize_truth,
)

__all__ = ["RunConfig", "PROFILES", "main", "console_main"]


_SUPERFLUOUS_DEFAULTS = {
    "trials": 10,
    "success": 0.5,
    "min_side": 16.0,
    "max_side": 196.0,
}

DEFAULTS: dict = {
    "seed": 0,
    "noise": {"box_noise": 0.0, "sparsity": 0.0, "superfluous": None},
    "correction": {
        "distance": "iou",
        "center_norm": None,
        "distance_limit": None,
        "temperature": 0.2,
        "mining_threshold": None,
        "mining_nms_iou": 0.5,
        "dedup_iou": 0.5,
        "max_iterations": 50,
        "convergence_eps": 1e-6,
        "fixed_size": None,
    },
    "loop": {
        "iterations": 15,
        "keep_rate": 0.95,
        "images": 8,
        "boxes_per_image": 6,
        "classes": 3,
        "image_size": [512, 512],
    },
}


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


def _parse_optional_float(text: str, flag: str) -> float | None:
    if text.lower() in ("none", "off"):
        return None
    try:
        return float(text)
    except ValueError:
        raise CliError(f"{flag} expects a number or 'none', got {text!r}") from None


def _parse_sparsity(text: str) -> float | str:
    if text.lower() in ("extreme", "ex", "ex."):
        return "extreme"
    try:
        return float(text)
    except ValueError:
        raise CliError(
            f"--sparsity expects a fraction or 'extreme', got {text!r}"
        ) from None


def _parse_image_size(text: str) -> list[int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match:
        raise CliError(f"--image-size expects WIDTHxHEIGHT, got {text!r}")
    return [int(match.group(1)), int(match.group(2))]


@dataclass
class RunConfig:
    """A resolved run: subcommand, output directory, and the config tree."""

    command: str
    out: Path
    workers: int
    resolved: dict

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    def noise_config(self) -> NoiseConfig:
        section = self.resolved["noise"]
        sup = section.get("superfluous")
        return NoiseConfig(
            box_noise=section["box_noise"],
            sparsity=section["sparsity"],
            superfluous=SuperfluousConfig(**sup) if sup is not None else None,
            seed=self.seed,
        )

    def correction_config(self) -> CorrectionConfig:
        cfg = CorrectionConfig(**self.resolved["correction"])
        cfg.validate()
        return cfg

    def write_config(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        _write_json(self.out / "config.json", self.resolved)


def _write_json(path: Path, payload: object) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _apply_flag_overrides(resolved: dict, args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is not None:
        resolved["seed"] = args.seed

    noise = resolved.get("noise")
    if noise is not None:
        if getattr(args, "box_noise", None) is not None:
            noise["box_noise"] = args.box_noise
        if getattr(args, "sparsity", None) is not None:
            noise["sparsity"] = _parse_sparsity(args.sparsity)
        if getattr(args, "superfluous", None) is not None:
            if args.superfluous == "off":
                noise["superfluous"] = None
            elif noise.get("superfluous") is None:
                noise["superfluous"] = dict(_SUPERFLUOUS_DEFAULTS)
        for flag, key in (
            ("superfluous_trials", "trials"),
            ("superfluous_success", "success"),
            ("superfluous_min_side", "min_side"),
            ("superfluous_max_side", "max_side"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                if noise.get("superfluous") is None:
                    noise["superfluous"] = dict(_SUPERFLUOUS_DEFAULTS)
                noise["superfluous"][key] = value

    corr = resolved.get("correction")
    if corr is not None:
        if getattr(args, "distance", None) is not None:
            corr["distance"] = args.distance
        for flag, key in (
            ("center_norm", "center_norm"),
            ("distance_limit", "distance_limit"),
            ("mining_threshold", "mining_threshold"),
            ("fixed_size", "fixed_size"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                corr[key] = _parse_optional_float(value, "--" + flag.replace("_", "-"))
        for flag in ("temperature", "mining_nms_iou", "dedup_iou", "max_iterations"):
            value = getattr(args, flag, None)
            if value is not None:
                corr[flag] = value

    loop = resolved.get("loop")
    if loop is not None:
        for flag in ("iterations", "keep_rate", "images", "boxes_per_image", "classes"):
            value = getattr(args, flag, None)
            if value is not None:
                loop[flag] = value
        if getattr(args, "image_size", None) is not None:
            loop["image_size"] = _parse_image_size(args.image_size)


_SECTIONS = {
    "inject-noise": ("noise",),
    "correct": ("correction",),
    "evaluate": (),
    "simulate": ("noise", "correction", "loop"),
    "render": (),
}


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
        path = Path(config_path)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON: {exc.msg}") from exc
        if not isinstance(file_cfg, dict):
            raise CliError(f"{path}: config must be a JSON object")
        unknown = set(file_cfg) - set(resolved) - {"seed"}
        if unknown:
            raise CliError(f"{path}: unknown config keys: {sorted(unknown)}")
        _merge(resolved, file_cfg)

    _apply_flag_overrides(resolved, args)

    inputs = {}
    for name in ("input", "targets", "detections", "ground_truth", "predictions",
                 "annotations", "dataset"):
        value = getattr(args, name, None)
        if value is not None:
            inputs[name.replace("_", "-")] = str(value)
    if inputs:
        resolved["inputs"] = inputs
    for name in ("format", "point_side", "score_floor", "layers", "render"):
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value

    return RunConfig(
        command=args.command,
        out=Path(args.out),
        workers=getattr(args, "workers", 1) or 1,
        resolved=resolved,
    )


def _load_boxes_dataset(run: RunConfig, path: str) -> Dataset:
    fmt = run.resolved.get("format", "coco-json")
    size = run.resolved.get("loop", {}).get("image_size", [512, 512])
    dataset = load_annotations(path, fmt=fmt, image_size=(size[0], size[1]))
    if fmt == "point-csv":
        dataset = materialize_points(dataset, run.resolved.get("point_side", 60.0))
    return dataset


def cmd_inject_noise(run: RunConfig) -> None:
    dataset = _load_boxes_dataset(run, run.resolved["inputs"]["input"])
    corrupted, summary = corrupt_dataset(dataset, run.noise_config())
    save_annotations(corrupted, run.out / "annotations.json")
    noise = run.resolved["noise"]
    _write_json(
        run.out / "summary.json",
        {
            "seed": run.seed,
            "box_noise": noise["box_noise"],
            "sparsity": noise["sparsity"],
            "superfluous": noise["superfluous"],
            **summary,
        },
    )


def cmd_correct(run: RunConfig) -> None:
    inputs = run.resolved["inputs"]
    targets_ds = _load_boxes_dataset(run, inputs["targets"])
    detections_path = Path(inputs["detections"])
    if not detections_path.exists():
        raise CliError(f"detections file not found: {detections_path}")
    detections_ds = load_annotations(detections_path)
    known = set(targets_ds.image_ids())
    unknown = sorted(set(detections_ds.image_ids()) - known)
    if unknown:
        raise CliError(f"detections reference unknown image ids: {unknown}")
    dets_by_id = {
        rec.image_id: rec.detections or [] for rec in detections_ds.images
    }
    results = correct_images(
        [(rec.annotations, dets_by_id.get(rec.image_id, [])) for rec in targets_ds.images],
        run.correction_config(),
    )

    images = []
    reports = {}
    corrected_count = 0
    mined_count = 0
    for rec, (corrected, report) in zip(targets_ds.images, results):
        anns = [
            a
            if a.box == a.box.clip(rec.width, rec.height)
            else Annotation(
                box=a.box.clip(rec.width, rec.height),
                label=a.label,
                provenance=a.provenance,
            )
            for a in corrected
        ]
        images.append(
            ImageRecord(
                image_id=rec.image_id,
                width=rec.width,
                height=rec.height,
                annotations=anns,
            )
        )
        corrected_count += sum(1 for a in anns if a.provenance == "corrected")
        mined_count += report.mined
        reports[rec.image_id] = {
            "iterations": report.iterations,
            "converged": report.converged,
            "assignment_sizes": report.assignment_sizes,
            "mined": report.mined,
        }
    out_ds = Dataset(class_names=list(targets_ds.class_names), images=images)
    save_annotations(out_ds, run.out / "corrected.json")
    _write_json(
        run.out / "report.json",
        {
            "images": reports,
            "totals": {
                "images": len(images),
                "corrected": corrected_count,
                "mined": mined_count,
                "max_iterations": max(
                    (r["iterations"] for r in reports.values()), default=0
                ),
                "all_converged": all(r["converged"] for r in reports.values()),
            },
        },
    )


def cmd_evaluate(run: RunConfig) -> None:
    inputs = run.resolved["inputs"]
    gt = load_annotations(inputs["ground-truth"])
    preds_ds = load_annotations(inputs["predictions"])
    gt_ids = set(gt.image_ids())
    pred_ids = set(preds_ds.image_ids())
    if gt_ids != pred_ids:
        missing = sorted(gt_ids - pred_ids)
        extra = sorted(pred_ids - gt_ids)
        raise CliError(
            f"image id mismatch: missing from predictions {missing}, "
            f"unknown to ground truth {extra}"
        )
    predictions = {rec.image_id: rec.detections or [] for rec in preds_ds.images}
    score_floor = run.resolved.get("score_floor", 0.5)
    result = evaluate_ap50(gt, predictions)
    breakdown = error_breakdown(gt, predictions, score_floor)
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
        ann_ds = load_annotations(inputs["annotations"])
        metrics["quality"] = asdict(quality_stats(gt, ann_ds))
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
        svg = render_svg(
            rec, layers=layers, ground_truth=truth, class_names=class_names
        )
        (out_dir / f"{candidate}.svg").write_text(svg, encoding="utf-8")


def cmd_simulate(run: RunConfig) -> None:
    loop = run.resolved["loop"]
    truth = synthesize_truth(
        num_images=loop["images"],
        boxes_per_image=loop["boxes_per_image"],
        num_classes=loop["classes"],
        image_size=(loop["image_size"][0], loop["image_size"][1]),
        seed=run.seed,
    )
    noise_cfg = run.noise_config()
    scenario = build_scenario(truth, noise_cfg)
    cfg = LoopConfig(
        iterations=loop["iterations"],
        keep_rate=loop["keep_rate"],
        correction=run.correction_config(),
        noise=noise_cfg,
        schedule=DEFAULT_SCHEDULE,
    )
    save_annotations(truth, run.out / "truth.json")
    targets_ds = Dataset(
        class_names=list(truth.class_names),
        images=[
            ImageRecord(
                image_id=rec.image_id,
                width=rec.width,
                height=rec.height,
                annotations=scenario.targets[rec.image_id],
            )
            for rec in truth.images
        ],
    )
    save_annotations(targets_ds, run.out / "targets.json")

    truth_by_id = {rec.image_id: rec.annotations for rec in truth.images}
    dims = {rec.image_id: (rec.width, rec.height) for rec in truth.images}
    render = bool(run.resolved.get("render"))
    final: dict[str, list[Annotation]] = {}

    def hook(iteration, corrected, predictions):
        final.clear()
        final.update(corrected)
        if not render:
            return
        records = [
            ImageRecord(
                image_id=image_id,
                width=dims[image_id][0],
                height=dims[image_id][1],
                annotations=list(anns),
                detections=list(predictions[image_id]),
            )
            for image_id, anns in corrected.items()
        ]
        _render_records(
            run.out / "render" / f"iter_{iteration:03d}",
            records,
            list(LAYER_COLORS),
            truth_by_id,
            truth.class_names,
        )

    trace = run_loop(scenario, cfg, workers=run.workers, hook=hook)
    with (run.out / "trace.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for record in trace:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
    final_ds = Dataset(
        class_names=list(truth.class_names),
        images=[
            ImageRecord(
                image_id=rec.image_id,
                width=rec.width,
                height=rec.height,
                annotations=[
                    a
                    if a.box == a.box.clip(rec.width, rec.height)
                    else Annotation(
                        box=a.box.clip(rec.width, rec.height),
                        label=a.label,
                        provenance=a.provenance,
                    )
                    for a in final.get(rec.image_id, [])
                ],
            )
            for rec in truth.images
        ],
    )
    save_annotations(final_ds, run.out / "corrected_final.json")


def cmd_render(run: RunConfig) -> None:
    inputs = run.resolved["inputs"]
    dataset = _load_boxes_dataset(run, inputs["dataset"])
    by_id = dataset.by_id()
    if "detections" in inputs:
        det_ds = load_annotations(inputs["detections"])
        unknown = sorted(set(det_ds.image_ids()) - set(by_id))
        if unknown:
            raise CliError(f"detections reference unknown image ids: {unknown}")
        for rec in det_ds.images:
            if rec.detections:
                by_id[rec.image_id].detections = list(rec.detections)
    truth_by_id = None
    if "ground-truth" in inputs:
        gt_ds = load_annotations(inputs["ground-truth"])
        truth_by_id = {rec.image_id: rec.annotations for rec in gt_ds.images}
    layers_text = run.resolved.get("layers", ",".join(LAYER_COLORS))
    layers = [part.strip() for part in layers_text.split(",") if part.strip()]
    unknown_layers = [l for l in layers if l not in LAYER_COLORS]
    if unknown_layers:
        raise CliError(
            f"unknown layers: {unknown_layers}; valid: {sorted(LAYER_COLORS)}"
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
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: every subcommand runs serially",
    )


def _add_noise_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--box-noise", type=float, help="displacement fraction N_b")
    parser.add_argument("--sparsity", help="removal fraction N_s or 'extreme'")
    parser.add_argument(
        "--superfluous",
        choices=("on", "off"),
        help="inject superfluous boxes (Binomial count, uniform geometry)",
    )
    parser.add_argument("--superfluous-trials", type=int)
    parser.add_argument("--superfluous-success", type=float)
    parser.add_argument("--superfluous-min-side", type=float)
    parser.add_argument("--superfluous-max-side", type=float)


def _add_correction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--distance", choices=("iou", "giou", "center-normalized"),
        help="assignment distance",
    )
    parser.add_argument("--center-norm", help="center-distance scale, or 'none'")
    parser.add_argument(
        "--distance-limit", help="assignment radius d, or 'none' to disable"
    )
    parser.add_argument("--temperature", type=float, help="softmax temperature")
    parser.add_argument(
        "--mining-threshold", help="mining confidence tau, or 'none' to disable"
    )
    parser.add_argument("--mining-nms-iou", type=float)
    parser.add_argument("--dedup-iou", type=float)
    parser.add_argument("--max-iterations", type=int)
    parser.add_argument(
        "--fixed-size", help="square side for the fixed-size variant, or 'none'"
    )


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("coco-json", "point-csv"), help="input format"
    )
    parser.add_argument(
        "--point-side",
        type=float,
        help="square side when materialising point annotations (default 60)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxrefine",
        description="Refine noisy and incomplete bounding-box annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject-noise", help="corrupt a clean dataset")
    _add_common(p)
    _add_format_flags(p)
    _add_noise_flags(p)
    p.add_argument("--input", required=True, help="clean annotations file")

    p = sub.add_parser("correct", help="refine targets against detections")
    _add_common(p)
    _add_format_flags(p)
    _add_correction_flags(p)
    p.add_argument("--targets", required=True, help="noisy annotations file")
    p.add_argument("--detections", required=True, help="model detections file")

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    _add_common(p)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument(
        "--annotations", help="annotation set for quality statistics (optional)"
    )
    p.add_argument(
        "--score-floor", type=float, dest="score_floor",
        help="confidence floor for the error breakdown (default 0.5)",
    )

    p = sub.add_parser("simulate", help="run the teacher-student surrogate loop")
    _add_common(p)
    _add_noise_flags(p)
    _add_correction_flags(p)
    p.add_argument("--iterations", type=int, help="loop iterations (default 15)")
    p.add_argument("--keep-rate", type=float, dest="keep_rate", help="EMA keep rate")
    p.add_argument("--images", type=int, help="synthetic images (default 8)")
    p.add_argument("--boxes-per-image", type=int, dest="boxes_per_image")
    p.add_argument("--classes", type=int, help="number of classes (default 3)")
    p.add_argument("--image-size", dest="image_size", help="WIDTHxHEIGHT")
    p.add_argument(
        "--render", action="store_const", const=True,
        help="write per-iteration SVG renders",
    )

    p = sub.add_parser("render", help="render dataset boxes as SVG")
    _add_common(p)
    _add_format_flags(p)
    p.add_argument("--dataset", required=True, help="annotations to draw")
    p.add_argument("--detections", help="detections overlay (optional)")
    p.add_argument("--ground-truth", help="ground-truth overlay (optional)")
    p.add_argument(
        "--layers",
        help=f"comma-separated subset of: {', '.join(LAYER_COLORS)}",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = resolve_config(args)
        run.write_config()
        COMMANDS[run.command](run)
    except (CliError, ConfigError, DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
