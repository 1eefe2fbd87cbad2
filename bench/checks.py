"""Output checks for each CLI stage.

Every check returns a list of failure messages; an empty list means the
stage's output is correct. The checks restate invariants that hold for any
correct run, computed from the stage's own files and the benchmark's inputs,
so they never depend on a recorded golden value.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path


def digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every file under ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _missing(out_dir: Path, names: tuple[str, ...]) -> list[str]:
    return [f"{out_dir.name}: missing {n}" for n in names if not (out_dir / n).is_file()]


def _provenance(dataset: dict) -> Counter:
    return Counter(a.get("provenance", "original") for a in dataset["annotations"])


def check_inject_noise(out_dir: Path, clean: dict) -> list[str]:
    """``summary.json`` agrees with ``annotations.json`` and the clean input."""
    missing = _missing(out_dir, ("config.json", "annotations.json", "summary.json"))
    if missing:
        return missing
    noisy = _load(out_dir / "annotations.json")
    summary = _load(out_dir / "summary.json")
    fails = []
    if summary["images"] != len(noisy["images"]) or summary["images"] != len(clean["images"]):
        fails.append("inject-noise: image count differs between summary and files")
    if summary["annotations_before"] != len(clean["annotations"]):
        fails.append("inject-noise: annotations_before is not the clean count")
    if summary["annotations_after"] != len(noisy["annotations"]):
        fails.append("inject-noise: annotations_after is not the written count")
    if (
        summary["annotations_before"] - summary["removed_by_sparsity"] + summary["injected"]
        != summary["annotations_after"]
    ):
        fails.append("inject-noise: before - removed + injected != after")
    return fails


def check_correct(out_dir: Path, targets_path: Path) -> list[str]:
    """``report.json`` totals match the provenance counts in ``corrected.json``."""
    missing = _missing(out_dir, ("config.json", "corrected.json", "report.json"))
    if missing:
        return missing
    corrected = _load(out_dir / "corrected.json")
    report = _load(out_dir / "report.json")
    totals, per_image = report["totals"], report["images"]
    prov = _provenance(corrected)
    fails = []
    if totals["images"] != len(corrected["images"]) or totals["images"] != len(per_image):
        fails.append("correct: image count differs between report and corrected.json")
    if totals["corrected"] != prov["corrected"]:
        fails.append("correct: totals.corrected != corrected provenance count")
    if totals["mined"] != prov["mined"] or totals["mined"] != sum(
        r["mined"] for r in per_image.values()
    ):
        fails.append("correct: totals.mined != mined provenance count")
    targets = len(_load(targets_path)["annotations"])
    if prov["original"] + prov["corrected"] != targets:
        fails.append("correct: targets were dropped or added outside mining")
    return fails


def check_evaluate(out_dir: Path, clean: dict, dets: dict) -> list[str]:
    """Per-class counts, the error breakdown and mAP are mutually consistent."""
    missing = _missing(out_dir, ("config.json", "metrics.json", "per_class_ap.csv"))
    if missing:
        return missing
    metrics = _load(out_dir / "metrics.json")
    gt_per_class = Counter(str(a["category_id"]) for a in clean["annotations"])
    pred_per_class = Counter(str(a["category_id"]) for a in dets["annotations"])
    fails = []
    counts = metrics["counts"]
    if set(counts) != set(gt_per_class) | set(pred_per_class):
        fails.append("evaluate: counts do not cover every class")
    for label, c in counts.items():
        if c["tp"] + c["fn"] != gt_per_class[label]:
            fails.append(f"evaluate: class {label}: tp + fn != ground-truth count")
        if c["tp"] + c["fp"] != pred_per_class[label]:
            fails.append(f"evaluate: class {label}: tp + fp != prediction count")
    bd = metrics["error_breakdown"]
    floor = metrics["score_floor"]
    confident = sum(1 for a in dets["annotations"] if float(a["score"]) >= floor)
    buckets = ("true_positives", "localization", "duplicate", "background", "classification")
    if sum(bd[k] for k in buckets) != confident:
        fails.append("evaluate: breakdown buckets do not add up to predictions >= floor")
    if bd["missed"] != len(clean["annotations"]) - bd["true_positives"]:
        fails.append("evaluate: missed != ground truth - true positives")
    ap = metrics["ap50"]
    if not 0.0 <= ap["map"] <= 1.0 or not all(
        0.0 <= v <= 1.0 for v in ap["per_class"].values()
    ):
        fails.append("evaluate: AP outside [0, 1]")
    quality = metrics.get("quality")
    if quality is None or not all(
        0.0 <= quality[k] <= 1.0 for k in ("gt_to_annotations", "annotations_to_gt")
    ):
        fails.append("evaluate: quality statistics missing or outside [0, 1]")
    with (out_dir / "per_class_ap.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(r["class_id"] for r in rows) != sorted(counts):
        fails.append("evaluate: per_class_ap.csv rows do not match counts")
    return fails


def check_simulate(out_dir: Path, images: int, iterations: int) -> list[str]:
    """``trace.jsonl`` holds one in-range record per iteration, in order."""
    names = ("config.json", "truth.json", "targets.json", "corrected_final.json", "trace.jsonl")
    missing = _missing(out_dir, names)
    if missing:
        return missing
    lines = (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    fails = []
    if len(lines) != iterations:
        fails.append(f"simulate: trace has {len(lines)} lines, expected {iterations}")
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if (
            rec["iteration"] != i
            or not 0.0 <= rec["target_quality"] <= 1.0
            or not 0.0 <= rec["ap50"] <= 1.0
            or not (isinstance(rec["mined"], int) and rec["mined"] >= 0)
        ):
            fails.append(f"simulate: trace line {i} out of range: {line}")
    for name in ("truth.json", "corrected_final.json"):
        if len(_load(out_dir / name)["images"]) != images:
            fails.append(f"simulate: {name} does not hold {images} images")
    return fails


def summarize(stage: str, out_dir: Path) -> dict:
    """Reported, ungated facts about a stage's output."""
    if stage == "correct":
        return dict(_load(out_dir / "report.json")["totals"])
    if stage == "evaluate":
        metrics = _load(out_dir / "metrics.json")
        return {"map50": metrics["ap50"]["map"], "quality": metrics.get("quality")}
    if stage == "simulate":
        last = (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()[-1]
        prov = _provenance(_load(out_dir / "corrected_final.json"))
        rec = json.loads(last)
        return {
            "target_quality": rec["target_quality"],
            "ap50": rec["ap50"],
            "corrected": prov["corrected"],
            "mined": prov["mined"],
        }
    return dict(_load(out_dir / "summary.json"))
