"""Detection metrics: AP at IoU 0.5, annotation-quality statistics, error breakdown.

AP follows the all-point interpolation convention: predictions are ranked by
score, greedily matched to ground truth at IoU >= 0.5, and the area under the
precision envelope over recall is reported. Only the ranking of scores
matters, never their values.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .datamodel import Annotation, Dataset, Detection
# ``iou`` is not called here; it stays bound because bench/spans.py counts
# scalar IoU calls through each module's own name
from .geometry import Box, grouped_iou, iou  # noqa: F401

__all__ = [
    "TP_IOU",
    "BACKGROUND_IOU",
    "ClassCounts",
    "EvalResult",
    "QualityStats",
    "ErrorBreakdown",
    "evaluate_ap50",
    "mean_best_iou",
    "quality_stats",
    "error_breakdown",
]

# operating point for a true positive
TP_IOU = 0.5
# at or below this overlap a prediction is considered to have hit nothing
BACKGROUND_IOU = 0.1


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class EvalResult:
    """Per-class average precision plus their mean and TP/FP/FN tallies.

    Classes with no ground-truth instances are excluded from ``per_class_ap``
    and the mean; their predictions still show up as false positives in
    ``counts``.
    """

    per_class_ap: dict[int, float]
    map50: float
    counts: dict[int, ClassCounts] = field(default_factory=dict)


@dataclass
class QualityStats:
    """Bidirectional mean best-match IoU between truth and an annotation set.

    ``gt_to_annotations`` averages, over ground-truth boxes, each box's best
    IoU against the annotations of its image; ``annotations_to_gt`` is the
    reverse direction. An empty side contributes a mean of 0.0 and sets the
    corresponding flag.
    """

    gt_to_annotations: float
    annotations_to_gt: float
    gt_empty: bool = False
    annotations_empty: bool = False


@dataclass
class ErrorBreakdown:
    """Prediction-level error sources at the TP_IOU operating point.

    Each scored prediction lands in exactly one bucket: true positive,
    localization (right class, overlap in (BACKGROUND_IOU, TP_IOU]),
    duplicate (its ground truth was already claimed), background (no overlap
    above BACKGROUND_IOU with any ground truth), or classification (well
    localized, wrong class). ``missed`` counts ground-truth boxes never
    claimed by a true positive.

    With ``score_floor=0`` the true positives equal the ``tp`` counts of
    :func:`evaluate_ap50` summed over classes, except where an IoU is exactly
    TP_IOU: AP matches at IoU >= TP_IOU, the breakdown requires IoU >
    TP_IOU. The difference is deliberate and kept.
    """

    true_positives: int = 0
    localization: int = 0
    duplicate: int = 0
    background: int = 0
    classification: int = 0
    missed: int = 0


def _check_image_ids(
    ground_truth: Dataset, predictions: Mapping[str, Sequence[Detection]]
) -> None:
    known = set(ground_truth.image_ids())
    unknown = sorted(set(predictions) - known)
    if unknown:
        raise ValueError(f"predictions reference unknown image ids: {unknown}")


def _average_precision(tp_flags: Sequence[bool], n_gt: int) -> float:
    """Area under the interpolated precision-recall curve."""
    if n_gt == 0 or not tp_flags:
        return 0.0
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for rank, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        precisions.append(tp / rank)
        recalls.append(tp / n_gt)
    # precision envelope: best precision at this recall or beyond
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for recall, precision in zip(recalls, precisions):
        if recall > prev_recall:
            ap += (recall - prev_recall) * precision
            prev_recall = recall
    return ap


def _same_class_hits(
    dets: Sequence[Detection],
    gts: Sequence[Annotation],
    pairs: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]],
    above: Callable[[np.ndarray, float], np.ndarray],
    best: np.ndarray | None = None,
) -> list[list[tuple[int, float]]]:
    """Per detection, the ``(ground truth, IoU)`` pairs of its class passing ``above(IoU, TP_IOU)``.

    ``dets`` and ``gts`` are the concatenations that ``pairs`` indexes; hits
    come in ground-truth order. When ``best`` is given, ``best[k]`` is raised
    to detection k's highest IoU with any ground truth of its image.
    """
    hits: list[list[tuple[int, float]]] = [[] for _ in dets]
    for i, j, overlap in pairs:
        if best is not None:
            np.maximum.at(best, i, overlap)
        sel = np.flatnonzero(above(overlap, TP_IOU))
        for k, g, ov in zip(i[sel].tolist(), j[sel].tolist(), overlap[sel].tolist()):
            if dets[k].label == gts[g].label:
                hits[k].append((g, ov))
    return hits


def evaluate_ap50(
    ground_truth: Dataset, predictions: Mapping[str, Sequence[Detection]]
) -> EvalResult:
    """Score predictions against ground truth at IoU 0.5.

    Predictions are ranked per class by descending probability (ties keep
    input order) and greedily matched within their image to the unmatched
    ground-truth box of highest IoU, requiring IoU >= TP_IOU; IoU ties go to
    the lower ground-truth index.

    Raises:
        ValueError: if ``predictions`` references image ids absent from
            ``ground_truth``, listing the offenders.
    """
    _check_image_ids(ground_truth, predictions)
    per_image = [list(predictions.get(rec.image_id, ())) for rec in ground_truth.images]
    dets = [d for image_dets in per_image for d in image_dets]
    gts = [a for rec in ground_truth.images for a in rec.annotations]
    gt_total: dict[int, int] = defaultdict(int)
    for ann in gts:
        gt_total[ann.label] += 1
    # only overlaps >= TP_IOU can win a match, so the rest are never looked at
    hits = _same_class_hits(
        dets,
        gts,
        grouped_iou(
            [[d.box for d in image_dets] for image_dets in per_image],
            [[a.box for a in rec.annotations] for rec in ground_truth.images],
        ),
        np.greater_equal,
    )
    ranked: dict[int, list[tuple[float, int]]] = defaultdict(list)
    for k, det in enumerate(dets):
        ranked[det.label].append((det.prob, k))

    matched = [False] * len(gts)
    per_class_ap: dict[int, float] = {}
    counts: dict[int, ClassCounts] = {}
    for label in sorted(set(gt_total) | set(ranked)):
        tp_flags: list[bool] = []
        for _, k in sorted(ranked.get(label, []), key=lambda r: (-r[0], r[1])):
            best_iou, best_gt = 0.0, -1
            for g, overlap in hits[k]:
                if overlap > best_iou and not matched[g]:
                    best_iou, best_gt = overlap, g
            if best_gt >= 0:
                matched[best_gt] = True
            tp_flags.append(best_gt >= 0)
        n_gt = gt_total.get(label, 0)
        tp = sum(tp_flags)
        counts[label] = ClassCounts(tp=tp, fp=len(tp_flags) - tp, fn=n_gt - tp)
        if n_gt > 0:
            per_class_ap[label] = _average_precision(tp_flags, n_gt)

    map50 = (
        sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else 0.0
    )
    return EvalResult(per_class_ap=per_class_ap, map50=map50, counts=counts)


def mean_best_iou(
    sources: Mapping[str, Sequence[Box]], references: Mapping[str, Sequence[Box]]
) -> tuple[float, float]:
    """Mean best-match IoU between two per-image box sets, in both directions.

    The first value averages, over every source box in mapping order, its
    highest IoU with a reference box of the same image (0.0 if there is
    none); the second does the same from the references' side. Each image's
    pairs are scored once and reduced both ways. A side without boxes has
    mean 0.0.
    """
    image_ids = list(dict.fromkeys([*sources, *references]))
    src = [sources.get(image_id, ()) for image_id in image_ids]
    ref = [references.get(image_id, ()) for image_id in image_ids]
    forward = np.zeros(sum(len(boxes) for boxes in src))
    backward = np.zeros(sum(len(boxes) for boxes in ref))
    for i, j, overlap in grouped_iou(src, ref):
        np.maximum.at(forward, i, overlap)
        np.maximum.at(backward, j, overlap)

    def mean(best: np.ndarray, per_image: list[Sequence[Box]], order: Iterable[str]) -> float:
        values = best.tolist()
        by_image: dict[str, list[float]] = {}
        start = 0
        for image_id, boxes in zip(image_ids, per_image):
            by_image[image_id] = values[start:start + len(boxes)]
            start += len(boxes)
        # summed in mapping order, one box at a time, as a plain sum
        flat = [v for image_id in order for v in by_image[image_id]]
        return sum(flat) / len(flat) if flat else 0.0

    return mean(forward, src, sources), mean(backward, ref, references)


def quality_stats(ground_truth: Dataset, annotations: Dataset) -> QualityStats:
    """Measure how well an annotation set covers ground truth, and vice versa.

    Matching is purely geometric; class labels are ignored. The two datasets
    must describe the same images.

    Raises:
        ValueError: if the image id sets differ, listing the offenders.
    """
    gt_ids = set(ground_truth.image_ids())
    ann_ids = set(annotations.image_ids())
    if gt_ids != ann_ids:
        missing = sorted(gt_ids - ann_ids)
        extra = sorted(ann_ids - gt_ids)
        raise ValueError(
            f"image id mismatch: missing from annotations {missing}, "
            f"unknown to ground truth {extra}"
        )
    gt = {
        rec.image_id: [a.box for a in rec.annotations] for rec in ground_truth.images
    }
    ann = {
        rec.image_id: [a.box for a in rec.annotations] for rec in annotations.images
    }
    n_gt = sum(len(b) for b in gt.values())
    n_ann = sum(len(b) for b in ann.values())
    gt_to_annotations, annotations_to_gt = mean_best_iou(gt, ann)
    return QualityStats(
        gt_to_annotations=gt_to_annotations,
        annotations_to_gt=annotations_to_gt,
        gt_empty=n_gt == 0,
        annotations_empty=n_ann == 0,
    )


def error_breakdown(
    ground_truth: Dataset,
    predictions: Mapping[str, Sequence[Detection]],
    score_floor: float = 0.5,
) -> ErrorBreakdown:
    """Classify each confident prediction into a single error source.

    Predictions below ``score_floor`` are ignored. The rest are visited in
    descending probability per image and bucketed by the cascade documented
    on :class:`ErrorBreakdown`.

    Raises:
        ValueError: if ``predictions`` references unknown image ids.
    """
    _check_image_ids(ground_truth, predictions)
    per_image = []
    for rec in ground_truth.images:
        image_dets = [d for d in predictions.get(rec.image_id, ()) if d.prob >= score_floor]
        image_dets.sort(key=lambda d: -d.prob)
        per_image.append(image_dets)
    dets = [d for image_dets in per_image for d in image_dets]
    gts = [a for rec in ground_truth.images for a in rec.annotations]
    best_any = np.zeros(len(dets))
    hits = _same_class_hits(
        dets,
        gts,
        grouped_iou(
            [[d.box for d in image_dets] for image_dets in per_image],
            [[a.box for a in rec.annotations] for rec in ground_truth.images],
        ),
        np.greater,
        best_any,
    )
    result = ErrorBreakdown()
    claimed = [False] * len(gts)
    for hit, best in zip(hits, best_any.tolist()):
        if hit:
            open_hits = [(ov, g) for g, ov in hit if not claimed[g]]
            if open_hits:
                _, g = max(open_hits, key=lambda p: (p[0], -p[1]))
                claimed[g] = True
                result.true_positives += 1
            else:
                result.duplicate += 1
            continue
        if best > TP_IOU:
            result.classification += 1
        elif best > BACKGROUND_IOU:
            result.localization += 1
        else:
            result.background += 1
    result.missed = len(gts) - result.true_positives
    return result
