"""Detection metrics: AP at IoU 0.5, annotation-quality statistics, error breakdown.

AP follows the all-point interpolation convention: predictions are ranked by
score, greedily matched to ground truth at IoU >= 0.5, and the area under the
precision envelope over recall is reported. Only the ranking of scores
matters, never their values.

:func:`evaluate_ap50`, :func:`error_breakdown`, :func:`mean_best_iou` and
:func:`quality_stats` work on box sets (``geometry.BoxSet``), the first two
also on a dataset with a mapping of detection objects, which they convert
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .datamodel import Dataset, Detection, detection_set
# ``iou`` is not called here; it stays bound because bench/spans.py counts
# scalar IoU calls through each module's own name
from .geometry import BoxSet, best_iou, class_groups, grouped_iou, iou  # noqa: F401

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


def _sets(
    ground_truth: Dataset | BoxSet, predictions: Mapping[str, Sequence[Detection]] | BoxSet
) -> tuple[BoxSet, BoxSet]:
    """Ground truth and predictions as sets, image for image: a dataset's
    annotations, and the mapping's detections in the dataset's image order."""
    if not isinstance(ground_truth, Dataset):
        return ground_truth, predictions
    image_ids = ground_truth.image_ids()
    unknown = sorted(set(predictions) - set(image_ids))
    if unknown:
        raise ValueError(f"predictions reference unknown image ids: {unknown}")
    dets = detection_set([predictions.get(image_id, ()) for image_id in image_ids])
    return ground_truth.annotations, dets


def _average_precision(tp_flags: np.ndarray, n_gt: int) -> float:
    """Area under the interpolated precision-recall curve of ranked TP flags."""
    if n_gt == 0 or not len(tp_flags):
        return 0.0
    tp = np.cumsum(tp_flags)
    precisions = tp / np.arange(1, len(tp) + 1)
    recalls = tp / n_gt
    # precision envelope: best precision at this recall or beyond
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    # recall rises exactly at the true positives
    steps = np.flatnonzero(tp_flags)
    rises = recalls[steps] - np.concatenate(([0.0], recalls[steps[:-1]]))
    ap = 0.0
    # summed one step at a time, in rank order
    for term in (rises * envelope[steps]).tolist():
        ap += term
    return ap


def _same_class_hits(
    dets: BoxSet, gts: BoxSet, above: Callable[[np.ndarray, float], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The ground truth rows that each detection row can hit: those of its
    image and class whose IoU with it passes ``above(IoU, TP_IOU)``.

    Returns ``(gt, begin)``: detection k's hits are ``gt[begin[k]:begin[k +
    1]]``, by descending IoU and on equal IoU by row, so that its first
    unclaimed hit is the one a greedy match takes.
    """
    # both sets regrouped by (image, class), as sets whose images are the groups
    groups = class_groups(dets, gts)
    every = np.arange(max(g.max(initial=-1) for g in groups) + 2)
    d_rows, g_rows = (g.argsort(kind="stable") for g in groups)
    d_set = BoxSet(dets.boxes[d_rows], groups[0][d_rows].searchsorted(every))
    g_set = BoxSet(gts.boxes[g_rows], groups[1][g_rows].searchsorted(every))
    none = np.zeros(0, dtype=np.intp)
    pairs = [(none, none, np.zeros(0))]
    for i, j, overlap in grouped_iou(d_set, g_set):
        sel = above(overlap, TP_IOU)
        pairs.append((d_rows[i[sel]], g_rows[j[sel]], overlap[sel]))
    det, gt, overlap = (np.concatenate(c) for c in zip(*pairs))
    order = np.lexsort((gt, -overlap, det))
    return gt[order], det[order].searchsorted(np.arange(len(dets) + 1))


def _greedy_match(
    hits: tuple[np.ndarray, np.ndarray], visit: np.ndarray, n_gt: int
) -> np.ndarray:
    """Which detections claim a ground truth when each, in ``visit`` order,
    takes its first hit (:func:`_same_class_hits`) that no earlier one took."""
    gt, begin = hits
    visit = visit[begin[visit + 1] > begin[visit]].tolist()
    gt, bounds = gt.tolist(), begin.tolist()
    claimed, matched = [False] * n_gt, []
    for k in visit:
        for g in gt[bounds[k] : bounds[k + 1]]:
            if not claimed[g]:
                claimed[g] = True
                matched.append(k)
                break
    out = np.zeros(len(bounds) - 1, dtype=bool)
    out[matched] = True
    return out


def evaluate_ap50(
    ground_truth: Dataset | BoxSet,
    predictions: Mapping[str, Sequence[Detection]] | BoxSet,
) -> EvalResult:
    """Score predictions against ground truth at IoU 0.5.

    Predictions are ranked per class by descending probability (ties keep
    input order) and greedily matched within their image to the unmatched
    ground-truth box of highest IoU, requiring IoU >= TP_IOU; IoU ties go to
    the lower ground-truth index.

    Either a dataset and a mapping from image id to detections, or two sets
    with labels, image for image, the predictions' with probs.

    Raises:
        ValueError: if ``predictions`` references image ids absent from
            ``ground_truth``, listing the offenders.
    """
    gts, dets = _sets(ground_truth, predictions)
    # only overlaps >= TP_IOU can win a match, so the rest are never looked at
    hits = _same_class_hits(dets, gts, np.greater_equal)
    # classes never share a ground truth, so one ranking serves them all
    rank = np.argsort(-dets.probs, kind="stable")
    tp = _greedy_match(hits, rank, len(gts))

    det_labels = dets.labels[rank]
    gt_total = np.bincount(gts.labels)
    per_class_ap: dict[int, float] = {}
    counts: dict[int, ClassCounts] = {}
    # a union of Python ints: np.union1d would import numpy.ma on first use
    for label in sorted({*np.flatnonzero(gt_total).tolist(), *det_labels.tolist()}):
        tp_flags = tp[rank[det_labels == label]]
        n_gt = int(gt_total[label]) if label < len(gt_total) else 0
        n_tp = int(tp_flags.sum())
        counts[label] = ClassCounts(tp=n_tp, fp=len(tp_flags) - n_tp, fn=n_gt - n_tp)
        if n_gt > 0:
            per_class_ap[label] = _average_precision(tp_flags, n_gt)

    map50 = (
        sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else 0.0
    )
    return EvalResult(per_class_ap=per_class_ap, map50=map50, counts=counts)


def _mean(values: list[float]) -> float:
    # summed one box at a time, as a plain sum
    return sum(values) / len(values) if values else 0.0


def mean_best_iou(sources: BoxSet, references: BoxSet) -> tuple[float, float]:
    """Mean best-match IoU between two sets, image for image, in both directions.

    The first value averages, over every source box, its highest IoU with a
    reference box of the same image (0.0 if there is none); the second does
    the same from the references' side. Each image's pairs are scored once
    and reduced both ways. A side without boxes has mean 0.0.
    """
    forward, backward = best_iou(sources, references)
    return _mean(forward.tolist()), _mean(backward.tolist())


def quality_stats(ground_truth: Dataset, annotations: Dataset) -> QualityStats:
    """Measure how well an annotation set covers ground truth, and vice versa.

    Matching is purely geometric; class labels are ignored. The two datasets
    must describe the same images. Each direction's mean is summed in its
    own dataset's image order.

    Raises:
        ValueError: if the image id sets differ, listing the offenders.
    """
    gt_ids, ann_ids = ground_truth.image_ids(), annotations.image_ids()
    if set(gt_ids) != set(ann_ids):
        missing = sorted(set(gt_ids) - set(ann_ids))
        extra = sorted(set(ann_ids) - set(gt_ids))
        raise ValueError(
            f"image id mismatch: missing from annotations {missing}, "
            f"unknown to ground truth {extra}"
        )
    gts, anns = ground_truth.annotations, annotations.annotations
    position = {image_id: g for g, image_id in enumerate(ann_ids)}
    rows, offsets = anns.image_rows([position[image_id] for image_id in gt_ids])
    forward, backward = best_iou(gts, BoxSet(anns.boxes[rows], offsets))
    # back in the annotations' own order
    reverse = np.empty_like(backward)
    reverse[rows] = backward
    return QualityStats(
        gt_to_annotations=_mean(forward.tolist()),
        annotations_to_gt=_mean(reverse.tolist()),
        gt_empty=len(gts) == 0,
        annotations_empty=len(anns) == 0,
    )


def error_breakdown(
    ground_truth: Dataset | BoxSet,
    predictions: Mapping[str, Sequence[Detection]] | BoxSet,
    score_floor: float = 0.5,
) -> ErrorBreakdown:
    """Classify each confident prediction into a single error source.

    Predictions below ``score_floor`` are ignored. The rest are visited in
    descending probability per image and bucketed by the cascade documented
    on :class:`ErrorBreakdown`. Takes either form that :func:`evaluate_ap50`
    takes.

    Raises:
        ValueError: if ``predictions`` references unknown image ids.
    """
    gts, dets = _sets(ground_truth, predictions)
    confident = np.flatnonzero(dets.probs >= score_floor)
    dets = dets.take(confident)
    hits = _same_class_hits(dets, gts, np.greater)
    # per image, descending probability; lexsort is stable, so ties keep input order
    tp = _greedy_match(hits, np.lexsort((-dets.probs, dets.image_index)), len(gts))
    hit = np.diff(hits[1]) > 0
    result = ErrorBreakdown(true_positives=int(tp.sum()), duplicate=int((hit & ~tp).sum()))
    # a prediction without a same-class hit is bucketed by its best overlap
    best = best_iou(dets.take(np.flatnonzero(~hit)), gts)[0]
    result.classification = int((best > TP_IOU).sum())
    result.localization = int(((best > BACKGROUND_IOU) & (best <= TP_IOU)).sum())
    result.background = int((best <= BACKGROUND_IOU).sum())
    result.missed = len(gts) - result.true_positives
    return result
