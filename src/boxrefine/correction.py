"""Model-guided target refinement: iterative box correction and label mining.

Box correction treats each class separately. Every target keeps a working
box, initialised from its input box. Each round, every same-class prediction
is assigned to the target whose working box it is nearest to, provided the
prediction lies within ``distance_limit`` of that target's input box; each
working box is then replaced by the softmax-weighted average of its assigned
predictions, weighted by raw logits over ``temperature``. Rounds repeat until
the assignment stops changing, no coordinate moves, or the iteration cap is
hit.

Label mining keeps predictions at or above a probability threshold, removes
near-duplicates among them with class-wise NMS, drops survivors that overlap
an existing same-class target, and appends the rest as new annotations.

:func:`correct_sets` runs both stages over whole box sets
(``geometry.BoxSet``): the pairwise steps of consecutive images share one
padded numpy block (see ``geometry.image_chunks``). :func:`correct_images`
converts ``(targets, predictions)`` pairs of objects to sets and back, and
:func:`correct_targets`, :func:`correct_boxes` and :func:`mine_labels` are
its one-image cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .datamodel import (
    Annotation,
    Detection,
    PROVENANCE_CODES,
    PROVENANCE_CORRECTED,
    PROVENANCE_MINED,
    annotation_set,
    detection_set,
    set_annotations,
)
# ``iou`` and ``nms`` are not called here; they stay bound because
# bench/spans.py counts scalar IoU calls and traces nms through each
# module's own names
from .geometry import (  # noqa: F401
    Box,
    BoxSet,
    center_distance_matrix,
    giou_matrix,
    grouped_iou,
    grouped_nms,
    image_chunks,
    iou,
    iou_matrix,
    nms,
    pad_groups,
)

__all__ = [
    "DISTANCE_IOU",
    "DISTANCE_GIOU",
    "DISTANCE_CENTER",
    "ConfigError",
    "CorrectionConfig",
    "CorrectionReport",
    "correct_boxes",
    "mine_labels",
    "correct_targets",
    "correct_images",
    "correct_sets",
    "refined_annotations",
]

DISTANCE_IOU = "iou"
DISTANCE_GIOU = "giou"
DISTANCE_CENTER = "center-normalized"
_DISTANCES = (DISTANCE_IOU, DISTANCE_GIOU, DISTANCE_CENTER)


class ConfigError(ValueError):
    """Raised for invalid refinement hyperparameters."""


@dataclass(frozen=True)
class CorrectionConfig:
    """Hyperparameters for box correction and label mining.

    ``distance_limit`` (the assignment radius d) and ``mining_threshold``
    (the confidence cutoff tau) double as switches: ``None`` disables the
    respective stage in :func:`correct_targets`. ``fixed_size`` activates the
    fixed-size variant for point-derived targets: box updates average
    prediction centers only and re-expand to a ``fixed_size`` square.
    Construction raises :class:`ConfigError` for an invalid value.
    """

    distance: str = DISTANCE_IOU
    center_norm: float | None = None
    distance_limit: float | None = None
    temperature: float = 0.2
    mining_threshold: float | None = None
    mining_nms_iou: float = 0.5
    dedup_iou: float = 0.5
    max_iterations: int = 50
    convergence_eps: float = 1e-6
    fixed_size: float | None = None

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if self.distance not in _DISTANCES:
            raise ConfigError(
                f"unknown distance {self.distance!r}; valid: {list(_DISTANCES)}"
            )
        if self.distance == DISTANCE_CENTER and not (
            self.center_norm is not None and self.center_norm > 0.0
        ):
            raise ConfigError(
                "center-normalized distance requires a positive center_norm"
            )
        if self.distance_limit is not None and not self.distance_limit > 0.0:
            raise ConfigError(
                f"distance_limit must be positive, got {self.distance_limit}"
            )
        if not self.temperature > 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.mining_threshold is not None and not (
            0.0 < self.mining_threshold <= 1.0
        ):
            raise ConfigError(
                f"mining_threshold must be in (0, 1], got {self.mining_threshold}"
            )
        if not 0.0 <= self.mining_nms_iou <= 1.0:
            raise ConfigError(
                f"mining_nms_iou must be in [0, 1], got {self.mining_nms_iou}"
            )
        if not 0.0 <= self.dedup_iou <= 1.0:
            raise ConfigError(f"dedup_iou must be in [0, 1], got {self.dedup_iou}")
        if self.max_iterations < 1:
            raise ConfigError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not self.convergence_eps >= 0.0:
            raise ConfigError(
                f"convergence_eps must be >= 0, got {self.convergence_eps}"
            )
        if self.fixed_size is not None and not self.fixed_size > 0.0:
            raise ConfigError(f"fixed_size must be positive, got {self.fixed_size}")

    def distance_matrix(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Pairwise distance: ``(N, 4)`` and ``(M, 4)`` corner arrays to ``(N, M)``,
        or stacks of them, ``(C, N, 4)`` and ``(C, M, 4)`` to ``(C, N, M)``.

        Entries equal the scalar ``iou_distance``, ``giou_distance`` or
        ``center_distance_normalized`` of the same pair.
        """
        if self.distance == DISTANCE_IOU:
            return lambda a, b: _complement(iou_matrix(a, b))
        if self.distance == DISTANCE_GIOU:
            return lambda a, b: _complement(giou_matrix(a, b))
        norm = self.center_norm
        return lambda a, b: center_distance_matrix(a, b, norm)


def _complement(m: np.ndarray) -> np.ndarray:
    """1 - m, in place."""
    return np.subtract(1.0, m, out=m)


@dataclass
class CorrectionReport:
    """Per-image refinement diagnostics.

    ``assignment_sizes`` lists, in input target order, how many predictions
    backed each target's final box; zero means the target was left alone.
    """

    iterations: int = 0
    converged: bool = True
    assignment_sizes: list[int] = field(default_factory=list)
    mined: int = 0


def _softmax(xs: Sequence[float]) -> list[float]:
    # math.exp, not np.exp: the two round differently on a few percent of inputs
    m = max(xs)
    exps = [math.exp(x - m) for x in xs]
    total = sum(exps)
    return [e / total for e in exps]


def _square_about(cx: float, cy: float, side: float) -> list[float]:
    half = side / 2.0
    return [cx - half, cy - half, cx + half, cy + half]


def _center(box: Sequence[float]) -> tuple[float, float]:
    return ((box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0)


def _update_class(
    current: list[list[float]],
    picks: list[int],
    pred_ids: list[int],
    logits: list[float],
    coords: list[list[float]],
    cfg: CorrectionConfig,
) -> float:
    """Move each picked target to the softmax-weighted average of its predictions.

    ``picks[k]`` is the target assigned to prediction ``pred_ids[k]``, or -1.
    Updates ``current`` in place and returns the largest coordinate change.
    """
    members: dict[int, list[int]] = {}
    for pi, t in zip(pred_ids, picks):
        if t >= 0:
            members.setdefault(t, []).append(pi)
    moved = 0.0
    for t, group in members.items():
        weights = _softmax([logits[pi] / cfg.temperature for pi in group])
        if cfg.fixed_size is not None:
            centers = [_center(coords[pi]) for pi in group]
            cx = sum(w * c[0] for w, c in zip(weights, centers))
            cy = sum(w * c[1] for w, c in zip(weights, centers))
            nb = _square_about(cx, cy, cfg.fixed_size)
        else:
            nb = [
                sum(w * coords[pi][k] for w, pi in zip(weights, group))
                for k in range(4)
            ]
        moved = max(moved, *(abs(n - o) for n, o in zip(nb, current[t])))
        current[t] = nb
    return moved


# one image's targets and predictions
_Image = tuple[Sequence[Annotation], Sequence[Detection]]


def _correct_chunk(
    targets: BoxSet,
    preds: BoxSet,
    ks: np.ndarray,
    reports: Sequence[CorrectionReport],
    cfg: CorrectionConfig,
) -> np.ndarray:
    """Box correction of images ``ks``, which all have targets and predictions.

    The images share one padded block per round: row c, t, j of the distance
    stack pairs target t and prediction j of image ``ks[c]``. Classes of an
    image are corrected together; a prediction only ever looks at targets of
    its own class and image, so every (image, class) group stops on its own.
    Returns the final working boxes, ``(C, W, 4)`` padded like the targets.
    """
    distance = cfg.distance_matrix()
    target_boxes = pad_groups(targets.boxes, targets.offsets, ks, 0.0)
    pred_boxes = pad_groups(preds.boxes, preds.offsets, ks, 0.0)
    n, width, p_width = pred_boxes.shape[0], target_boxes.shape[1], pred_boxes.shape[1]
    # padding is labelled 0 among targets and -1 among predictions, so no
    # pair with a padding row is of the same class: the class mask, not the
    # padding's distance, keeps padding out
    pred_labels = pad_groups(preds.labels, preds.offsets, ks, -1)
    same_class = (
        pad_groups(targets.labels, targets.offsets, ks, 0)[:, :, None]
        == pred_labels[:, None, :]
    )
    dist: np.ndarray | None = distance(target_boxes, pred_boxes)
    # eligibility is pinned to the input boxes, not the moving working boxes
    eligible = dist <= cfg.distance_limit
    eligible &= same_class
    # targets and predictions by flat index: image c's row t is c * width + t
    coords = pred_boxes.reshape(-1, 4).tolist()
    logits = pad_groups(preds.logits, preds.offsets, ks, 0.0).ravel().tolist()
    if cfg.fixed_size is not None:
        current = [
            _square_about(*_center(b), cfg.fixed_size)
            for b in target_boxes.reshape(-1, 4).tolist()
        ]
        dist = None
    else:
        current = target_boxes.reshape(-1, 4).tolist()
    # the predictions of each (image, class) that has a target of its class
    running: dict[tuple[int, int], list[int]] = {}
    cs, js = np.nonzero(same_class.any(axis=1))
    for c, j, label in zip(cs.tolist(), js.tolist(), pred_labels[cs, js].tolist()):
        running.setdefault((c, label), []).append(c * p_width + j)
    rounds = dict.fromkeys(running, 0)
    prev_picks: dict[tuple[int, int], list[int]] = {}
    offsets = np.arange(0, n * width, width)[:, None]
    while running:
        if dist is None:
            dist = distance(np.array(current).reshape(n, width, 4), pred_boxes)
        # argmin takes the first minimum: distance ties go to the lower target index
        nearest = np.where(same_class, dist, np.inf).argmin(axis=1)
        ok = np.take_along_axis(eligible, nearest[:, None, :], axis=1)[:, 0, :]
        assign = np.where(ok, nearest + offsets, -1).ravel().tolist()
        changed = False
        for key, pred_ids in list(running.items()):
            picks = [assign[j] for j in pred_ids]
            if picks == prev_picks.get(key):
                converged = True
            elif rounds[key] >= cfg.max_iterations:
                converged = False
            else:
                moved = _update_class(current, picks, pred_ids, logits, coords, cfg)
                rounds[key] += 1
                prev_picks[key] = picks
                changed = changed or moved > 0.0
                if moved >= cfg.convergence_eps:
                    continue
                converged = True
            del running[key]
            report = reports[ks[key[0]]]
            base = key[0] * width
            for t in picks:
                if t >= 0:
                    report.assignment_sizes[t - base] += 1
            report.iterations = max(report.iterations, rounds[key])
            report.converged = report.converged and converged
        if changed:
            dist = None
    return np.array(current).reshape(n, width, 4)


def _correct_stage(
    targets: BoxSet, preds: BoxSet, reports: Sequence[CorrectionReport], cfg: CorrectionConfig
) -> tuple[BoxSet, np.ndarray]:
    """Box correction of every image, in chunks of :func:`image_chunks`.

    Returns the corrected targets and which of them moved. A moved target's
    coordinates are floats; an unmoved one keeps its row, and an image
    without targets or predictions keeps all of them.
    """
    boxes = targets.boxes.copy()
    moved = np.zeros(len(targets), dtype=bool)
    t_counts, p_counts = targets.counts, preds.counts
    todo = np.flatnonzero((t_counts > 0) & (p_counts > 0))
    for chunk in image_chunks(t_counts[todo].tolist(), p_counts[todo].tolist()):
        ks = todo[chunk.start : chunk.stop]
        current = _correct_chunk(targets, preds, ks, reports, cfg)
        real = np.arange(current.shape[1]) < t_counts[ks][:, None]
        rows = (targets.offsets[ks][:, None] + np.arange(current.shape[1]))[real]
        new = current[real]
        # a box equal to its input, -0.0 against 0.0 included, did not move
        moves = (new != boxes[rows]).any(axis=1)
        boxes[rows[moves]] = new[moves]
        moved[rows[moves]] = True
    int_edge, provenance = targets.int_edge, targets.provenance
    if int_edge is not None:
        int_edge = int_edge & ~moved[:, None]
    if provenance is not None:
        provenance = np.where(moved, PROVENANCE_CODES[PROVENANCE_CORRECTED], provenance)
        provenance = provenance.astype(np.int8)
    return replace(targets, boxes=boxes, int_edge=int_edge, provenance=provenance), moved


def _mine_stage(targets: BoxSet, preds: BoxSet, cfg: CorrectionConfig) -> np.ndarray:
    """The prediction rows that label mining adds, image after image, each
    image's in NMS visit order."""
    tau = cfg.mining_threshold
    confident = [row for row, prob in enumerate(preds.probs.tolist()) if prob >= tau]
    if not confident:
        return np.zeros(0, dtype=np.intp)
    candidates = preds
    if len(confident) < len(preds):
        candidates = preds.take(np.array(confident, dtype=np.intp), "labels", "probs")
    visit = grouped_nms(candidates, cfg.mining_nms_iou).tolist()
    # only a candidate that shares its image and class with a target can be a
    # duplicate, survivor or not
    keys = list(zip(candidates.image_index.tolist(), candidates.labels.tolist()))
    duplicate: set[int] = set()
    if not set(zip(targets.image_index.tolist(), targets.labels.tolist())).isdisjoint(keys):
        labels = targets.labels.tolist()
        for i, j, overlap in grouped_iou(candidates, targets):
            (hit,) = (overlap > cfg.dedup_iou).nonzero()
            duplicate.update(
                k for k, t in zip(i[hit].tolist(), j[hit].tolist()) if keys[k][1] == labels[t]
            )
    return np.array([confident[k] for k in visit if k not in duplicate], dtype=np.intp)


def correct_sets(
    targets: BoxSet, preds: BoxSet, cfg: CorrectionConfig
) -> tuple[BoxSet, np.ndarray, list[CorrectionReport]]:
    """Box correction followed by label mining over whole sets, each stage optional.

    ``targets`` has labels, ``preds`` labels, probs and logits, image for
    image. A stage runs only when its switch is set: ``distance_limit`` for
    box correction, ``mining_threshold`` for mining.

    Returns the refined targets, each image's input targets in order followed
    by its mined boxes (coordinates as predicted); which input targets moved,
    which makes them ``corrected``; and a report per image. Where the
    targets have provenance codes, the refined targets' say ``corrected``
    for a moved target and ``mined`` for a mined box.
    :func:`refined_annotations` turns the first two into objects.
    """
    reports = [CorrectionReport(assignment_sizes=[0] * n) for n in targets.counts.tolist()]
    moved = np.zeros(len(targets), dtype=bool)
    if cfg.distance_limit is not None:
        targets, moved = _correct_stage(targets, preds, reports, cfg)
    if cfg.mining_threshold is not None:
        rows = _mine_stage(targets, preds, cfg)
        if len(rows):
            found = preds.take(rows, "labels", "int_edge")
            found.provenance = np.full(len(rows), PROVENANCE_CODES[PROVENANCE_MINED], np.int8)
            for report, n in zip(reports, found.counts.tolist()):
                report.mined = n
            targets = targets.append(found)
    return targets, moved, reports


def refined_annotations(
    refined: BoxSet, originals: Sequence[Sequence[Annotation]], moved: np.ndarray
) -> list[list[Annotation]]:
    """Refined targets with provenance codes as objects per image, built at
    the edge.

    Each image's rows of ``refined`` begin with its ``originals`` in order;
    ``moved`` marks those that changed (image after image). An unmoved
    target comes back as the original object; only the other rows are built.
    """
    bounds = refined.offsets.tolist()
    changed = iter(moved.tolist())
    kept: list[Annotation | None] = [None] * len(refined)
    for start, anns in zip(bounds, originals):
        for row, ann in enumerate(anns, start):
            if not next(changed):
                kept[row] = ann
    build = [row for row, ann in enumerate(kept) if ann is None]
    new = chain.from_iterable(set_annotations(refined.take(np.array(build, dtype=np.intp))))
    return [
        [kept[row] or next(new) for row in range(start, stop)]
        for start, stop in zip(bounds, bounds[1:])
    ]


def correct_boxes(
    targets: Sequence[Annotation],
    preds: Sequence[Detection],
    cfg: CorrectionConfig,
) -> tuple[list[Annotation], CorrectionReport]:
    """Refine target boxes against model predictions of the same class.

    Targets whose box actually moved come back with ``corrected`` provenance;
    untouched targets are returned as the same objects. With no predictions
    at all the targets are returned unchanged.

    Raises:
        ConfigError: if ``cfg`` has no ``distance_limit``.
    """
    if cfg.distance_limit is None:
        raise ConfigError("box correction requires a distance_limit")
    return correct_images([(targets, preds)], replace(cfg, mining_threshold=None))[0]


def _corners(boxes: Sequence[Box]) -> np.ndarray:
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def mine_labels(
    targets: Sequence[Annotation],
    preds: Sequence[Detection],
    cfg: CorrectionConfig,
) -> list[Annotation]:
    """Append confident, non-duplicate predictions as mined annotations.

    Predictions with probability >= ``mining_threshold`` survive class-wise
    NMS at ``mining_nms_iou``; a survivor is dropped if it overlaps any
    same-class target with IoU strictly above ``dedup_iou``. Input targets
    are always retained, in order, ahead of the mined additions.

    Raises:
        ConfigError: if ``cfg`` has no ``mining_threshold``.
    """
    if cfg.mining_threshold is None:
        raise ConfigError("label mining requires a mining_threshold")
    # mining reads boxes, labels and probs, and returns each mined
    # prediction's own box: the sets need no int edges
    found = BoxSet(
        _corners([d.box for d in preds]),
        np.array((0, len(preds))),
        labels=np.array([d.label for d in preds], dtype=np.int64),
        probs=np.array([d.prob for d in preds], dtype=np.float64),
    )
    known = BoxSet(
        _corners([t.box for t in targets]),
        np.array((0, len(targets))),
        labels=np.array([t.label for t in targets], dtype=np.int64),
    )
    rows = _mine_stage(known, found, cfg).tolist()
    # a mined box is its prediction's own box
    return [*targets, *(Annotation(preds[r].box, preds[r].label, PROVENANCE_MINED) for r in rows)]


def correct_targets(
    targets: Sequence[Annotation],
    preds: Sequence[Detection],
    cfg: CorrectionConfig,
) -> tuple[list[Annotation], CorrectionReport]:
    """Box correction followed by label mining, each stage optional.

    A stage runs only when its switch is set: ``distance_limit`` for box
    correction, ``mining_threshold`` for mining. With both unset the input
    comes back untouched.
    """
    return correct_images([(targets, preds)], cfg)[0]


def correct_images(
    images: Sequence[_Image], cfg: CorrectionConfig
) -> list[tuple[list[Annotation], CorrectionReport]]:
    """:func:`correct_targets` of every ``(targets, predictions)`` pair.

    The pairs become one set on each side for :func:`correct_sets`, and its
    result becomes objects again: unmoved targets are the input objects.
    """
    originals = [targets for targets, _ in images]
    refined, moved, reports = correct_sets(
        annotation_set(originals), detection_set([preds for _, preds in images]), cfg
    )
    return list(zip(refined_annotations(refined, originals, moved), reports))
