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
(``geometry.BoxSet``) in one flat pass over all images. Box correction
scores only the (prediction, target) pairs of one image and class that can
decide an assignment: those in a window about each prediction (see
``geometry.x_windows``), and a prediction's whole row of targets where its
window cannot settle its nearest one. :func:`correct_images` converts
``(targets, predictions)`` pairs of objects to sets and back, and
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
    center_distance_pairs,
    class_groups,
    giou_pairs,
    grouped_iou,
    grouped_nms,
    iou,
    iou_pairs,
    nms,
    overlap_windows,
    pair_blocks,
    x_windows,
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

    def pair_distance(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Distance of box k of ``a`` and box k of ``b``, ``(4, K)`` corner
        planes, equal to the scalar ``iou_distance``, ``giou_distance`` or
        ``center_distance_normalized`` of the pair."""
        if self.distance == DISTANCE_IOU:
            return lambda a, b: 1.0 - iou_pairs(a, b)
        if self.distance == DISTANCE_GIOU:
            return lambda a, b: 1.0 - giou_pairs(a, b)
        norm = self.center_norm
        return lambda a, b: center_distance_pairs(a, b, norm)

    def window_bound(self) -> float:
        """A distance below which a windowed minimum (``_windows``) is the true
        one: targets outside are at exactly 1.0 under IoU, at 1.0 less
        rounding under GIoU and beyond ``distance_limit`` under center distance."""
        if self.distance == DISTANCE_IOU:
            return 1.0
        if self.distance == DISTANCE_GIOU:
            return 1.0 - 2.0**-40
        return float(np.nextafter(self.distance_limit, np.inf))


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


def _square_about(cx, cy, side: float) -> list:
    half = side / 2.0
    return [cx - half, cy - half, cx + half, cy + half]


def _centers(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center x and y of corner planes ``p``."""
    return (p[0] + p[2]) / 2.0, (p[1] + p[3]) / 2.0


def _windows(
    cfg: CorrectionConfig, preds: np.ndarray, p_group: np.ndarray,
    targets: np.ndarray, t_group: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``geometry.x_windows`` of the targets of each prediction's group that
    can be nearer than ``cfg.window_bound()``: under (G)IoU those whose x
    extents can meet its own, under center distance those whose center x is
    within ``distance_limit * center_norm`` of its own, plus a rounding margin."""
    if cfg.distance != DISTANCE_CENTER:
        return overlap_windows(preds, p_group, targets, t_group)
    tx = _centers(targets)[0]
    (rows,) = np.isfinite(tx).nonzero()
    tx = tx[rows]
    scale = np.abs(tx).max(initial=0.0) or 1.0
    reach = cfg.distance_limit * cfg.center_norm
    reach += (scale + reach) * 2.0**-40
    px = _centers(preds)[0]
    order, first, width = x_windows(px - reach, px + reach, p_group, tx, t_group[rows], scale)
    return rows[order], first, width


def _nearest(
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    preds: np.ndarray,
    targets: np.ndarray,
    windows: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per prediction, the distance to its nearest target in its window and
    that target, the lowest one on ties as ``argmin`` takes it; ``inf`` and
    -1 for an empty window."""
    low = np.full(preds.shape[1], np.inf)
    best = np.full(preds.shape[1], -1)
    for i, j in pair_blocks(*windows):
        if not len(i):
            continue
        d = distance(targets.take(j, axis=1), preds.take(i, axis=1))
        # a block holds whole rows, each row's pairs in one run
        starts = np.flatnonzero(np.diff(i, prepend=-1))
        rows = i[starts]
        low[rows] = np.minimum.reduceat(d, starts)
        tied = np.where(d == low[i], j, targets.shape[1])
        best[rows] = np.minimum.reduceat(tied, starts)
    return low, best


def _run_sums(values: np.ndarray, starts: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Sum of each run of columns of ``values``, ``runs[r]`` long from
    ``starts[r]``, added one column at a time from 0.0 in run order: the
    order of ``builtins.sum`` on Python 3.11, so the bits are its bits."""
    total = np.zeros((*values.shape[:-1], len(starts)))
    for k in range(int(runs.max(initial=0))):
        live = runs > k
        total[..., live] += values[..., starts[live] + k]
    return total


def _updated(
    pairs: tuple[np.ndarray, np.ndarray],
    preds: np.ndarray,
    logits: np.ndarray,
    cfg: CorrectionConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The targets of (prediction, target) ``pairs``, sorted by target and
    then prediction, and their new corner planes: the softmax-weighted
    average of their predictions, summed in that order."""
    p, t = pairs
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    runs = np.diff(starts, append=len(t))
    scaled = logits[p] / cfg.temperature
    top = np.maximum.reduceat(scaled, starts)
    # math.exp, not np.exp: the two round differently on a few percent of inputs
    shifted = (scaled - top.repeat(runs)).tolist()
    exps = np.fromiter(map(math.exp, shifted), dtype=np.float64, count=len(shifted))
    weights = exps / _run_sums(exps, starts, runs).repeat(runs)
    boxes = preds.take(p, axis=1)
    if cfg.fixed_size is None:
        return t[starts], _run_sums(weights * boxes, starts, runs)
    cx, cy = _run_sums(weights * np.stack(_centers(boxes)), starts, runs)
    return t[starts], np.stack(_square_about(cx, cy, cfg.fixed_size))


def _groups(targets: BoxSet, preds: BoxSet) -> list[np.ndarray]:
    """The rows of the (image, class) groups with targets and predictions and
    their group numbers, targets' then predictions', by group and then row."""
    sides = class_groups(targets, preds)
    # np.intersect1d would import numpy.ma on first use
    n = len(targets) + len(preds)
    shared = np.logical_and(*(np.bincount(side, minlength=n) > 0 for side in sides))
    number, out = shared.cumsum() - 1, []
    for side in sides:
        (rows,) = shared[side].nonzero()
        rows = rows[side[rows].argsort(kind="stable")]
        out += [rows, number[side[rows]]]
    return out


def _correct_stage(
    targets: BoxSet, preds: BoxSet, reports: Sequence[CorrectionReport], cfg: CorrectionConfig
) -> tuple[BoxSet, np.ndarray]:
    """Box correction of every image in one flat pass; every (image, class)
    group stops on its own.

    A prediction without an eligible target sits the rounds out. Each round
    the others look for their nearest working box in their ``_windows``;
    where the windowed minimum does not beat ``cfg.window_bound()``, every
    target is at 1.0 under IoU distance, so the first is nearest, and under
    the other distances the whole row of the group's targets is scored.
    Eligibility is found the same way on the input boxes.

    Returns the corrected targets and which of them moved. A moved target's
    coordinates are floats; an unmoved one keeps its row.
    """
    distance, bound, limit = cfg.pair_distance(), cfg.window_bound(), cfg.distance_limit
    t_rows, t_group, p_rows, p_group = _groups(targets, preds)
    n_groups = int(t_group.max(initial=-1)) + 1
    t_start = np.searchsorted(t_group, np.arange(n_groups + 1))
    inputs = np.ascontiguousarray(targets.boxes[t_rows].T)
    pred_boxes = np.ascontiguousarray(preds.boxes[p_rows].T)
    logits = preds.logits[p_rows]
    final = targets.boxes.copy()
    if cfg.fixed_size is not None:
        # every target of an image with predictions starts as a square
        (rows,) = (preds.counts > 0)[targets.image_index].nonzero()
        final[rows] = np.stack(_square_about(*_centers(final[rows].T), cfg.fixed_size), axis=1)
    work = np.ascontiguousarray(final[t_rows].T)

    def whole_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = p_group[rows]
        return np.arange(len(t_group)), t_start[g], t_start[g + 1] - t_start[g]

    if limit < bound:
        first_look = _windows(cfg, pred_boxes, p_group, inputs, t_group)
    else:
        first_look = whole_rows(np.arange(len(p_group)))
    eligible = _nearest(distance, pred_boxes, inputs, first_look)[0] <= limit

    rounds = np.zeros(n_groups, dtype=np.intp)
    converged = np.ones(n_groups, dtype=bool)
    running = np.ones(n_groups, dtype=bool)
    prev = np.full(len(p_group), -1)
    sizes = np.zeros(len(t_group), dtype=np.intp)
    while running.any():
        (act,) = (eligible & running[p_group]).nonzero()
        (live,) = running[t_group].nonzero()
        mine, group = pred_boxes[:, act], p_group[act]
        order, first, width = _windows(cfg, mine, group, work[:, live], t_group[live])
        low, near = _nearest(distance, mine, work, (live[order], first, width))
        (open_,) = (~(low < bound)).nonzero()
        if cfg.distance == DISTANCE_IOU:
            near[open_] = t_start[group[open_]]
        elif len(open_):
            near[open_] = _nearest(distance, mine[:, open_], work, whole_rows(act[open_]))[1]
        ok = distance(inputs.take(near, axis=1), mine) <= limit
        pick = np.where(ok, near, -1)
        changed = np.bincount(group, weights=pick != prev[act], minlength=n_groups) > 0
        # picks can repeat only after a group's first round
        same = running & ~changed & (rounds > 0)
        capped = running & ~same & (rounds >= cfg.max_iterations)
        update = running & ~same & ~capped
        prev[act] = pick
        moved = np.zeros(n_groups)
        (sel,) = (update[group] & (pick >= 0)).nonzero()
        # by target, then by prediction: act is ascending
        sel = sel[pick[sel].argsort(kind="stable")]
        if len(sel):
            hit, boxes = _updated((act[sel], pick[sel]), pred_boxes, logits, cfg)
            np.maximum.at(moved, t_group[hit], np.abs(boxes - work[:, hit]).max(axis=0))
            work[:, hit] = boxes
        rounds[update] += 1
        converged &= ~capped
        stop = same | capped | (update & ~(moved >= cfg.convergence_eps))
        done = pick[stop[group] & (pick >= 0)]
        sizes += np.bincount(done, minlength=len(t_group))
        running &= ~stop

    final[t_rows] = work.T
    # a box equal to its input, -0.0 against 0.0 included, did not move
    moved_rows = (final != targets.boxes).any(axis=1)
    boxes = np.where(moved_rows[:, None], final, targets.boxes)
    image = targets.image_index[t_rows[t_start[:-1]]]
    iterations = np.zeros(targets.num_images, dtype=np.intp)
    np.maximum.at(iterations, image, rounds)
    failed = np.bincount(image, weights=~converged, minlength=targets.num_images)
    all_sizes = np.zeros(len(targets), dtype=np.intp)
    all_sizes[t_rows] = sizes
    bounds = targets.offsets.tolist()
    # every group runs at least one round
    for g in iterations.nonzero()[0].tolist():
        reports[g].iterations, reports[g].converged = int(iterations[g]), not failed[g]
        reports[g].assignment_sizes = all_sizes[bounds[g] : bounds[g + 1]].tolist()
    int_edge, provenance = targets.int_edge, targets.provenance
    if int_edge is not None:
        int_edge = int_edge & ~moved_rows[:, None]
    if provenance is not None:
        provenance = np.where(moved_rows, PROVENANCE_CODES[PROVENANCE_CORRECTED], provenance)
        provenance = provenance.astype(np.int8)
    return replace(targets, boxes=boxes, int_edge=int_edge, provenance=provenance), moved_rows


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


# one image's targets and predictions
_Image = tuple[Sequence[Annotation], Sequence[Detection]]


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
