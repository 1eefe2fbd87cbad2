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

:func:`correct_images` runs both stages over many images at once: the
pairwise steps of consecutive images share one padded numpy block (see
``geometry.image_chunks``). :func:`correct_targets`, :func:`correct_boxes`
and :func:`mine_labels` are its one-image cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .datamodel import (
    Annotation,
    Detection,
    PROVENANCE_CORRECTED,
    PROVENANCE_MINED,
)
# ``iou`` and ``nms`` are not called here; they stay bound because
# bench/spans.py counts scalar IoU calls and traces nms through each
# module's own names
from .geometry import (  # noqa: F401
    Box,
    center_distance_matrix,
    giou_matrix,
    grouped_nms,
    image_chunks,
    iou,
    iou_matrix,
    nms,
    pad_stack,
    stack_boxes,
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

    def validate(self) -> None:
        if self.distance not in _DISTANCES:
            raise ConfigError(
                f"unknown distance {self.distance!r}; valid: {list(_DISTANCES)}"
            )
        if self.distance == DISTANCE_CENTER and (
            self.center_norm is None or self.center_norm <= 0.0
        ):
            raise ConfigError(
                "center-normalized distance requires a positive center_norm"
            )
        if self.distance_limit is not None and self.distance_limit <= 0.0:
            raise ConfigError(
                f"distance_limit must be positive, got {self.distance_limit}"
            )
        if self.temperature <= 0.0:
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
        if self.convergence_eps < 0.0:
            raise ConfigError(
                f"convergence_eps must be >= 0, got {self.convergence_eps}"
            )
        if self.fixed_size is not None and self.fixed_size <= 0.0:
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
        if norm is None or norm <= 0.0:
            raise ConfigError(
                "center-normalized distance requires a positive center_norm"
            )
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
    images: Sequence[_Image], reports: Sequence[CorrectionReport], cfg: CorrectionConfig
) -> list[list[Annotation]]:
    """Box correction of images that all have targets and predictions.

    The images share one padded block per round: row c, t, j of the distance
    stack pairs target t and prediction j of image c. Classes of an image are
    corrected together; a prediction only ever looks at targets of its own
    class and image, so every (image, class) group stops on its own.
    """
    distance = cfg.distance_matrix()
    target_boxes = stack_boxes([[t.box for t in targets] for targets, _ in images])
    pred_boxes = stack_boxes([[p.box for p in preds] for _, preds in images])
    n, width, p_width = pred_boxes.shape[0], target_boxes.shape[1], pred_boxes.shape[1]
    # padding is labelled 0 among targets and -1 among predictions, so no
    # pair with a padding row is of the same class: the class mask, not the
    # padding's distance, keeps padding out
    same_class = (
        pad_stack([[t.label for t in targets] for targets, _ in images], 0)[:, :, None]
        == pad_stack([[p.label for p in preds] for _, preds in images], -1)[:, None, :]
    )
    dist: np.ndarray | None = distance(target_boxes, pred_boxes)
    # eligibility is pinned to the input boxes, not the moving working boxes
    eligible = dist <= cfg.distance_limit
    eligible &= same_class
    # targets and predictions by flat index: image c's row t is c * width + t
    coords = pred_boxes.reshape(-1, 4).tolist()
    logits = [0.0] * len(coords)
    for c, (_, preds) in enumerate(images):
        logits[c * p_width : c * p_width + len(preds)] = [p.logit for p in preds]
    if cfg.fixed_size is not None:
        current = [
            _square_about(*_center(b), cfg.fixed_size)
            for b in target_boxes.reshape(-1, 4).tolist()
        ]
        dist = None
    else:
        current = target_boxes.reshape(-1, 4).tolist()
    running: dict[tuple[int, int], list[int]] = {}
    for c, (group, group_preds) in enumerate(images):
        target_labels = {t.label for t in group}
        for j, p in enumerate(group_preds):
            if p.label in target_labels:
                running.setdefault((c, p.label), []).append(c * p_width + j)
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
            report = reports[key[0]]
            base = key[0] * width
            for t in picks:
                if t >= 0:
                    report.assignment_sizes[t - base] += 1
            report.iterations = max(report.iterations, rounds[key])
            report.converged = report.converged and converged
        if changed:
            dist = None
    out: list[list[Annotation]] = []
    for c, (group, _) in enumerate(images):
        anns: list[Annotation] = []
        for t, corners in zip(group, current[c * width : c * width + len(group)]):
            b = Box(*corners)
            if b == t.box:
                anns.append(t)
            else:
                anns.append(replace(t, box=b, provenance=PROVENANCE_CORRECTED))
        out.append(anns)
    return out


def _untouched(targets: Sequence[Annotation]) -> tuple[list[Annotation], CorrectionReport]:
    return list(targets), CorrectionReport(assignment_sizes=[0] * len(targets))


def _correct_stage(
    images: Sequence[_Image], cfg: CorrectionConfig
) -> list[tuple[list[Annotation], CorrectionReport]]:
    """Box correction of every image, in chunks of :func:`image_chunks`.

    An image without targets or without predictions comes back unchanged.
    """
    results = [_untouched(targets) for targets, _ in images]
    todo = [k for k, (targets, preds) in enumerate(images) if targets and preds]
    rows = [len(images[k][0]) for k in todo]
    cols = [len(images[k][1]) for k in todo]
    for chunk in image_chunks(rows, cols):
        ks = [todo[i] for i in chunk]
        corrected = _correct_chunk(
            [images[k] for k in ks], [results[k][1] for k in ks], cfg
        )
        for k, anns in zip(ks, corrected):
            results[k] = (anns, results[k][1])
    return results


def _mine_stage(images: Sequence[_Image], cfg: CorrectionConfig) -> list[list[Annotation]]:
    """Label mining of every image: its targets followed by its mined boxes."""
    survivors = grouped_nms(
        [[p for p in preds if p.prob >= cfg.mining_threshold] for _, preds in images],
        cfg.mining_nms_iou,
    )
    duplicates: dict[int, set[int]] = {}
    todo = [k for k, (targets, _) in enumerate(images) if survivors[k] and targets]
    rows = [len(survivors[k]) for k in todo]
    cols = [len(images[k][0]) for k in todo]
    for chunk in image_chunks(rows, cols):
        ks = [todo[i] for i in chunk]
        overlap = iou_matrix(
            stack_boxes([[p.box for p in survivors[k]] for k in ks]),
            stack_boxes([[t.box for t in images[k][0]] for k in ks]),
        )
        hits = np.nonzero(overlap > cfg.dedup_iou)
        for c, r, t in zip(*(axis.tolist() for axis in hits)):
            found, targets = survivors[ks[c]], images[ks[c]][0]
            # padding rows and columns are skipped here, whatever their overlap
            if r < len(found) and t < len(targets) and found[r].label == targets[t].label:
                duplicates.setdefault(ks[c], set()).add(r)
    return [
        list(targets)
        + [
            Annotation(box=p.box, label=p.label, provenance=PROVENANCE_MINED)
            for r, p in enumerate(found)
            if r not in duplicates.get(k, ())
        ]
        for k, ((targets, _), found) in enumerate(zip(images, survivors))
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
        ConfigError: if ``cfg`` is invalid or has no ``distance_limit``.
    """
    cfg.validate()
    if cfg.distance_limit is None:
        raise ConfigError("box correction requires a distance_limit")
    return _correct_stage([(targets, preds)], cfg)[0]


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
        ConfigError: if ``cfg`` is invalid or has no ``mining_threshold``.
    """
    cfg.validate()
    if cfg.mining_threshold is None:
        raise ConfigError("label mining requires a mining_threshold")
    return _mine_stage([(targets, preds)], cfg)[0]


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

    The result of each image equals a :func:`correct_targets` call on it
    alone; consecutive images share their numpy calls.
    """
    cfg.validate()
    if cfg.distance_limit is not None:
        results = _correct_stage(images, cfg)
    else:
        results = [_untouched(targets) for targets, _ in images]
    if cfg.mining_threshold is not None:
        extended = _mine_stage(
            [(anns, preds) for (anns, _), (_, preds) in zip(results, images)], cfg
        )
        for (anns, report), ext in zip(results, extended):
            report.mined = len(ext) - len(anns)
        results = [(ext, report) for ext, (_, report) in zip(extended, results)]
    return results
