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
# ``iou`` is not called here; it stays bound because bench/spans.py counts
# scalar IoU calls through each module's own name
from .geometry import (  # noqa: F401
    Box,
    box_array,
    center_distance_matrix,
    giou_matrix,
    iou,
    iou_matrix,
    nms,
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
        """Pairwise distance: ``(N, 4)`` and ``(M, 4)`` corner arrays to ``(N, M)``.

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
    preds: Sequence[Detection],
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
        weights = _softmax([preds[pi].logit / cfg.temperature for pi in group])
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
    report = CorrectionReport(
        iterations=0, converged=True, assignment_sizes=[0] * len(targets)
    )
    if not targets or not preds:
        return list(targets), report
    distance = cfg.distance_matrix()
    target_boxes = box_array(t.box for t in targets)
    pred_boxes = box_array(p.box for p in preds)
    coords = pred_boxes.tolist()
    # Classes are corrected together, one distance matrix per round for the
    # whole image: a prediction only ever looks at targets of its own class.
    same_class = np.equal.outer([t.label for t in targets], [p.label for p in preds])
    dist: np.ndarray | None = distance(target_boxes, pred_boxes)
    # eligibility is pinned to the input boxes, not the moving working boxes
    eligible = dist <= cfg.distance_limit
    eligible &= same_class
    if cfg.fixed_size is not None:
        current = [_square_about(*_center(b), cfg.fixed_size) for b in target_boxes.tolist()]
        dist = None
    else:
        current = target_boxes.tolist()
    running: dict[int, list[int]] = {}
    target_labels = {t.label for t in targets}
    for j, p in enumerate(preds):
        if p.label in target_labels:
            running.setdefault(p.label, []).append(j)
    rounds = dict.fromkeys(running, 0)
    prev_picks: dict[int, list[int]] = {}
    columns = np.arange(len(preds))
    while running:
        if dist is None:
            dist = distance(np.array(current), pred_boxes)
        # argmin takes the first minimum: distance ties go to the lower target index
        nearest = np.where(same_class, dist, np.inf).argmin(axis=0)
        assign = np.where(eligible[nearest, columns], nearest, -1).tolist()
        changed = False
        for label, pred_ids in list(running.items()):
            picks = [assign[j] for j in pred_ids]
            if picks == prev_picks.get(label):
                converged = True
            elif rounds[label] >= cfg.max_iterations:
                converged = False
            else:
                moved = _update_class(current, picks, pred_ids, preds, coords, cfg)
                rounds[label] += 1
                prev_picks[label] = picks
                changed = changed or moved > 0.0
                if moved >= cfg.convergence_eps:
                    continue
                converged = True
            del running[label]
            for t in picks:
                if t >= 0:
                    report.assignment_sizes[t] += 1
            report.iterations = max(report.iterations, rounds[label])
            report.converged = report.converged and converged
        if changed:
            dist = None
    out: list[Annotation] = []
    for t, corners in zip(targets, current):
        b = Box(*corners)
        if b == t.box:
            out.append(t)
        else:
            out.append(replace(t, box=b, provenance=PROVENANCE_CORRECTED))
    return out, report


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
    confident = [p for p in preds if p.prob >= cfg.mining_threshold]
    survivors = nms(confident, cfg.mining_nms_iou)
    duplicates: set[int] = set()
    if survivors and targets:
        rows, cols = np.nonzero(
            iou_matrix(box_array(p.box for p in survivors), box_array(t.box for t in targets))
            > cfg.dedup_iou
        )
        duplicates = {
            k
            for k, t in zip(rows.tolist(), cols.tolist())
            if survivors[k].label == targets[t].label
        }
    mined = [
        Annotation(box=p.box, label=p.label, provenance=PROVENANCE_MINED)
        for k, p in enumerate(survivors)
        if k not in duplicates
    ]
    return list(targets) + mined


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
    cfg.validate()
    if cfg.distance_limit is not None:
        corrected, report = correct_boxes(targets, preds, cfg)
    else:
        corrected = list(targets)
        report = CorrectionReport(assignment_sizes=[0] * len(targets))
    if cfg.mining_threshold is not None:
        extended = mine_labels(corrected, preds, cfg)
        report.mined = len(extended) - len(corrected)
        corrected = extended
    return corrected, report
