"""Desk-scale teacher-student surrogate for annotation refinement training.

A real training loop alternates between a teacher model producing predictions
and a student learning from refined targets. Here both are replaced by a
four-parameter simulated detector; the student's parameters respond directly
to the quality of the corrected targets and the teacher trails the student
through an exponential moving average, reproducing the feedback structure of
the full system at negligible cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

# ``correct_targets`` and ``iou`` are not called here; they stay bound because
# bench/spans.py traces and counts calls through each module's own names
from .correction import CorrectionConfig, correct_images, correct_targets  # noqa: F401
from .datamodel import Annotation, Dataset, Detection, ImageRecord
from .evaluation import evaluate_ap50, mean_best_iou
from .geometry import (  # noqa: F401
    Box,
    GeoTransform,
    apply_transform,
    image_chunks,
    iou,
    iou_matrix,
    stack_boxes,
)
from .noise import NoiseConfig, constrain_box, corrupt_dataset, derive_rng

__all__ = [
    "SimDetectorParams",
    "EmaState",
    "ema_update",
    "ImprovementSchedule",
    "DEFAULT_SCHEDULE",
    "LoopConfig",
    "Scenario",
    "IterationRecord",
    "simulate_predictions",
    "synthesize_truth",
    "build_scenario",
    "run_loop",
]

# spurious predictions reuse the superfluous-annotation size range
SPURIOUS_MIN_SIDE = 16.0
SPURIOUS_MAX_SIDE = 196.0


@dataclass(frozen=True)
class SimDetectorParams:
    """The simulated detector, reduced to four interpretable parameters.

    ``localization_sigma`` is the per-coordinate Gaussian jitter in pixels,
    ``recall`` the chance of predicting each true object, ``fp_rate`` the
    expected number of spurious boxes per image, and ``score_sharpness``
    scales confidence: a prediction overlapping truth with IoU q receives
    logit ``score_sharpness * (2q - 1)``.
    """

    localization_sigma: float
    recall: float
    fp_rate: float
    score_sharpness: float

    def __post_init__(self) -> None:
        if self.localization_sigma < 0.0:
            raise ValueError(
                f"localization_sigma must be >= 0, got {self.localization_sigma}"
            )
        if not 0.0 <= self.recall <= 1.0:
            raise ValueError(f"recall must be in [0, 1], got {self.recall}")
        if self.fp_rate < 0.0:
            raise ValueError(f"fp_rate must be >= 0, got {self.fp_rate}")
        if self.score_sharpness <= 0.0:
            raise ValueError(
                f"score_sharpness must be > 0, got {self.score_sharpness}"
            )

    def to_vector(self) -> tuple[float, ...]:
        return (self.localization_sigma, self.recall, self.fp_rate, self.score_sharpness)

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "SimDetectorParams":
        if len(vec) != 4:
            raise ValueError(f"expected 4 parameters, got {len(vec)}")
        return cls(*vec)


def simulate_predictions(
    true_boxes: Sequence[Annotation],
    params: SimDetectorParams,
    rng: np.random.Generator,
    width: float,
    height: float,
    num_classes: int,
) -> list[Detection]:
    """Draw one image's worth of predictions from the simulated detector.

    Each true box is emitted with probability ``recall``, its coordinates
    independently jittered by ``localization_sigma``; Poisson(``fp_rate``)
    spurious boxes are added with uniform size, position, and label. Every
    prediction is scored by its best IoU against the true boxes, so with zero
    jitter and full recall the output reproduces the truth with probability
    above one half.
    """
    drawn = _draw_predictions(true_boxes, params, rng, width, height, num_classes)
    return _score_predictions([drawn], [true_boxes], params)[0]


def _draw_predictions(
    true_boxes: Sequence[Annotation],
    params: SimDetectorParams,
    rng: np.random.Generator,
    width: float,
    height: float,
    num_classes: int,
) -> list[tuple[Box, int]]:
    """The random part of :func:`simulate_predictions`: boxes and labels."""
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    boxes: list[tuple[Box, int]] = []
    for ann in true_boxes:
        if rng.random() >= params.recall:
            continue
        b = ann.box
        # one call draws the same four values as four scalar calls
        dx1, dx2, dy1, dy2 = rng.normal(0.0, params.localization_sigma, 4).tolist()
        jittered = Box.spanning(b.x1 + dx1, b.y1 + dy1, b.x2 + dx2, b.y2 + dy2)
        boxes.append((constrain_box(jittered, width, height), ann.label))
    for _ in range(int(rng.poisson(params.fp_rate))):
        w = rng.uniform(SPURIOUS_MIN_SIDE, SPURIOUS_MAX_SIDE)
        h = rng.uniform(SPURIOUS_MIN_SIDE, SPURIOUS_MAX_SIDE)
        cx = rng.uniform(0.0, width)
        cy = rng.uniform(0.0, height)
        label = int(rng.integers(1, num_classes + 1))
        spurious = Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        boxes.append((constrain_box(spurious, width, height), label))
    return boxes


def _score_predictions(
    drawn: Sequence[Sequence[tuple[Box, int]]],
    truths: Sequence[Sequence[Annotation]],
    params: SimDetectorParams,
) -> list[list[Detection]]:
    """Score each image's drawn boxes by their best IoU against its true boxes.

    Consecutive images share one padded IoU block (``image_chunks``).
    """
    out: list[list[Detection]] = []
    rows = [len(d) for d in drawn]
    cols = [len(t) for t in truths]
    for chunk in image_chunks(rows, cols):
        overlap = iou_matrix(
            stack_boxes([[box for box, _ in drawn[k]] for k in chunk]),
            stack_boxes([[t.box for t in truths[k]] for k in chunk]),
        )
        # padding columns are masked out of the maximum
        real = np.arange(overlap.shape[2]) < np.array([cols[k] for k in chunk])[:, None]
        quality = overlap.max(axis=2, initial=0.0, where=real[:, None, :]).tolist()
        for k, qs in zip(chunk, quality):
            out.append(
                [
                    Detection.from_logit(
                        box=box, label=label, logit=params.score_sharpness * (2.0 * q - 1.0)
                    )
                    for (box, label), q in zip(drawn[k], qs)
                ]
            )
    return out


@dataclass(frozen=True)
class EmaState:
    """Teacher and student parameter vectors coupled by an EMA.

    ``keep_rate`` is the fraction of the old teacher retained per update;
    the remainder comes from the student.
    """

    teacher: tuple[float, ...]
    student: tuple[float, ...]
    keep_rate: float

    def __post_init__(self) -> None:
        if len(self.teacher) != len(self.student):
            raise ValueError(
                f"teacher and student lengths differ: "
                f"{len(self.teacher)} vs {len(self.student)}"
            )
        if not 0.0 <= self.keep_rate <= 1.0:
            raise ValueError(f"keep_rate must be in [0, 1], got {self.keep_rate}")


def ema_update(state: EmaState) -> EmaState:
    """One EMA step: teacher <- keep_rate * teacher + (1 - keep_rate) * student."""
    a = state.keep_rate
    teacher = tuple(a * t + (1.0 - a) * s for t, s in zip(state.teacher, state.student))
    return replace(state, teacher=teacher)


@dataclass(frozen=True)
class ImprovementSchedule:
    """How student quality maps to detector parameters.

    The student interpolates linearly between ``start`` and ``oracle`` as the
    measured target quality goes from 0 to 1: better training targets make a
    better detector.
    """

    start: SimDetectorParams
    oracle: SimDetectorParams

    def at(self, quality: float) -> SimDetectorParams:
        q = min(max(quality, 0.0), 1.0)
        vec = tuple(
            (1.0 - q) * a + q * b
            for a, b in zip(self.start.to_vector(), self.oracle.to_vector())
        )
        return SimDetectorParams.from_vector(vec)


DEFAULT_SCHEDULE = ImprovementSchedule(
    start=SimDetectorParams(
        localization_sigma=8.0, recall=0.65, fp_rate=1.0, score_sharpness=3.0
    ),
    oracle=SimDetectorParams(
        localization_sigma=0.75, recall=0.98, fp_rate=0.1, score_sharpness=8.0
    ),
)


@dataclass(frozen=True)
class LoopConfig:
    """Everything :func:`run_loop` needs besides the scenario itself."""

    iterations: int = 15
    keep_rate: float = 0.95
    correction: CorrectionConfig = field(
        default_factory=lambda: CorrectionConfig(
            distance_limit=0.6, mining_threshold=0.8
        )
    )
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    schedule: ImprovementSchedule = DEFAULT_SCHEDULE

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 <= self.keep_rate <= 1.0:
            raise ValueError(f"keep_rate must be in [0, 1], got {self.keep_rate}")


@dataclass
class Scenario:
    """A hidden truth plus the noisy targets the loop is allowed to see."""

    truth: Dataset
    targets: dict[str, list[Annotation]]


@dataclass
class IterationRecord:
    """One loop iteration: how good the targets and the teacher got."""

    iteration: int
    target_quality: float
    ap50: float
    mined: int


def synthesize_truth(
    num_images: int = 8,
    boxes_per_image: int = 6,
    num_classes: int = 3,
    image_size: tuple[int, int] = (512, 512),
    seed: int = 0,
) -> Dataset:
    """Random ground truth: boxes fully inside the image, uniform labels."""
    width, height = image_size
    images: list[ImageRecord] = []
    for i in range(num_images):
        image_id = f"img_{i:04d}"
        rng = derive_rng(seed, "truth", image_id)
        anns: list[Annotation] = []
        for _ in range(boxes_per_image):
            w = rng.uniform(28.0, 80.0)
            h = rng.uniform(28.0, 80.0)
            cx = rng.uniform(w / 2.0, width - w / 2.0)
            cy = rng.uniform(h / 2.0, height - h / 2.0)
            label = int(rng.integers(1, num_classes + 1))
            anns.append(
                Annotation(
                    box=Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0),
                    label=label,
                )
            )
        images.append(
            ImageRecord(image_id=image_id, width=width, height=height, annotations=anns)
        )
    names = [f"class_{i}" for i in range(1, num_classes + 1)]
    return Dataset(class_names=names, images=images)


def build_scenario(truth: Dataset, noise_cfg: NoiseConfig) -> Scenario:
    """Corrupt the truth once to produce the targets the loop will refine."""
    corrupted, _ = corrupt_dataset(truth, noise_cfg)
    return Scenario(
        truth=truth,
        targets={rec.image_id: list(rec.annotations) for rec in corrupted.images},
    )


def _flip_annotations(
    anns: Sequence[Annotation], t: GeoTransform
) -> list[Annotation]:
    return [Annotation(apply_transform(t, a.box), a.label, a.provenance) for a in anns]


def run_loop(
    scenario: Scenario,
    cfg: LoopConfig,
    hook: Callable[
        [int, dict[str, list[Annotation]], dict[str, list[Detection]]], None
    ]
    | None = None,
) -> list[IterationRecord]:
    """Run the teacher-student refinement loop over a scenario.

    Per iteration and image: a weak view (random horizontal flip) is chosen,
    the teacher predicts on it, the noisy targets are refined against those
    predictions, and everything is mapped back to the original frame. Target
    quality (mean best IoU of refined targets to the hidden truth) drives the
    student, and the teacher follows by EMA.

    Each iteration draws every image's predictions first, then scores and
    refines all images together (``correct_images``). Every random draw
    comes from a substream keyed by (seed, iteration, image), and reduction
    order is fixed, so results do not depend on image order. ``hook``, when
    given, receives each iteration's refined targets and predictions per
    image.

    Targets with untouched boxes keep their exact original coordinates; only
    boxes the correction actually moved go through view-transform round
    trips.
    """
    num_classes = scenario.truth.num_classes
    seed = cfg.noise.seed
    images = scenario.truth.images
    truth_boxes = {rec.image_id: [a.box for a in rec.annotations] for rec in images}
    # the flipped views never change: build them once, not once per iteration
    flips = [GeoTransform.hflip(float(rec.width)) for rec in images]
    targets = [scenario.targets[rec.image_id] for rec in images]
    flipped_truth = [_flip_annotations(rec.annotations, t) for rec, t in zip(images, flips)]
    flipped_targets = [_flip_annotations(anns, t) for anns, t in zip(targets, flips)]
    start_vec = cfg.schedule.start.to_vector()
    state = EmaState(teacher=start_vec, student=start_vec, keep_rate=cfg.keep_rate)
    trace: list[IterationRecord] = []

    for it in range(cfg.iterations):
        teacher = SimDetectorParams.from_vector(state.teacher)
        weak_flips: list[bool] = []
        truth_views: list[Sequence[Annotation]] = []
        drawn: list[list[tuple[Box, int]]] = []
        for k, rec in enumerate(images):
            rng = derive_rng(seed, "loop", it, rec.image_id)
            weak_flips.append(bool(rng.integers(2)))
            # value unused: the draw keeps this substream's later draws, and every output
            rng.integers(2)
            truth_views.append(flipped_truth[k] if weak_flips[-1] else rec.annotations)
            drawn.append(
                _draw_predictions(
                    truth_views[-1], teacher, rng, rec.width, rec.height, num_classes
                )
            )
        preds_views = _score_predictions(drawn, truth_views, teacher)
        targets_views = [
            flipped_targets[k] if weak else targets[k] for k, weak in enumerate(weak_flips)
        ]
        results = correct_images(list(zip(targets_views, preds_views)), cfg.correction)
        corrected_by_image: dict[str, list[Annotation]] = {}
        preds_by_image: dict[str, list[Detection]] = {}
        mined = 0
        for k, rec in enumerate(images):
            corrected_view, report = results[k]
            weak = flips[k] if weak_flips[k] else None
            targets_view = targets_views[k]
            corrected: list[Annotation] = []
            for j, ann in enumerate(corrected_view):
                if j < len(targets_view) and ann is targets_view[j]:
                    corrected.append(targets[k][j])
                elif weak:
                    corrected.append(
                        Annotation(apply_transform(weak, ann.box), ann.label, ann.provenance)
                    )
                else:
                    corrected.append(ann)
            corrected_by_image[rec.image_id] = corrected
            preds_by_image[rec.image_id] = (
                [
                    Detection(apply_transform(weak, p.box), p.label, p.prob, p.logit)
                    for p in preds_views[k]
                ]
                if weak
                else preds_views[k]
            )
            mined += report.mined
        quality, _ = mean_best_iou(
            {
                image_id: [a.box for a in anns]
                for image_id, anns in corrected_by_image.items()
            },
            truth_boxes,
        )
        ap50 = evaluate_ap50(scenario.truth, preds_by_image).map50
        if hook is not None:
            hook(it, corrected_by_image, preds_by_image)
        trace.append(
            IterationRecord(
                iteration=it, target_quality=quality, ap50=ap50, mined=mined
            )
        )
        student = cfg.schedule.at(quality)
        state = ema_update(replace(state, student=student.to_vector()))
    return trace
