"""Desk-scale teacher-student surrogate for annotation refinement training.

A real training loop alternates between a teacher model producing predictions
and a student learning from refined targets. Here both are replaced by a
four-parameter simulated detector; the student's parameters respond directly
to the quality of the corrected targets and the teacher trails the student
through an exponential moving average, reproducing the feedback structure of
the full system at negligible cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import DEFAULT_SEED

# ``correct_targets`` and ``iou`` are not called here; they stay bound because
# bench/spans.py traces and counts calls through each module's own names
from .correction import CorrectionConfig, correct_sets, correct_targets  # noqa: F401
from .datamodel import (
    POINT_LABEL_MAX,
    Annotation,
    Dataset,
    Detection,
    annotation_set,
    set_detections,
)
from .evaluation import evaluate_ap50, mean_best_iou
from .geometry import BoxSet, best_iou, iou, row_sizes, spanning  # noqa: F401
from .noise import (
    NoiseConfig,
    SuperfluousConfig,
    check_image_sizes,
    constrain_corners,
    corrupt_dataset,
    derive_rngs,
)

__all__ = [
    "SimDetectorParams",
    "EmaState",
    "ema_update",
    "ImprovementSchedule",
    "DEFAULT_SCHEDULE",
    "LoopConfig",
    "Scenario",
    "IterationRecord",
    "TRUTH_MIN_SIDE",
    "TRUTH_MAX_SIDE",
    "check_truth_arg",
    "draw_predictions",
    "simulate_predictions",
    "synthesize_truth",
    "build_scenario",
    "run_loop",
]

# the side lengths of synthetic true boxes, in pixels
TRUTH_MIN_SIDE = 28.0
TRUTH_MAX_SIDE = 80.0


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
    truth = annotation_set([true_boxes])
    drawn = draw_predictions(truth, [(width, height)], [rng], params, num_classes)
    return set_detections(_score_predictions(drawn, truth, params))[0]


def draw_predictions(
    truth: BoxSet,
    sizes: Sequence[tuple[float, float]],
    rngs: Sequence[np.random.Generator],
    params: SimDetectorParams,
    num_classes: int,
) -> BoxSet:
    """The random part of :func:`simulate_predictions`, for every image of a set.

    Image g's true boxes are ``truth``'s, its size ``sizes[g]`` and its
    generator ``rngs[g]``. Each generator is drawn from in the per-box
    order of one image at a time, since a recall draw decides which draws
    follow; clipping to the image and widening (``noise.constrain_corners``)
    then run over all boxes at once. Every draw takes the same bits as the
    scalar ``uniform`` and ``normal`` calls of ``tests/oracles.py::draw_ref``:
    a uniform is ``low + (high - low) * random()``, numpy's own formula, and
    a jitter is ``0.0 + sigma * z`` for standard normals ``z``, which is
    what ``normal(0.0, sigma, 4)`` computes. Returns boxes, labels and int
    edges: a coordinate clipped to an ``int`` image bound is that bound.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    check_image_sizes(sizes)
    recall, sigma, fp_rate = params.recall, params.localization_sigma, params.fp_rate
    # spurious predictions reuse the superfluous-annotation size range
    low, high = SuperfluousConfig.min_side, SuperfluousConfig.max_side
    span = high - low
    # per drawn box: its true box's row, or -1 for a spurious one
    source: list[int] = []
    # the standard normals of dx1, dx2, dy1, dy2 of each jittered true box
    z = np.empty((len(truth), 4))
    n_jittered = 0
    spurious: list[float] = []  # corners of each spurious box
    spurious_labels: list[int] = []
    counts: list[int] = []
    bounds = truth.offsets.tolist()
    for g, ((width, height), rng) in enumerate(zip(sizes, rngs)):
        random, standard_normal, before = rng.random, rng.standard_normal, len(source)
        for row in range(bounds[g], bounds[g + 1]):
            if random() >= recall:
                continue
            # one call draws the same four values as four scalar calls
            standard_normal(out=z[n_jittered])
            n_jittered += 1
            source.append(row)
        for _ in range(int(rng.poisson(fp_rate))):
            w = low + span * random()
            h = low + span * random()
            cx = 0.0 + (width - 0.0) * random()
            cy = 0.0 + (height - 0.0) * random()
            spurious_labels.append(int(rng.integers(1, num_classes + 1)))
            source.append(-1)
            spurious += (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        counts.append(len(source) - before)

    d = 0.0 + sigma * z[:n_jittered]
    src = np.array(source, dtype=np.intp)
    jittered = src >= 0
    t = truth.boxes[src[jittered]]
    raw = np.empty((len(src), 4))
    # the jitter comes dx1, dx2, dy1, dy2
    raw[jittered] = spanning(
        t[:, 0] + d[:, 0], t[:, 1] + d[:, 2], t[:, 2] + d[:, 1], t[:, 3] + d[:, 3]
    )
    raw[~jittered] = np.array(spurious).reshape(-1, 4)
    labels = np.empty(len(src), dtype=np.int64)
    labels[jittered] = truth.labels[src[jittered]]
    labels[~jittered] = spurious_labels

    image = np.repeat(np.arange(len(counts)), counts)
    boxes, int_edge = constrain_corners(raw, *row_sizes(sizes, image))
    return BoxSet(
        boxes,
        np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
        labels=labels,
        int_edge=int_edge if int_edge.any() else None,
    )


def _score_predictions(drawn: BoxSet, truth: BoxSet, params: SimDetectorParams) -> BoxSet:
    """``drawn`` scored by each box's best IoU against the true boxes of its image:
    logit ``score_sharpness * (2q - 1)`` and its sigmoid."""
    quality, _ = best_iou(drawn, truth)
    logits = params.score_sharpness * (2.0 * quality - 1.0)
    # datamodel.sigmoid's two branches, both of exp(-|x|); math.exp per
    # value, as Detection.from_logit: np.exp rounds differently
    e = np.fromiter(map(math.exp, (-np.abs(logits)).tolist()), np.float64, len(logits))
    probs = np.where(logits >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return replace(drawn, logits=logits, probs=probs)


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
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    schedule: ImprovementSchedule = DEFAULT_SCHEDULE

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 <= self.keep_rate <= 1.0:
            raise ValueError(f"keep_rate must be in [0, 1], got {self.keep_rate}")


@dataclass
class Scenario:
    """A hidden truth plus the noisy targets the loop is allowed to see, in
    the truth's image order."""

    truth: Dataset
    targets: BoxSet


@dataclass
class IterationRecord:
    """One loop iteration: how good the targets and the teacher got."""

    iteration: int
    target_quality: float
    ap50: float
    mined: int


# the least value of each count argument of synthesize_truth
_TRUTH_MINIMA = {"num_images": 0, "boxes_per_image": 0, "num_classes": 1}


def check_truth_arg(name: str, value: object) -> None:
    """Raise ValueError unless ``value`` is an argument ``name`` that
    :func:`synthesize_truth` can draw from: a count no smaller than its
    minimum, a class count no larger than a point CSV's, or an image size
    that every synthetic true box fits."""
    if name == "image_size":
        if not all(map(math.isfinite, value)):
            raise ValueError(f"image_size must be finite, got {value[0]}x{value[1]}")
        if min(value) < TRUTH_MAX_SIDE:
            side = f"{TRUTH_MAX_SIDE:g}"
            raise ValueError(
                f"image_size must be at least {side}x{side}, the largest synthetic box, "
                f"got {value[0]}x{value[1]}"
            )
    elif value < _TRUTH_MINIMA[name]:
        raise ValueError(f"{name} must be at least {_TRUTH_MINIMA[name]}, got {value}")
    elif name == "num_classes" and value > POINT_LABEL_MAX:
        raise ValueError(f"{name} must be at most {POINT_LABEL_MAX}, got {value}")


def synthesize_truth(
    num_images: int = 8,
    boxes_per_image: int = 6,
    num_classes: int = 3,
    image_size: tuple[int, int] = (512, 512),
    seed: int = DEFAULT_SEED,
) -> Dataset:
    """Random ground truth: boxes fully inside the image, uniform labels.

    Raises:
        ValueError: if a count is negative, ``num_classes`` is not in [1,
            POINT_LABEL_MAX], or ``image_size`` is smaller than
            ``TRUTH_MAX_SIDE`` on a side.
    """
    for name, value in (("num_images", num_images), ("boxes_per_image", boxes_per_image),
                        ("num_classes", num_classes), ("image_size", image_size)):
        check_truth_arg(name, value)
    width, height = image_size
    image_ids = [f"img_{i:04d}" for i in range(num_images)]
    corners: list[float] = []
    labels: list[int] = []
    low, span = TRUTH_MIN_SIDE, TRUTH_MAX_SIDE - TRUTH_MIN_SIDE
    for rng in derive_rngs(seed, ("truth",), image_ids):
        random = rng.random
        for _ in range(boxes_per_image):
            # uniform's own formula, low + (high - low) * u, bit for bit
            w = low + span * random()
            h = low + span * random()
            hw, hh = w / 2.0, h / 2.0
            cx = hw + ((width - hw) - hw) * random()
            cy = hh + ((height - hh) - hh) * random()
            labels.append(int(rng.integers(1, num_classes + 1)))
            corners += (cx - hw, cy - hh, cx + hw, cy + hh)
    boxes = BoxSet(
        np.array(corners, dtype=np.float64).reshape(-1, 4),
        np.arange(num_images + 1, dtype=np.intp) * boxes_per_image,
        labels=np.array(labels, dtype=np.int64),
        provenance=np.zeros(len(labels), dtype=np.int8),
    )
    names = [f"class_{i}" for i in range(1, num_classes + 1)]
    return Dataset.from_columns(names, image_ids, [(width, height)] * num_images, boxes)


def build_scenario(truth: Dataset, noise_cfg: NoiseConfig) -> Scenario:
    """Corrupt the truth once to produce the targets the loop will refine."""
    corrupted, _ = corrupt_dataset(truth, noise_cfg)
    return Scenario(truth=truth, targets=corrupted.annotations)


def _hflip(s: BoxSet, widths: np.ndarray, flipped: np.ndarray) -> BoxSet:
    """``s`` with the boxes of the ``flipped`` images mirrored: x1 and x2
    become ``width - x2`` and ``width - x1``, floats; y stays as it is."""
    rows = flipped[s.image_index]
    w = widths[s.image_index][rows]
    boxes = s.boxes.copy()
    boxes[rows, 0] = w - s.boxes[rows, 2]
    boxes[rows, 2] = w - s.boxes[rows, 0]
    int_edge = s.int_edge
    if int_edge is not None:
        int_edge = int_edge.copy()
        int_edge[rows, 0::2] = False
    return replace(s, boxes=boxes, int_edge=int_edge)


def run_loop(
    scenario: Scenario,
    cfg: LoopConfig,
    hook: Callable[[int, BoxSet, BoxSet], None] | None = None,
) -> tuple[list[IterationRecord], BoxSet]:
    """Run the teacher-student refinement loop over a scenario.

    Per iteration and image: a weak view (random horizontal flip) is chosen,
    the teacher predicts on it, the noisy targets are refined against those
    predictions, and everything is mapped back to the original frame. Target
    quality (mean best IoU of refined targets to the hidden truth) drives the
    student, and the teacher follows by EMA.

    Every box set of an iteration (truth, targets, predictions, refined
    targets) is one ``BoxSet`` over all images: each iteration draws every
    image's predictions first, then scores, refines (``correct_sets``) and
    evaluates all images together. Every random draw comes from a substream
    keyed by (seed, iteration, image), and reduction order is fixed, so
    results do not depend on image order.

    A refined target that did not move (the moved mask of ``correct_sets``)
    keeps its exact original corners and int edges; only boxes the
    correction moved or mined go through view-transform round trips.
    ``hook``, when given, receives each iteration's refined targets and
    predictions, in the original frame.

    Returns the trace and the last iteration's refined targets: each image's
    targets in order, then its mined boxes, with provenance codes.
    """
    image_ids = scenario.truth.image_ids()
    seed = cfg.noise.seed
    truth, target_set = scenario.truth.annotations, scenario.targets
    sizes = scenario.truth.image_sizes()
    widths = np.array([float(width) for width, _ in sizes])
    start_vec = cfg.schedule.start.to_vector()
    state = EmaState(teacher=start_vec, student=start_vec, keep_rate=cfg.keep_rate)
    trace: list[IterationRecord] = []

    for it in range(cfg.iterations):
        teacher = SimDetectorParams.from_vector(state.teacher)
        rngs = derive_rngs(seed, ("loop", it), image_ids)
        # the flip is rng.integers(2), then a second integers(2) is drawn and
        # not used, which keeps every later draw. integers(2) is the top bit
        # of a 32-bit draw, and a fresh PCG64 serves two 32-bit draws from one
        # 64-bit output, low half first: the pair is one raw output, whose
        # bit 31 is the flip
        flipped = np.array(
            [rng.bit_generator.random_raw() >> 31 & 1 for rng in rngs], dtype=bool
        )
        truth_view = _hflip(truth, widths, flipped)
        drawn = draw_predictions(truth_view, sizes, rngs, teacher, scenario.truth.num_classes)
        preds_view = _score_predictions(drawn, truth_view, teacher)
        refined, moved, reports = correct_sets(
            _hflip(target_set, widths, flipped), preds_view, cfg.correction
        )
        refined = _hflip(refined, widths, flipped)
        # an unmoved target is its original row, not a round trip through the
        # view; target j of image g is row j of the image in either set
        (unmoved,) = (~moved).nonzero()
        image = target_set.image_index[unmoved]
        rows = refined.offsets[image] + unmoved - target_set.offsets[image]
        refined.boxes[rows] = target_set.boxes[unmoved]
        if target_set.int_edge is not None:
            refined.int_edge[rows] = target_set.int_edge[unmoved]
        preds = _hflip(preds_view, widths, flipped)
        quality, _ = mean_best_iou(refined, truth)
        ap50 = evaluate_ap50(truth, preds).map50
        if hook is not None:
            hook(it, refined, preds)
        trace.append(
            IterationRecord(
                iteration=it,
                target_quality=quality,
                ap50=ap50,
                mined=sum(report.mined for report in reports),
            )
        )
        student = cfg.schedule.at(quality)
        state = ema_update(replace(state, student=student.to_vector()))
    return trace, refined
