"""Synthetic annotation corruption: displacement, sparsification, superfluous boxes.

Every draw is a uniform of a keyed stream (module ``streams``).
:func:`corrupt_dataset` names one stream per (seed, operation, image) and
gives each box fixed draw slots in it, so each operation is one array
expression over every image, and an image's result does not depend on which
other images the dataset holds or in what order. The record-level functions
take a caller's numpy ``Generator`` instead, whose ``random(n)`` fills the
same slots, and apply the same variates to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import DEFAULT_SEED, SPARSITY_EXTREME
from .datamodel import Annotation, Dataset, ImageRecord, annotation_set, set_annotations
from .geometry import BoxSet, clip_values, row_sizes, spanning
from .streams import binomials, draws, integers, stream_keys, uniforms

__all__ = [
    "SPARSITY_EXTREME", "MIN_BOX_SIDE", "MAX_TRIALS", "SuperfluousConfig", "NoiseConfig",
    "constrain_corners", "random_boxes", "displace_boxes", "sparsify", "inject_superfluous",
    "corrupt_dataset",
]

# a displaced or simulated box never ends up thinner than this, in pixels
MIN_BOX_SIDE = 1.0

# the most superfluous-box trials per image: each is a draw of every image
MAX_TRIALS = 10_000


@dataclass(frozen=True)
class SuperfluousConfig:
    """Parameters of superfluous-box injection.

    Per image the number of added boxes is Binomial(trials, success); each
    box gets independent uniform side lengths in [min_side, max_side], a
    uniform center inside the image, and a uniform class label.
    """

    trials: int = 10
    success: float = 0.5
    min_side: float = 16.0
    max_side: float = 196.0

    def __post_init__(self) -> None:
        if not 0 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be in [0, {MAX_TRIALS}], got {self.trials}")
        if not 0.0 <= self.success <= 1.0:
            raise ValueError(f"success must be in [0, 1], got {self.success}")
        for name in ("min_side", "max_side"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.min_side <= self.max_side:
            raise ValueError(
                f"need 0 < min_side <= max_side, got {self.min_side}, {self.max_side}"
            )


@dataclass(frozen=True)
class NoiseConfig:
    """A complete corruption recipe applied by :func:`corrupt_dataset`.

    ``box_noise`` is the displacement fraction of each box's own size;
    ``sparsity`` is either a fraction of annotations to remove dataset-wide
    or the string ``"extreme"`` to keep exactly one annotation per image.
    """

    box_noise: float = 0.0
    sparsity: float | str = 0.0
    superfluous: SuperfluousConfig | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.box_noise < 0.0:
            raise ValueError(f"box_noise must be >= 0, got {self.box_noise}")
        if isinstance(self.sparsity, str):
            if self.sparsity != SPARSITY_EXTREME:
                raise ValueError(
                    f"sparsity must be a fraction or {SPARSITY_EXTREME!r}, "
                    f"got {self.sparsity!r}"
                )
        elif not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


def constrain_corners(
    corners: np.ndarray, sizes: np.ndarray, int_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clip every row of ``(N, 4)`` ``corners`` to its image, as ``Box.clip``,
    and widen spans narrower than ``MIN_BOX_SIDE`` about their centers; a
    span that would then cross 0 or the image bound ends on it instead.

    Row k belongs to an image of ``sizes[k]`` (width, height), and
    ``int_sizes[k]`` says which of the two is an ``int``. Returns the
    corners and the int-edge mask: true where a coordinate ends on an
    ``int`` bound, which is then that ``int``.
    """
    boxes = np.empty_like(corners)
    int_edge = np.empty(corners.shape, dtype=bool)
    for axis in (0, 1):
        limit, int_limit = sizes[:, axis], int_sizes[:, axis]
        lo, _, lo_int = clip_values(corners[:, axis], limit)
        hi, _, hi_int = clip_values(corners[:, axis + 2], limit)
        # the spans narrower than MIN_BOX_SIDE grow about their centers, and
        # one that would cross 0 or the limit ends on it instead
        wide = hi - lo >= MIN_BOX_SIDE
        c = (lo + hi) / 2.0
        lo2, hi2 = c - MIN_BOX_SIDE / 2.0, c + MIN_BOX_SIDE / 2.0
        low = ~wide & (lo2 < 0.0)
        high = ~wide & ~low & (hi2 > limit)
        # low: (0.0, min(MIN_BOX_SIDE, limit)); high: (max(limit - MIN_BOX_SIDE, 0.0), limit)
        low_hi = np.where(limit < MIN_BOX_SIDE, limit, MIN_BOX_SIDE)
        high_lo = np.where(0.0 > limit - MIN_BOX_SIDE, 0.0, limit - MIN_BOX_SIDE)
        boxes[:, axis] = np.select([wide, low, high], [lo, 0.0, high_lo], lo2)
        boxes[:, axis + 2] = np.select([wide, low, high], [hi, low_hi, limit], hi2)
        int_edge[:, axis] = wide & lo_int & int_limit
        int_edge[:, axis + 2] = int_limit & (
            (wide & hi_int) | (low & (limit < MIN_BOX_SIDE)) | high
        )
    return boxes, int_edge


def _displaced(
    s: BoxSet,
    box_noise: float,
    sizes: Sequence[tuple[float, float]],
    u: np.ndarray,
    image_ids: Sequence[object] | None = None,
) -> BoxSet:
    """The boxes of ``s`` displaced by the uniforms ``u``, a row of four per
    box, and clipped to their images' ``sizes``.

    Each box's x1 and x2 move by uniform draws from [-w * box_noise,
    w * box_noise], w its width, and y1 and y2 alike with its height, from
    the box's x1, x2, y1, y2 uniforms by ``low + (high - low) * u``. Crossed
    corners swap, and :func:`constrain_corners` clips and widens the result.
    Where ``high - low`` is past the float range, raises ValueError, which
    names the first such box's image where ``image_ids`` are given.
    """
    b = s.boxes
    # a span past the largest float is inf, which is refused below
    with np.errstate(over="ignore"):
        dx = (b[:, 2] - b[:, 0]) * box_noise
        dy = (b[:, 3] - b[:, 1]) * box_noise
        spans = np.stack([dx, dx, dy, dy], axis=1)
        scale = spans - -spans
    wild = np.flatnonzero(~np.isfinite(scale).all(axis=1))
    if len(wild):
        where = "" if image_ids is None else f"image {image_ids[s.image_index[wild[0]]]!r}: "
        raise ValueError(
            f"{where}box displacement range exceeds the float range at box_noise {box_noise}"
        )
    d = -spans + scale * u
    # the offsets come x1, x2, y1, y2; a corner moved past the largest float
    # is inf and clips to the image
    with np.errstate(over="ignore"):
        raw = spanning(b[:, 0] + d[:, 0], b[:, 1] + d[:, 2], b[:, 2] + d[:, 1], b[:, 3] + d[:, 3])
    boxes, int_edge = constrain_corners(raw, *row_sizes(sizes, s.image_index))
    return replace(s, boxes=boxes, int_edge=int_edge if int_edge.any() else None)


def displace_boxes(
    anns: Sequence[Annotation],
    box_noise: float,
    image_size: tuple[float, float],
    rng: np.random.Generator,
) -> list[Annotation]:
    """Perturb each coordinate independently by up to its box-size fraction.

    x1 and x2 each move by a uniform draw from [-w * box_noise, +w * box_noise]
    where w is the box's own width; y1 and y2 analogously with the height.
    The uniforms are ``rng.random((len(anns), 4))``, x1, x2, y1, y2 per box.
    Crossed corners are re-canonicalised, the result is clipped to the image
    and kept at least ``MIN_BOX_SIDE`` wide. ``box_noise`` 0 returns boxes
    bit-identical to the input. A box whose displacement range is past the
    float range raises ValueError.
    """
    if box_noise < 0.0:
        raise ValueError(f"box_noise must be >= 0, got {box_noise}")
    u = rng.random((len(anns), 4))
    return set_annotations(_displaced(annotation_set([anns]), box_noise, [image_size], u))[0]


def _survivors(u: np.ndarray, fraction: float) -> np.ndarray:
    """The rows, in order, that removing round(fraction * len(u)) rows
    uniformly at random keeps, half rounded away from zero (5 rows at 0.5
    lose 3): the rows of the smallest uniforms ``u`` go, ties to the earlier."""
    keep = np.ones(len(u), dtype=bool)
    keep[np.argsort(u, kind="stable")[: int(math.floor(len(u) * fraction + 0.5))]] = False
    return np.flatnonzero(keep)


def sparsify(
    anns: Sequence[Annotation],
    sparsity: float | str,
    rng: np.random.Generator,
) -> list[Annotation]:
    """Remove annotations uniformly at random, preserving order.

    A fractional ``sparsity`` removes exactly round(fraction * len(anns))
    annotations, half rounded away from zero: those of the smallest of
    ``rng.random(len(anns))``. ``"extreme"`` keeps exactly one annotation,
    drawn from ``rng.random(1)`` (none if the input is empty).
    """
    total = len(anns)
    if sparsity == SPARSITY_EXTREME:
        keep = integers(total, rng.random(1)) if total else []
    elif not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    else:
        keep = _survivors(rng.random(total), sparsity)
    return [anns[i] for i in keep]


def random_boxes(
    sizes: Sequence[tuple[float, float]],
    counts: np.ndarray,
    u: np.ndarray,
    sides: tuple[float, float],
    num_classes: int,
) -> BoxSet:
    """``counts[g]`` boxes in each image g of ``sizes``, from the uniforms
    ``u``, a row of five per box: width and height uniform in ``sides``,
    centre x and y uniform in the image, and a label uniform in 1 ..
    ``num_classes``; unclipped, provenance ``original``. Raises ValueError
    unless every image size is finite (a uniform centre in an infinite
    image has no value) and, given an image, ``num_classes`` is positive."""
    if sizes and num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    for width, height in sizes:
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError(f"image size must be finite, got {width}x{height}")
    image = np.repeat(np.arange(len(counts)), counts)
    size = np.array(sizes, dtype=np.float64).reshape(-1, 2)[image]
    low, span = sides[0], sides[1] - sides[0]
    # uniform's formula, low + (high - low) * u
    w = low + span * u[:, 0]
    h = low + span * u[:, 1]
    cx = size[:, 0] * u[:, 2]
    cy = size[:, 1] * u[:, 3]
    return BoxSet(
        np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1),
        np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
        labels=1 + integers(num_classes, u[:, 4]),
        provenance=np.zeros(len(image), dtype=np.int8),
    )


def inject_superfluous(
    record: ImageRecord,
    cfg: SuperfluousConfig,
    num_classes: int,
    rng: np.random.Generator,
) -> list[Annotation]:
    """Existing annotations plus freshly sampled superfluous boxes.

    Binomial(trials, success) boxes are added: as many of
    ``rng.random(cfg.trials)`` as fall below ``success``, and then a row of
    ``rng.random((count, 5))`` for each box. The additions carry
    ``original`` provenance: downstream consumers cannot tell them from
    genuine labels, which is the point.
    """
    count = int((rng.random(cfg.trials) < cfg.success).sum())
    size = [(record.width, record.height)]
    sides = (cfg.min_side, cfg.max_side)
    added = random_boxes(size, [count], rng.random((count, 5)), sides, num_classes).clip(size)
    return list(record.annotations) + set_annotations(added)[0]


def corrupt_dataset(dataset: Dataset, cfg: NoiseConfig) -> tuple[Dataset, dict]:
    """Apply displacement, sparsification, and injection to a whole dataset.

    Operations run in that order, each from its own streams:
    - displacement: stream ``("displace", image)``, draws 4j .. 4j + 3 for
      box j of the image (x1, x2, y1, y2);
    - fractional sparsification removes an exact dataset-wide count, the
      rows of the smallest draws of stream ``("sparsify",)``, one draw per
      row; ``"extreme"`` keeps the row that draw 0 of stream
      ``("sparsify", image)`` picks;
    - injection: Binomial(trials, success) boxes, draws 0 .. trials - 1 of
      stream ``("superfluous", image)`` compared with ``success``; box k
      takes draws 5k .. 5k + 4 of stream ``("superfluous-box", image)``.

    Returns the corrupted dataset and a summary dict of counts.
    """
    seed = cfg.seed
    image_ids, sizes = dataset.image_ids(), dataset.image_sizes()
    anns = before = dataset.annotations
    if cfg.box_noise > 0.0:
        u = draws(stream_keys(seed, ("displace",), image_ids), anns.counts, 4)
        anns = _displaced(anns, cfg.box_noise, sizes, u, image_ids)

    if cfg.sparsity == SPARSITY_EXTREME:
        (some,) = anns.counts.nonzero()
        u = uniforms(stream_keys(seed, ("sparsify",), [image_ids[g] for g in some]), 0)
        anns = anns.take(anns.offsets[some] + integers(anns.counts[some], u))
    elif cfg.sparsity > 0.0:
        # rows run image after image, as the dataset-wide count is drawn
        u = uniforms(stream_keys(seed, (), ["sparsify"]), np.arange(len(anns)))
        anns = anns.take(_survivors(u, cfg.sparsity))
    removed = len(before) - len(anns)

    injected = 0
    if cfg.superfluous is not None:
        sup = cfg.superfluous
        counts = binomials(stream_keys(seed, ("superfluous",), image_ids), sup.trials, sup.success)
        u = draws(stream_keys(seed, ("superfluous-box",), image_ids), counts, 5)
        sides = (sup.min_side, sup.max_side)
        added = random_boxes(sizes, counts, u, sides, dataset.num_classes).clip(sizes)
        injected = len(added)
        anns = anns.append(added)

    out = Dataset.from_columns(
        list(dataset.class_names), image_ids, sizes, anns, dataset.detections
    )
    summary = {
        "images": len(image_ids),
        "annotations_before": len(before),
        "annotations_after": len(anns),
        "removed_by_sparsity": removed,
        "injected": injected,
    }
    return out, summary
