"""Synthetic annotation corruption: displacement, sparsification, superfluous boxes.

Every operation draws from an explicit numpy PCG64 generator. Dataset-level
corruption derives one independent substream per (seed, operation, image)
via a short blake2b hash, which makes results identical whether images are
processed serially or in parallel, and in any order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .datamodel import Annotation, Dataset, ImageRecord
from .geometry import Box

__all__ = [
    "SPARSITY_EXTREME",
    "MIN_BOX_SIDE",
    "SuperfluousConfig",
    "NoiseConfig",
    "derive_rng",
    "constrain_box",
    "constrain_corners",
    "displace_boxes",
    "sparsify",
    "inject_superfluous",
    "corrupt_dataset",
]

SPARSITY_EXTREME = "extreme"

# a displaced or simulated box never ends up thinner than this, in pixels
MIN_BOX_SIDE = 1.0


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
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if not 0.0 <= self.success <= 1.0:
            raise ValueError(f"success must be in [0, 1], got {self.success}")
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
    seed: int = 0

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


def derive_rng(seed: int, *keys: object) -> np.random.Generator:
    """PCG64 generator for the substream named by ``keys`` under ``seed``."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for k in keys:
        h.update(b"|")
        h.update(str(k).encode())
    return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "big")))


def _expand_span(lo: float, hi: float, limit: float) -> tuple[float, float]:
    if hi - lo >= MIN_BOX_SIDE:
        return lo, hi
    c = (lo + hi) / 2.0
    lo, hi = c - MIN_BOX_SIDE / 2.0, c + MIN_BOX_SIDE / 2.0
    if lo < 0.0:
        return 0.0, min(MIN_BOX_SIDE, limit)
    if hi > limit:
        return max(limit - MIN_BOX_SIDE, 0.0), limit
    return lo, hi


def constrain_box(box: Box, width: float, height: float) -> Box:
    """Clip to the image and widen degenerate spans to ``MIN_BOX_SIDE``."""
    box = box.clip(width, height)
    x1, x2 = _expand_span(box.x1, box.x2, width)
    y1, y2 = _expand_span(box.y1, box.y2, height)
    return Box(x1, y1, x2, y2)


def _clip(v: np.ndarray, limit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``min(max(v, 0.0), limit)`` per entry, as ``Box.clip`` takes it, and
    where the limit was taken. ``np.where`` in Python's argument order keeps
    ``-0.0``, which ``max(-0.0, 0.0)`` returns and ``np.maximum`` does not."""
    v = np.where(0.0 > v, 0.0, v)
    over = limit < v
    return np.where(over, limit, v), over


def constrain_corners(
    corners: np.ndarray, sizes: np.ndarray, int_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`constrain_box` of every row of ``(N, 4)`` ``corners`` at once.

    Row k belongs to an image of ``sizes[k]`` (width, height), and
    ``int_sizes[k]`` says which of the two is an ``int``. Returns the
    corners and the int-edge mask: true where a coordinate ends on an
    ``int`` bound, which :func:`constrain_box` returns as that ``int``.
    """
    boxes = np.empty_like(corners)
    int_edge = np.empty(corners.shape, dtype=bool)
    for axis in (0, 1):
        limit, int_limit = sizes[:, axis], int_sizes[:, axis]
        lo, lo_int = _clip(corners[:, axis], limit)
        hi, hi_int = _clip(corners[:, axis + 2], limit)
        # _expand_span per entry: the spans narrower than MIN_BOX_SIDE grow
        # about their centers, and one that would cross 0 or the limit ends
        # on it instead
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


def displace_boxes(
    anns: Sequence[Annotation],
    box_noise: float,
    image_size: tuple[float, float],
    rng: np.random.Generator,
) -> list[Annotation]:
    """Perturb each coordinate independently by up to its box-size fraction.

    x1 and x2 each move by a uniform draw from [-w * box_noise, +w * box_noise]
    where w is the box's own width; y1 and y2 analogously with the height.
    Draw order per box is x1, x2, y1, y2. Crossed corners are re-canonicalised,
    the result is clipped to the image and kept at least ``MIN_BOX_SIDE`` wide.
    ``box_noise`` 0 returns boxes bit-identical to the input.
    """
    if box_noise < 0.0:
        raise ValueError(f"box_noise must be >= 0, got {box_noise}")
    width, height = image_size
    spans: list[float] = []
    for ann in anns:
        dx = ann.box.width * box_noise
        dy = ann.box.height * box_noise
        spans += (dx, dx, dy, dy)
    # one call draws the same values, in the same order, as a scalar call each
    d = np.array(spans)
    offsets = rng.uniform(-d, d).tolist()
    out: list[Annotation] = []
    for k, ann in enumerate(anns):
        b = ann.box
        ox1, ox2, oy1, oy2 = offsets[4 * k : 4 * k + 4]
        box = Box.spanning(b.x1 + ox1, b.y1 + oy1, b.x2 + ox2, b.y2 + oy2)
        out.append(Annotation(constrain_box(box, width, height), ann.label, ann.provenance))
    return out


def _removal_count(total: int, fraction: float) -> int:
    # round half away from zero, e.g. 5 annotations at 0.5 -> 3 removed
    return int(math.floor(total * fraction + 0.5))


def _survivor_indices(
    total: int, sparsity: float | str, rng: np.random.Generator
) -> list[int]:
    if sparsity == SPARSITY_EXTREME:
        if total == 0:
            return []
        return [int(rng.integers(total))]
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    n_remove = _removal_count(total, sparsity)
    if n_remove <= 0:
        return list(range(total))
    dropped = set(rng.choice(total, size=n_remove, replace=False).tolist())
    return [i for i in range(total) if i not in dropped]


def sparsify(
    anns: Sequence[Annotation],
    sparsity: float | str,
    rng: np.random.Generator,
) -> list[Annotation]:
    """Remove annotations uniformly at random, preserving order.

    A fractional ``sparsity`` removes exactly round(fraction * len(anns))
    annotations, half rounded away from zero. ``"extreme"`` keeps exactly one
    annotation (none if the input is empty).
    """
    keep = _survivor_indices(len(anns), sparsity, rng)
    return [anns[i] for i in keep]


def inject_superfluous(
    record: ImageRecord,
    cfg: SuperfluousConfig,
    num_classes: int,
    rng: np.random.Generator,
) -> list[Annotation]:
    """Existing annotations plus freshly sampled superfluous boxes.

    The additions carry ``original`` provenance: downstream consumers cannot
    tell them from genuine labels, which is the point.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    k = int(rng.binomial(cfg.trials, cfg.success))
    added: list[Annotation] = []
    for _ in range(k):
        w = rng.uniform(cfg.min_side, cfg.max_side)
        h = rng.uniform(cfg.min_side, cfg.max_side)
        cx = rng.uniform(0.0, record.width)
        cy = rng.uniform(0.0, record.height)
        label = int(rng.integers(1, num_classes + 1))
        box = Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        added.append(
            Annotation(box=box.clip(record.width, record.height), label=label)
        )
    return list(record.annotations) + added


def corrupt_dataset(dataset: Dataset, cfg: NoiseConfig) -> tuple[Dataset, dict]:
    """Apply displacement, sparsification, and injection to a whole dataset.

    Operations run in that order. Displacement and injection use per-image
    substreams; fractional sparsification removes an exact dataset-wide count
    from one global substream, while ``"extreme"`` keeps one annotation per
    image from per-image substreams. Returns the corrupted dataset and a
    summary dict of counts.
    """
    seed = cfg.seed
    displaced: list[list[Annotation]] = []
    for rec in dataset.images:
        if cfg.box_noise > 0.0:
            rng = derive_rng(seed, "displace", rec.image_id)
            displaced.append(
                displace_boxes(
                    rec.annotations, cfg.box_noise, (rec.width, rec.height), rng
                )
            )
        else:
            displaced.append(list(rec.annotations))

    before = sum(len(a) for a in displaced)
    if cfg.sparsity == SPARSITY_EXTREME:
        kept = [
            sparsify(anns, SPARSITY_EXTREME, derive_rng(seed, "sparsify", rec.image_id))
            for rec, anns in zip(dataset.images, displaced)
        ]
    elif cfg.sparsity > 0.0:
        flat: list[tuple[int, int]] = [
            (i, j) for i, anns in enumerate(displaced) for j in range(len(anns))
        ]
        survivors = _survivor_indices(len(flat), cfg.sparsity, derive_rng(seed, "sparsify"))
        keep_set = {flat[s] for s in survivors}
        kept = [
            [ann for j, ann in enumerate(anns) if (i, j) in keep_set]
            for i, anns in enumerate(displaced)
        ]
    else:
        kept = displaced
    removed = before - sum(len(a) for a in kept)

    injected = 0
    final: list[list[Annotation]] = []
    for rec, anns in zip(dataset.images, kept):
        if cfg.superfluous is not None:
            rng = derive_rng(seed, "superfluous", rec.image_id)
            shell = replace(rec, annotations=anns)
            full = inject_superfluous(shell, cfg.superfluous, dataset.num_classes, rng)
            injected += len(full) - len(anns)
            final.append(full)
        else:
            final.append(anns)

    images = [
        replace(rec, annotations=anns) for rec, anns in zip(dataset.images, final)
    ]
    out = Dataset(class_names=list(dataset.class_names), images=images)
    summary = {
        "images": len(images),
        "annotations_before": sum(len(r.annotations) for r in dataset.images),
        "annotations_after": sum(len(r.annotations) for r in images),
        "removed_by_sparsity": removed,
        "injected": injected,
    }
    return out, summary
