"""Synthetic annotation corruption: displacement, sparsification, superfluous boxes.

Every operation draws from an explicit numpy PCG64 generator. Dataset-level
corruption derives one independent substream per (seed, operation, image)
via a short blake2b hash, which makes results identical whether images are
processed serially or in parallel, and in any order. :func:`derive_rngs`
seeds the substreams of many keys at once (module ``seedseq``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import DEFAULT_SEED
from .datamodel import Annotation, Dataset, ImageRecord, annotation_set, set_annotations
from .geometry import BoxSet, clip_values, row_sizes, spanning

__all__ = [
    "SPARSITY_EXTREME",
    "MIN_BOX_SIDE",
    "SuperfluousConfig",
    "NoiseConfig",
    "derive_rng",
    "derive_rngs",
    "check_image_sizes",
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


def _digests(seed: int, prefix: Sequence, ids: Iterable) -> np.ndarray:
    """Each key ``(*prefix, id)`` under ``seed`` hashed: the 8-byte blake2b
    digest of the text of ``seed`` and its parts joined by ``|``."""
    import hashlib  # here: it loads OpenSSL, which only the noisy stages need

    head = hashlib.blake2b("|".join(map(str, (seed, *prefix))).encode(), digest_size=8)
    digests = []
    for key in ids:
        h = head.copy()
        h.update(("|" + str(key)).encode())
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8")


def _streams(seed: int, prefix: Sequence, ids: Iterable) -> Iterator[np.random.Generator]:
    """The generators of :func:`derive_rngs`, each built as it is drawn."""
    from numpy.random import PCG64, Generator  # here: only the noisy stages draw

    from .seedseq import HeldState, seed_states

    return (Generator(PCG64(HeldState(w))) for w in seed_states(_digests(seed, prefix, ids)))


def derive_rngs(seed: int, prefix: Sequence, ids: Iterable) -> list[np.random.Generator]:
    """PCG64 generators, one per id: generator j is the substream named by
    ``(*prefix, ids[j])`` under ``seed``, in the state :func:`derive_rng`
    gives it. numpy's ``SeedSequence`` runs on all the digests at once
    (``seedseq.seed_states``)."""
    return list(_streams(seed, prefix, ids))


def derive_rng(seed: int, *keys: object) -> np.random.Generator:
    """PCG64 generator for the substream named by ``keys`` under ``seed``: ``PCG64``
    seeded with its digest, read as a big-endian int. Needs at least one key."""
    if not keys:
        raise TypeError("derive_rng needs at least one key")
    from numpy.random import PCG64, Generator

    return Generator(PCG64(int(_digests(seed, keys[:-1], keys[-1:])[0])))


def check_image_sizes(sizes: Iterable[tuple[float, float]]) -> None:
    """Raise ValueError unless every width and height of ``sizes`` is finite:
    a box drawn uniformly inside an image needs a finite image."""
    for width, height in sizes:
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError(f"image size must be finite, got {width}x{height}")


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


def _uniform(
    rngs: Iterable[np.random.Generator], bounds: list[int], spans: np.ndarray
) -> np.ndarray:
    """``rng.uniform(-spans[a:b], spans[a:b])`` for the rows ``a:b =
    bounds[g]:bounds[g + 1]`` of each image g and its generator ``rng``, the
    g-th of ``rngs``, bit for bit: one ``random``
    call per image, then ``uniform``'s own formula ``low + (high - low) * u``
    on all rows at once. Where ``uniform`` would raise, as ``high - low`` is
    past the float range, raises ``OverflowError(g, reason)``."""
    low = -spans
    with np.errstate(over="ignore"):
        scale = spans - low
    wild = np.flatnonzero(~np.isfinite(scale))
    if len(wild):
        g = int(np.searchsorted(bounds, wild[0], side="right")) - 1
        raise OverflowError(g, "box displacement range exceeds the float range")
    draws = [
        rng.random(stop - start)
        for rng, start, stop in zip(rngs, bounds, bounds[1:])
        if stop > start
    ]
    return low + scale * (np.concatenate(draws) if draws else np.zeros(0))


def _displaced(
    s: BoxSet,
    box_noise: float,
    sizes: Sequence[tuple[float, float]],
    rngs: Iterable[np.random.Generator],
) -> BoxSet:
    """The boxes of ``s`` displaced, image g's with the g-th of ``rngs`` and
    clipped to ``sizes[g]``.

    Each box's x1 and x2 move by uniform draws from [-w * box_noise,
    w * box_noise], w its width, and y1 and y2 alike with its height: one
    call per image draws x1, x2, y1, y2 of each box in turn. Crossed corners
    swap, and :func:`constrain_corners` clips and widens the result.
    """
    b = s.boxes
    dx = (b[:, 2] - b[:, 0]) * box_noise
    dy = (b[:, 3] - b[:, 1]) * box_noise
    spans = np.stack([dx, dx, dy, dy], axis=1).ravel()
    # the same values, in the same order, as a scalar uniform call each
    d = _uniform(rngs, (s.offsets * 4).tolist(), spans).reshape(-1, 4)
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
    Draw order per box is x1, x2, y1, y2. Crossed corners are re-canonicalised,
    the result is clipped to the image and kept at least ``MIN_BOX_SIDE`` wide.
    ``box_noise`` 0 returns boxes bit-identical to the input.
    """
    if box_noise < 0.0:
        raise ValueError(f"box_noise must be >= 0, got {box_noise}")
    return set_annotations(_displaced(annotation_set([anns]), box_noise, [image_size], [rng]))[0]


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


def _superfluous(
    sizes: Sequence[tuple[float, float]],
    rngs: Iterable[np.random.Generator],
    cfg: SuperfluousConfig,
    num_classes: int,
) -> BoxSet:
    """Superfluous boxes for each image, image g's drawn from the g-th of
    ``rngs`` inside ``sizes[g]``: Binomial(trials, success) of them, each with
    uniform sides, a uniform center in the image and a uniform label, in
    that draw order, clipped to the image; provenance ``original``."""
    if sizes and num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    check_image_sizes(sizes)
    corners: list[float] = []
    labels: list[int] = []
    counts: list[int] = []
    low, span = cfg.min_side, cfg.max_side - cfg.min_side
    for (width, height), rng in zip(sizes, rngs):
        k = int(rng.binomial(cfg.trials, cfg.success))
        random = rng.random
        for _ in range(k):
            # uniform's own formula, low + (high - low) * u, bit for bit
            w = low + span * random()
            h = low + span * random()
            cx = 0.0 + (width - 0.0) * random()
            cy = 0.0 + (height - 0.0) * random()
            labels.append(int(rng.integers(1, num_classes + 1)))
            corners += (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        counts.append(k)
    added = BoxSet(
        np.array(corners, dtype=np.float64).reshape(-1, 4),
        np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
        labels=np.array(labels, dtype=np.int64),
        provenance=np.zeros(len(labels), dtype=np.int8),
    )
    return added.clip(sizes)


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
    added = _superfluous([(record.width, record.height)], [rng], cfg, num_classes)
    return list(record.annotations) + set_annotations(added)[0]


def corrupt_dataset(dataset: Dataset, cfg: NoiseConfig) -> tuple[Dataset, dict]:
    """Apply displacement, sparsification, and injection to a whole dataset.

    Operations run in that order. Displacement and injection use per-image
    substreams; fractional sparsification removes an exact dataset-wide count
    from one global substream, while ``"extreme"`` keeps one annotation per
    image from per-image substreams. Returns the corrupted dataset and a
    summary dict of counts.
    """
    seed = cfg.seed
    image_ids, sizes = dataset.image_ids(), dataset.image_sizes()
    anns = before = dataset.annotations
    if cfg.box_noise > 0.0:
        rngs = _streams(seed, ("displace",), image_ids)
        try:
            anns = _displaced(anns, cfg.box_noise, sizes, rngs)
        except OverflowError as exc:
            g, reason = exc.args
            raise ValueError(
                f"image {image_ids[g]!r}: {reason} at box_noise {cfg.box_noise}"
            ) from None

    if cfg.sparsity == SPARSITY_EXTREME:
        bounds = anns.offsets.tolist()
        rngs = _streams(seed, ("sparsify",), image_ids)
        keep = [
            bounds[g] + i
            for g, rng in enumerate(rngs)
            for i in _survivor_indices(bounds[g + 1] - bounds[g], SPARSITY_EXTREME, rng)
        ]
        anns = anns.take(np.array(keep, dtype=np.intp))
    elif cfg.sparsity > 0.0:
        # rows run image after image, as the dataset-wide count is drawn
        keep = _survivor_indices(len(anns), cfg.sparsity, derive_rng(seed, "sparsify"))
        anns = anns.take(np.array(keep, dtype=np.intp))
    removed = len(before) - len(anns)

    injected = 0
    if cfg.superfluous is not None:
        rngs = _streams(seed, ("superfluous",), image_ids)
        added = _superfluous(sizes, rngs, cfg.superfluous, dataset.num_classes)
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
