"""Axis-aligned box arithmetic: overlap distances and suppression.

Boxes live in continuous pixel coordinates with the origin at the top-left
corner, x growing right and y growing down. A box is the closed rectangle
[x1, x2] x [y1, y2]; zero-width or zero-height boxes are legal and have zero
area.

The hot paths hold boxes as a :class:`BoxSet`: the boxes of a whole dataset
in columns, image after image, with ``Box`` objects built only at the edge.
The per-pair kernels (``iou_pairs``, ``giou_pairs``,
``center_distance_pairs``) score box k of one corner array against box k of
another. Callers choose the pairs: ``x_windows`` pairs each row with the
rows of its image in an interval of x, found by one sort and two binary
searches, ``overlap_windows`` with those whose x extents can meet, and
``pair_blocks`` visits the pairs in blocks of bounded size. ``grouped_iou``
scores, as pair lists, the pairs within each image of two sets whose x
extents can meet: every pair with positive IoU, and few others. Each
kernel evaluates its scalar counterpart's formula elementwise in the same
operation order, so on finite input every entry equals the scalar result
bit for bit, and the scalar functions remain the reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .datamodel import Detection

__all__ = [
    "Box",
    "BoxSet",
    "iou",
    "iou_distance",
    "giou_distance",
    "center_distance_normalized",
    "iou_pairs",
    "giou_pairs",
    "center_distance_pairs",
    "class_groups",
    "x_windows",
    "overlap_windows",
    "pair_blocks",
    "grouped_iou",
    "best_iou",
    "row_sizes",
    "spanning",
    "clip_values",
    "nms",
    "grouped_nms",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with corners (x1, y1) top-left, (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(
                f"box corners not canonical: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @classmethod
    def spanning(cls, xa: float, ya: float, xb: float, yb: float) -> "Box":
        """Box covering two corner points given in any order."""
        return cls(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def clip(self, width: float, height: float) -> "Box":
        """Clip to the image rectangle [0, width] x [0, height]."""
        return Box(
            min(max(self.x1, 0.0), width),
            min(max(self.y1, 0.0), height),
            min(max(self.x2, 0.0), width),
            min(max(self.y2, 0.0), height),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when the union has zero area."""
    return _corner_iou(a.x1, a.y1, a.x2, a.y2, b.x1, b.y1, b.x2, b.y2)


def _corner_iou(
    ax1: float, ay1: float, ax2: float, ay2: float,
    bx1: float, by1: float, bx2: float, by2: float,
) -> float:
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_distance(a: Box, b: Box) -> float:
    """1 - IoU, in [0, 1]."""
    return 1.0 - iou(a, b)


def giou_distance(a: Box, b: Box) -> float:
    """1 - GIoU, in [0, 2].

    GIoU subtracts from IoU the fraction of the smallest enclosing box not
    covered by the union, so disjoint boxes are penalised by how far apart
    they sit. When one box contains the other the hull equals the union and
    the value coincides with ``iou_distance``.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    union = a.area + b.area - inter
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    if union <= 0.0 or hull <= 0.0:
        # both boxes degenerate: no overlap signal, no hull to penalise with
        return 1.0
    giou = inter / union - (hull - union) / hull
    return 1.0 - giou


def center_distance_normalized(a: Box, b: Box, norm: float) -> float:
    """Euclidean distance between box centers divided by ``norm``.

    Args:
        a, b: boxes to compare.
        norm: positive length scale, typically the nominal object size.

    Raises:
        ValueError: if ``norm`` is not strictly positive.
    """
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    (ax, ay), (bx, by) = a.center, b.center
    return math.hypot(ax - bx, ay - by) / norm


def _offsets(counts: Sequence[int]) -> np.ndarray:
    return np.array([0, *accumulate(counts)], dtype=np.intp)


# the columns of a BoxSet besides its boxes and offsets
_COLUMNS = ("labels", "probs", "logits", "int_edge", "provenance")


def _column(values: Sequence, kind: type, dtype: type) -> np.ndarray:
    """``values`` as a ``dtype`` array if each is a ``kind``; else as objects,
    so that a value of another type (a ``bool`` label) comes back as given."""
    if set(map(type, values)) <= {kind}:
        return np.array(values, dtype=dtype)
    return np.array(values, dtype=object)


@dataclass(eq=False)
class BoxSet:
    """The boxes of a sequence of images, in columns: one row per box.

    Image g holds rows ``offsets[g]:offsets[g + 1]`` of every column.
    ``boxes`` holds ``(N, 4)`` float64 corners (x1, y1, x2, y2). The other
    columns are there where a set needs them: ``labels`` class ids;
    ``probs`` and ``logits`` prediction scores; ``int_edge``, ``(N, 4)`` and
    true where a coordinate is an ``int`` image bound. ``Box.clip`` returns
    the bound itself, so such a coordinate is written ``512`` and not
    ``512.0``; ``None`` means that no coordinate is. ``provenance`` holds
    annotation provenance codes, indices into ``datamodel.PROVENANCES``.
    """

    boxes: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray | None = None
    probs: np.ndarray | None = None
    logits: np.ndarray | None = None
    int_edge: np.ndarray | None = None
    provenance: np.ndarray | None = None

    @classmethod
    def from_boxes(
        cls,
        boxes: Sequence[Box],
        counts: Sequence[int],
        labels: Sequence[int] | None = None,
        probs: Sequence[float] | None = None,
        logits: Sequence[float] | None = None,
    ) -> "BoxSet":
        """Set of ``boxes``: the first ``counts[0]`` in image 0, and so on.

        Labels, probs and logits that are not all ``int``, ``float`` and
        ``float`` are held as objects, as given.
        """
        flat = [v for b in boxes for v in (b.x1, b.y1, b.x2, b.y2)]
        int_edge = None
        if int in set(map(type, flat)):
            int_edge = np.array([type(v) is int for v in flat]).reshape(-1, 4)
        return cls(
            np.array(flat, dtype=np.float64).reshape(-1, 4),
            _offsets(counts),
            None if labels is None else _column(labels, int, np.int64),
            None if probs is None else _column(probs, float, np.float64),
            None if logits is None else _column(logits, float, np.float64),
            int_edge,
        )

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def num_images(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def counts(self) -> np.ndarray:
        """The number of rows of each image."""
        return self.offsets[1:] - self.offsets[:-1]

    @cached_property
    def image_index(self) -> np.ndarray:
        """The image of each row."""
        if self.num_images == 1:
            return np.zeros(len(self.boxes), dtype=np.intp)
        return np.arange(self.num_images).repeat(self.counts)

    def take(self, rows: np.ndarray) -> "BoxSet":
        """The set of ``rows``, which come image by image in image order."""
        if len(self.offsets) == 2:
            offsets = np.array((0, len(rows)), dtype=np.intp)
        else:
            # the taken rows ahead of each image
            offsets = self.image_index[rows].searchsorted(np.arange(len(self.offsets)))
        return self._subset(rows, offsets)

    def select(self, images: Sequence[int]) -> "BoxSet":
        """The set of the listed images, in that order: image h of the result
        is image ``images[h]`` of this set, or has no rows where that is -1."""
        return self._subset(*self.image_rows(images))

    def image_rows(self, images: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The rows of :meth:`select` ``(images)`` in this set, and its offsets."""
        images = np.asarray(images, dtype=np.intp)
        counts = np.append(self.counts, 0)[images]
        offsets = np.concatenate(([0], counts.cumsum())).astype(np.intp)
        starts = self.offsets[images] - offsets[:-1]
        return np.arange(offsets[-1]) + starts.repeat(counts), offsets

    def _subset(self, rows: np.ndarray, offsets: np.ndarray) -> "BoxSet":
        out = BoxSet(self.boxes[rows], offsets)
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is not None:
                setattr(out, name, col[rows])
        return out

    def append(self, other: "BoxSet") -> "BoxSet":
        """Each image's rows followed by its rows of ``other``, image for image.

        A column is kept where both sets have it; a set without ``int_edge``
        has no ``int`` coordinate.
        """
        # a row of other goes in after the last row of its image
        at = self.offsets[other.image_index + 1]
        out = BoxSet(np.insert(self.boxes, at, other.boxes, axis=0), self.offsets + other.offsets)
        for name in _COLUMNS:
            mine, theirs = getattr(self, name), getattr(other, name)
            if name == "int_edge" and (mine is None) != (theirs is None):
                mine, theirs = (
                    np.zeros(s.boxes.shape, dtype=bool) if c is None else c
                    for s, c in ((self, mine), (other, theirs))
                )
            if mine is not None and theirs is not None:
                setattr(out, name, np.insert(mine, at, theirs, axis=0))
        return out

    def clip(self, sizes: Sequence[tuple[float, float]]) -> "BoxSet":
        """:meth:`Box.clip` of every row, image g's to ``sizes[g]`` (width,
        height).

        A coordinate that clipping moves onto an ``int`` bound is that
        ``int``; one it moves onto 0.0 is a float; one it keeps keeps its type.
        """
        limit, int_limit = row_sizes(sizes, self.image_index)
        limit, int_limit = np.tile(limit, 2), np.tile(int_limit, 2)
        boxes, low, over = clip_values(self.boxes, limit)
        int_edge = over & int_limit
        if self.int_edge is not None:
            int_edge |= self.int_edge & ~(low | over)
        return replace(self, boxes=boxes, int_edge=int_edge if int_edge.any() else None)

    def corners(self) -> list[list[float]]:
        """Every row's corners as Python numbers: ``int`` where ``int_edge`` says."""
        corners = self.boxes.tolist()
        if self.int_edge is not None:
            for k, edges in enumerate(self.int_edge.tolist()):
                if True in edges:
                    corners[k] = [int(v) if e else v for v, e in zip(corners[k], edges)]
        return corners

    def to_boxes(self) -> list[Box]:
        """Every row as a ``Box``, with ``int`` coordinates where ``int_edge`` says."""
        return [Box(*c) for c in self.corners()]


def class_groups(a: BoxSet, b: BoxSet) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``a`` and of ``b``, the number of its (image, label) among
    those of both sets, in image and then label order."""
    # with return_inverse, np.unique does not import numpy.ma on first use
    _, code = np.unique(np.concatenate((a.labels, b.labels)), return_inverse=True)
    key = np.concatenate((a.image_index, b.image_index)) * (code.max(initial=0) + 1)
    _, group = np.unique(key + code, return_inverse=True)
    return group[: len(a)], group[len(a) :]


def row_sizes(
    sizes: Sequence[tuple[float, float]], image: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the (width, height) of its image ``image[k]`` as floats, and
    which of the two is an ``int``."""
    floats = np.array(sizes, dtype=np.float64).reshape(-1, 2)
    ints = np.array([type(v) is int for wh in sizes for v in wh], dtype=bool).reshape(-1, 2)
    return floats[image], ints[image]


def spanning(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """:meth:`Box.spanning` per entry: ``(N, 4)`` corners, min and max taken
    in Python's argument order."""
    return np.stack(
        [
            np.where(xb < xa, xb, xa),
            np.where(yb < ya, yb, ya),
            np.where(xb > xa, xb, xa),
            np.where(yb > ya, yb, ya),
        ],
        axis=1,
    )


def clip_values(v: np.ndarray, limit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``min(max(v, 0.0), limit)`` per entry, as :meth:`Box.clip` takes it,
    and where 0.0 and where the limit was taken. ``np.where`` in Python's
    argument order keeps ``-0.0``, which ``max(-0.0, 0.0)`` returns and
    ``np.maximum`` does not."""
    low = 0.0 > v
    v = np.where(low, 0.0, v)
    over = limit < v
    return np.where(over, limit, v), low, over


# pairs per step of pair_blocks: temporaries stay at a few hundred kilobytes
# however many boxes an image holds
_PAIR_BLOCK = 1 << 13
# at most this many pairs of one image, grouped_iou scores pairs one by one
_SCALAR_PAIRS = 32


def _area(p: np.ndarray) -> np.ndarray:
    side = p[2:] - p[:2]
    return side[0] * side[1]


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed intersection width and height of corner planes ``a`` and ``b``."""
    side = np.minimum(a[2:], b[2:])
    side -= np.maximum(a[:2], b[:2])
    return side[0], side[1]


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou` of box k of ``a`` and box k of ``b``, for every k, in its
    steps; ``a`` and ``b`` are ``(4, K)`` float64 planes x1, y1, x2, y2."""
    iw, ih = _overlap(a, b)
    keep = np.minimum(iw, ih) > 0.0
    inter = iw * ih
    union = _area(a) + _area(b)
    union -= inter
    keep &= union > 0.0
    return np.divide(inter, union, out=np.zeros_like(inter), where=keep)


def giou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU, in [-1, 1], of box k of ``a`` and box k of ``b``, as
    :func:`iou_pairs`; ``1.0 - giou_pairs(a, b)`` is the :func:`giou_distance`."""
    iw, ih = _overlap(a, b)
    inter = np.multiply(iw, ih, out=np.zeros_like(iw), where=np.minimum(iw, ih) > 0.0)
    union = _area(a) + _area(b)
    union -= inter
    hull = np.maximum(a[2], b[2])
    hull -= np.minimum(a[0], b[0])
    hull_h = np.maximum(a[3], b[3])
    hull_h -= np.minimum(a[1], b[1])
    hull *= hull_h
    keep = (union > 0.0) & (hull > 0.0)
    # inter / union - (hull - union) / hull, in the scalar order
    ratio = np.divide(inter, union, out=inter, where=keep)
    uncovered = np.subtract(hull, union, out=union)
    np.divide(uncovered, hull, out=uncovered, where=keep)
    return np.subtract(ratio, uncovered, out=np.zeros_like(ratio), where=keep)


def center_distance_pairs(a: np.ndarray, b: np.ndarray, norm: float) -> np.ndarray:
    """:func:`center_distance_normalized` of box k of ``a`` and box k of ``b``,
    as :func:`iou_pairs`. The norm is ``math.hypot`` per pair, which
    ``np.hypot`` does not equal on a fraction of inputs.

    Raises:
        ValueError: if ``norm`` is not strictly positive.
    """
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    dx = (a[0] + a[2]) / 2.0 - (b[0] + b[2]) / 2.0
    dy = (a[1] + a[3]) / 2.0 - (b[1] + b[3]) / 2.0
    hyp = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64, count=len(dx))
    return hyp / norm


def x_windows(
    lo: np.ndarray, hi: np.ndarray, a_image: np.ndarray, x: np.ndarray, b_image: np.ndarray,
    scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row i of a, the rows j of b in its image with ``lo[i] <= x[j] <=
    hi[i]``, and a few more that rounding blurs; ``x`` is finite and
    ``scale`` at least its largest ``|x|``. Returns ``(order, first,
    width)``: row i's window is ``order[first[i]:first[i] + width[i]]``,
    empty where a bound is NaN.
    """
    # x / scale in [-1, 1], plus 4 per image, orders b by (image, x), and
    # rounding is monotonic, so the keys keep the order of x
    b_key = x / scale + 4.0 * b_image
    order = b_key.argsort(kind="stable")
    b_key = b_key[order]
    bounds = (np.stack((lo, hi)) / scale).clip(-1.0, 1.0) + 4.0 * a_image
    first = b_key.searchsorted(bounds[0])
    last = b_key.searchsorted(bounds[1], side="right")
    return order, first, np.where(lo <= hi, last - first, 0)


def overlap_windows(
    a: np.ndarray, a_image: np.ndarray, b: np.ndarray, b_image: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`x_windows` of the boxes of b (corner planes) whose x1 lies in
    ``[x1 - widest b box - margin, x2 + margin]`` of each box of a. The
    margin grows with the coordinates' magnitude, so every pair with
    positive IoU is in a window, and a pair in none is apart in x by more
    than the margin. A box with a non-finite coordinate is in no window.
    """
    (b_rows,) = np.isfinite(b).all(axis=0).nonzero()
    bx1, bx2 = b[0, b_rows], b[2, b_rows]
    widest = (bx2 - bx1).max(initial=0.0)
    # at least every |x| of b: an a row further out overlaps no b row, or its
    # window starts left of every one
    scale = max(-bx1.min(initial=0.0), bx2.max(initial=0.0)) or 1.0
    # covers the rounding of the widths and of x1 - widest
    margin = (scale + widest) * 2.0**-40
    lo = np.where(np.isfinite(a).all(axis=0), a[0] - widest - margin, np.nan)
    order, first, width = x_windows(lo, a[2] + margin, a_image, bx1, b_image[b_rows], scale)
    return b_rows[order], first, width


def pair_blocks(
    order: np.ndarray, first: np.ndarray, width: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``(i, j)`` pairs of windows as in :func:`x_windows`, by row i, in
    blocks of whole rows of about ``_PAIR_BLOCK`` pairs (a longer row
    alone), so that an image with a handful of boxes costs no numpy call."""
    ends = width.cumsum()
    # per a row: its window's start less its first pair, so that a pair's
    # place in the order is the pair's index plus this
    shift = first - (ends - width)
    start, n = 0, len(width)
    while start < n:
        done = int(ends[start - 1]) if start else 0
        stop = n
        if ends[-1] - done > _PAIR_BLOCK:
            stop = max(int(ends.searchsorted(done + _PAIR_BLOCK, side="right")), start + 1)
        w = width[start:stop]
        yield np.arange(start, stop).repeat(w), order[
            np.arange(done, ends[stop - 1]) + shift[start:stop].repeat(w)
        ]
        start = stop


def grouped_iou(a: BoxSet, b: BoxSet) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """IoU of the pairs of boxes in the same image that can overlap, many
    images per numpy call.

    Each box of ``a`` is paired with its :func:`overlap_windows` window of
    the boxes of ``b``, and the pairs are visited in :func:`pair_blocks`.
    Yields ``(i, j, overlap)`` per block: the rows of the two boxes and
    their IoU, equal to :func:`iou` bit for bit. Every pair with positive
    IoU comes exactly once; some pairs of IoU 0 come too.
    """
    if not len(a) or not len(b):
        return
    if len(a.offsets) == len(b.offsets) == 2 and len(a) * len(b) <= _SCALAR_PAIRS:
        # one image a side, and so few pairs that numpy's cost per call
        # outweighs the work: the scalar formula scores them all
        i, j = np.divmod(np.arange(len(a) * len(b)), len(b))
        b_corners = b.boxes.tolist()
        overlap = [_corner_iou(*p, *q) for p in a.boxes.tolist() for q in b_corners]
        yield i, j, np.array(overlap, dtype=np.float64)
        return
    a_planes, b_planes = np.ascontiguousarray(a.boxes.T), np.ascontiguousarray(b.boxes.T)
    windows = overlap_windows(a_planes, a.image_index, b_planes, b.image_index)
    for i, j in pair_blocks(*windows):
        # take along the last axis gathers far faster than fancy indexing
        yield i, j, iou_pairs(a_planes.take(i, axis=1), b_planes.take(j, axis=1))


def best_iou(a: BoxSet, b: BoxSet) -> tuple[np.ndarray, np.ndarray]:
    """Per box of ``a``, its highest IoU with a box of ``b`` in its image, and
    the same per box of ``b``; 0.0 for a box whose image has none on the other side."""
    forward = np.zeros(len(a))
    backward = np.zeros(len(b))
    for i, j, overlap in grouped_iou(a, b):
        np.maximum.at(forward, i, overlap)
        np.maximum.at(backward, j, overlap)
    return forward, backward


def nms(dets: Sequence["Detection"], iou_threshold: float) -> list["Detection"]:
    """Class-wise greedy non-maximum suppression.

    Detections are visited in descending probability (ties keep input order);
    one survives iff its IoU with every already-kept detection of the same
    class is at or below ``iou_threshold``. Returns survivors in visit order,
    so the output is sorted by descending probability.
    """
    found = BoxSet.from_boxes(
        [d.box for d in dets],
        [len(dets)],
        labels=[d.label for d in dets],
        probs=[d.prob for d in dets],
    )
    return [dets[k] for k in grouped_nms(found, iou_threshold).tolist()]


def grouped_nms(found: BoxSet, iou_threshold: float) -> np.ndarray:
    """:func:`nms` of each image of a set with labels and probabilities.

    Returns the surviving rows, image after image, each image's in visit
    order. Only boxes of one image and label can suppress each other, so no
    pair is scored when no image repeats a label.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    image, labels, probs = found.image_index.tolist(), found.labels.tolist(), found.probs.tolist()
    # per image, descending probability; sorted is stable, so ties keep row order
    visit = sorted(range(len(probs)), key=lambda r: (image[r], -probs[r]))
    keys = list(zip(image, labels))
    if len(set(keys)) == len(keys):
        return np.array(visit, dtype=np.intp)
    repeats = {key for key, n in Counter(keys).items() if n > 1}
    # the boxes whose image and label repeat, in visit order
    rivals = [r for r in visit if keys[r] in repeats]
    ranked = found.take(np.array(rivals, dtype=np.intp))
    clashes: list[tuple[int, int]] = []
    for i, j, overlap in grouped_iou(ranked, ranked):
        (hit,) = (overlap > iou_threshold).nonzero()
        # a lower row of an image is visited earlier
        clashes += (
            (k, m)
            for k, m in zip(i[hit].tolist(), j[hit].tolist())
            if k < m and keys[rivals[k]] == keys[rivals[m]]
        )
    # a box suppresses the later ones it clashes with only if it was kept itself
    suppressed: set[int] = set()
    for k, m in sorted(clashes):
        if k not in suppressed:
            suppressed.add(m)
    gone = {rivals[k] for k in suppressed}
    return np.array([r for r in visit if r not in gone], dtype=np.intp)
