"""Axis-aligned box arithmetic: overlap distances, suppression, geometric transforms.

Boxes live in continuous pixel coordinates with the origin at the top-left
corner, x growing right and y growing down. A box is the closed rectangle
[x1, x2] x [y1, y2]; zero-width or zero-height boxes are legal and have zero
area.

The pairwise functions (``iou_matrix``, ``giou_matrix``,
``center_distance_matrix``) take boxes as ``(N, 4)`` float64 arrays of
corners (x1, y1, x2, y2); ``Box`` objects are converted once at the edge with
``box_array``. They also take stacks of images, ``(C, N, 4)`` and
``(C, M, 4)`` to ``(C, N, M)``: ``image_chunks`` groups consecutive images so
that such a padded block stays small, and ``stack_boxes`` builds it.
``grouped_iou`` scores the pairs within each image of a whole dataset at
once, as pair lists. Each evaluates its scalar counterpart's formula
elementwise in the same operation order, so on finite input every entry
equals the scalar result bit for bit, and the scalar functions remain the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .datamodel import Detection

__all__ = [
    "Box",
    "GeoTransform",
    "iou",
    "iou_distance",
    "giou_distance",
    "center_distance_normalized",
    "box_array",
    "iou_matrix",
    "grouped_iou",
    "giou_matrix",
    "center_distance_matrix",
    "image_chunks",
    "stack_boxes",
    "pad_stack",
    "nms",
    "grouped_nms",
    "apply_transform",
    "apply_transforms",
    "invert_transforms",
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
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
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


# rows of the first operand per step of a pairwise function: temporaries stay
# at 64 x M entries however many boxes an image holds
_ROW_BLOCK = 64
# pairs per step of grouped_iou, for the same reason
_PAIR_BLOCK = 1 << 14
# padded (images x rows x columns) entries per chunk of image_chunks
_CHUNK_ENTRIES = 1 << 15
# the padding of a stack of boxes
_NO_BOX = (0.0, 0.0, 0.0, 0.0)


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """``(N, 4)`` float64 array of the boxes' corners (x1, y1, x2, y2)."""
    return np.array(
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def image_chunks(rows: Sequence[int], cols: Sequence[int]) -> Iterator[range]:
    """Split images into runs of consecutive ones that share a padded block.

    Image k contributes a ``rows[k]`` x ``cols[k]`` pairwise matrix. A run
    grows while (images x largest rows x largest columns) stays within
    ``_CHUNK_ENTRIES``; an image larger than that forms a run of its own, so
    its block is exactly its own matrix.
    """
    start, n = 0, len(rows)
    while start < n:
        r, c, stop = rows[start], cols[start], start + 1
        while stop < n:
            r2, c2 = max(r, rows[stop]), max(c, cols[stop])
            if (stop + 1 - start) * r2 * c2 > _CHUNK_ENTRIES:
                break
            r, c, stop = r2, c2, stop + 1
        yield range(start, stop)
        start = stop


def stack_boxes(groups: Sequence[Sequence[Box]]) -> np.ndarray:
    """``(C, W, 4)`` float64 corners of C groups of boxes, W the longest group.

    Shorter groups are padded with zero boxes, which carry no meaning: the
    caller masks them out.
    """
    width = max(map(len, groups), default=0)
    return np.array(
        [[(b.x1, b.y1, b.x2, b.y2) for b in g] + [_NO_BOX] * (width - len(g)) for g in groups],
        dtype=np.float64,
    ).reshape(len(groups), width, 4)


def pad_stack(rows: Sequence[Sequence[object]], fill: object) -> np.ndarray:
    """``(C, W)`` array of C rows of scalars, each padded with ``fill`` to the longest."""
    width = max(map(len, rows), default=0)
    return np.array([[*row, *[fill] * (width - len(row))] for row in rows])


def _row_blocks(a: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    for start in range(0, a.shape[-2], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        yield rows, a[..., rows, :]


def _planes(boxes: np.ndarray) -> np.ndarray:
    """Corners as four contiguous planes x1, y1, x2, y2: shape ``(4, ..., N)``."""
    return np.ascontiguousarray(boxes.transpose(-1, *range(boxes.ndim - 1)))


def _area(p: np.ndarray) -> np.ndarray:
    return (p[2] - p[0]) * (p[3] - p[1])


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed intersection width and height of corner planes ``a`` and ``b``.

    ``a[k]`` and ``b[k]`` (x1, y1, x2, y2 for k = 0..3) broadcast together.
    """
    iw = np.minimum(a[2], b[2])
    iw -= np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3])
    ih -= np.maximum(a[1], b[1])
    return iw, ih


def _iou_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write into the zeroed ``out`` the IoU of corner planes ``a`` and ``b``.

    The steps follow :func:`iou`, so every entry equals its scalar value.
    """
    iw, ih = _overlap(a, b)
    keep = np.minimum(iw, ih) > 0.0
    inter = np.multiply(iw, ih, out=iw)
    union = _area(a) + _area(b)
    union -= inter
    keep &= union > 0.0
    np.divide(inter, union, out=out, where=keep)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise :func:`iou`: entry (i, j) is the IoU of box ``a[i]`` and box ``b[j]``.

    Args:
        a, b: ``(N, 4)`` and ``(M, 4)`` float64 corner arrays, or stacks of
            them, ``(C, N, 4)`` and ``(C, M, 4)``.

    Returns:
        ``(N, M)`` (or ``(C, N, M)``) float64 array; ``1.0 - iou_matrix(a, b)``
        is the pairwise :func:`iou_distance`.
    """
    out = np.zeros(a.shape[:-1] + b.shape[-2:-1])
    b_planes = _planes(b)[..., None, :]
    for rows, blk in _row_blocks(a):
        _iou_into(_planes(blk)[..., None], b_planes, out[..., rows, :])
    return out


def grouped_iou(
    a_groups: Sequence[Sequence[Box]], b_groups: Sequence[Sequence[Box]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """IoU of every pair of boxes in the same group, many groups per numpy call.

    Group g pairs each box of ``a_groups[g]`` with each box of
    ``b_groups[g]``: the entries of their ``iou_matrix``. A group is
    typically an image of a dataset. Pairs are visited by ``a`` box, then by
    ``b`` box, in blocks of about ``_PAIR_BLOCK`` pairs, so an image with a
    handful of boxes costs no numpy call of its own. Yields ``(i, j,
    overlap)`` per block: the positions of the two boxes in the
    concatenation of all groups, and their IoU, equal to :func:`iou` bit for
    bit.
    """
    a_counts = np.array([len(g) for g in a_groups], dtype=np.intp)
    b_counts = np.array([len(g) for g in b_groups], dtype=np.intp)
    a_planes = _planes(box_array(box for g in a_groups for box in g))
    b_planes = _planes(box_array(box for g in b_groups for box in g))
    row_group = np.repeat(np.arange(len(a_counts)), a_counts)
    width = b_counts[row_group]  # pairs of each a box
    ends = np.cumsum(width)
    # per a box: position of the first b box of its group
    b_first = (np.cumsum(b_counts) - b_counts)[row_group]
    start = 0
    while start < len(row_group):
        done = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")), start + 1)
        w = width[start:stop]
        i = np.repeat(np.arange(start, stop), w)
        # each pair's b position: its row's first b box plus its place in the row
        first_pair = ends[start:stop] - w - done
        j = np.arange(len(i)) + np.repeat(b_first[start:stop] - first_pair, w)
        overlap = np.zeros(len(i))
        _iou_into(a_planes[:, i], b_planes[:, j], overlap)
        yield i, j, overlap
        start = stop


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise generalized IoU, in [-1, 1].

    ``1.0 - giou_matrix(a, b)`` is the pairwise :func:`giou_distance`; pairs
    where the union or the hull has no area get 0.0 (distance 1.0). Shapes
    as for :func:`iou_matrix`.
    """
    out = np.zeros(a.shape[:-1] + b.shape[-2:-1])
    bp = _planes(b)[..., None, :]
    for rows, blk in _row_blocks(a):
        ap = _planes(blk)[..., None]
        iw, ih = _overlap(ap, bp)
        inter = np.multiply(iw, ih, out=np.zeros_like(iw), where=np.minimum(iw, ih) > 0.0)
        union = _area(ap) + _area(bp)
        union -= inter
        hull = np.maximum(ap[2], bp[2])
        hull -= np.minimum(ap[0], bp[0])
        hull_h = np.maximum(ap[3], bp[3])
        hull_h -= np.minimum(ap[1], bp[1])
        hull *= hull_h
        keep = (union > 0.0) & (hull > 0.0)
        # inter / union - (hull - union) / hull, in the scalar order
        ratio = np.divide(inter, union, out=inter, where=keep)
        uncovered = np.subtract(hull, union, out=union)
        np.divide(uncovered, hull, out=uncovered, where=keep)
        np.subtract(ratio, uncovered, out=out[..., rows, :], where=keep)
    return out


def center_distance_matrix(a: np.ndarray, b: np.ndarray, norm: float) -> np.ndarray:
    """Pairwise :func:`center_distance_normalized`.

    The Euclidean norm is ``math.hypot`` per entry: ``np.hypot`` rounds
    differently on a fraction of inputs, and the result must equal the scalar
    function exactly. Shapes as for :func:`iou_matrix`.

    Raises:
        ValueError: if ``norm`` is not strictly positive.
    """
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    out = np.empty(a.shape[:-1] + b.shape[-2:-1])
    bx = ((b[..., 0] + b[..., 2]) / 2.0)[..., None, :]
    by = ((b[..., 1] + b[..., 3]) / 2.0)[..., None, :]
    for rows, blk in _row_blocks(a):
        dx = ((blk[..., 0] + blk[..., 2]) / 2.0)[..., None] - bx
        dy = ((blk[..., 1] + blk[..., 3]) / 2.0)[..., None] - by
        hyp = np.fromiter(
            map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()),
            dtype=np.float64,
            count=dx.size,
        )
        np.divide(hyp.reshape(dx.shape), norm, out=out[..., rows, :])
    return out


def nms(dets: Sequence["Detection"], iou_threshold: float) -> list["Detection"]:
    """Class-wise greedy non-maximum suppression.

    Detections are visited in descending probability (ties keep input order);
    one survives iff its IoU with every already-kept detection of the same
    class is at or below ``iou_threshold``. Returns survivors in visit order,
    so the output is sorted by descending probability.
    """
    return grouped_nms([dets], iou_threshold)[0]


def grouped_nms(
    groups: Sequence[Sequence["Detection"]], iou_threshold: float
) -> list[list["Detection"]]:
    """:func:`nms` of each group (typically an image), many groups per numpy call.

    The pairwise IoU of the groups is computed in padded blocks of
    :func:`image_chunks`; the greedy pass then runs per group.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    visits = [sorted(g, key=lambda d: -d.prob) for g in groups]
    # a detection only suppresses one of its own class, so a group whose
    # labels all differ (fewer than two detections included) stays as it is
    todo = [k for k, visit in enumerate(visits) if len({d.label for d in visit}) < len(visit)]
    sizes = [len(visits[k]) for k in todo]
    for chunk in image_chunks(sizes, sizes):
        members = [visits[todo[i]] for i in chunk]
        boxes = stack_boxes([[d.box for d in m] for m in members])
        # for each detection, the later ones of its group and class it
        # suppresses if kept; padding never suppresses or is suppressed
        clashes: dict[tuple[int, int], list[int]] = {}
        rows = np.nonzero(iou_matrix(boxes, boxes) > iou_threshold)
        for c, k, j in zip(*(axis.tolist() for axis in rows)):
            visit = members[c]
            if k < j < len(visit) and visit[k].label == visit[j].label:
                clashes.setdefault((c, k), []).append(j)
        for c, visit in enumerate(members):
            kept: list["Detection"] = []
            suppressed: set[int] = set()
            for k, d in enumerate(visit):
                if k not in suppressed:
                    kept.append(d)
                    suppressed.update(clashes.get((c, k), ()))
            visits[todo[chunk[c]]] = kept
    return visits


_TRANSFORM_KINDS = ("hflip", "vflip", "scale")


@dataclass(frozen=True)
class GeoTransform:
    """Invertible box-level transform: horizontal flip, vertical flip, or axis scaling.

    ``params`` holds (width,) for hflip, (height,) for vflip and (sx, sy)
    for scale. Flips are their own inverse; scaling inverts to reciprocal
    factors, so zero factors are rejected.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind: {self.kind!r}")
        expected = 2 if self.kind == "scale" else 1
        if len(self.params) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} parameter(s), got {len(self.params)}"
            )
        if self.kind == "scale" and (self.params[0] == 0.0 or self.params[1] == 0.0):
            raise ValueError("scale factors must be nonzero")

    @classmethod
    def hflip(cls, width: float) -> "GeoTransform":
        return cls("hflip", (float(width),))

    @classmethod
    def vflip(cls, height: float) -> "GeoTransform":
        return cls("vflip", (float(height),))

    @classmethod
    def scale(cls, sx: float, sy: float) -> "GeoTransform":
        return cls("scale", (float(sx), float(sy)))

    def inverse(self) -> "GeoTransform":
        if self.kind == "scale":
            sx, sy = self.params
            return GeoTransform.scale(1.0 / sx, 1.0 / sy)
        return self


def apply_transform(t: GeoTransform, b: Box) -> Box:
    """Transformed copy of ``b``; corners are re-canonicalised after mapping."""
    if t.kind == "hflip":
        (w,) = t.params
        return Box(w - b.x2, b.y1, w - b.x1, b.y2)
    if t.kind == "vflip":
        (h,) = t.params
        return Box(b.x1, h - b.y2, b.x2, h - b.y1)
    sx, sy = t.params
    return Box.spanning(b.x1 * sx, b.y1 * sy, b.x2 * sx, b.y2 * sy)


def apply_transforms(ts: Sequence[GeoTransform], b: Box) -> Box:
    """Apply a sequence of transforms left to right."""
    for t in ts:
        b = apply_transform(t, b)
    return b


def invert_transforms(ts: Sequence[GeoTransform]) -> list[GeoTransform]:
    """Inverse of a transform sequence: reversed order, each element inverted."""
    return [t.inverse() for t in reversed(ts)]
