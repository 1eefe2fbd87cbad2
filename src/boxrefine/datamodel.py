"""Dataset records and I/O: detections, annotations, COCO-subset JSON, point CSV, SVG.

The interchange format is a COCO-style JSON subset. On top of the standard
``bbox: [x, y, w, h]`` field the writer emits ``bbox_xyxy: [x1, y1, x2, y2]``;
the reader prefers it when present because the width/height encoding does not
round-trip every float exactly. Entries carrying a ``score`` are detections,
all others are annotations. Unknown fields are ignored on read and never
written.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter, not_
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import Box, BoxSet

__all__ = [
    "PROVENANCE_ORIGINAL",
    "PROVENANCE_CORRECTED",
    "PROVENANCE_MINED",
    "PROVENANCES",
    "PROVENANCE_CODES",
    "DatasetFormatError",
    "sigmoid",
    "prob_to_logit",
    "Detection",
    "Annotation",
    "annotation_set",
    "detection_set",
    "set_annotations",
    "set_detections",
    "PointLabel",
    "ImageRecord",
    "Dataset",
    "load_annotations",
    "save_annotations",
    "points_to_boxes",
    "materialize_points",
    "render_svg",
]

PROVENANCE_ORIGINAL = "original"
PROVENANCE_CORRECTED = "corrected"
PROVENANCE_MINED = "mined"
PROVENANCES = (PROVENANCE_ORIGINAL, PROVENANCE_CORRECTED, PROVENANCE_MINED)
# the provenance code of each name, as box sets hold it: its index in PROVENANCES
PROVENANCE_CODES = {name: code for code, name in enumerate(PROVENANCES)}

# probabilities are clamped this far away from {0, 1} before logit conversion
PROB_CLAMP = 1e-6


class DatasetFormatError(ValueError):
    """Raised when an annotation file cannot be parsed or validated."""


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def prob_to_logit(p: float) -> float:
    """Inverse sigmoid, with ``p`` clamped to [PROB_CLAMP, 1 - PROB_CLAMP] first."""
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class Detection:
    """A model prediction: box, class label, and both score parameterisations.

    ``prob`` and ``logit`` are stored together so that downstream consumers
    can pick whichever scale they need without re-deriving it.
    """

    box: Box
    label: int
    prob: float
    logit: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.label < 1:
            raise ValueError(f"label must be a positive class id, got {self.label}")

    @classmethod
    def from_logit(cls, box: Box, label: int, logit: float) -> "Detection":
        return cls(box=box, label=label, prob=sigmoid(logit), logit=logit)

    @classmethod
    def from_prob(cls, box: Box, label: int, prob: float) -> "Detection":
        return cls(box=box, label=label, prob=prob, logit=prob_to_logit(prob))


@dataclass(frozen=True)
class Annotation:
    """A target box with its class label and provenance.

    Provenance records how the box entered the dataset: ``original`` for
    loaded or synthetic input, ``corrected`` for boxes moved by refinement,
    ``mined`` for boxes recovered from confident predictions.
    """

    box: Box
    label: int
    provenance: str = PROVENANCE_ORIGINAL

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance: {self.provenance!r}")
        if self.label < 1:
            raise ValueError(f"label must be a positive class id, got {self.label}")


def annotation_set(groups: Sequence[Sequence[Annotation]]) -> BoxSet:
    """The annotations of each image as one set: boxes, labels, provenance codes."""
    anns = [a for g in groups for a in g]
    s = BoxSet.from_boxes(
        [a.box for a in anns], [len(g) for g in groups], labels=[a.label for a in anns]
    )
    s.provenance = np.array([PROVENANCE_CODES[a.provenance] for a in anns], dtype=np.int8)
    return s


def detection_set(groups: Sequence[Sequence[Detection]]) -> BoxSet:
    """The detections of each image as one set: boxes, labels, probs, logits."""
    dets = [d for g in groups for d in g]
    return BoxSet.from_boxes(
        [d.box for d in dets],
        [len(g) for g in groups],
        labels=[d.label for d in dets],
        probs=[d.prob for d in dets],
        logits=[d.logit for d in dets],
    )


def _per_image(rows: list, offsets: np.ndarray) -> list[list]:
    bounds = offsets.tolist()
    return [rows[start:stop] for start, stop in zip(bounds, bounds[1:])]


def set_annotations(s: BoxSet) -> list[list[Annotation]]:
    """The annotations of each image of ``s``, built at the edge."""
    rows = [
        Annotation(box, label, PROVENANCES[code])
        for box, label, code in zip(s.to_boxes(), s.labels.tolist(), s.provenance.tolist())
    ]
    return _per_image(rows, s.offsets)


def set_detections(s: BoxSet) -> list[list[Detection]]:
    """The detections of each image of ``s``, built at the edge."""
    rows = [
        Detection(box, label, prob, logit)
        for box, label, prob, logit in zip(
            s.to_boxes(), s.labels.tolist(), s.probs.tolist(), s.logits.tolist()
        )
    ]
    return _per_image(rows, s.offsets)


@dataclass(frozen=True)
class PointLabel:
    """A single-point annotation, the raw form of center-click labelling."""

    x: float
    y: float
    label: int


@dataclass
class ImageRecord:
    """Everything known about one image: dimensions, targets, optional extras."""

    image_id: str
    width: int
    height: int
    annotations: list[Annotation] = field(default_factory=list)
    detections: list[Detection] | None = None
    points: list[PointLabel] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"image {self.image_id!r} has non-positive size "
                f"{self.width}x{self.height}"
            )


class Dataset:
    """An ordered collection of images plus the class vocabulary, in columns.

    Class labels are 1-based indices into ``class_names``. Image ids must be
    unique; lookup order is the file order, which all deterministic pipelines
    preserve.

    The columns are the image table (:meth:`image_ids`, :meth:`image_sizes`)
    and two box sets in its order: ``annotations`` with labels,
    provenance codes and int edges, and ``detections`` with labels, probs
    and logits. The loader builds them (:meth:`from_columns`) and every
    stage reads them. ``Dataset(class_names, images)`` builds a dataset from
    ``ImageRecord`` objects, read afresh whenever its columns are; ``images``
    gives the records, built once from the columns of a dataset that has no
    records. Objects exist only at this edge.
    """

    def __init__(self, class_names: list[str], images: list[ImageRecord]) -> None:
        self.class_names = class_names
        self._records: list[ImageRecord] | None = images
        self._columns: tuple | None = None
        self._check()

    @classmethod
    def from_columns(
        cls,
        class_names: list[str],
        image_ids: list[str],
        sizes: list[tuple[int, int]],
        annotations: BoxSet,
        detections: BoxSet | None = None,
    ) -> "Dataset":
        """The dataset of an image table and the two sets in its order;
        without ``detections``, it has none."""
        if detections is None:
            detections = detection_set([()] * len(image_ids))
        dataset = cls.__new__(cls)
        dataset.class_names = class_names
        dataset._records = None
        dataset._columns = (image_ids, sizes, annotations, detections)
        dataset._check()
        return dataset

    def _check(self) -> None:
        ids = self.image_ids()
        seen: set[str] = set()
        dupes: list[str] = []
        for image_id in ids:
            if image_id in seen:
                dupes.append(image_id)
            seen.add(image_id)
        if dupes:
            raise ValueError(f"duplicate image ids: {sorted(set(dupes))}")
        n = len(self.class_names)
        # per image, its annotations and then its detections
        bad = sorted(
            (int(s.image_index[row]), side, int(row), s.labels[row])
            for side, s in enumerate((self.annotations, self.detections))
            for row in np.flatnonzero(s.labels > n)
        )
        if bad:
            labels = [f"{ids[image]}:{label}" for image, _, _, label in bad]
            raise ValueError(f"labels outside the {n}-class vocabulary (image:label): {labels}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def image_ids(self) -> list[str]:
        if self._columns is None:
            return [rec.image_id for rec in self._records]
        return self._columns[0]

    def image_sizes(self) -> list[tuple[int, int]]:
        """(width, height) of each image."""
        if self._columns is None:
            return [(rec.width, rec.height) for rec in self._records]
        return self._columns[1]

    @property
    def annotations(self) -> BoxSet:
        if self._columns is None:
            return annotation_set([rec.annotations for rec in self._records])
        return self._columns[2]

    @property
    def detections(self) -> BoxSet:
        if self._columns is None:
            return detection_set([rec.detections or () for rec in self._records])
        return self._columns[3]

    @property
    def images(self) -> list[ImageRecord]:
        if self._records is None:
            ids, sizes, anns, dets = self._columns
            self._records = [
                ImageRecord(image_id, width, height, a, d or None)
                for image_id, (width, height), a, d in zip(
                    ids, sizes, set_annotations(anns), set_detections(dets)
                )
            ]
        return self._records

    def by_id(self) -> dict[str, ImageRecord]:
        return {rec.image_id: rec for rec in self.images}


def _require(cond: bool, path: Path, msg: str) -> None:
    # for one-off checks only: the message is formatted even when ``cond``
    # holds, so per-entry checks raise directly
    if not cond:
        raise DatasetFormatError(f"{path}: {msg}")


def _not_finite(
    shown: object, path: Path, entry: str, key: object, field: str
) -> DatasetFormatError:
    """The error for a ``field`` of ``entry`` ``key`` (such as ``annotation 7``)
    that is not a finite number.

    Non-finite values are refused at load: NaN compares false with
    everything, so it would slip past every later range check.
    """
    return DatasetFormatError(
        f"{path}: {entry} {key}: {field!r} must be a finite number, got {shown!r}"
    )


def _finite(value: object, path: Path, entry: str, key: object, field: str) -> float:
    """``value`` as a float, unless it is not a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise _not_finite(value, path, entry, key, field) from None
    if not math.isfinite(number):
        raise _not_finite(value, path, entry, key, field)
    return number


def _check_entry(path: Path, k: int, entry: object, image_of: dict, label_of: dict) -> None:
    """Raise the error of entry ``k`` of ``annotations``: its first failing check.

    The loader checks whole columns at once and calls this only for the
    first entry that fails one, to word the message.
    """
    if not isinstance(entry, dict):
        raise DatasetFormatError(
            f"{path}: annotation #{k} must be an object, got {type(entry).__name__}"
        )
    ann_id = entry["id"] if "id" in entry else f"#{k}"
    if "image_id" not in entry:
        raise DatasetFormatError(f"{path}: annotation {ann_id}: missing 'image_id'")
    try:
        known = entry["image_id"] in image_of
    except TypeError:  # a list or object, which no image id equals
        known = False
    if not known:
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: unknown image_id {entry['image_id']!r}"
        )
    if "category_id" not in entry:
        raise DatasetFormatError(f"{path}: annotation {ann_id}: missing 'category_id'")
    try:
        known = entry["category_id"] in label_of
    except TypeError:
        known = False
    if not known:
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: unknown category_id {entry['category_id']!r}"
        )
    field = "bbox_xyxy" if entry.get("bbox_xyxy") is not None else "bbox"
    values = entry.get(field)
    if not (isinstance(values, list) and len(values) == 4):
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: {field} must be a list of 4 numbers"
        )
    try:
        a, b, c, d = map(float, values)
    except (TypeError, ValueError, OverflowError):
        raise _not_finite(values, path, "annotation", ann_id, field) from None
    if not all(map(math.isfinite, (a, b, c, d))):
        raise _not_finite(values, path, "annotation", ann_id, field)
    if field == "bbox_xyxy" and not (a <= c and b <= d):
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: bbox_xyxy corners not canonical"
        )
    if field == "bbox" and not (c >= 0.0 and d >= 0.0):
        raise DatasetFormatError(f"{path}: annotation {ann_id}: negative bbox size {c}x{d}")
    if "score" in entry:
        score = _finite(entry["score"], path, "annotation", ann_id, "score")
        if not 0.0 <= score <= 1.0:
            raise DatasetFormatError(
                f"{path}: annotation {ann_id}: score {score} outside [0, 1]"
            )
        if "logit" in entry:
            _finite(entry["logit"], path, "annotation", ann_id, "logit")
    elif entry.get("provenance", PROVENANCE_ORIGINAL) not in PROVENANCES:
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: unknown provenance {entry['provenance']!r}"
        )
    raise AssertionError(f"{path}: annotation #{k} passes every check")


# what gathering raises for an entry whose fields cannot be gathered
_UNGATHERED = (KeyError, TypeError, ValueError, OverflowError)


def _gather(entries: list, image_of: dict, label_of: dict) -> tuple:
    """The columns of ``entries``, each field gathered for all entries at once.

    Per entry: its image row, its label, whether it is a detection (it has a
    ``score``) and whether its box is a ``bbox`` size rather than corners;
    the values of the ``bbox_xyxy`` boxes and of the ``bbox`` boxes, each
    in entry order; the detections' scores, which of them give a logit, and
    those logits; the annotations' provenance codes. Values go through
    ``float()`` as the entry check takes them. Raises one of ``_UNGATHERED``
    if some entry's fields cannot be gathered.
    """
    image = map(image_of.__getitem__, map(itemgetter("image_id"), entries))
    label = map(label_of.__getitem__, map(itemgetter("category_id"), entries))
    is_det = list(map(dict.__contains__, entries, repeat("score")))
    corners = list(map(dict.get, entries, repeat("bbox_xyxy")))
    xywh = list(map(is_, corners, repeat(None)))
    corners = list(compress(corners, map(not_, xywh)))
    sized = list(map(itemgetter("bbox"), compress(entries, xywh)))
    boxes = corners + sized
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}):
        raise TypeError("a box is not a list of 4 values")
    dets = list(compress(entries, is_det))
    has_logit = list(map(dict.__contains__, dets, repeat("logit")))
    provenance = map(dict.get, compress(entries, map(not_, is_det)), repeat("provenance"),
                     repeat(PROVENANCE_ORIGINAL))
    return (
        np.fromiter(image, np.intp), np.fromiter(label, np.int64), is_det, xywh,
        np.fromiter(map(float, chain.from_iterable(corners)), np.float64),
        np.fromiter(map(float, chain.from_iterable(sized)), np.float64),
        np.fromiter(map(float, map(itemgetter("score"), dets)), np.float64),
        has_logit,
        np.fromiter(map(float, map(itemgetter("logit"), compress(dets, has_logit))), np.float64),
        list(map(PROVENANCE_CODES.__getitem__, provenance)),
    )


# the type of each column of the loaded sets
_DTYPES = {"labels": np.int64, "probs": np.float64, "logits": np.float64, "provenance": np.int8}


def _grouped(image: np.ndarray, num_images: int, boxes: np.ndarray, **columns: object) -> BoxSet:
    """A set of rows given in any image order, grouped by image: each
    image's rows keep their order."""
    order = np.argsort(image, kind="stable")
    counts = np.bincount(image, minlength=num_images)
    s = BoxSet(boxes[order], np.concatenate(([0], counts.cumsum())).astype(np.intp))
    for name, values in columns.items():
        setattr(s, name, np.asarray(values, dtype=_DTYPES[name])[order])
    return s


def _check_images(path: Path, images: list) -> None:
    """Raise the error of the first failing entry of ``images``: its first
    failing check. The loader checks the image table on its columns and
    calls this only when a check fails, to word the message."""
    seen: set = set()
    for idx, img in enumerate(images, start=1):
        if not (isinstance(img, dict) and "id" in img):
            raise DatasetFormatError(f"{path}: image entry missing 'id'")
        if isinstance(img["id"], (list, dict)):
            raise DatasetFormatError(
                f"{path}: image entry {idx}: 'id' must not be a list or object, "
                f"got {img['id']!r}"
            )
        for fld in ("width", "height"):
            size = img.get(fld)
            if not (isinstance(size, (int, float)) and size > 0):
                raise DatasetFormatError(
                    f"{path}: image {img['id']}: missing or non-positive {fld!r}"
                )
            _finite(size, path, "image", img["id"], fld)
            # a pixel count: true would load as 1 and 512.7 as 512
            if isinstance(size, bool) or size != int(size):
                raise DatasetFormatError(
                    f"{path}: image {img['id']}: {fld!r} must be a whole number, "
                    f"got {size!r}"
                )
        if img["id"] in seen:
            raise DatasetFormatError(f"{path}: duplicate image id {img['id']}")
        seen.add(img["id"])
    raise AssertionError(f"{path}: every image passes every check")


def _load_coco(path: Path) -> Dataset:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), path, "top level must be a JSON object")
    for key in ("images", "categories", "annotations"):
        _require(key in raw, path, f"missing required key {key!r}")
        _require(isinstance(raw[key], list), path, f"{key!r} must be a list")

    for idx, cat in enumerate(raw["categories"], start=1):
        _require(
            isinstance(cat, dict),
            path,
            f"category entry {idx} must be an object, got {type(cat).__name__}",
        )
        _require("id" in cat, path, f"category entry {idx} missing 'id'")
        _require(
            not isinstance(cat["id"], (list, dict)),
            path,
            f"category entry {idx}: 'id' must not be a list or object, got {cat['id']!r}",
        )
    try:
        categories = sorted(raw["categories"], key=lambda c: c["id"])
    except TypeError:
        raise DatasetFormatError(
            f"{path}: category ids are not mutually comparable"
        ) from None
    _require(bool(categories), path, "categories list is empty")
    label_of: dict[object, int] = {}
    class_names: list[str] = []
    for idx, cat in enumerate(categories, start=1):
        # 1, 1.0 and true are one key: a second class would take the first's boxes
        _require(cat["id"] not in label_of, path, f"duplicate category id {cat['id']!r}")
        label_of[cat["id"]] = idx
        class_names.append(str(cat.get("name", f"class_{idx}")))

    # the image table is checked on its columns; any failure is worded by
    # the image-by-image check
    images = raw["images"]
    try:
        ids = list(map(itemgetter("id"), images))
        image_of = dict(zip(ids, range(len(ids))))
        widths = list(map(dict.get, images, repeat("width")))
        heights = list(map(dict.get, images, repeat("height")))
        # exact types: a bool is no pixel count
        fine = len(image_of) == len(ids) and set(map(type, widths + heights)) <= {int, float}
        if fine:
            sides = np.array(list(map(float, widths + heights)), dtype=np.float64)
            fine = bool((np.isfinite(sides) & (sides > 0.0) & (sides == np.trunc(sides))).all())
    except _UNGATHERED:
        fine = False
    if not fine:
        _check_images(path, images)
    image_ids = list(map(str, ids))
    sizes = list(zip(map(int, widths), map(int, heights)))

    # every field is gathered as one column; if some entry cannot be
    # gathered, the entries before the first such one are
    entries = raw["annotations"]
    stop = len(entries)
    try:
        columns = _gather(entries, image_of, label_of)
    except _UNGATHERED:
        for stop, entry in enumerate(entries):
            try:
                _gather([entry], image_of, label_of)
            except _UNGATHERED:
                break
        columns = _gather(entries[:stop], image_of, label_of)
    image, labels, is_det, xywh, corners, sized, probs, has_logit, given, codes = columns

    # the value checks run on the gathered columns, a row per entry
    is_det, xywh = np.array(is_det, dtype=bool), np.array(xywh, dtype=bool)
    boxes = np.empty((len(image), 4))
    boxes[~xywh] = corners.reshape(-1, 4)
    boxes[xywh] = sized.reshape(-1, 4)
    x1, y1, c, d = boxes.T
    bad = ~np.isfinite(boxes).all(axis=1)
    bad |= np.where(xywh, ~((c >= 0.0) & (d >= 0.0)), ~((x1 <= c) & (y1 <= d)))
    bad[is_det] |= ~((probs >= 0.0) & (probs <= 1.0))
    has_logit = np.array(has_logit, dtype=bool)
    logits = np.zeros(len(probs))
    logits[has_logit] = given
    bad[is_det.nonzero()[0][has_logit]] |= ~np.isfinite(logits[has_logit])
    (failing,) = bad.nonzero()
    failed = int(failing[0]) if len(failing) else stop
    if failed < len(entries):
        _check_entry(path, failed, entries[failed], image_of, label_of)

    # x2 = x1 + w and y2 = y1 + h where the entry gives a size; a sum past
    # the largest float is inf and clips to the image, as in Python
    with np.errstate(over="ignore"):
        boxes[xywh, 2:] += boxes[xywh, :2]
    # prob_to_logit of the scores without a logit: the clamp and the ratio are
    # exact in numpy, but math.log is taken per value, as np.log rounds
    # differently. No Python float is made per logit, and a file without such
    # scores skips the numpy calls, whose first use maps memory: both hold
    # down peak memory.
    missing = ~has_logit
    if missing.any():
        p = probs[missing].clip(PROB_CLAMP, 1.0 - PROB_CLAMP)
        logits[missing] = np.fromiter(map(math.log, p / (1.0 - p)), np.float64, len(p))
    annotations = _grouped(
        image[~is_det], len(ids), boxes[~is_det], labels=labels[~is_det], provenance=codes
    )
    detections = _grouped(
        image[is_det], len(ids), boxes[is_det], labels=labels[is_det], probs=probs, logits=logits
    )
    # ids unique in the file, such as 100 and "100", can load as one string
    if len(set(image_ids)) < len(image_ids):
        dupes = sorted({i for i in image_ids if image_ids.count(i) > 1})
        raise DatasetFormatError(f"{path}: duplicate image ids once read as text: {dupes}")
    return Dataset.from_columns(
        class_names, image_ids, sizes, annotations.clip(sizes), detections.clip(sizes)
    )


def _load_point_csv(path: Path, image_size: tuple[int, int]) -> Dataset:
    expected = ["image_id", "x", "y", "label"]
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        _require(
            [h.strip() for h in header] == expected,
            path,
            f"header must be {','.join(expected)}, got {','.join(header)}",
        )
        order: list[str] = []
        points: dict[str, list[PointLabel]] = {}
        max_label = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            _require(
                len(row) == 4,
                path,
                f"line {lineno}: expected 4 fields, got {len(row)}",
            )
            image_id = row[0].strip()
            _require(bool(image_id), path, f"line {lineno}: empty image_id")
            try:
                x, y = float(row[1]), float(row[2])
                label = int(row[3])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
            _require(label >= 1, path, f"line {lineno}: label must be >= 1")
            if image_id not in points:
                points[image_id] = []
                order.append(image_id)
            points[image_id].append(PointLabel(x=x, y=y, label=label))
            max_label = max(max_label, label)
    width, height = image_size
    records = [
        ImageRecord(
            image_id=image_id,
            width=width,
            height=height,
            points=points[image_id],
        )
        for image_id in order
    ]
    class_names = [f"class_{i}" for i in range(1, max_label + 1)]
    return Dataset(class_names=class_names, images=records)


def load_annotations(
    path: str | Path,
    fmt: str = "coco-json",
    image_size: tuple[int, int] = (512, 512),
) -> Dataset:
    """Load a dataset from disk.

    Args:
        path: annotation file.
        fmt: ``coco-json`` or ``point-csv``.
        image_size: (width, height) assumed for every image in point-csv
            input, which carries no image dimensions of its own.

    Raises:
        DatasetFormatError: on malformed input, naming the offending
            file, line, or field.
        FileNotFoundError: if ``path`` does not exist.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"annotation file not found: {path}")
    if fmt == "coco-json":
        return _load_coco(path)
    if fmt == "point-csv":
        return _load_point_csv(path, image_size)
    raise ValueError(f"unknown format: {fmt!r} (use 'coco-json' or 'point-csv')")


def _json_value(value: object, indent: str) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it
    on a line that starts with the whitespace ``indent``.

    Finite floats, ints and strings are formatted here as json's encoder
    formats them (``float.__repr__``, ``int.__repr__``, the C string
    escaper); any other value goes through ``json.dumps``.
    """
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
    elif kind is int:
        return int.__repr__(value)
    elif kind is str:
        return encode_basestring_ascii(value)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_list(entries: list[str]) -> str:
    """A top-level key's list of already formatted entries, two deep."""
    if not entries:
        return "[]"
    return "[\n" + ",\n".join(entries) + "\n  ]"


def save_annotations(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` as COCO-subset JSON.

    Output is deterministic: fixed key order, no timestamps, entries in
    dataset order. ``load_annotations`` on the result reconstructs the
    dataset exactly.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline. Entries are formatted from fixed templates because
    json's C encoder is used only without ``indent``, and its pure-Python
    fallback dominated the time of writing a file.
    """
    value = _json_value
    entries: list[str] = []

    def entry(corners: list, label: object, image_id: str, tail: str) -> str:
        x1, y1, x2, y2 = corners
        left, top = value(x1, "        "), value(y1, "        ")
        return (
            "    {\n"
            '      "bbox": [\n'
            f"        {left},\n"
            f"        {top},\n"
            f'        {value(x2 - x1, "        ")},\n'
            f'        {value(y2 - y1, "        ")}\n'
            "      ],\n"
            '      "bbox_xyxy": [\n'
            f"        {left},\n"
            f"        {top},\n"
            f'        {value(x2, "        ")},\n'
            f'        {value(y2, "        ")}\n'
            "      ],\n"
            f'      "category_id": {value(label, "      ")},\n'
            f'      "id": {len(entries) + 1},\n'
            f'      "image_id": {image_id},\n'
            f"      {tail}\n"
            "    }"
        )

    anns, dets = dataset.annotations, dataset.detections
    # Python scalars, the ints of clipping restored: a width is x2 - x1 of
    # those, so a box clipped wholly past an edge is 0 wide, an int
    ann_corners, det_corners = anns.corners(), dets.corners()
    ann_labels, det_labels = anns.labels.tolist(), dets.labels.tolist()
    provenance = [f'"provenance": {value(name, "      ")}' for name in PROVENANCES]
    ann_tails = [provenance[code] for code in anns.provenance.tolist()]
    det_tails = [
        f'"logit": {value(logit, "      ")},\n      "score": {value(prob, "      ")}'
        for logit, prob in zip(dets.logits.tolist(), dets.probs.tolist())
    ]
    ann_bounds, det_bounds = anns.offsets.tolist(), dets.offsets.tolist()
    image_ids, sizes = dataset.image_ids(), dataset.image_sizes()
    for g, image_id in enumerate(image_ids):
        shown = value(image_id, "      ")
        for r in range(ann_bounds[g], ann_bounds[g + 1]):
            entries.append(entry(ann_corners[r], ann_labels[r], shown, ann_tails[r]))
        for r in range(det_bounds[g], det_bounds[g + 1]):
            entries.append(entry(det_corners[r], det_labels[r], shown, det_tails[r]))
    images = [
        "    {\n"
        f'      "height": {value(height, "      ")},\n'
        f'      "id": {value(image_id, "      ")},\n'
        f'      "width": {value(width, "      ")}\n'
        "    }"
        for image_id, (width, height) in zip(image_ids, sizes)
    ]
    categories = [
        {"id": i, "name": name} for i, name in enumerate(dataset.class_names, start=1)
    ]
    text = (
        "{\n"
        f'  "annotations": {_json_list(entries)},\n'
        f'  "categories": {value(categories, "  ")},\n'
        f'  "images": {_json_list(images)}\n'
        "}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def points_to_boxes(
    points: Sequence[PointLabel],
    side: float,
    image_size: tuple[int, int] | None = None,
) -> list[Annotation]:
    """Materialise point labels as fixed-size square annotations.

    Each point becomes a ``side`` x ``side`` box centred on it, clipped to
    ``image_size`` when given, so boxes at the border may come out smaller.

    Raises:
        ValueError: if ``side`` is not strictly positive.
    """
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    half = side / 2.0
    out: list[Annotation] = []
    for p in points:
        box = Box(p.x - half, p.y - half, p.x + half, p.y + half)
        if image_size is not None:
            box = box.clip(image_size[0], image_size[1])
        out.append(Annotation(box=box, label=p.label))
    return out


def materialize_points(dataset: Dataset, side: float) -> Dataset:
    """Dataset copy with every image's points converted to box annotations.

    Converted boxes are appended after any existing annotations; the points
    lists are emptied.
    """
    images = []
    for rec in dataset.images:
        boxes = points_to_boxes(rec.points, side, (rec.width, rec.height))
        images.append(
            replace(
                rec,
                annotations=list(rec.annotations) + boxes,
                points=[],
            )
        )
    return Dataset(class_names=list(dataset.class_names), images=images)


LAYER_COLORS = {
    "original": "red",
    "corrected": "green",
    "mined": "blue",
    "detections": "white",
    "ground-truth": "black",
}
DEFAULT_LAYERS = tuple(LAYER_COLORS)


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, like ``xml.sax.saxutils.escape``.

    Written out here because importing ``xml.sax`` loads ``urllib`` and the
    HTTP and e-mail packages into every process.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_svg(
    record: ImageRecord,
    layers: Iterable[str] = DEFAULT_LAYERS,
    ground_truth: Sequence[Annotation] | None = None,
    class_names: Sequence[str] | None = None,
) -> str:
    """Render an image's boxes as an SVG document string.

    Layers select what is drawn: ``original``/``corrected``/``mined`` filter
    the record's annotations by provenance, ``detections`` draws
    ``record.detections``, ``ground-truth`` draws the separately supplied
    truth boxes. One ``<rect>`` is emitted per box plus a small text label;
    output is deterministic for a given input.
    """
    layer_list = list(layers)
    unknown = [l for l in layer_list if l not in LAYER_COLORS]
    if unknown:
        raise ValueError(f"unknown layers: {unknown}; valid: {sorted(LAYER_COLORS)}")

    def name_of(label: int) -> str:
        if class_names is not None and 1 <= label <= len(class_names):
            return class_names[label - 1]
        return str(label)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{record.width}" '
        f'height="{record.height}" viewBox="0 0 {record.width} {record.height}">',
        f"<!-- image {_escape(record.image_id)} -->",
    ]
    for layer in DEFAULT_LAYERS:
        if layer not in layer_list:
            continue
        color = LAYER_COLORS[layer]
        if layer == "detections":
            entries = [
                (d.box, f"{name_of(d.label)} {d.prob:.2f}")
                for d in record.detections or ()
            ]
        elif layer == "ground-truth":
            entries = [(a.box, name_of(a.label)) for a in ground_truth or ()]
        else:
            entries = [
                (a.box, name_of(a.label))
                for a in record.annotations
                if a.provenance == layer
            ]
        if not entries:
            continue
        parts.append(f'<g data-layer="{layer}">')
        for box, text in entries:
            parts.append(
                f'<rect x="{box.x1:.2f}" y="{box.y1:.2f}" '
                f'width="{box.width:.2f}" height="{box.height:.2f}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{box.x1:.2f}" y="{max(box.y1 - 2.0, 8.0):.2f}" '
                f'font-size="10" fill="{color}">{_escape(text)}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
