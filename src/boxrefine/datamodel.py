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
import io
import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import gt, is_, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
        # NaN compares false with everything: it is not positive either
        if not (self.width > 0 and self.height > 0):
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
        bad_sizes = [f"{image_id}:{w}x{h}" for image_id, (w, h) in zip(ids, self.image_sizes())
                     if not (0 < w < math.inf and 0 < h < math.inf)]
        if bad_sizes:
            raise ValueError(
                f"image sizes that are not positive and finite (image:WIDTHxHEIGHT): {bad_sizes}"
            )
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
    # holds, so the rows of a list are checked by a rule table
    if not cond:
        raise DatasetFormatError(f"{path}: {msg}")


# what reading a column raises where a row lacks its field or has one of the wrong kind
_UNGATHERED = (KeyError, TypeError, ValueError, OverflowError)


def _holds(test: Callable, values: Iterable, arg: object) -> np.ndarray:
    """Whether ``test(value, arg)`` holds for each of ``values``."""
    # a bytearray of the bools is faster than np.fromiter
    return np.frombuffer(bytearray(map(test, values, repeat(arg))), bool)


# JSON reads a number as an int or a float; true is a bool and "1.5" a str
_NUMBER_TYPES = frozenset((int, float))
# an image id is a str or an int: null and true would load as the text
# "None" and "True", and an image_id of true would find the image whose id is 1
_ID_TYPES = frozenset((str, int))


def _typed(values: Iterable, types: frozenset) -> np.ndarray:
    """Whether the type of each of ``values`` is one of ``types``, exactly:
    a bool is not an int here."""
    return np.frombuffer(bytearray(map(types.__contains__, map(type, values))), bool)


def _floats(values: Callable[[], Iterable]) -> np.ndarray:
    """The values ``values()`` yields as floats, NaN where a value is not a
    JSON number, so that a finite-number rule rejects it. numpy converts an
    int as ``float`` does. ``values`` is called again to read the types:
    a list of a whole column would raise the peak memory of a load."""
    floats = np.fromiter(values(), np.float64)
    if not {*map(type, values())} <= _NUMBER_TYPES:
        floats[~_typed(values(), _NUMBER_TYPES)] = np.nan
    return floats


def _at(n: int, rows: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """A mask of ``n`` rows that is ``bad`` at ``rows`` and false elsewhere."""
    mask = np.zeros(n, dtype=bool)
    mask[rows] = bad
    return mask


class _Rows:
    """The rows of a list in a file, ``entry``, and their columns.

    A column is gathered for every row at once, by C-level iteration, when
    it is first read as an attribute: ``columns`` maps its name to the
    function that gathers it. Reading one raises one of ``_UNGATHERED`` if
    some row has no such field, or one of the wrong kind. ``rows[name]`` is
    the column's value in the last row, as a message shows it.
    """

    def __init__(self, entry: list, columns: dict, **context: object) -> None:
        self.entry, self.columns = entry, columns
        vars(self).update(context)

    def __getattr__(self, name: str) -> object:
        if name not in self.columns:
            raise AttributeError(name)
        value = self.columns[name](self)
        setattr(self, name, value)
        return value

    def __getitem__(self, name: str) -> object:
        value = getattr(self, name)[-1]
        return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value

    def __len__(self) -> int:
        return len(self.entry)

    def objects(self) -> np.ndarray:
        return _holds(isinstance, self.entry, dict)

    def has(self, key: str) -> np.ndarray:
        return _holds(dict.__contains__, self.entry, key)

    def get(self, key: str, default: object = None) -> Iterable:
        return map(dict.get, self.entry, repeat(key), repeat(default))


# the entries of ``images``; of ``categories``, only ``idx`` and ``id`` are read
_IMAGE_COLUMNS = {
    "idx": lambda c: range(1, len(c) + 1),
    "id": lambda c: list(map(itemgetter("id"), c.entry)),
    "width": lambda c: list(c.get("width")),
    "height": lambda c: list(c.get("height")),
    # the row of the first entry with each id
    "first": lambda c: dict(zip(reversed(c.id), range(len(c) - 1, -1, -1))),
}

_BOX_FIELDS = np.array(["bbox_xyxy", "bbox"], dtype=object)
# the entries of ``annotations``: annotations and detections (with a ``score``) alike
_ENTRY_COLUMNS = {
    "k": lambda c: range(len(c)),
    # how messages name an entry: its id, else its number
    "id": lambda c: [e["id"] if "id" in e else f"#{k}" for k, e in enumerate(c.entry)],
    # the image row and the label, -1 and 0 where the id is unknown
    "image": lambda c: np.fromiter(map(c.image_of.get, c.get("image_id"), repeat(-1)), np.intp),
    "label": lambda c: np.fromiter(map(c.label_of.get, c.get("category_id"), repeat(0)), np.int64),
    # the box is a bbox size where bbox_xyxy is null or absent
    "xywh": lambda c: _holds(is_, c.get("bbox_xyxy"), None),
    "field": lambda c: _BOX_FIELDS[c.xywh.astype(np.intp)].tolist(),
    "box": lambda c: list(map(dict.get, c.entry, c.field)),
    "values": lambda c: _floats(lambda: chain.from_iterable(c.box)).reshape(-1, 4),
    "is_det": lambda c: c.has("score"),
    "dets": lambda c: list(compress(c.entry, c.is_det.tolist())),
    "score": lambda c: _floats(lambda: map(itemgetter("score"), c.dets)),
    "has_logit": lambda c: _holds(dict.__contains__, c.dets, "logit"),
    "logit": lambda c: _floats(
        lambda: map(itemgetter("logit"), compress(c.dets, c.has_logit.tolist()))
    ),
    "anns": lambda c: _Rows(list(compress(c.entry, (~c.is_det).tolist())), {}),
    # the code of each annotation's provenance, -1 where the name is unknown
    "provenance": lambda c: np.fromiter(map(
        PROVENANCE_CODES.get, c.anns.get("provenance", PROVENANCE_ORIGINAL), repeat(-1)
    ), np.int8),
}

# A rule table lists the rules of a row in the order an entry-by-entry reader
# checks them (``tests/oracles.py::load_ref`` is that reader). A rule is a
# predicate, the mask of the rows of a ``_Rows`` that break it, and the
# message of such a row, formatted from its fields. A predicate raises one of
# ``_UNGATHERED`` only where a row breaks it or an earlier rule.


def _side_rules(side: str) -> tuple:
    """The rules of an image's ``width`` or ``height``, a pixel count."""

    def whole_not(c: _Rows) -> np.ndarray:
        # 512.7 would load as 512
        pixels = _floats(lambda: getattr(c, side))
        return pixels != np.trunc(pixels)

    return (
        (lambda c: ~(_holds(isinstance, getattr(c, side), (int, float))
                     & _holds(gt, getattr(c, side), 0)),
         f"image {{id}}: missing or non-positive {side!r}"),
        # NaN compares false with everything: it would slip past every check;
        # true, which is not a JSON number, would load as 1
        (lambda c: ~np.isfinite(_floats(lambda: getattr(c, side))),
         f"image {{id}}: {side!r} must be a finite number, got {{{side}!r}}"),
        (whole_not, f"image {{id}}: {side!r} must be a whole number, got {{{side}!r}}"),
    )


def _id_rules(kind: str) -> tuple:
    """The rules of the ``id`` of an entry of ``images`` or ``categories``."""
    return (
        (lambda c: ~c.objects(),
         kind + " entry {idx} must be an object, got {entry.__class__.__name__}"),
        (lambda c: ~c.has("id"), kind + " entry {idx} missing 'id'"),
        (lambda c: _holds(isinstance, c.id, (list, dict)),
         kind + " entry {idx}: 'id' must not be a list or object, got {id!r}"),
    )


_IMAGE_RULES = (
    *_id_rules("image"),
    *_side_rules("width"),
    *_side_rules("height"),
    (lambda c: np.fromiter(map(c.first.__getitem__, c.id), np.intp) != np.arange(len(c)),
     "duplicate image id {id}"),
    (lambda c: ~_typed(c.id, _ID_TYPES),
     "image entry {idx}: 'id' must be a string or an integer, got {id!r}"),
)


_ENTRY_RULES = (
    (lambda c: ~c.objects(), "annotation #{k} must be an object, got {entry.__class__.__name__}"),
    (lambda c: ~c.has("image_id"), "annotation {id}: missing 'image_id'"),
    (lambda c: c.image < 0, "annotation {id}: unknown image_id {entry[image_id]!r}"),
    (lambda c: ~c.has("category_id"), "annotation {id}: missing 'category_id'"),
    (lambda c: c.label == 0, "annotation {id}: unknown category_id {entry[category_id]!r}"),
    # list.__len__ raises for a box that is not a list
    (lambda c: np.fromiter(map(list.__len__, c.box), np.intp, len(c)) != 4,
     "annotation {id}: {field} must be a list of 4 numbers"),
    (lambda c: ~np.isfinite(c.values).all(axis=1),
     "annotation {id}: {field!r} must be a finite number, got {box!r}"),
    (lambda c: ~c.xywh & ~((c.values[:, 0] <= c.values[:, 2])
                           & (c.values[:, 1] <= c.values[:, 3])),
     "annotation {id}: bbox_xyxy corners not canonical"),
    (lambda c: c.xywh & ~((c.values[:, 2] >= 0.0) & (c.values[:, 3] >= 0.0)),
     "annotation {id}: negative bbox size {values[2]}x{values[3]}"),
    (lambda c: _at(len(c), c.is_det, ~np.isfinite(c.score)),
     "annotation {id}: 'score' must be a finite number, got {entry[score]!r}"),
    (lambda c: _at(len(c), c.is_det, ~((c.score >= 0.0) & (c.score <= 1.0))),
     "annotation {id}: score {score} outside [0, 1]"),
    (lambda c: _at(len(c), c.is_det.nonzero()[0][c.has_logit], ~np.isfinite(c.logit)),
     "annotation {id}: 'logit' must be a finite number, got {entry[logit]!r}"),
    (lambda c: _at(len(c), ~c.is_det, c.provenance < 0),
     "annotation {id}: unknown provenance {entry[provenance]!r}"),
    (lambda c: ~_typed(c.get("image_id"), _ID_TYPES),
     "annotation {id}: 'image_id' must be a string or an integer, got {entry[image_id]!r}"),
)


def _checked(path: Path, entry: list, rules: tuple, columns: dict, **context: object) -> _Rows:
    """The rows ``entry``, once every rule of ``rules`` holds on every row.

    Otherwise raises the error of the first row that breaks a rule, worded by
    the first rule it breaks. Only if a rule raises one of ``_UNGATHERED``
    are heads of the rows checked, halving the search, to find that row.
    """

    def first_bad(rows: _Rows) -> int:
        # the first row that breaks a rule, len(rows) if none does, -1 if unknown
        bad = np.zeros(len(rows), dtype=bool)
        try:
            for breaks, _ in rules:
                bad |= breaks(rows)
        except _UNGATHERED:
            return -1
        return int(bad.argmax()) if bad.any() else len(rows)

    whole = _Rows(entry, columns, **context)
    row = first_bad(whole)
    if row < 0:
        lo, hi = 0, len(entry)  # every rule holds on entry[:lo], not on entry[:hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            holds = first_bad(_Rows(entry[:mid], columns, **context)) == mid
            lo, hi = (mid, hi) if holds else (lo, mid)
        row = lo
    if row == len(entry):
        return whole
    head = _Rows(entry[: row + 1], columns, **context)
    for breaks, message in rules:
        try:
            broken = breaks(head)[-1]
        except _UNGATHERED:
            broken = True
        if broken:
            raise DatasetFormatError(f"{path}: " + message.format_map(head))
    raise AssertionError(f"{path}: row {row} breaks no rule")


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


def _text(path: Path, newline: str | None = None) -> str:
    """The text of the file at ``path``, read as ``open(path, newline=newline)``
    reads it; a file that is not UTF-8 is a format error that names it."""
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None


def _parsed(path: Path) -> object:
    """The JSON value in the file at ``path``, whose text is freed on
    return; a file that does not hold one is a format error that names it."""
    text = _text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    # an integer of more digits than int() reads (sys.get_int_max_str_digits),
    # or lists and objects nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from None


def _load_coco(path: Path) -> Dataset:
    raw = _parsed(path)
    _require(isinstance(raw, dict), path, "top level must be a JSON object")
    for key in ("images", "categories", "annotations"):
        _require(key in raw, path, f"missing required key {key!r}")
        _require(isinstance(raw[key], list), path, f"{key!r} must be a list")

    _checked(path, raw["categories"], _id_rules("category"), _IMAGE_COLUMNS)
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

    images = _checked(path, raw["images"], _IMAGE_RULES, _IMAGE_COLUMNS)
    image_ids = list(map(str, images.id))
    sizes = list(zip(map(int, images.width), map(int, images.height)))
    c = _checked(
        path, raw["annotations"], _ENTRY_RULES, _ENTRY_COLUMNS,
        image_of=images.first, label_of=label_of,
    )
    image, labels, is_det, xywh, boxes = c.image, c.label, c.is_det, c.xywh, c.values
    probs, has_logit, codes = c.score, c.has_logit, c.provenance
    logits = np.zeros(len(probs))
    logits[has_logit] = c.logit
    # every column is gathered: the parsed file, several times the size of
    # the columns, goes before the sets are built, and with it the rows that
    # hold its lists
    del raw, categories, images, c

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
        image[~is_det], len(image_ids), boxes[~is_det], labels=labels[~is_det], provenance=codes
    )
    detections = _grouped(
        image[is_det], len(image_ids), boxes[is_det], labels=labels[is_det], probs=probs,
        logits=logits,
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
    # decoded whole, so that an error gives the byte's place in the file
    with io.StringIO(_text(path, newline=""), newline="") as fh:
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
            # float() reads "nan" and "inf" too
            _require(
                math.isfinite(x) and math.isfinite(y),
                path,
                f"line {lineno}: x and y must be finite numbers, got {row[1]!r}, {row[2]!r}",
            )
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


def _json_list(write: Callable[[str], object], entries: Iterable[str]) -> None:
    """Write a top-level key's list of already formatted entries, two deep,
    entry by entry."""
    sep = "[\n"
    for text in entries:
        write(sep)
        write(text)
        sep = ",\n"
    write("[]" if sep == "[\n" else "\n  ]")


# the rows of a set that save_annotations turns into Python values at a time:
# a file is written as it is formatted, so the writer holds this many rows
# and one entry, however large the file
_WRITE_ROWS = 1 << 10


def _written_rows(s: BoxSet, tails: Callable[[int, int], list[str]]) -> Iterator[tuple]:
    """``(corners, label, tail)`` of each row of ``s``, converted a block of
    rows at a time; ``tails(start, stop)`` are the formatted tails of rows
    ``start:stop``."""
    for start in range(0, len(s), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        yield from zip(s.corners(start, stop), s.labels[start:stop].tolist(), tails(start, stop))


def save_annotations(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` as COCO-subset JSON.

    Output is deterministic: fixed key order, no timestamps, entries in
    dataset order. ``load_annotations`` on the result reconstructs the
    dataset exactly.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline. Entries are formatted from fixed templates because
    json's C encoder is used only without ``indent``, and its pure-Python
    fallback dominated the time of writing a file. Each entry is written as
    soon as it is formatted, so neither the text nor a list of the entries
    is ever held whole; the file is closed when this returns.
    """
    value = _json_value

    def entry(k: int, corners: list, label: object, image_id: str, tail: str) -> str:
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
            f'      "id": {k},\n'
            f'      "image_id": {image_id},\n'
            f"      {tail}\n"
            "    }"
        )

    anns, dets = dataset.annotations, dataset.detections
    provenance = [f'"provenance": {value(name, "      ")}' for name in PROVENANCES]
    # Python scalars, the ints of clipping restored: a width is x2 - x1 of
    # those, so a box clipped wholly past an edge is 0 wide, an int
    ann_rows = _written_rows(
        anns, lambda a, b: [provenance[code] for code in anns.provenance[a:b].tolist()]
    )
    det_rows = _written_rows(dets, lambda a, b: [
        f'"logit": {value(logit, "      ")},\n      "score": {value(prob, "      ")}'
        for logit, prob in zip(dets.logits[a:b].tolist(), dets.probs[a:b].tolist())
    ])
    image_ids, sizes = dataset.image_ids(), dataset.image_sizes()

    def entries() -> Iterator[str]:
        k = 0
        for image_id, n_anns, n_dets in zip(image_ids, anns.counts.tolist(), dets.counts.tolist()):
            shown = value(image_id, "      ")
            for corners, label, tail in chain(islice(ann_rows, n_anns), islice(det_rows, n_dets)):
                k += 1
                yield entry(k, corners, label, shown, tail)

    images = (
        "    {\n"
        f'      "height": {value(height, "      ")},\n'
        f'      "id": {value(image_id, "      ")},\n'
        f'      "width": {value(width, "      ")}\n'
        "    }"
        for image_id, (width, height) in zip(image_ids, sizes)
    )
    categories = [
        {"id": i, "name": name} for i, name in enumerate(dataset.class_names, start=1)
    ]
    with Path(path).open("w", encoding="utf-8") as fh:
        write = fh.write
        write('{\n  "annotations": ')
        _json_list(write, entries())
        write(f',\n  "categories": {value(categories, "  ")},\n  "images": ')
        _json_list(write, images)
        write("\n}\n")


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
