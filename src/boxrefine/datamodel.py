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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .geometry import Box

__all__ = [
    "PROVENANCE_ORIGINAL",
    "PROVENANCE_CORRECTED",
    "PROVENANCE_MINED",
    "PROVENANCES",
    "DatasetFormatError",
    "sigmoid",
    "prob_to_logit",
    "Detection",
    "Annotation",
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


@dataclass
class Dataset:
    """An ordered collection of images plus the class vocabulary.

    Class labels are 1-based indices into ``class_names``. Image ids must be
    unique; lookup order is the file order, which all deterministic pipelines
    preserve.
    """

    class_names: list[str]
    images: list[ImageRecord]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        dupes: list[str] = []
        for rec in self.images:
            if rec.image_id in seen:
                dupes.append(rec.image_id)
            seen.add(rec.image_id)
        if dupes:
            raise ValueError(f"duplicate image ids: {sorted(set(dupes))}")
        bad_labels: list[str] = []
        n = len(self.class_names)
        for rec in self.images:
            for ann in rec.annotations:
                if ann.label > n:
                    bad_labels.append(f"{rec.image_id}:{ann.label}")
            for det in rec.detections or ():
                if det.label > n:
                    bad_labels.append(f"{rec.image_id}:{det.label}")
        if bad_labels:
            raise ValueError(
                f"labels outside the {n}-class vocabulary (image:label): {bad_labels}"
            )

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def image_ids(self) -> list[str]:
        return [rec.image_id for rec in self.images]

    def by_id(self) -> dict[str, ImageRecord]:
        return {rec.image_id: rec for rec in self.images}


def _require(cond: bool, path: Path, msg: str) -> None:
    # for one-off checks only: the message is formatted even when ``cond``
    # holds, so per-entry checks raise directly
    if not cond:
        raise DatasetFormatError(f"{path}: {msg}")


def _finite(
    values: Sequence[object], path: Path, entry: str, key: object, field: str
) -> list[float]:
    """``values`` as floats, unless one is not a finite number.

    The error names the file, the entry (``entry`` ``key``, such as
    ``annotation 7``) and the field. Non-finite values are refused at load:
    NaN compares false with everything, so it would slip past every later
    range check.
    """
    try:
        numbers = [float(v) for v in values]
        if all(map(math.isfinite, numbers)):
            return numbers
    except (TypeError, ValueError):
        pass
    shown = values[0] if len(values) == 1 else list(values)
    raise DatasetFormatError(
        f"{path}: {entry} {key}: {field!r} must be a finite number, got {shown!r}"
    )


def _read_box(entry: Mapping, path: Path, ann_id: object) -> Box:
    corners = entry.get("bbox_xyxy")
    if corners is not None:
        if not (isinstance(corners, list) and len(corners) == 4):
            raise DatasetFormatError(
                f"{path}: annotation {ann_id}: bbox_xyxy must be a list of 4 numbers"
            )
        x1, y1, x2, y2 = _finite(corners, path, "annotation", ann_id, "bbox_xyxy")
        if not (x1 <= x2 and y1 <= y2):
            raise DatasetFormatError(
                f"{path}: annotation {ann_id}: bbox_xyxy corners not canonical"
            )
        return Box(x1, y1, x2, y2)
    bbox = entry.get("bbox")
    if not (isinstance(bbox, list) and len(bbox) == 4):
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: bbox must be a list of 4 numbers"
        )
    x, y, w, h = _finite(bbox, path, "annotation", ann_id, "bbox")
    if not (w >= 0.0 and h >= 0.0):
        raise DatasetFormatError(
            f"{path}: annotation {ann_id}: negative bbox size {w}x{h}"
        )
    return Box(x, y, x + w, y + h)


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
        label_of[cat["id"]] = idx
        class_names.append(str(cat.get("name", f"class_{idx}")))

    records: list[ImageRecord] = []
    by_id: dict[object, ImageRecord] = {}
    for img in raw["images"]:
        if not (isinstance(img, dict) and "id" in img):
            raise DatasetFormatError(f"{path}: image entry missing 'id'")
        for fld in ("width", "height"):
            if not (isinstance(img.get(fld), (int, float)) and img[fld] > 0):
                raise DatasetFormatError(
                    f"{path}: image {img['id']}: missing or non-positive {fld!r}"
                )
            _finite((img[fld],), path, "image", img["id"], fld)
        rec = ImageRecord(
            image_id=str(img["id"]),
            width=int(img["width"]),
            height=int(img["height"]),
            annotations=[],
            detections=None,
        )
        if img["id"] in by_id:
            raise DatasetFormatError(f"{path}: duplicate image id {img['id']}")
        by_id[img["id"]] = rec
        records.append(rec)

    for k, entry in enumerate(raw["annotations"]):
        if not isinstance(entry, dict):
            raise DatasetFormatError(
                f"{path}: annotation #{k} must be an object, got {type(entry).__name__}"
            )
        ann_id = entry["id"] if "id" in entry else f"#{k}"
        if "image_id" not in entry:
            raise DatasetFormatError(f"{path}: annotation {ann_id}: missing 'image_id'")
        rec = by_id.get(entry["image_id"])
        if rec is None:
            raise DatasetFormatError(
                f"{path}: annotation {ann_id}: unknown image_id {entry['image_id']!r}"
            )
        if "category_id" not in entry:
            raise DatasetFormatError(f"{path}: annotation {ann_id}: missing 'category_id'")
        label = label_of.get(entry["category_id"])
        if label is None:
            raise DatasetFormatError(
                f"{path}: annotation {ann_id}: unknown category_id {entry['category_id']!r}"
            )
        box = _read_box(entry, path, ann_id).clip(rec.width, rec.height)
        if "score" in entry:
            (score,) = _finite((entry["score"],), path, "annotation", ann_id, "score")
            if not 0.0 <= score <= 1.0:
                raise DatasetFormatError(
                    f"{path}: annotation {ann_id}: score {score} outside [0, 1]"
                )
            if "logit" in entry:
                (logit,) = _finite((entry["logit"],), path, "annotation", ann_id, "logit")
            else:
                logit = prob_to_logit(score)
            det = Detection(box=box, label=label, prob=score, logit=logit)
            if rec.detections is None:
                rec.detections = []
            rec.detections.append(det)
        else:
            provenance = entry.get("provenance", PROVENANCE_ORIGINAL)
            if provenance not in PROVENANCES:
                raise DatasetFormatError(
                    f"{path}: annotation {ann_id}: unknown provenance {provenance!r}"
                )
            rec.annotations.append(
                Annotation(box=box, label=label, provenance=provenance)
            )
    return Dataset(class_names=class_names, images=records)


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


def save_annotations(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` as COCO-subset JSON.

    Output is deterministic: fixed key order, no timestamps, entries in
    dataset order. ``load_annotations`` on the result reconstructs the
    dataset exactly.
    """
    images = [
        {"id": rec.image_id, "width": rec.width, "height": rec.height}
        for rec in dataset.images
    ]
    categories = [
        {"id": i, "name": name}
        for i, name in enumerate(dataset.class_names, start=1)
    ]
    annotations: list[dict] = []

    def box_fields(box: Box) -> dict:
        return {
            "bbox": [box.x1, box.y1, box.width, box.height],
            "bbox_xyxy": [box.x1, box.y1, box.x2, box.y2],
        }

    next_id = 1
    for rec in dataset.images:
        for ann in rec.annotations:
            annotations.append(
                {
                    "id": next_id,
                    "image_id": rec.image_id,
                    "category_id": ann.label,
                    **box_fields(ann.box),
                    "provenance": ann.provenance,
                }
            )
            next_id += 1
        for det in rec.detections or ():
            annotations.append(
                {
                    "id": next_id,
                    "image_id": rec.image_id,
                    "category_id": det.label,
                    **box_fields(det.box),
                    "score": det.prob,
                    "logit": det.logit,
                }
            )
            next_id += 1
    payload = {"images": images, "categories": categories, "annotations": annotations}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


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
