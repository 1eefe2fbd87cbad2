"""Independent reference implementations used to cross-check the package.

Everything here works on plain tuples and is written naively (quadratic
loops, direct formula translations) so that agreement with the package is
meaningful. Nothing imports package internals beyond constructing inputs.
"""

from __future__ import annotations

import json
import math


def iou_ref(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """IoU on corner tuples, formulated with max(0, ...) overlap."""
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def softmax_average_ref(
    boxes: list[tuple[float, float, float, float]],
    logits: list[float],
    temperature: float,
) -> tuple[float, float, float, float]:
    """Closed-form softmax-weighted coordinate average of a prediction group."""
    scaled = [l / temperature for l in logits]
    m = max(scaled)
    weights = [math.exp(s - m) for s in scaled]
    total = sum(weights)
    weights = [w / total for w in weights]
    return tuple(
        sum(w * box[k] for w, box in zip(weights, boxes)) for k in range(4)
    )


def average_precision_ref(
    gt_by_image: dict[str, list[tuple[float, float, float, float]]],
    preds: list[tuple[str, tuple[float, float, float, float], float]],
    tp_iou: float = 0.5,
) -> float:
    """Single-class AP: rank by score, greedy-match, integrate the envelope.

    ``preds`` entries are (image_id, box, score); ties keep list order.
    """
    n_gt = sum(len(v) for v in gt_by_image.values())
    if n_gt == 0 or not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
    used = {img: [False] * len(boxes) for img, boxes in gt_by_image.items()}
    flags = []
    for i in order:
        image_id, box, _ = preds[i]
        best, best_iou = -1, 0.0
        for gi, gt_box in enumerate(gt_by_image.get(image_id, [])):
            if used.get(image_id, [])[gi]:
                continue
            ov = iou_ref(box, gt_box)
            if ov > best_iou:
                best, best_iou = gi, ov
        if best >= 0 and best_iou >= tp_iou:
            used[image_id][best] = True
            flags.append(1)
        else:
            flags.append(0)
    # precision/recall points, then area under the running-max envelope
    tp = 0
    points = []
    for rank, flag in enumerate(flags, start=1):
        tp += flag
        points.append((tp / n_gt, tp / rank))
    ap = 0.0
    prev_recall = 0.0
    for idx, (recall, _) in enumerate(points):
        if recall <= prev_recall:
            continue
        envelope = max(p for _, p in points[idx:])
        ap += (recall - prev_recall) * envelope
        prev_recall = recall
    return ap


def mine_ref(
    targets: list[tuple[tuple[float, float, float, float], int]],
    preds: list[tuple[tuple[float, float, float, float], int, float]],
    tau: float,
    nms_iou: float,
    dedup_iou: float,
) -> list[tuple[tuple[float, float, float, float], int, float]]:
    """Naive three-rule mining oracle.

    Rule 1: keep predictions with probability >= tau. Rule 2: greedy
    class-wise NMS at nms_iou (descending probability, ties by input order).
    Rule 3: drop survivors overlapping a same-class target with IoU strictly
    above dedup_iou. Returns the mined predictions in NMS visit order.
    """
    confident = [p for p in preds if p[2] >= tau]
    order = sorted(range(len(confident)), key=lambda i: -confident[i][2])
    kept: list[tuple] = []
    for i in order:
        box, label, prob = confident[i]
        suppressed = any(
            k_label == label and iou_ref(k_box, box) > nms_iou
            for k_box, k_label, _ in kept
        )
        if not suppressed:
            kept.append((box, label, prob))
    mined = []
    for box, label, prob in kept:
        dup = any(
            t_label == label and iou_ref(box, t_box) > dedup_iou
            for t_box, t_label in targets
        )
        if not dup:
            mined.append((box, label, prob))
    return mined


def giou_distance_ref(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float]
) -> float:
    """1 - GIoU on corner tuples: IoU minus the uncovered share of the hull."""
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - iw * ih
    hull = (max(a[2], b[2]) - min(a[0], b[0])) * (max(a[3], b[3]) - min(a[1], b[1]))
    if union <= 0.0 or hull <= 0.0:
        return 1.0
    return 1.0 - (iou_ref(a, b) - (hull - union) / hull)


def center_distance_ref(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float], norm: float
) -> float:
    """Distance between box centers over ``norm``."""
    ax, ay = (a[0] + a[2]) / 2.0, (a[1] + a[3]) / 2.0
    bx, by = (b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0
    return math.hypot(ax - bx, ay - by) / norm


def correct_ref(
    targets: list[tuple[tuple[float, float, float, float], int]],
    preds: list[tuple[tuple[float, float, float, float], int, float]],
    distance,
    limit: float,
    temperature: float,
    max_iterations: int,
    eps: float,
    fixed_size: float | None = None,
) -> tuple[list[tuple[float, float, float, float]], int, bool, list[int]]:
    """Naive per-class box correction of one image.

    ``targets`` are (box, label), ``preds`` (box, label, logit) and
    ``distance(a, b)`` a distance on corner tuples. Each class is corrected
    alone: every round each prediction picks its nearest working target
    (lowest index on ties), kept only if its input box lies within ``limit``;
    a class stops when the picks repeat (converged), when ``max_iterations``
    rounds are done (not converged), or when no coordinate moved by
    ``eps`` or more (converged). Returns the final boxes, the most rounds of
    any class, whether all classes converged, and per target the number of
    predictions picking it at the stop.
    """
    boxes = [tuple(box) for box, _ in targets]
    sizes = [0] * len(targets)
    if not targets or not preds:
        return boxes, 0, True, sizes

    def square(cx: float, cy: float) -> tuple[float, float, float, float]:
        half = fixed_size / 2.0
        return (cx - half, cy - half, cx + half, cy + half)

    if fixed_size is not None:
        boxes = [square((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0) for b in boxes]
    iterations, all_converged = 0, True
    for label in sorted({label for _, label in targets}):
        t_ids = [i for i, (_, lab) in enumerate(targets) if lab == label]
        p_ids = [j for j, (_, lab, _) in enumerate(preds) if lab == label]
        if not p_ids:
            continue
        rounds, previous = 0, None
        while True:
            picks = []
            for j in p_ids:
                best, best_d = -1, math.inf
                for i in t_ids:
                    d = distance(boxes[i], preds[j][0])
                    if d < best_d:
                        best, best_d = i, d
                picks.append(best if distance(targets[best][0], preds[j][0]) <= limit else -1)
            if picks == previous:
                converged = True
                break
            if rounds >= max_iterations:
                converged = False
                break
            moved = 0.0
            for i in t_ids:
                group = [j for j, t in zip(p_ids, picks) if t == i]
                if not group:
                    continue
                scaled = [preds[j][2] / temperature for j in group]
                top = max(scaled)
                exps = [math.exp(s - top) for s in scaled]
                total = sum(exps)
                weights = [e / total for e in exps]
                if fixed_size is not None:
                    cx = sum(w * ((preds[j][0][0] + preds[j][0][2]) / 2.0) for w, j in zip(weights, group))
                    cy = sum(w * ((preds[j][0][1] + preds[j][0][3]) / 2.0) for w, j in zip(weights, group))
                    new = square(cx, cy)
                else:
                    new = tuple(
                        sum(w * preds[j][0][k] for w, j in zip(weights, group)) for k in range(4)
                    )
                moved = max([moved] + [abs(n - o) for n, o in zip(new, boxes[i])])
                boxes[i] = new
            rounds += 1
            previous = picks
            if moved < eps:
                converged = True
                break
        for t in picks:
            if t >= 0:
                sizes[t] += 1
        iterations = max(iterations, rounds)
        all_converged = all_converged and converged
    return boxes, iterations, all_converged, sizes


def save_ref(dataset) -> str:
    """The text ``save_annotations`` writes, built the straightforward way.

    One dict per entry, serialised by ``json.dumps(sort_keys=True, indent=2)``,
    which with ``indent`` runs json's pure-Python encoder.
    """
    images = [
        {"id": rec.image_id, "width": rec.width, "height": rec.height}
        for rec in dataset.images
    ]
    categories = [
        {"id": i, "name": name} for i, name in enumerate(dataset.class_names, start=1)
    ]
    annotations = []

    def box_fields(box) -> dict:
        return {
            "bbox": [box.x1, box.y1, box.width, box.height],
            "bbox_xyxy": [box.x1, box.y1, box.x2, box.y2],
        }

    for rec in dataset.images:
        for ann in rec.annotations:
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": rec.image_id,
                    "category_id": ann.label,
                    **box_fields(ann.box),
                    "provenance": ann.provenance,
                }
            )
        for det in rec.detections or ():
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": rec.image_id,
                    "category_id": det.label,
                    **box_fields(det.box),
                    "score": det.prob,
                    "logit": det.logit,
                }
            )
    payload = {"images": images, "categories": categories, "annotations": annotations}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# the simulated detector's constants: spurious box sides and the narrowest span
SPURIOUS_SIDES = (16.0, 196.0)
MIN_SIDE = 1.0


def clip_ref(box, width, height):
    """Corners clipped to the image as ``Box.clip`` does: a corner past a
    bound is the bound itself, an ``int`` for an ``int`` size."""
    return tuple(min(max(v, 0.0), limit) for v, limit in zip(box, (width, height) * 2))


def _expand_span_ref(lo, hi, limit):
    if hi - lo >= MIN_SIDE:
        return lo, hi
    c = (lo + hi) / 2.0
    lo, hi = c - MIN_SIDE / 2.0, c + MIN_SIDE / 2.0
    if lo < 0.0:
        return 0.0, min(MIN_SIDE, limit)
    if hi > limit:
        return max(limit - MIN_SIDE, 0.0), limit
    return lo, hi


def constrain_ref(box, width, height):
    """Clip corners to the image, then widen spans narrower than MIN_SIDE.

    Clipping returns the bound itself, so an ``int`` width or height comes
    back as an ``int`` coordinate.
    """
    x1, y1, x2, y2 = clip_ref(box, width, height)
    x1, x2 = _expand_span_ref(x1, x2, width)
    y1, y2 = _expand_span_ref(y1, y2, height)
    return (x1, y1, x2, y2)


def draw_ref(truth, sigma, recall, fp_rate, rng, width, height, num_classes):
    """One image's simulated-detector draw, box by box.

    ``truth`` holds ``(corners, label)`` pairs. Each true box is kept when a
    uniform draw is below ``recall`` and then jittered by four normal draws
    (x1, x2, y1, y2); Poisson(``fp_rate``) spurious boxes follow, each drawn
    as width, height, center x, center y and label. Returns ``(corners,
    label)`` pairs, every box clipped and widened by :func:`constrain_ref`.
    """
    out = []
    for (x1, y1, x2, y2), label in truth:
        if rng.random() >= recall:
            continue
        dx1, dx2, dy1, dy2 = rng.normal(0.0, sigma, 4).tolist()
        xa, ya, xb, yb = x1 + dx1, y1 + dy1, x2 + dx2, y2 + dy2
        jittered = (min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))
        out.append((constrain_ref(jittered, width, height), label))
    for _ in range(int(rng.poisson(fp_rate))):
        w = rng.uniform(*SPURIOUS_SIDES)
        h = rng.uniform(*SPURIOUS_SIDES)
        cx = rng.uniform(0.0, width)
        cy = rng.uniform(0.0, height)
        label = int(rng.integers(1, num_classes + 1))
        box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        out.append((constrain_ref(box, width, height), label))
    return out


def derive_rng_ref(seed, *keys):
    """The substream named by ``keys`` under ``seed``, seeded one key at a
    time: the blake2b digest of ``seed`` and the keys, joined by ``|``, read
    as a big-endian int, seeds ``PCG64`` through numpy's own ``SeedSequence``.
    """
    import hashlib

    import numpy as np

    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for k in keys:
        h.update(b"|")
        h.update(str(k).encode())
    return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "big")))


def superfluous_ref(images, trials, success, sides, num_classes, seed, derive_rng):
    """Superfluous boxes of each image, drawn box by box.

    ``images`` holds ``(image_id, width, height)``. Image by image, from
    ``derive_rng(seed, "superfluous", image_id)``: Binomial(``trials``,
    ``success``) boxes, each drawn as width and height (uniform in
    ``sides``), center x, center y (uniform in the image) and label, then
    clipped by :func:`clip_ref`. Returns per image ``[(corners, label), ...]``.
    """
    out = []
    for image_id, width, height in images:
        rng = derive_rng(seed, "superfluous", image_id)
        boxes = []
        for _ in range(int(rng.binomial(trials, success))):
            w = rng.uniform(*sides)
            h = rng.uniform(*sides)
            cx = rng.uniform(0.0, width)
            cy = rng.uniform(0.0, height)
            label = int(rng.integers(1, num_classes + 1))
            box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
            boxes.append((clip_ref(box, width, height), label))
        out.append(boxes)
    return out


# the side lengths of synthetic true boxes
TRUTH_SIDES = (28.0, 80.0)


def truth_ref(num_images, boxes_per_image, num_classes, image_size, seed, derive_rng):
    """The surrogate loop's synthetic ground truth, drawn box by box.

    Image i is ``img_{i:04d}`` of size ``image_size``, drawn from
    ``derive_rng(seed, "truth", image_id)``: per box a width, height, center
    x, center y and label, the box fully inside the image. Returns the class
    names and, per image, ``(image_id, (width, height), [(corners, label),
    ...])``.
    """
    width, height = image_size
    images = []
    for i in range(num_images):
        image_id = f"img_{i:04d}"
        rng = derive_rng(seed, "truth", image_id)
        boxes = []
        for _ in range(boxes_per_image):
            w = rng.uniform(*TRUTH_SIDES)
            h = rng.uniform(*TRUTH_SIDES)
            cx = rng.uniform(w / 2.0, width - w / 2.0)
            cy = rng.uniform(h / 2.0, height - h / 2.0)
            label = int(rng.integers(1, num_classes + 1))
            boxes.append(((cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0), label))
        images.append((image_id, (width, height), boxes))
    return [f"class_{i}" for i in range(1, num_classes + 1)], images


class RefFormatError(ValueError):
    """A malformed file, as :func:`load_ref` reports it."""


def _ref_logit(p):
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


def _ref_number(value):
    """Whether ``value`` is a JSON number: json reads one as an int or a
    float, ``true`` as a bool and ``"1.5"`` as a str."""
    return type(value) in (int, float)


def _ref_float(value, path, entry, key, field):
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise RefFormatError(
            f"{path}: {entry} {key}: {field!r} must be a finite number, got {value!r}"
        ) from None
    if not (_ref_number(value) and math.isfinite(number)):
        raise RefFormatError(
            f"{path}: {entry} {key}: {field!r} must be a finite number, got {value!r}"
        )
    return number


def _ref_four(values, path, ann_id, field):
    if not (isinstance(values, list) and len(values) == 4):
        raise RefFormatError(f"{path}: annotation {ann_id}: {field} must be a list of 4 numbers")
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not all(_ref_number(v) and math.isfinite(f) for v, f in zip(values, out)):
        raise RefFormatError(
            f"{path}: annotation {ann_id}: {field!r} must be a finite number, got {values!r}"
        )
    return out


def load_ref(path):
    """A COCO-subset file read entry by entry, as the loader read it before it
    gathered columns: every check in file order, the first failure raised.

    Returns ``(class_names, images)``, each image ``(image_id, width, height,
    annotations, detections)``: annotations ``(x1, y1, x2, y2, label,
    provenance)``, detections ``(x1, y1, x2, y2, label, prob, logit)`` or
    ``None`` for an image without any. A corner clipped to the image is its
    ``int`` size. Raises :class:`RefFormatError` for a malformed file,
    including one whose image ids repeat after ``str``.
    """
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise RefFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RefFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    # an integer past int()'s digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise RefFormatError(f"{path}: invalid JSON: {exc}") from exc

    def require(cond, msg):
        if not cond:
            raise RefFormatError(f"{path}: {msg}")

    require(isinstance(raw, dict), "top level must be a JSON object")
    for key in ("images", "categories", "annotations"):
        require(key in raw, f"missing required key {key!r}")
        require(isinstance(raw[key], list), f"{key!r} must be a list")
    for idx, cat in enumerate(raw["categories"], start=1):
        require(isinstance(cat, dict),
                f"category entry {idx} must be an object, got {type(cat).__name__}")
        require("id" in cat, f"category entry {idx} missing 'id'")
        require(not isinstance(cat["id"], (list, dict)),
                f"category entry {idx}: 'id' must not be a list or object, got {cat['id']!r}")
    try:
        categories = sorted(raw["categories"], key=lambda c: c["id"])
    except TypeError:
        raise RefFormatError(f"{path}: category ids are not mutually comparable") from None
    require(bool(categories), "categories list is empty")
    label_of = {cat["id"]: idx for idx, cat in enumerate(categories, start=1)}
    class_names = [str(cat.get("name", f"class_{idx}")) for idx, cat in enumerate(categories, 1)]
    seen_categories = set()
    for cat in categories:
        require(cat["id"] not in seen_categories, f"duplicate category id {cat['id']!r}")
        seen_categories.add(cat["id"])

    images, by_id = [], {}
    for idx, img in enumerate(raw["images"], start=1):
        require(isinstance(img, dict),
                f"image entry {idx} must be an object, got {type(img).__name__}")
        require("id" in img, f"image entry {idx} missing 'id'")
        require(not isinstance(img["id"], (list, dict)),
                f"image entry {idx}: 'id' must not be a list or object, got {img['id']!r}")
        for fld in ("width", "height"):
            size = img.get(fld)
            require(isinstance(size, (int, float)) and size > 0,
                    f"image {img['id']}: missing or non-positive {fld!r}")
            _ref_float(size, path, "image", img["id"], fld)
            require(size == int(size),
                    f"image {img['id']}: {fld!r} must be a whole number, got {size!r}")
        image = [str(img["id"]), int(img["width"]), int(img["height"]), [], None]
        require(img["id"] not in by_id, f"duplicate image id {img['id']}")
        require(type(img["id"]) in (str, int),
                f"image entry {idx}: 'id' must be a string or an integer, got {img['id']!r}")
        by_id[img["id"]] = image
        images.append(image)

    for k, entry in enumerate(raw["annotations"]):
        require(isinstance(entry, dict),
                f"annotation #{k} must be an object, got {type(entry).__name__}")
        ann_id = entry["id"] if "id" in entry else f"#{k}"
        require("image_id" in entry, f"annotation {ann_id}: missing 'image_id'")
        try:
            image = by_id.get(entry["image_id"])
        except TypeError:
            image = None
        require(image is not None, f"annotation {ann_id}: unknown image_id {entry['image_id']!r}")
        require("category_id" in entry, f"annotation {ann_id}: missing 'category_id'")
        try:
            label = label_of.get(entry["category_id"])
        except TypeError:
            label = None
        require(label is not None,
                f"annotation {ann_id}: unknown category_id {entry['category_id']!r}")
        if entry.get("bbox_xyxy") is not None:
            x1, y1, x2, y2 = _ref_four(entry["bbox_xyxy"], path, ann_id, "bbox_xyxy")
            require(x1 <= x2 and y1 <= y2, f"annotation {ann_id}: bbox_xyxy corners not canonical")
        else:
            x1, y1, w, h = _ref_four(entry.get("bbox"), path, ann_id, "bbox")
            require(w >= 0.0 and h >= 0.0, f"annotation {ann_id}: negative bbox size {w}x{h}")
            x2, y2 = x1 + w, y1 + h
        width, height = image[1], image[2]
        corners = clip_ref((x1, y1, x2, y2), width, height)
        if "score" in entry:
            score = _ref_float(entry["score"], path, "annotation", ann_id, "score")
            require(0.0 <= score <= 1.0, f"annotation {ann_id}: score {score} outside [0, 1]")
            if "logit" in entry:
                logit = _ref_float(entry["logit"], path, "annotation", ann_id, "logit")
            else:
                logit = _ref_logit(score)
            if image[4] is None:
                image[4] = []
            image[4].append((*corners, label, score, logit))
        else:
            provenance = entry.get("provenance", "original")
            require(provenance in ("original", "corrected", "mined"),
                    f"annotation {ann_id}: unknown provenance {provenance!r}")
            image[3].append((*corners, label, provenance))
        require(type(entry["image_id"]) in (str, int),
                f"annotation {ann_id}: 'image_id' must be a string or an integer, "
                f"got {entry['image_id']!r}")

    seen, dupes = set(), []
    for image in images:
        if image[0] in seen:
            dupes.append(image[0])
        seen.add(image[0])
    if dupes:
        raise RefFormatError(
            f"{path}: duplicate image ids once read as text: {sorted(set(dupes))}"
        )
    return class_names, [tuple(image) for image in images]


# Keyed streams, one draw at a time: SplitMix64 in Python integers, and the
# package's variates written out for one value each.

GAMMA_REF = 0x9E3779B97F4A7C15
MASK64 = 2**64 - 1


def splitmix64_ref(state):
    """SplitMix64 seeded with ``state``: its outputs, one after another."""
    while True:
        state = (state + GAMMA_REF) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def stream_key_ref(seed, *keys):
    """The key of the stream named by ``keys`` under ``seed``: the blake2b
    digest of ``seed`` and the keys, joined by ``|``, read as a big-endian int."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for k in keys:
        h.update(b"|")
        h.update(str(k).encode())
    return int.from_bytes(h.digest(), "big")


def keyed_uniforms_ref(key):
    """The uniforms of the stream with ``key``: each output's top 53 bits
    times 2**-53."""
    return ((x >> 11) * 2.0**-53 for x in splitmix64_ref(key))


# AS 241 (Wichura 1988), as the ``statistics`` module writes it
def normal_quantile_ref(q, tail):
    """The standard normal quantile of ``p = 0.5 + q``, given ``q`` and
    ``tail = min(p, 1 - p)``."""
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e+3 * r +
                     3.3430575583588128105e+4) * r +
                     6.7265770927008700853e+4) * r +
                     4.5921953931549871457e+4) * r +
                     1.3731693765509461125e+4) * r +
                     1.9715909503065514427e+3) * r +
                     1.3314166789178437745e+2) * r +
                     3.3871328727963666080e+0) * q
        den = (((((((5.2264952788528545610e+3 * r +
                     2.8729085735721942674e+4) * r +
                     3.9307895800092710610e+4) * r +
                     2.1213794301586595867e+4) * r +
                     5.3941960214247511077e+3) * r +
                     6.8718700749205790830e+2) * r +
                     4.2313330701600911252e+1) * r +
                     1.0)
        return num / den
    r = math.sqrt(-math.log(tail))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545014278341407640e-4 * r +
                     2.27238449892691845833e-2) * r +
                     2.41780725177450611770e-1) * r +
                     1.27045825245236838258e+0) * r +
                     3.64784832476320460504e+0) * r +
                     5.76949722146069140550e+0) * r +
                     4.63033784615654529590e+0) * r +
                     1.42343711074968357734e+0)
        den = (((((((1.05075007164441684324e-9 * r +
                     5.47593808499534494600e-4) * r +
                     1.51986665636164571966e-2) * r +
                     1.48103976427480074590e-1) * r +
                     6.89767334985100004550e-1) * r +
                     1.67638483018380384940e+0) * r +
                     2.05319162663775882187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033439929228813265e-7 * r +
                     2.71155556874348757815e-5) * r +
                     1.24266094738807843860e-3) * r +
                     2.65321895265761230930e-2) * r +
                     2.96560571828504891230e-1) * r +
                     1.78482653991729133580e+0) * r +
                     5.46378491116411436990e+0) * r +
                     6.65790464350110377720e+0)
        den = (((((((2.04426310338993978564e-15 * r +
                     1.42151175831644588870e-7) * r +
                     1.84631831751005468180e-5) * r +
                     7.86869131145613259100e-4) * r +
                     1.48753612908506148525e-2) * r +
                     1.36929880922735805310e-1) * r +
                     5.99832206555887937690e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x


class StreamRef:
    """Scalar variates of a sequence of uniforms, one draw each, as the
    package defines them; ``Generator``-like methods, so that the oracles
    above that take an ``rng`` can draw from it."""

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def random(self):
        return next(self._uniforms)

    def uniform(self, low, high):
        return low + (high - low) * self.random()

    def integers(self, low, high):
        n = high - low
        return low + min(math.floor(n * self.random()), n - 1)

    def normal(self):
        """A standard normal: the quantile of ``u + 2**-54``."""
        q = (self.random() - 0.5) + 2.0**-54
        return normal_quantile_ref(q, 0.5 - abs(q))

    def binomial(self, n, p):
        return sum(self.random() < p for _ in range(n))

    def poisson(self, lam):
        """Inversion, summing the probabilities up from 0: for ``lam`` below
        about 700, where ``exp(-lam)`` does not underflow."""
        u = self.random()
        k, p = 0, math.exp(-lam)
        cdf = p
        while u >= cdf:
            k += 1
            p *= lam / k
            cdf += p
        return k


def stream_ref(seed, *keys, skip=0):
    """The stream named by ``keys`` under ``seed``, from its draw ``skip`` on."""
    uniforms = keyed_uniforms_ref(stream_key_ref(seed, *keys))
    for _ in range(skip):
        next(uniforms)
    return StreamRef(uniforms)


def draw_slots_ref(truth, sigma, recall, fp_rate, stream, spurious, width, height,
                   num_classes):
    """One image's simulated-detector draw in fixed slots, box by box.

    ``truth`` holds ``(corners, label)`` pairs. From ``stream``: the Poisson
    count of spurious boxes, then five draws per true box: it is kept when
    the first is below ``recall``, and jittered by ``sigma`` times the
    normals of the other four (x1, x2, y1, y2). From ``spurious``: per
    spurious box, width, height, center x, center y and label, as
    :func:`draw_ref`. Returns ``(corners, label)`` pairs, every box clipped
    and widened by :func:`constrain_ref`.
    """
    out = []
    count = stream.poisson(fp_rate)
    for (x1, y1, x2, y2), label in truth:
        kept = stream.random() < recall
        dx1, dx2, dy1, dy2 = (sigma * stream.normal() for _ in range(4))
        if kept:
            xa, ya, xb, yb = x1 + dx1, y1 + dy1, x2 + dx2, y2 + dy2
            jittered = (min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))
            out.append((constrain_ref(jittered, width, height), label))
    for _ in range(count):
        w = spurious.uniform(*SPURIOUS_SIDES)
        h = spurious.uniform(*SPURIOUS_SIDES)
        cx = spurious.uniform(0.0, width)
        cy = spurious.uniform(0.0, height)
        label = spurious.integers(1, num_classes + 1)
        box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        out.append((constrain_ref(box, width, height), label))
    return out
