"""Independent reference implementations used to cross-check the package.

Everything here works on plain tuples and is written naively (quadratic
loops, direct formula translations) so that agreement with the package is
meaningful. Nothing imports package internals beyond constructing inputs.
"""

from __future__ import annotations

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
