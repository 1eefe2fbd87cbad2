"""Seeded input generator for the benchmark workloads.

Writes a clean COCO-subset ground-truth file and a simulated-detections file
for the pipeline workloads. The same ``(size, seed)`` always gives the same
bytes; the program under test receives only these files.

Each true object yields a few jittered detections (some of them confident
enough to be mined), and every image also gets a few background boxes, so
correction, mining, NMS, AP matching and the error breakdown all have work
on every image. Object and detection counts are fixed per size, only their
geometry varies with the seed, so the work per run is nearly seed-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PipelineSize:
    images: int
    objects_per_image: int
    image_side: int
    classes: int
    # detections drawn around each true object
    copies_per_object: int
    # background detections per image
    background_per_image: int
    min_side: float
    max_side: float


def _clip(v: float, hi: int) -> float:
    return min(max(v, 0.0), float(hi))


def _bbox(x1: float, y1: float, x2: float, y2: float) -> list[float]:
    return [x1, y1, x2 - x1, y2 - y1]


def _random_box(rng: np.random.Generator, size: PipelineSize) -> tuple[float, ...]:
    side = size.image_side
    w = rng.uniform(size.min_side, size.max_side)
    h = rng.uniform(size.min_side, size.max_side)
    cx = rng.uniform(w / 2.0, side - w / 2.0)
    cy = rng.uniform(h / 2.0, side - h / 2.0)
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def generate_pipeline(size: PipelineSize, seed: int, out_dir: Path) -> dict:
    """Write ``clean.json`` and ``dets.json`` into ``out_dir``; return their stats."""
    rng = np.random.default_rng([seed, size.images, size.objects_per_image])
    side = size.image_side
    images = [{"id": i, "width": side, "height": side} for i in range(1, size.images + 1)]
    categories = [{"id": c, "name": f"class_{c}"} for c in range(1, size.classes + 1)]
    truth: list[dict] = []
    dets: list[dict] = []
    for img in images:
        for _ in range(size.objects_per_image):
            x1, y1, x2, y2 = _random_box(rng, size)
            label = int(rng.integers(1, size.classes + 1))
            truth.append(
                {
                    "id": len(truth) + 1,
                    "image_id": img["id"],
                    "category_id": label,
                    "bbox": _bbox(x1, y1, x2, y2),
                }
            )
            sigma_x = 0.08 * (x2 - x1)
            sigma_y = 0.08 * (y2 - y1)
            for copy in range(size.copies_per_object):
                jx1, jx2 = sorted(
                    (_clip(x1 + rng.normal(0.0, sigma_x), side),
                     _clip(x2 + rng.normal(0.0, sigma_x), side))
                )
                jy1, jy2 = sorted(
                    (_clip(y1 + rng.normal(0.0, sigma_y), side),
                     _clip(y2 + rng.normal(0.0, sigma_y), side))
                )
                # the first copy is the detector's confident hit, later ones
                # are weaker duplicates
                score = rng.uniform(0.55, 0.99) if copy == 0 else rng.uniform(0.1, 0.92)
                dets.append(
                    {
                        "id": len(dets) + 1,
                        "image_id": img["id"],
                        "category_id": label,
                        "bbox": _bbox(jx1, jy1, jx2, jy2),
                        "score": round(float(score), 4),
                    }
                )
        for _ in range(size.background_per_image):
            x1, y1, x2, y2 = _random_box(rng, size)
            dets.append(
                {
                    "id": len(dets) + 1,
                    "image_id": img["id"],
                    "category_id": int(rng.integers(1, size.classes + 1)),
                    "bbox": _bbox(x1, y1, x2, y2),
                    "score": round(float(rng.uniform(0.05, 0.75)), 4),
                }
            )
    stats = {"images": len(images), "boxes": len(truth), "detections": len(dets)}
    for name, entries in (("clean.json", truth), ("dets.json", dets)):
        payload = {"images": images, "categories": categories, "annotations": entries}
        path = out_dir / name
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
        stats[name.replace(".json", "_bytes")] = path.stat().st_size
    return stats
