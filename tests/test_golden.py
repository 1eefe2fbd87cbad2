"""Golden outputs: small seeded CLI runs must reproduce recorded bytes.

Byte-determinism tests compare a run with a re-run of the same code; these
compare it with digests recorded from an earlier version of the package, so
a rewrite of a hot path that changes any output byte fails here. The inputs
are written as plain JSON from a seeded generator, independently of the
package. When a change alters outputs on purpose, re-record the digests with
``python tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from boxrefine.cli import main

IMAGE_SIDE = 512


def _box(rng: np.random.Generator) -> list[float]:
    w, h = rng.uniform(20.0, 90.0, 2)
    cx, cy = rng.uniform(50.0, IMAGE_SIDE - 50.0, 2)
    return [float(cx - w / 2), float(cy - h / 2), float(w), float(h)]


def write_inputs(root: Path, seed: int = 2022) -> None:
    """A clean set and detections around it, with exact duplicates for ties."""
    rng = np.random.default_rng(seed)
    images, clean, dets = [], [], []
    for i in range(3):
        image_id = f"img{i}"
        images.append({"id": image_id, "width": IMAGE_SIDE, "height": IMAGE_SIDE})
        objects = [(_box(rng), int(rng.integers(1, 4))) for _ in range(40)]
        # an exact duplicate target: ties in assignment go to the lower index
        objects.append(objects[0])
        for bbox, label in objects:
            clean.append({"id": len(clean) + 1, "image_id": image_id,
                          "category_id": label, "bbox": bbox})
            for _ in range(int(rng.integers(0, 5))):
                x, y, w, h = (np.asarray(bbox) + rng.normal(0.0, 9.0, 4)).tolist()
                dets.append({"image_id": image_id, "category_id": label,
                             "bbox": [x, y, abs(w), abs(h)],
                             "score": float(rng.uniform(0.3, 1.0))})
        for _ in range(8):
            dets.append({"image_id": image_id, "category_id": int(rng.integers(1, 4)),
                         "bbox": _box(rng), "score": float(rng.uniform(0.0, 1.0))})
        # an exact duplicate detection, score included
        dets.append(dict(dets[-1]))
    for k, entry in enumerate(dets, start=1):
        entry["id"] = k
    categories = [{"id": c, "name": f"class_{c}"} for c in (1, 2, 3)]
    for name, entries in (("clean.json", clean), ("dets.json", dets)):
        payload = {"images": images, "categories": categories, "annotations": entries}
        (root / name).write_text(json.dumps(payload), encoding="utf-8")


RUNS: tuple[tuple[str, ...], ...] = (
    ("inject-noise", "--profile", "nb20-ns50", "--seed", "3",
     "--input", "clean.json", "--out", "noisy"),
    ("correct", "--profile", "nb20-ns50", "--targets", "noisy/annotations.json",
     "--detections", "dets.json", "--out", "corrected-iou"),
    ("correct", "--profile", "nb20-ns50", "--distance", "giou",
     "--distance-limit", "0.9", "--targets", "noisy/annotations.json", "--detections", "dets.json",
     "--out", "corrected-giou"),
    ("correct", "--profile", "edmonton", "--targets", "noisy/annotations.json",
     "--detections", "dets.json", "--out", "corrected-edmonton"),
    ("evaluate", "--profile", "nb20-ns50", "--ground-truth", "clean.json",
     "--predictions", "dets.json", "--annotations", "corrected-iou/corrected.json",
     "--out", "metrics"),
    ("simulate", "--profile", "nb40-ex", "--seed", "5", "--images", "6",
     "--boxes-per-image", "12", "--iterations", "3", "--out", "sim"),
)


def run_all(root: Path) -> dict[str, str]:
    """Run every golden invocation in ``root``; SHA-256 of each output file."""
    write_inputs(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in RUNS:
            assert main(list(argv)) == 0, argv
    finally:
        os.chdir(cwd)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.parent != root
    }


# recorded from the package before pairwise geometry moved to arrays
GOLDEN: dict[str, str] = {
    "corrected-edmonton/config.json":
        "246aa4a76a30670dfa3aecfe2342043db8b041a68b6b1bfbdaf73a31b300d431",
    "corrected-edmonton/corrected.json":
        "3fe7b0fda1c0ac34a7f1f92e90715a98f74ad5b8c109e4e99f3844f29d69e25c",
    "corrected-edmonton/report.json":
        "fb7b6f48529854875c2657af085bb5cf300a73e67248d3e70ee4c59ec7bab98f",
    "corrected-giou/config.json":
        "44b6f3d87e1c813856dddf4db25039da9de33c858e67ef4df99722dc844d609e",
    "corrected-giou/corrected.json":
        "e5d8f14b710324cb2061da9725bb1a51cb0042a1fe30d47aa480726de83b6eb0",
    "corrected-giou/report.json":
        "79fe68956d99b6f822924e80cda61357df0f9cfe2fcde2de86079405c9ec34df",
    "corrected-iou/config.json":
        "9ca1def26039aa919b5ea086f81d73cf9c940784e483c0c3a478573339b93998",
    "corrected-iou/corrected.json":
        "f4dc9ca201bd21a799829ca3d58698e0ceb699c172058fe2820ed200b33dd6a6",
    "corrected-iou/report.json":
        "ec0990b3bc6b64647c6acfa86f631e5647cddee23641cba5929cc5296aafdc91",
    "metrics/config.json":
        "8eb604426a69b359b103458523a23128516a061fbaaba3e5d3ad60daef0ec060",
    "metrics/metrics.json":
        "d4807d06e1bfddbc526b80e570d97116802904f7bdbdbb1653c3d301cf5666e4",
    "metrics/per_class_ap.csv":
        "9cb06fddf3017c127bbb15479524c5ec19e855651f9e5ee6acb3df7a7a5985db",
    "noisy/annotations.json":
        "35e9322fbcae8262f5324ef5dc8ea1bbda0310b3cad24977dd6889ac61fafe4c",
    "noisy/config.json":
        "5814ed13d0fc8f59fe6205c6b02c8ebca59b08c0cc92e2bac29406aa526b54d2",
    "noisy/summary.json":
        "42ceebe51e62c9015a20ee549e8f201d5e1ea783439ca914462c19ed8cb1eaad",
    "sim/config.json":
        "34e5f09cd42ed5ef713415aa00877f215edf0df5d82e4c152af55e6df0f83ef5",
    "sim/corrected_final.json":
        "7768ab36ee58b731653bdc540e781aa8273c0679bb026845326c0023f8a8bc83",
    "sim/targets.json":
        "d9cf992fdefc95a29068070023dd4916ef03d5ea1b8dac537a5c202c359f80a6",
    "sim/trace.jsonl":
        "983f682c5b844c2fd11b70b27e61d70689c331ab1c2ef6469c24c7e51d153a81",
    "sim/truth.json":
        "3437ef6e2321bc082d77682c342045701df14321eed6e953cc9c667f482976d5",
}


def test_outputs_match_recorded_digests(tmp_path):
    got = run_all(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"outputs differ from the recorded digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    json.dump(digests, sys.stdout, indent=4, sort_keys=True)
    print()
