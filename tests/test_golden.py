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
    # an image id and class names that SVG text must escape
    odd = {
        "images": [{"id": 'a&b <c> "d"', "width": IMAGE_SIDE, "height": IMAGE_SIDE}],
        "categories": [{"id": 1, "name": "cat & <dog>"}, {"id": 2, "name": "'x'>y"}],
        "annotations": [
            {"id": k, "image_id": 'a&b <c> "d"', "category_id": 1 + k % 2,
             "bbox": _box(rng), **({"score": 0.75} if k % 3 == 0 else {})}
            for k in range(1, 7)
        ],
    }
    (root / "odd.json").write_text(json.dumps(odd), encoding="utf-8")


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
    ("simulate", "--profile", "nb40-ex", "--seed", "7", "--images", "3",
     "--boxes-per-image", "4", "--iterations", "2", "--render", "--out", "sim-render"),
    ("render", "--dataset", "corrected-iou/corrected.json", "--detections", "dets.json",
     "--ground-truth", "clean.json", "--out", "svg"),
    ("render", "--dataset", "odd.json", "--detections", "odd.json",
     "--ground-truth", "odd.json", "--out", "svg-odd"),
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


# recorded from the package before pairwise geometry moved to arrays; the
# render and ``simulate --render`` outputs were recorded before SVG escaping
# moved into the package
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
    "sim-render/config.json":
        "00a274fb9e7fc90121b0071e1ee77e0724662878657a9b65cb759dd87a4fb815",
    "sim-render/corrected_final.json":
        "ed0f6a9c3001af6cb778f67c7b054dc285330d3cb5f71b5cc094f3fa423bed42",
    "sim-render/render/iter_000/img_0000.svg":
        "a60ef3c9dd4c77a8a49ea4cb4396d38498df0e0a969edcca724f80cbfe1ec5f4",
    "sim-render/render/iter_000/img_0001.svg":
        "af881f64121e4711a6ccccdaed697b44bbcea688fe8ee267362a1488d028cc91",
    "sim-render/render/iter_000/img_0002.svg":
        "3b90b483b2728b6752105ec30addcadcaa6e924256c777f574220fd2a2fead9e",
    "sim-render/render/iter_001/img_0000.svg":
        "0adee81a30217c1677db6bbd77285b9999c1c6e3352811422b8ae4ec89de6812",
    "sim-render/render/iter_001/img_0001.svg":
        "c766bf1ebf4c30fb93be9007f322f78e444ac72f72ae38c88f379846438e6681",
    "sim-render/render/iter_001/img_0002.svg":
        "c839ef0336cb2d8d85b00f4d87819e52fcf6fa95f9581dac78fea470767b702e",
    "sim-render/targets.json":
        "a13604172a3b5ea08392696a2138ef304c964ca781b98fb08e9eb3db68d34593",
    "sim-render/trace.jsonl":
        "63fef9b5e5a519805f8bccded33343011132e3f7be745de0199eb144b3825a04",
    "sim-render/truth.json":
        "378b0235537b3ce7457aa0b580ffed2625de036e5b5d03ed49bd1b6352b83ffe",
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
    "svg-odd/a_b__c___d_.svg":
        "a533bc4d36dfe2e3d0a1cf0758957a3c0a69e755f31654a8ea63800ba63445d6",
    "svg-odd/config.json":
        "8b38e3ae1af10d3c7866e33216119fb2ba050c18e4130783666c97cd9faf6a01",
    "svg/config.json":
        "897052287cae9c6e7ed28f550edc15b72839d89379e7fb034a055b8a351a1cde",
    "svg/img0.svg":
        "d187363f532519506f4301ed850b96d32818f1d7077a62de38ad23418ae14b89",
    "svg/img1.svg":
        "46612e4d4d82f8fb740a16b9c386430eed69cf9df3b50aa28060349977693dc9",
    "svg/img2.svg":
        "38e43f99b47114d72e6f8a8e7a08be2a3787955f5222f4aa99e22d7d58745a8f",
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
