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
import subprocess
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
    write_order_inputs(root, rng)
    write_point_inputs(root, clean, rng)


def write_order_inputs(root: Path, rng: np.random.Generator) -> None:
    """Files whose images come in different orders and whose entries are
    interleaved across images: pairing and sum order must follow the ground
    truth's image order, except where a file's own order is specified."""
    side = (200, 160)
    ids = ["p0", "p1", "p2", "p3"]
    truth = {i: [] for i in ids}
    for image_id in ids:
        for _ in range(10):
            w, h = rng.uniform(20.0, 60.0, 2)
            x, y = rng.uniform(0.0, side[0] - w), rng.uniform(0.0, side[1] - h)
            truth[image_id].append(([float(x), float(y), float(w), float(h)],
                                    int(rng.integers(1, 3))))

    def interleave(per_image: dict[str, list[dict]]) -> list[dict]:
        # image after image within each round: p0's first, p1's first, ...
        rounds = max(len(v) for v in per_image.values())
        out = [v[k] for k in range(rounds) for v in per_image.values() if k < len(v)]
        for k, entry in enumerate(out, start=1):
            entry["id"] = k
        return out

    def images(order: list[str]) -> list[dict]:
        return [{"id": i, "width": side[0], "height": side[1]} for i in order]

    gt = {i: [{"image_id": i, "category_id": c, "bbox": b} for b, c in truth[i]] for i in ids}
    targets = {
        i: [{"image_id": i, "category_id": c,
             "bbox": (np.asarray(b) + rng.normal(0.0, 4.0, 4)).clip(1.0).tolist()}
            for b, c in truth[i][:8]]
        for i in ids
    }
    # wholly past the right edge: clipped to the int width, so zero wide
    targets["p2"].append({"image_id": "p2", "category_id": 1,
                          "bbox_xyxy": [230.5, 10.0, 260.0, 40.0]})
    dets: dict[str, list[dict]] = {i: [] for i in ids}
    for i in ("p0", "p2", "p3"):  # p1 has no detections
        for b, c in truth[i]:
            for _ in range(2):
                x, y, w, h = (np.asarray(b) + rng.normal(0.0, 3.0, 4)).tolist()
                # few distinct scores: ties across images keep the image order
                dets[i].append({"image_id": i, "category_id": c, "bbox": [x, y, abs(w), abs(h)],
                                "score": float(rng.choice([0.55, 0.8, 0.95]))})
        # a plain annotation mixed into the detections file
        dets[i].append({"image_id": i, "category_id": 2, "bbox": [5.0, 5.0, 10.0, 10.0]})
    categories = [{"id": 1, "name": "one"}, {"id": 2, "name": "two"}]
    for name, order, per_image in (
        ("order-gt.json", ids, gt),
        ("order-targets.json", ["p2", "p0", "p3", "p1"], targets),
        ("order-dets.json", ["p3", "p1", "p0", "p2"], dets),
    ):
        payload = {"images": images(order), "categories": categories,
                   "annotations": interleave({i: per_image[i] for i in order[::-1]})}
        (root / name).write_text(json.dumps(payload), encoding="utf-8")


def write_point_inputs(root: Path, clean: list[dict], rng: np.random.Generator) -> None:
    """A point CSV of the clean set's centres, rows interleaved across images
    and images first seen out of order, with points on the image border."""
    rows = []
    for entry in clean:
        if rng.random() < 0.3:
            x, y, w, h = entry["bbox"]
            rows.append(f"{entry['image_id']},{x + w / 2!r},{y + h / 2!r},{entry['category_id']}")
    order = rng.permutation(len(rows)).tolist()
    rows = [rows[k] for k in order]
    # on the right border: the square is clipped to the int width; on the top
    # border: clipped to 0.0; in a corner: both
    rows[3:3] = [f"img0,{IMAGE_SIDE},200.25,1", "img2,100.5,0,3", f"img1,0,{IMAGE_SIDE},2"]
    rows.insert(len(rows) // 2, "")  # a blank line, skipped
    text = "image_id,x,y,label\n" + "\n".join(rows) + "\n"
    (root / "points.csv").write_text(text, encoding="utf-8")


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
    # no profile: every setting comes from the built-in defaults
    ("correct", "--targets", "noisy/annotations.json", "--detections", "dets.json",
     "--out", "corrected-default"),
    # one superfluous flag switches superfluous noise on with the other defaults
    ("simulate", "--superfluous-min-side", "24", "--out", "sim-default"),
    # corrected_final.json holds an image bound both as an int (96, clipped)
    # and as a float (96.0, flipped back)
    ("simulate", "--profile", "nb40-ex", "--seed", "5", "--images", "6",
     "--boxes-per-image", "6", "--iterations", "2", "--image-size", "96x96",
     "--out", "sim-edges"),
    ("render", "--dataset", "corrected-iou/corrected.json", "--detections", "dets.json",
     "--ground-truth", "clean.json", "--out", "svg"),
    ("render", "--dataset", "odd.json", "--detections", "odd.json",
     "--ground-truth", "odd.json", "--out", "svg-odd"),
    # images in a different order in each file, entries interleaved across
    # images, an image without detections, a box clipped wholly past an edge
    ("correct", "--profile", "nb20-ns50", "--targets", "order-targets.json",
     "--detections", "order-dets.json", "--out", "order-corrected"),
    ("evaluate", "--ground-truth", "order-gt.json", "--predictions", "order-dets.json",
     "--annotations", "order-corrected/corrected.json", "--out", "order-metrics"),
    # point input, each point boxed as a square clipped to its 512x512 image
    ("inject-noise", "--profile", "nb20-ns50", "--seed", "4", "--format", "point-csv",
     "--point-side", "47.5", "--input", "points.csv", "--out", "points-noisy"),
    ("correct", "--profile", "nb20-ns50", "--format", "point-csv", "--point-side", "47.5",
     "--targets", "points.csv", "--detections", "dets.json", "--out", "points-corrected"),
    ("render", "--format", "point-csv", "--point-side", "33", "--dataset", "points.csv",
     "--detections", "dets.json", "--ground-truth", "clean.json", "--out", "points-svg"),
)


# the subcommands that write annotation files
WRITERS = ("inject-noise", "correct", "simulate")


def run_all(root: Path, processes: bool = False) -> dict[str, str]:
    """Run every golden invocation in ``root``; SHA-256 of each output file.

    With ``processes``, each invocation of a subcommand that writes
    annotations runs as its own ``python -m boxrefine.cli`` process, which
    ends with ``os._exit``: bytes a writer left in a buffer would be lost.
    """
    write_inputs(root)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in RUNS:
            if processes and argv[0] in WRITERS:
                proc = subprocess.run([sys.executable, "-m", "boxrefine.cli", *argv], env=env,
                                      capture_output=True, text=True)
                assert proc.returncode == 0, (argv, proc.stderr)
            else:
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
# moved into the package, the ``*-default`` outputs before the CLI derived its
# defaults from the config dataclasses, ``sim-edges`` before the loop kept its
# boxes in columns, the ``order-*`` outputs before datasets were held in columns,
# the ``points-*`` outputs before point labels were boxed as they are read. Every
# drawn output (``noisy``, ``points-noisy``, ``sim*``) and the ``correct``,
# ``evaluate`` and ``render`` outputs that read ``noisy`` were recorded when noise
# moved to the package's own keyed streams; fed the earlier ``noisy`` files, those
# three commands wrote the earlier bytes
GOLDEN: dict[str, str] = {
    "corrected-default/config.json":
        "51b8c2827cde5cbc754f38bf2ea77ad342f92c3f366382c590e09fa853f759ad",
    "corrected-default/corrected.json":
        "e60da5790c8d629360098a00ec484ce0396d06a568f01df86d789e903073f80d",
    "corrected-default/report.json":
        "3d80f68509dbf4ee573ad7921bcc9c35bf393557db95f727497c4d882fb9ccfa",
    "corrected-edmonton/config.json":
        "246aa4a76a30670dfa3aecfe2342043db8b041a68b6b1bfbdaf73a31b300d431",
    "corrected-edmonton/corrected.json":
        "e6c9b7f35c16d12b96410bcab603cc15fdb4b30f90115003d5fa18b05302cf91",
    "corrected-edmonton/report.json":
        "dced6244dd7bcd2ef2710bf8f3a15a7a539c3a58f4657d6e1750bc58568c2f6d",
    "corrected-giou/config.json":
        "44b6f3d87e1c813856dddf4db25039da9de33c858e67ef4df99722dc844d609e",
    "corrected-giou/corrected.json":
        "688593f06186d650f8d09f50511c496eaf5a9d8410235f3dab272a6b00a8fade",
    "corrected-giou/report.json":
        "f6933c671bbc1cae7b04e038e957187319a472127c595117a054ece67d8a89e0",
    "corrected-iou/config.json":
        "9ca1def26039aa919b5ea086f81d73cf9c940784e483c0c3a478573339b93998",
    "corrected-iou/corrected.json":
        "920b46ca18e46a028330c90c468e9525f8e4047ea708aa8d21823bc9afdd7eba",
    "corrected-iou/report.json":
        "5e689ead1276b02083d4362caeaf2d03634ba3b74c322da2385d6bf5b11a6d5c",
    "metrics/config.json":
        "8eb604426a69b359b103458523a23128516a061fbaaba3e5d3ad60daef0ec060",
    "metrics/metrics.json":
        "f18b1991527ceefa2604244ef9eeb8318059483e70e856cf35bc211aaa859b2d",
    "metrics/per_class_ap.csv":
        "9cb06fddf3017c127bbb15479524c5ec19e855651f9e5ee6acb3df7a7a5985db",
    "noisy/annotations.json":
        "e60da5790c8d629360098a00ec484ce0396d06a568f01df86d789e903073f80d",
    "noisy/config.json":
        "5814ed13d0fc8f59fe6205c6b02c8ebca59b08c0cc92e2bac29406aa526b54d2",
    "noisy/summary.json":
        "42ceebe51e62c9015a20ee549e8f201d5e1ea783439ca914462c19ed8cb1eaad",
    "order-corrected/config.json":
        "c0b1f0abfa52703e71d895ec4007c636f5f8c70549fdbdebcc6d11f420554c9b",
    "order-corrected/corrected.json":
        "b3624c94f6c0fe55aaaa227f2d9c0e55f4b5b1d429774a1cde630d744ac621b1",
    "order-corrected/report.json":
        "fa2ea20d4bbf3fdf74e37170693fb4a253885907499872458beeea7d596a6d7b",
    "order-metrics/config.json":
        "b8b92bbb138de48cf33c4eed8c1e7f6a26128cf7f8c661db28a5ca03b0dc4c5b",
    "order-metrics/metrics.json":
        "397f3194501448f38f37a5710ed7520ace30374ccfff692f5f31a8fff6fc4718",
    "order-metrics/per_class_ap.csv":
        "7e7eb50f1bcddb81f48be7f79b3105b490eaf69525d94fb75296b76ade2256fa",
    "points-corrected/config.json":
        "22fc0a8d665075058ba0c40fc62159e01977dcb8cefac2d860259860ffc37846",
    "points-corrected/corrected.json":
        "bec72f7ff874057fd0d79f64594e1cdfff4593c1d522e54bef385757b0769f10",
    "points-corrected/report.json":
        "3d6e4fa13bba957a41d18c5f95679d20d3896e6b7c0fb12fe20b72e51f73ddff",
    "points-noisy/annotations.json":
        "fbfe218e5b52cf821dc0f71af0d67d4c7934d7eb0445dbee035d86ba48157258",
    "points-noisy/config.json":
        "00069f3a21d3728115f77221df0c5dcd531b3e49d1ed7fcab61d0d1cd9fc02c8",
    "points-noisy/summary.json":
        "13db7b859bd59a896be0825ac45b8da01c9c22543b714e9208429baca8101f57",
    "points-svg/config.json":
        "2dcb95c14d84c8956f796c834d87e0ef453e60b7b118df8b685256149e3bba12",
    "points-svg/img0.svg":
        "74533bc7191a5c30d9077aafc924d8e6c8247ef250cec3435c61c761ead67f81",
    "points-svg/img1.svg":
        "15ed4073d284417fa2fa914b8a524c53888cc8674839f861191bcb0bd9403731",
    "points-svg/img2.svg":
        "122a8a9d554c66485ecf1c2ba443bc8e3582058388343d7766fab5f86e0f5a42",
    "sim-default/config.json":
        "4513c134175eeb7b61ce15a7bf73b00cae0b0d4465277c9958cf3bfb23b61f98",
    "sim-default/corrected_final.json":
        "539cf71fc676fcea4d0e258652904569415cced3802abc33dba9ae11b8aa043e",
    "sim-default/targets.json":
        "539cf71fc676fcea4d0e258652904569415cced3802abc33dba9ae11b8aa043e",
    "sim-default/trace.jsonl":
        "cbe57f2508f8bb2de0b5969c4e3b47f97105184d12725b859d90dde0b4eb16ed",
    "sim-default/truth.json":
        "9dc36c61da93955fb08ad7670935a7e7b3c5a7b1df4103feb25c9ec9dde95c17",
    "sim-edges/config.json":
        "8414a3b0d33a20385d23aad61133e991954bb7fe1dd4c70f2daa5e3a7f89a666",
    "sim-edges/corrected_final.json":
        "7076ba6d29dab5b3d760ca5dd7309e85eb0b6fe586cc2817559e441363fccf75",
    "sim-edges/targets.json":
        "4b0c94dd42e65b10c6a5b60dee7e324eb4098c4f9c7ca6ebd37df0a317059a77",
    "sim-edges/trace.jsonl":
        "9ee78721d78b51ba286d8be80f0d2ae0dd4f2bdaf5ada382afdf73843d5644a7",
    "sim-edges/truth.json":
        "92ae7518e0d36e52a00d52e62cd65a8f5caea5cc89136b4d8419bed1c93ae708",
    "sim-render/config.json":
        "00a274fb9e7fc90121b0071e1ee77e0724662878657a9b65cb759dd87a4fb815",
    "sim-render/corrected_final.json":
        "9db9b924da5ea0a703731fc3a7c6d1d450013daf0f23ae850bc0ed7a4d47b351",
    "sim-render/render/iter_000/img_0000.svg":
        "2437ef3ec00081011ad0a6f699420ba410a9159bc70e99e7b6f9f99647b4edfc",
    "sim-render/render/iter_000/img_0001.svg":
        "953e141dff518f6efadd8545cccb791165efc42509ae0ee0ab7fc78d0c84e936",
    "sim-render/render/iter_000/img_0002.svg":
        "7a923448ad26c2e0342074b1c42516f47bfaafeb69e8454ce7d5c2a1a616b5f8",
    "sim-render/render/iter_001/img_0000.svg":
        "f89c72f2bf9c80f870434b8b4a42c2a9b3f2b570b53569dfd98d5b3f9e3fab09",
    "sim-render/render/iter_001/img_0001.svg":
        "28a334ffa187a3ec96b49cee1d7c569c897de978f344b872b282b5402519d757",
    "sim-render/render/iter_001/img_0002.svg":
        "84a419e81ee0eb4d5af8fc71144f07eaee4fdf82686445f96add7a01018b77e0",
    "sim-render/targets.json":
        "f8f07282983aa5b64856b0de3aacbf3f0c1b54a57427d724aa4992880d263644",
    "sim-render/trace.jsonl":
        "3d144b9894c9bf2172581ae8f5ef9ac8cb7a2db2ccc0a6494aa433421794e248",
    "sim-render/truth.json":
        "b0a879d6836be26b5a070e8db76351dd0b5e87f6195e351d3a6a26f8e22f032a",
    "sim/config.json":
        "34e5f09cd42ed5ef713415aa00877f215edf0df5d82e4c152af55e6df0f83ef5",
    "sim/corrected_final.json":
        "983beb3ff04e70db9850a3fc8118d71ef802f3ea320fc557f5f47fe60254b141",
    "sim/targets.json":
        "b8eb9fe1ecc29198c6172ca58441e7a9fbeb568721525ee0b1ea29a696ae4422",
    "sim/trace.jsonl":
        "dbb555424e8092c9ad36a4b397fff770c909baf879bc7a0a38700e4491474f5c",
    "sim/truth.json":
        "77bc4e279ac3ae74523dd2512416fe2b7ccf4b3b16119fdbad55704d27e09ea9",
    "svg-odd/a_b__c___d_.svg":
        "a533bc4d36dfe2e3d0a1cf0758957a3c0a69e755f31654a8ea63800ba63445d6",
    "svg-odd/config.json":
        "8b38e3ae1af10d3c7866e33216119fb2ba050c18e4130783666c97cd9faf6a01",
    "svg/config.json":
        "897052287cae9c6e7ed28f550edc15b72839d89379e7fb034a055b8a351a1cde",
    "svg/img0.svg":
        "89a53e064a1946f3efc0dca0933e38a0865532a4d5e59bae4efb2d1be2df9efc",
    "svg/img1.svg":
        "90a9d536bbe3feaa0c1a74efc2612823971794f7b5929b2ca92edc4f8b2b83f5",
    "svg/img2.svg":
        "e379beee4d3471d17880b63d34fcb59fe23d77e25aca13e9e62fd863e356efab",
}


def check_digests(got: dict[str, str]) -> None:
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"outputs differ from the recorded digests: {changed}"


def test_outputs_match_recorded_digests(tmp_path):
    check_digests(run_all(tmp_path))


def test_writers_as_processes_match_recorded_digests(tmp_path):
    check_digests(run_all(tmp_path, processes=True))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    json.dump(digests, sys.stdout, indent=4, sort_keys=True)
    print()
