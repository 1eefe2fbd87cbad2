"""End-to-end command-line behavior: config layering, outputs, determinism."""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from boxrefine import cli
from boxrefine.cli import build_parser, main
from boxrefine.correction import CorrectionConfig
from boxrefine.datamodel import (
    Annotation,
    Dataset,
    Detection,
    ImageRecord,
    load_annotations,
    save_annotations,
)
from boxrefine.geometry import Box


def write_dataset(path, images, class_names=("cat", "dog")):
    ds = Dataset(class_names=list(class_names), images=images)
    save_annotations(ds, path)
    return ds


def two_image_dataset(path):
    return write_dataset(
        path,
        [
            ImageRecord(
                image_id="a",
                width=512,
                height=512,
                annotations=[
                    Annotation(box=Box(10, 10, 60, 60), label=1),
                    Annotation(box=Box(100, 100, 180, 200), label=2),
                ],
            ),
            ImageRecord(
                image_id="b",
                width=512,
                height=512,
                annotations=[Annotation(box=Box(30, 40, 90, 120), label=1)],
            ),
        ],
    )


def detections_dataset(path, dets_by_id, class_names=("cat", "dog")):
    images = [
        ImageRecord(image_id=image_id, width=512, height=512, detections=dets)
        for image_id, dets in dets_by_id.items()
    ]
    return write_dataset(path, images, class_names)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def tree_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestInjectNoise:
    def test_zero_noise_round_trips(self, tmp_path, capsys):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        out = tmp_path / "out"
        rc = main(["inject-noise", "--input", str(src), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        got = load_annotations(out / "annotations.json")
        want = load_annotations(src)
        for ga, wa in zip(got.images, want.images):
            assert ga.annotations == wa.annotations
        summary = read_json(out / "summary.json")
        assert summary["annotations_before"] == 3
        assert summary["annotations_after"] == 3
        assert summary["removed_by_sparsity"] == 0
        assert summary["injected"] == 0

    def test_sparsity_removal_count_exact(self, tmp_path):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        out = tmp_path / "out"
        rc = main(
            ["inject-noise", "--input", str(src), "--out", str(out),
             "--sparsity", "0.5"]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        # 3 annotations, floor(3 * 0.5 + 0.5) = 2 removed
        assert summary["removed_by_sparsity"] == 2
        assert summary["annotations_after"] == 1

    def test_box_noise_moves_boxes(self, tmp_path):
        src = tmp_path / "clean.json"
        want = two_image_dataset(src)
        out = tmp_path / "out"
        rc = main(
            ["inject-noise", "--input", str(src), "--out", str(out),
             "--box-noise", "0.4"]
        )
        assert rc == 0
        got = load_annotations(out / "annotations.json")
        pairs = [
            (g, w)
            for gi, wi in zip(got.images, want.images)
            for g, w in zip(gi.annotations, wi.annotations)
        ]
        assert all(g.box != w.box for g, w in pairs)

    def test_superfluous_flag(self, tmp_path):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        out = tmp_path / "out"
        rc = main(
            ["inject-noise", "--input", str(src), "--out", str(out),
             "--superfluous", "on", "--seed", "7"]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["injected"] > 0
        assert summary["annotations_after"] == 3 + summary["injected"]

    def test_rerun_byte_identical(self, tmp_path):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        args = ["inject-noise", "--input", str(src), "--box-noise", "0.2",
                "--sparsity", "0.5", "--superfluous", "on", "--seed", "3"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_missing_input_errors(self, tmp_path, capsys):
        rc = main(
            ["inject-noise", "--input", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "width, box, noise, rc",
        [
            # the displacement range 2 * 0.9 * 1e308 is past the float range
            (1e308, [0, 0, 1.5e308, 10], "0.9", 1),
            # a finite range, but a corner moved past the largest float
            (1.7e308, [0, 0, 1.7e308, 10], "0.5", 0),
        ],
    )
    def test_displacement_past_the_float_range(self, tmp_path, capsys, width, box, noise, rc):
        src = tmp_path / "huge.json"
        payload = {
            "images": [{"id": "wide", "width": width, "height": 100}],
            "categories": [{"id": 1, "name": "a"}],
            "annotations": [{"id": 1, "image_id": "wide", "category_id": 1, "bbox": box}],
        }
        src.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["inject-noise", "--input", str(src), "--out", str(out),
                         "--box-noise", noise])
        err = capsys.readouterr().err
        assert code == rc
        if rc:
            assert err.startswith("error: image 'wide': ") and "Traceback" not in err
            assert not (out / "annotations.json").exists()
        else:
            x1, _, x2, _ = read_json(out / "annotations.json")["annotations"][0]["bbox_xyxy"]
            assert 0 <= x1 <= x2 <= int(width)


class TestCorrect:
    def test_no_detections_leaves_targets_unchanged(self, tmp_path):
        targets = tmp_path / "targets.json"
        want = two_image_dataset(targets)
        dets = tmp_path / "dets.json"
        detections_dataset(dets, {})
        out = tmp_path / "out"
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(out), "--distance-limit", "0.6",
             "--mining-threshold", "0.8"]
        )
        assert rc == 0
        got = load_annotations(out / "corrected.json")
        for gi, wi in zip(got.images, want.images):
            assert gi.annotations == wi.annotations
        report = read_json(out / "report.json")
        assert report["totals"]["mined"] == 0
        assert report["totals"]["corrected"] == 0
        assert report["totals"]["all_converged"] is True

    def test_single_prediction_snaps_target(self, tmp_path):
        targets = tmp_path / "targets.json"
        write_dataset(
            targets,
            [
                ImageRecord(
                    image_id="a", width=512, height=512,
                    annotations=[Annotation(box=Box(10, 10, 60, 60), label=1)],
                )
            ],
        )
        dets = tmp_path / "dets.json"
        pred_box = Box(16, 12, 64, 58)
        detections_dataset(
            dets, {"a": [Detection.from_prob(box=pred_box, label=1, prob=0.9)]}
        )
        out = tmp_path / "out"
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(out), "--distance-limit", "0.6"]
        )
        assert rc == 0
        got = load_annotations(out / "corrected.json")
        (ann,) = got.images[0].annotations
        assert ann.box == pred_box
        assert ann.provenance == "corrected"
        report = read_json(out / "report.json")
        assert report["images"]["a"]["iterations"] == 1
        assert report["images"]["a"]["converged"] is True

    def test_mining_adds_confident_detection(self, tmp_path):
        targets = tmp_path / "targets.json"
        write_dataset(
            targets,
            [
                ImageRecord(
                    image_id="a", width=512, height=512,
                    annotations=[Annotation(box=Box(10, 10, 60, 60), label=1)],
                )
            ],
        )
        dets = tmp_path / "dets.json"
        detections_dataset(
            dets,
            {"a": [Detection.from_prob(box=Box(300, 300, 360, 360), label=2, prob=0.95)]},
        )
        out = tmp_path / "out"
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(out), "--mining-threshold", "0.9"]
        )
        assert rc == 0
        got = load_annotations(out / "corrected.json")
        anns = got.images[0].annotations
        assert len(anns) == 2
        assert anns[1].provenance == "mined"
        assert read_json(out / "report.json")["totals"]["mined"] == 1

    def test_report_is_what_json_dumps_writes(self, tmp_path):
        # ids that need escaping and sort differently from file order, an
        # image without targets and one whose target no prediction backs
        ids = ["b", "a10", "a9", 'q"uote', "é\\u2603", "empty"]
        images = [
            ImageRecord(
                image_id=image_id, width=512, height=512,
                annotations=[Annotation(box=Box(10 + k, 10, 60, 60), label=1)]
                if image_id != "empty" else [],
            )
            for k, image_id in enumerate(ids)
        ]
        targets, dets = tmp_path / "targets.json", tmp_path / "dets.json"
        write_dataset(targets, images)
        detections_dataset(
            dets,
            {image_id: [Detection.from_prob(box=Box(12, 8, 62, 64), label=1, prob=0.9)]
             for image_id in ids[:3]},
        )
        out = tmp_path / "out"
        rc = main(["correct", "--targets", str(targets), "--detections", str(dets),
                   "--out", str(out), "--profile", "nb20-ns50"])
        assert rc == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert list(json.loads(text)["images"]) == sorted(ids)

    def test_unknown_detection_ids_rejected(self, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        two_image_dataset(targets)
        dets = tmp_path / "dets.json"
        detections_dataset(
            dets, {"ghost": [Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.9)]}
        )
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(tmp_path / "out"), "--distance-limit", "0.6"]
        )
        assert rc == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("logit", math.nan), ("score", math.nan), ("bbox_xyxy", math.inf), ("width", math.inf)],
    )
    def test_non_finite_input_exits_cleanly(self, tmp_path, capsys, field, value):
        targets = tmp_path / "targets.json"
        two_image_dataset(targets)
        dets = tmp_path / "dets.json"
        detections_dataset(
            dets, {"a": [Detection.from_prob(box=Box(12, 8, 62, 64), label=1, prob=0.9)]}
        )
        payload = read_json(dets)
        if field == "width":
            payload["images"][0][field] = value
        elif field == "bbox_xyxy":
            payload["annotations"][0][field][2] = value
        else:
            payload["annotations"][0][field] = value
        # json.dumps writes the NaN and Infinity literals that other producers emit
        dets.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(tmp_path / "out"), "--profile", "nb40-ex"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert str(dets) in err and field in err

    @pytest.mark.parametrize("field, value", [("width", True), ("height", 512.7)])
    def test_fractional_or_boolean_image_size_exits_cleanly(
        self, tmp_path, capsys, field, value
    ):
        targets = tmp_path / "targets.json"
        two_image_dataset(targets)
        payload = read_json(targets)
        payload["images"][1][field] = value
        targets.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["inject-noise", "--input", str(targets), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(targets) in err and "image b" in err and repr(field) in err
        assert not (out / "annotations.json").exists()

    @pytest.mark.parametrize(
        "case, where, field",
        [
            ("annotation image_id", "annotation 1", "image_id"),
            ("annotation category_id", "annotation 1", "category_id"),
            ("category id", "category entry 1", "'id'"),
            ("image id", "image entry 1", "'id'"),
        ],
    )
    def test_list_or_object_ids_exit_cleanly(self, tmp_path, capsys, case, where, field):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        payload = read_json(src)
        if case == "annotation image_id":
            payload["annotations"][0]["image_id"] = ["a"]
        elif case == "annotation category_id":
            payload["annotations"][0]["category_id"] = [1]
        elif case == "category id":
            payload["categories"][0]["id"] = [1]
            payload["annotations"][0]["category_id"] = [1]
        else:
            payload["images"][0]["id"] = {"a": 1}
        src.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["inject-noise", "--input", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(src) in err and where in err and field in err
        assert not (out / "annotations.json").exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("b", "image entry 2 must be an object, got str"),
            ({"width": 512, "height": 512}, "image entry 2 missing 'id'"),
        ],
    )
    def test_image_entry_errors_name_the_entry(self, tmp_path, capsys, entry, message):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        payload = read_json(src)
        payload["images"][1] = entry
        src.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["inject-noise", "--input", str(src), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {src}: {message}\n"
        assert not (out / "annotations.json").exists()


class TestEvaluate:
    def make_pair(self, tmp_path, pred_dets=None):
        gt = tmp_path / "gt.json"
        write_dataset(
            gt,
            [
                ImageRecord(
                    image_id="a", width=512, height=512,
                    annotations=[Annotation(box=Box(10, 10, 60, 60), label=1)],
                )
            ],
        )
        preds = tmp_path / "preds.json"
        if pred_dets is None:
            pred_dets = [Detection.from_prob(box=Box(10, 10, 60, 60), label=1, prob=0.9)]
        detections_dataset(preds, {"a": pred_dets})
        return gt, preds

    def test_perfect_predictions(self, tmp_path):
        gt, preds = self.make_pair(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["evaluate", "--ground-truth", str(gt), "--predictions", str(preds),
             "--annotations", str(gt), "--out", str(out)]
        )
        assert rc == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["ap50"]["map"] == 1.0
        assert metrics["quality"]["gt_to_annotations"] == 1.0
        assert metrics["quality"]["annotations_to_gt"] == 1.0
        assert metrics["error_breakdown"]["true_positives"] == 1
        assert metrics["error_breakdown"]["missed"] == 0
        csv_text = (out / "per_class_ap.csv").read_text(encoding="utf-8")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "class_id,class_name,ap,tp,fp,fn"
        assert lines[1] == "1,cat,1.0,1,0,0"

    def test_half_ap_fixture(self, tmp_path):
        dets = [
            Detection.from_prob(box=Box(10, 10, 60, 60), label=1, prob=0.3),
            Detection.from_prob(box=Box(300, 300, 340, 340), label=1, prob=0.9),
        ]
        gt, preds = self.make_pair(tmp_path, dets)
        out = tmp_path / "out"
        rc = main(
            ["evaluate", "--ground-truth", str(gt), "--predictions", str(preds),
             "--out", str(out)]
        )
        assert rc == 0
        assert read_json(out / "metrics.json")["ap50"]["map"] == 0.5

    def test_score_floor_recorded(self, tmp_path):
        gt, preds = self.make_pair(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["evaluate", "--ground-truth", str(gt), "--predictions", str(preds),
             "--score-floor", "0.95", "--out", str(out)]
        )
        assert rc == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["score_floor"] == 0.95
        assert metrics["error_breakdown"]["true_positives"] == 0
        assert metrics["error_breakdown"]["missed"] == 1

    def test_image_id_mismatch_lists_both_sides(self, tmp_path, capsys):
        gt, _ = self.make_pair(tmp_path)
        other = tmp_path / "other.json"
        detections_dataset(
            other, {"zzz": [Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.9)]}
        )
        rc = main(
            ["evaluate", "--ground-truth", str(gt), "--predictions", str(other),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "a" in err and "zzz" in err

    def test_config_written_before_failure(self, tmp_path):
        gt, _ = self.make_pair(tmp_path)
        other = tmp_path / "other.json"
        detections_dataset(other, {"zzz": []})
        out = tmp_path / "out"
        rc = main(
            ["evaluate", "--ground-truth", str(gt), "--predictions", str(other),
             "--out", str(out)]
        )
        assert rc == 1
        assert (out / "config.json").exists()
        assert not (out / "metrics.json").exists()

    def test_ids_equal_only_as_text_name_the_file(self, tmp_path, capsys):
        # 100 and "100" are different JSON values but load as one image id
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 100, "width": 64, "height": 64},
                       {"id": "100", "width": 64, "height": 64}],
            "categories": [{"id": 1, "name": "cat"}],
            "annotations": [],
        }), encoding="utf-8")
        rc = main(
            ["evaluate", "--ground-truth", str(gt), "--predictions", str(gt),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {gt}: duplicate image ids once read as text: ['100']\n"


    def evaluate_against(self, tmp_path, truth, predictions):
        """Exit code and metrics of ``evaluate`` on one box of class ``truck``
        (category 3) in image 1, 100 x 100, predicted at score 0.9; each side
        changed by its function."""
        box = [10, 10, 30, 30]
        paths = []
        for name, change, extra in (("gt", truth, {}), ("preds", predictions, {"score": 0.9})):
            payload = {
                "images": [{"id": 1, "width": 100, "height": 100}],
                "categories": [{"id": 1, "name": "car"}, {"id": 3, "name": "truck"}],
                "annotations": [{"id": 1, "image_id": 1, "category_id": 3, "bbox": box, **extra}],
            }
            change(payload)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["evaluate", "--ground-truth", str(paths[0]), "--predictions", str(paths[1]),
                   "--out", str(out)])
        return rc, read_json(out / "metrics.json") if rc == 0 else None

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 4")
    def test_category_ids_hold_across_files(self, tmp_path):
        # the predictions name only the truck; numbered on their own, their
        # truck is class 1, the ground truth's car
        def truck_only(payload):
            payload["categories"] = [{"id": 3, "name": "truck"}]

        rc, metrics = self.evaluate_against(tmp_path, lambda payload: None, truck_only)
        assert rc == 0
        assert metrics["ap50"]["map"] == 1.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 4")
    def test_category_name_mismatch_is_rejected(self, tmp_path):
        def bus(payload):
            payload["categories"][0]["name"] = "bus"

        rc, _ = self.evaluate_against(tmp_path, lambda payload: None, bus)
        assert rc == 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 4")
    def test_image_size_mismatch_is_rejected(self, tmp_path):
        def smaller(payload):
            payload["images"][0].update(width=50, height=50)

        rc, _ = self.evaluate_against(tmp_path, lambda payload: None, smaller)
        assert rc == 1


class TestSimulate:
    def test_outputs_and_trace_length(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--out", str(out), "--profile", "nb40-ex",
             "--iterations", "3", "--images", "2", "--boxes-per-image", "3"]
        )
        assert rc == 0
        for name in ("config.json", "truth.json", "targets.json",
                     "trace.jsonl", "corrected_final.json"):
            assert (out / name).exists()
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["iteration"] == i
            assert 0.0 <= rec["target_quality"] <= 1.0
            assert 0.0 <= rec["ap50"] <= 1.0

    def test_rerun_byte_identical(self, tmp_path):
        base = ["simulate", "--profile", "nb40-ex", "--iterations", "2",
                "--images", "3", "--boxes-per-image", "3", "--seed", "5"]
        outs = [tmp_path / f"r{i}" for i in range(2)]
        assert main(base + ["--out", str(outs[0])]) == 0
        assert main(base + ["--out", str(outs[1])]) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_correction_disabled_trace_is_flat(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--out", str(out), "--box-noise", "0.4",
             "--sparsity", "extreme", "--distance-limit", "none",
             "--mining-threshold", "none", "--iterations", "4",
             "--images", "2", "--boxes-per-image", "3"]
        )
        assert rc == 0
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").strip().splitlines()
        qualities = {json.loads(line)["target_quality"] for line in lines}
        assert len(qualities) == 1

    def test_render_flag_writes_svgs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--out", str(out), "--profile", "nb40-ex",
             "--iterations", "2", "--images", "2", "--boxes-per-image", "2",
             "--render"]
        )
        assert rc == 0
        for it in range(2):
            svgs = sorted((out / "render" / f"iter_{it:03d}").glob("*.svg"))
            assert [p.name for p in svgs] == ["img_0000.svg", "img_0001.svg"]


class TestRender:
    def test_one_svg_per_image(self, tmp_path):
        src = tmp_path / "data.json"
        two_image_dataset(src)
        out = tmp_path / "out"
        rc = main(["render", "--dataset", str(src), "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("*.svg")) == ["a.svg", "b.svg"]

    def test_unknown_layer_rejected(self, tmp_path, capsys):
        src = tmp_path / "data.json"
        two_image_dataset(src)
        rc = main(
            ["render", "--dataset", str(src), "--out", str(tmp_path / "out"),
             "--layers", "original,bogus"]
        )
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_image_id_sanitised_for_filenames(self, tmp_path):
        src = tmp_path / "data.json"
        write_dataset(
            src,
            [
                ImageRecord(
                    image_id="dir/with:odd chars", width=64, height=64,
                    annotations=[Annotation(box=Box(1, 1, 10, 10), label=1)],
                )
            ],
        )
        out = tmp_path / "out"
        assert main(["render", "--dataset", str(src), "--out", str(out)]) == 0
        (svg,) = out.glob("*.svg")
        assert svg.name == "dir_with_odd_chars.svg"


class TestConfigLayering:
    def run_correct(self, tmp_path, extra, name):
        targets = tmp_path / "targets.json"
        if not targets.exists():
            two_image_dataset(targets)
        dets = tmp_path / "dets.json"
        if not dets.exists():
            detections_dataset(dets, {})
        out = tmp_path / name
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(out)] + extra
        )
        assert rc == 0
        return read_json(out / "config.json")

    def test_profile_overrides_defaults(self, tmp_path):
        cfg = self.run_correct(tmp_path, ["--profile", "nb40-ex"], "p")
        assert cfg["profile"] == "nb40-ex"
        assert cfg["correction"]["distance_limit"] == 0.6
        assert cfg["correction"]["mining_threshold"] == 0.8
        # untouched defaults survive the merge
        assert cfg["correction"]["temperature"] == 0.2

    def test_config_file_overrides_profile(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"correction": {"distance_limit": 0.45}}), encoding="utf-8"
        )
        cfg = self.run_correct(
            tmp_path, ["--profile", "nb40-ex", "--config", str(cfg_file)], "f"
        )
        assert cfg["correction"]["distance_limit"] == 0.45
        assert cfg["correction"]["mining_threshold"] == 0.8

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"correction": {"distance_limit": 0.45}}), encoding="utf-8"
        )
        cfg = self.run_correct(
            tmp_path,
            ["--profile", "nb40-ex", "--config", str(cfg_file),
             "--distance-limit", "0.3", "--mining-threshold", "none"],
            "g",
        )
        assert cfg["correction"]["distance_limit"] == 0.3
        assert cfg["correction"]["mining_threshold"] is None

    def test_execution_details_not_recorded(self, tmp_path):
        cfg = self.run_correct(tmp_path, [], "h")
        assert "out" not in cfg

    def test_edmonton_profile(self, tmp_path):
        cfg = self.run_correct(tmp_path, ["--profile", "edmonton"], "e")
        corr = cfg["correction"]
        assert corr["distance"] == "center-normalized"
        assert corr["center_norm"] == 60.0
        assert corr["distance_limit"] == 0.5
        assert corr["fixed_size"] == 60.0

    def test_unknown_profile_lists_options(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--out", str(tmp_path / "out"), "--profile", "bogus"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "nb40-ex" in err

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"typo_section": {}}), encoding="utf-8")
        targets = tmp_path / "targets.json"
        two_image_dataset(targets)
        dets = tmp_path / "dets.json"
        detections_dataset(dets, {})
        rc = main(
            ["correct", "--targets", str(targets), "--detections", str(dets),
             "--out", str(tmp_path / "out"), "--config", str(cfg_file)]
        )
        assert rc == 1
        assert "typo_section" in capsys.readouterr().err

    def test_seed_flag_recorded(self, tmp_path):
        cfg = self.run_correct(tmp_path, ["--seed", "42"], "s")
        assert cfg["seed"] == 42

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"correction": {"bogus": 1}}, "correction.bogus"),
            ({"noise": {"superfluous": {"bogus": 1}}}, "noise.superfluous.bogus"),
            ({"correction": 5}, "correction"),
            ({"loop": {"bogus": 1}}, "loop.bogus"),
        ],
    )
    def test_nested_config_keys_validated(self, tmp_path, capsys, payload, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--images", "1", "--iterations", "1", "--out", str(out),
             "--config", str(cfg_file)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg_file) in err and repr(key) in err
        assert not (out / "config.json").exists()

    def test_nested_config_keys_accepted(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {"noise": {"superfluous": {"trials": 2}},
                 "loop": {"image_size": [300, 200]}}
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--images", "1", "--iterations", "1", "--out", str(out),
             "--config", str(cfg_file)]
        )
        assert rc == 0
        cfg = read_json(out / "config.json")
        assert cfg["noise"]["superfluous"] == {"trials": 2}
        assert cfg["loop"]["image_size"] == [300, 200]

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"correction": {"temperature": "x"}}, "correction.temperature"),
            ({"correction": {"temperature": math.nan}}, "correction.temperature"),
            ({"correction": {"distance_limit": "far"}}, "correction.distance_limit"),
            ({"correction": {"distance": 3}}, "correction.distance"),
            ({"correction": {"max_iterations": 2.5}}, "correction.max_iterations"),
            ({"seed": "abc"}, "seed"),
            ({"seed": True}, "seed"),
            ({"noise": {"box_noise": None}}, "noise.box_noise"),
            ({"noise": {"sparsity": [0.5]}}, "noise.sparsity"),
            ({"noise": {"superfluous": {"trials": 2.5}}}, "noise.superfluous.trials"),
            ({"loop": {"image_size": [300]}}, "loop.image_size"),
            ({"loop": {"keep_rate": "0.9"}}, "loop.keep_rate"),
            ({"noise": {"sparsity": "ex"}}, "noise.sparsity"),
        ],
    )
    def test_config_value_types_validated(self, tmp_path, capsys, payload, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--images", "1", "--iterations", "1", "--out", str(out),
             "--config", str(cfg_file)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg_file) in err and repr(key) in err
        assert not (out / "config.json").exists()

    def test_config_value_types_accepted(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        payload = {
            "seed": 3,
            "noise": {"box_noise": 0, "sparsity": "extreme", "superfluous": None},
            "correction": {"temperature": 1, "distance_limit": None,
                           "mining_threshold": 0.8},
        }
        cfg_file.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--images", "1", "--iterations", "1", "--out", str(out),
             "--config", str(cfg_file)]
        )
        assert rc == 0
        cfg = read_json(out / "config.json")
        assert cfg["seed"] == 3 and cfg["correction"]["temperature"] == 1

    def test_every_setting_has_a_json_type(self):
        from boxrefine import cli

        def leaves(tree):
            for value in tree.values():
                yield from leaves(value) if isinstance(value, dict) else [value]

        assert set(leaves(cli._TYPES)) <= set(cli._JSON_TYPES)

    @pytest.mark.parametrize("key, value", [("command", "evaluate"), ("profile", "nb0-ex")])
    def test_command_and_profile_not_config_keys(self, tmp_path, capsys, key, value):
        # the command line names both; a file must not contradict it
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--images", "1", "--iterations", "1", "--out", str(out),
             "--profile", "nb40-ex", "--config", str(cfg_file)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg_file) in err and key in err
        assert not (out / "config.json").exists()

    def test_every_hyperparameter_flag_reaches_config(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--out", str(out), "--seed", "4",
             "--box-noise", "0.1", "--sparsity", "extreme",
             "--superfluous-trials", "2", "--superfluous-success", "0.25",
             "--superfluous-min-side", "10", "--superfluous-max-side", "50",
             "--distance", "center-normalized", "--center-norm", "40",
             "--distance-limit", "0.7", "--temperature", "0.3",
             "--mining-threshold", "0.85", "--mining-nms-iou", "0.4",
             "--dedup-iou", "0.45", "--max-iterations", "7", "--fixed-size", "30",
             "--iterations", "1", "--keep-rate", "0.9", "--images", "2",
             "--boxes-per-image", "3", "--classes", "2", "--image-size", "300x200"]
        )
        assert rc == 0
        assert read_json(out / "config.json") == {
            "command": "simulate",
            "seed": 4,
            "noise": {
                "box_noise": 0.1,
                "sparsity": "extreme",
                "superfluous": {
                    "trials": 2, "success": 0.25, "min_side": 10.0, "max_side": 50.0,
                },
            },
            "correction": {
                "distance": "center-normalized",
                "center_norm": 40.0,
                "distance_limit": 0.7,
                "temperature": 0.3,
                "mining_threshold": 0.85,
                "mining_nms_iou": 0.4,
                "dedup_iou": 0.45,
                "max_iterations": 7,
                "convergence_eps": 1e-6,
                "fixed_size": 30.0,
            },
            "loop": {
                "iterations": 1,
                "keep_rate": 0.9,
                "images": 2,
                "boxes_per_image": 3,
                "classes": 2,
                "image_size": [300, 200],
            },
        }

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--superfluous", "on"],
             {"trials": 10, "success": 0.5, "min_side": 16.0, "max_side": 196.0}),
            (["--superfluous", "off"], None),
            # a field flag switches it back on, whatever the order on the line
            (["--superfluous-trials", "3", "--superfluous", "off"],
             {"trials": 3, "success": 0.5, "min_side": 16.0, "max_side": 196.0}),
        ],
    )
    def test_superfluous_switch(self, tmp_path, flags, expected):
        src = tmp_path / "clean.json"
        two_image_dataset(src)
        out = tmp_path / "out"
        assert main(["inject-noise", "--input", str(src), "--out", str(out)] + flags) == 0
        assert read_json(out / "config.json")["noise"]["superfluous"] == expected


def test_profiles_pass_the_config_check():
    from boxrefine import cli

    for name, profile in cli.PROFILES.items():
        cli._check_config(name, profile, cli._TYPES)
        CorrectionConfig(**{**cli.DEFAULTS["correction"], **profile.get("correction", {})})


# arguments each subcommand requires; no test below gets as far as reading them
REQUIRED = {
    "inject-noise": ["--input", "clean.csv", "--format", "point-csv"],
    "correct": ["--targets", "targets.json", "--detections", "dets.json"],
    "evaluate": ["--ground-truth", "gt.json", "--predictions", "preds.json"],
    "simulate": [],
    "render": ["--dataset", "data.json"],
}

# every option that takes a number, each with a subcommand that has it
NUMBER_FLAGS = {
    "inject-noise": ("--box-noise", "--sparsity", "--superfluous-trials",
                     "--superfluous-success", "--superfluous-min-side",
                     "--superfluous-max-side", "--point-side", "--seed"),
    "correct": ("--center-norm", "--distance-limit", "--mining-threshold",
                "--mining-nms-iou", "--dedup-iou", "--max-iterations", "--fixed-size"),
    "evaluate": ("--score-floor",),
    "simulate": ("--temperature", "--iterations", "--keep-rate", "--images",
                 "--boxes-per-image", "--classes", "--image-size"),
}


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in NUMBER_FLAGS.items() for f in flags]
)
def test_flag_values_checked_like_config_values(tmp_path, capsys, command, flag, text):
    out = tmp_path / "out"
    rc = main([command, *REQUIRED[command], "--out", str(out), f"{flag}={text}"])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_flag_values_keep_their_types(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["simulate", "--out", str(out), "--images", "1", "--iterations", "1",
         "--seed", "7", "--temperature", "1", "--distance-limit", "OFF",
         "--sparsity", "Ex.", "--image-size", "300x200"]
    )
    assert rc == 0
    cfg = read_json(out / "config.json")
    assert cfg["seed"] == 7
    assert type(cfg["correction"]["temperature"]) is float
    assert cfg["correction"]["distance_limit"] is None
    assert cfg["noise"]["sparsity"] == "extreme"
    assert cfg["loop"]["image_size"] == [300, 200]


@pytest.mark.parametrize(
    "command, args, name",
    [
        ("simulate", ["--keep-rate", "2"], "keep_rate"),
        ("simulate", ["--iterations", "0"], "iterations"),
        ("simulate", ["--sparsity", "1.5"], "sparsity"),
        ("simulate", ["--superfluous-success", "2"], "success"),
        ("simulate", ["--dedup-iou", "3"], "dedup_iou"),
        ("inject-noise", ["--box-noise", "-1"], "box_noise"),
        ("correct", ["--temperature", "0"], "temperature"),
        ("inject-noise", ["--point-side", "-5"], "--point-side"),
        ("inject-noise", ["--point-side", "0"], "--point-side"),
        ("simulate", ["--images", "-2"], "--images"),
        ("simulate", ["--boxes-per-image", "-1"], "--boxes-per-image"),
        ("simulate", ["--classes", "0"], "--classes"),
        ("simulate", ["--images", "0"], "--images"),
        ("simulate", ["--boxes-per-image", "0"], "--boxes-per-image"),
        ("inject-noise", ["--format", "coco-json", "--point-side", "30"], "--format point-csv"),
        ("correct", ["--point-side", "30"], "--format point-csv"),
        ("render", ["--point-side", "30"], "--point-side"),
    ],
)
def test_range_checks_run_before_config_is_written(tmp_path, capsys, command, args, name):
    out = tmp_path / "out"
    rc = main([command, *REQUIRED[command], "--out", str(out), *args])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("size", ["20x20", "79x79", "60x200", "200x60"])
def test_image_size_too_small_for_the_truth(tmp_path, capsys, size):
    out = tmp_path / "out"
    rc = main(["simulate", "--images", "1", "--iterations", "1", "--image-size", size,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--image-size" in err and "80x80" in err and size in err
    assert not (out / "config.json").exists()


def test_image_size_at_the_truth_limit(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--images", "3", "--iterations", "1", "--image-size", "80x80",
               "--out", str(out)])
    assert rc == 0
    assert read_json(out / "config.json")["loop"]["image_size"] == [80, 80]


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_workers_rejected(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, *REQUIRED[command], "--out", str(tmp_path), "--workers", "2"])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err


# recorded before the hyperparameter flags were generated from one table,
# less --workers, which did nothing and is gone
FLAG_SURFACE = {
    "inject-noise": {
        ("--box-noise", "box_noise"), ("--config", "config"), ("--format", "format"),
        ("--help", "help"), ("--input", "input"), ("--out", "out"),
        ("--point-side", "point_side"), ("--profile", "profile"), ("--seed", "seed"),
        ("--sparsity", "sparsity"), ("--superfluous", "superfluous"),
        ("--superfluous-max-side", "superfluous_max_side"),
        ("--superfluous-min-side", "superfluous_min_side"),
        ("--superfluous-success", "superfluous_success"),
        ("--superfluous-trials", "superfluous_trials"),
        ("-h", "help"),
    },
    "correct": {
        ("--center-norm", "center_norm"), ("--config", "config"),
        ("--dedup-iou", "dedup_iou"), ("--detections", "detections"),
        ("--distance", "distance"), ("--distance-limit", "distance_limit"),
        ("--fixed-size", "fixed_size"), ("--format", "format"), ("--help", "help"),
        ("--max-iterations", "max_iterations"), ("--mining-nms-iou", "mining_nms_iou"),
        ("--mining-threshold", "mining_threshold"), ("--out", "out"),
        ("--point-side", "point_side"), ("--profile", "profile"), ("--seed", "seed"),
        ("--targets", "targets"), ("--temperature", "temperature"),
        ("-h", "help"),
    },
    "evaluate": {
        ("--annotations", "annotations"), ("--config", "config"),
        ("--ground-truth", "ground_truth"), ("--help", "help"), ("--out", "out"),
        ("--predictions", "predictions"), ("--profile", "profile"),
        ("--score-floor", "score_floor"), ("--seed", "seed"),
        ("-h", "help"),
    },
    "simulate": {
        ("--box-noise", "box_noise"), ("--boxes-per-image", "boxes_per_image"),
        ("--center-norm", "center_norm"), ("--classes", "classes"),
        ("--config", "config"), ("--dedup-iou", "dedup_iou"),
        ("--distance", "distance"), ("--distance-limit", "distance_limit"),
        ("--fixed-size", "fixed_size"), ("--help", "help"),
        ("--image-size", "image_size"), ("--images", "images"),
        ("--iterations", "iterations"), ("--keep-rate", "keep_rate"),
        ("--max-iterations", "max_iterations"), ("--mining-nms-iou", "mining_nms_iou"),
        ("--mining-threshold", "mining_threshold"), ("--out", "out"),
        ("--profile", "profile"), ("--render", "render"), ("--seed", "seed"),
        ("--sparsity", "sparsity"), ("--superfluous", "superfluous"),
        ("--superfluous-max-side", "superfluous_max_side"),
        ("--superfluous-min-side", "superfluous_min_side"),
        ("--superfluous-success", "superfluous_success"),
        ("--superfluous-trials", "superfluous_trials"),
        ("--temperature", "temperature"), ("-h", "help"),
    },
    "render": {
        ("--config", "config"), ("--dataset", "dataset"),
        ("--detections", "detections"), ("--format", "format"),
        ("--ground-truth", "ground_truth"), ("--help", "help"), ("--layers", "layers"),
        ("--out", "out"), ("--point-side", "point_side"), ("--profile", "profile"),
        ("--seed", "seed"), ("-h", "help"),
    },
}


def test_flag_surface():
    """Every subcommand keeps its option strings and their destinations."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {(opt, action.dest) for action in p._actions for opt in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert got == FLAG_SURFACE


class TestPointInputs:
    def test_point_csv_targets(self, tmp_path):
        csv_path = tmp_path / "points.csv"
        csv_path.write_text(
            "image_id,x,y,label\na,100,100,1\n", encoding="utf-8"
        )
        dets = tmp_path / "dets.json"
        detections_dataset(dets, {}, class_names=("cat",))
        out = tmp_path / "out"
        rc = main(
            ["correct", "--targets", str(csv_path), "--format", "point-csv",
             "--point-side", "60", "--detections", str(dets),
             "--out", str(out), "--distance-limit", "0.6"]
        )
        assert rc == 0
        got = load_annotations(out / "corrected.json")
        (ann,) = got.images[0].annotations
        assert ann.box == Box(70, 70, 130, 130)


def test_cli_import_stays_light():
    """Importing the CLI must not pull in networking or thread pools."""
    heavy = ["xml.sax", "urllib.request", "http.client", "concurrent.futures"]
    code = (
        "import sys, boxrefine.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """A fresh ``python -m boxrefine.cli`` process, run to exit. Without
    ``PYTHONUNBUFFERED`` its piped stdout is block-buffered, as for most
    users, so text the process does not flush before it ends is lost."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "boxrefine.cli", *argv], capture_output=True, text=True, env=env
    )


def test_help_process_prints_the_eager_help(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    eager = capsys.readouterr().out
    proc = run_cli("--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, eager, "")


def test_missing_subcommand_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        build_parser().format_usage()
        + "boxrefine: error: the following arguments are required: command\n"
    )


class Exited(Exception):
    """Raised in place of ``os._exit``: the exit code, and whether each
    standard stream had been flushed after its last write."""

    def __init__(self, code, flushed):
        super().__init__(code)
        self.code, self.flushed = code, flushed


class Stream(io.StringIO):
    """A standard stream that records how much of its text was flushed."""

    flushed = None

    def flush(self):
        self.flushed = len(self.getvalue())
        super().flush()


def console_exit(monkeypatch, argv):
    """Run ``console_main`` on ``argv``; return its ``Exited`` and streams."""
    streams = {"stdout": Stream(), "stderr": Stream()}
    for name, stream in streams.items():
        monkeypatch.setattr(sys, name, stream)
    monkeypatch.setattr(sys, "argv", ["boxrefine", *argv])

    def hard_exit(code):
        raise Exited(code, {name: s.flushed == len(s.getvalue()) for name, s in streams.items()})

    monkeypatch.setattr(os, "_exit", hard_exit)
    with pytest.raises(Exited) as info:
        cli.console_main()
    return info.value, streams["stdout"].getvalue(), streams["stderr"].getvalue()


def test_console_main_flushes_then_exits_with_mains_code(tmp_path, monkeypatch):
    """``console_main`` ends the process through ``os._exit`` with the code of
    ``main`` or of argparse, after flushing both standard streams."""
    from test_golden import write_inputs

    write_inputs(tmp_path)
    flushed = {"stdout": True, "stderr": True}
    ok = ["inject-noise", "--input", str(tmp_path / "clean.json"),
          "--out", str(tmp_path / "noisy")]
    exited, out, err = console_exit(monkeypatch, ok)
    assert (exited.code, exited.flushed, out, err) == (0, flushed, "", "")
    assert (tmp_path / "noisy" / "annotations.json").is_file()

    missing = tmp_path / "nope.json"
    exited, out, err = console_exit(
        monkeypatch, ["inject-noise", "--input", str(missing), "--out", str(tmp_path / "x")]
    )
    assert (exited.code, exited.flushed, out) == (1, flushed, "")
    assert err == f"error: annotation file not found: {missing}\n"

    exited, out, err = console_exit(monkeypatch, ["--help"])
    assert (exited.code, exited.flushed, err) == (0, flushed, "")
    assert out == build_parser().format_help()

    exited, out, err = console_exit(monkeypatch, [])
    assert (exited.code, exited.flushed, out) == (2, flushed, "")
    assert err == (
        build_parser().format_usage()
        + "boxrefine: error: the following arguments are required: command\n"
    )


def test_console_main_falls_back_to_the_interpreter(monkeypatch):
    """A failed flush, and an exception other than ``SystemExit`` from
    ``main``, end the process through the interpreter as before: the code
    reaches ``sys.exit`` and the exception propagates with its traceback."""

    def hard_exit(code):
        raise AssertionError("os._exit called")

    class Gone(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(os, "_exit", hard_exit)
    monkeypatch.setattr(sys, "stdout", Gone())
    monkeypatch.setattr(sys, "argv", ["boxrefine", "--help"])
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0

    def broken(argv=None):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, "main", broken)
    with pytest.raises(RuntimeError, match="broken"):
        cli.console_main()


def test_stage_process_writes_what_main_writes(tmp_path):
    """A stage run as its own process writes the files ``main`` writes in
    process, byte for byte, and nothing to its standard streams."""
    from test_golden import write_inputs

    write_inputs(tmp_path)
    argv = ["correct", "--targets", str(tmp_path / "clean.json"),
            "--detections", str(tmp_path / "dets.json"), "--out"]
    proc = run_cli(*argv, str(tmp_path / "process"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main(argv + [str(tmp_path / "in-process")]) == 0
    assert tree_bytes(tmp_path / "process") == tree_bytes(tmp_path / "in-process")


def count_built(monkeypatch, *classes) -> dict:
    """How many objects of each of ``classes`` are built from now on, as a
    dict that fills while the test runs."""
    built = dict.fromkeys(classes, 0)
    for cls in classes:
        check = cls.__post_init__

        def counted(self, cls=cls, check=check):
            built[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_file_pipeline_builds_no_object_per_box(tmp_path, monkeypatch):
    """inject-noise, correct and evaluate keep their boxes in columns from
    file to file: no Box, Annotation, Detection or ImageRecord is built."""
    from test_golden import write_inputs

    write_inputs(tmp_path)
    built = count_built(monkeypatch, Box, Annotation, Detection, ImageRecord)
    monkeypatch.chdir(tmp_path)
    runs = (
        ["inject-noise", "--profile", "nb20-ns50", "--superfluous", "on",
         "--input", "clean.json", "--out", "noisy"],
        ["correct", "--profile", "nb20-ns50", "--targets", "noisy/annotations.json",
         "--detections", "dets.json", "--out", "corrected"],
        ["correct", "--profile", "edmonton", "--targets", "order-targets.json",
         "--detections", "order-dets.json", "--out", "corrected-order"],
        ["evaluate", "--ground-truth", "order-gt.json", "--predictions", "order-dets.json",
         "--annotations", "corrected-order/corrected.json", "--out", "metrics"],
    )
    for argv in runs:
        assert main(argv) == 0, argv
    assert built == dict.fromkeys(built, 0)


@pytest.mark.parametrize("render", [False, True])
def test_simulate_builds_objects_only_to_render(tmp_path, monkeypatch, render):
    """simulate keeps its boxes in columns from synthesis to the written
    files; Box, Annotation and ImageRecord objects are built only to draw
    the SVGs of ``--render``."""
    built = count_built(monkeypatch, Box, Annotation, ImageRecord)
    argv = ["simulate", "--profile", "nb40-ex", "--images", "3", "--boxes-per-image", "4",
            "--iterations", "2", "--out", str(tmp_path / "sim")]
    assert main(argv + ["--render"] * render) == 0
    if render:
        assert all(built.values()), built
    else:
        assert built == dict.fromkeys(built, 0)
