"""End-to-end command-line behavior: config layering, outputs, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from boxrefine.cli import main
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

    def test_workers_do_not_change_output(self, tmp_path):
        targets = tmp_path / "targets.json"
        two_image_dataset(targets)
        dets = tmp_path / "dets.json"
        detections_dataset(
            dets,
            {
                "a": [Detection.from_prob(box=Box(12, 8, 62, 64), label=1, prob=0.9)],
                "b": [Detection.from_prob(box=Box(28, 44, 88, 116), label=1, prob=0.8)],
            },
        )
        base = ["correct", "--targets", str(targets), "--detections", str(dets),
                "--profile", "nb40-ex"]
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2), "--workers", "4"]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)


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

    def test_rerun_and_workers_byte_identical(self, tmp_path):
        base = ["simulate", "--profile", "nb40-ex", "--iterations", "2",
                "--images", "3", "--boxes-per-image", "3", "--seed", "5"]
        outs = [tmp_path / f"r{i}" for i in range(3)]
        assert main(base + ["--out", str(outs[0])]) == 0
        assert main(base + ["--out", str(outs[1])]) == 0
        assert main(base + ["--out", str(outs[2]), "--workers", "4"]) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])
        assert tree_bytes(outs[0]) == tree_bytes(outs[2])

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
        cfg = self.run_correct(tmp_path, ["--workers", "4"], "h")
        assert "out" not in cfg
        assert "workers" not in cfg

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
