"""Box correction and label mining."""

from __future__ import annotations

import math

import numpy as np
import pytest

from boxrefine import correction, geometry
from boxrefine.correction import (
    ConfigError,
    CorrectionConfig,
    correct_boxes,
    correct_sets,
    correct_targets,
    mine_labels,
)
from boxrefine.datamodel import (
    Annotation,
    Detection,
    annotation_set,
    detection_set,
    set_annotations,
)
from boxrefine.geometry import Box, BoxSet, iou

from oracles import (
    center_distance_ref,
    correct_ref,
    giou_distance_ref,
    iou_ref,
    mine_ref,
    softmax_average_ref,
)


def ann(x1, y1, x2, y2, label=1, provenance="original"):
    return Annotation(box=Box(x1, y1, x2, y2), label=label, provenance=provenance)


def det(x1, y1, x2, y2, label=1, logit=0.0):
    return Detection.from_logit(box=Box(x1, y1, x2, y2), label=label, logit=logit)


BASIC = CorrectionConfig(distance_limit=0.6)


class TestCorrectBoxesBasics:
    def test_single_prediction_exact_fixed_point(self):
        targets = [ann(10, 10, 50, 50)]
        preds = [det(14, 8, 55, 52, logit=2.0)]
        out, report = correct_boxes(targets, preds, BASIC)
        assert out[0].box == preds[0].box
        assert out[0].provenance == "corrected"
        assert report.iterations == 1
        assert report.converged
        assert report.assignment_sizes == [1]

    def test_equal_logits_give_arithmetic_mean(self):
        targets = [ann(10, 10, 50, 50)]
        preds = [
            det(8, 8, 48, 48, logit=1.3),
            det(12, 12, 52, 52, logit=1.3),
        ]
        out, _ = correct_boxes(targets, preds, BASIC)
        expected = (10.0, 10.0, 50.0, 50.0)
        np.testing.assert_allclose(out[0].box.as_tuple(), expected, atol=1e-12)

    def test_unequal_logits_weight_by_softmax(self):
        targets = [ann(0, 0, 10, 10)]
        preds = [
            det(0, 0, 10, 10, logit=2.0),
            det(4, 0, 14, 10, logit=0.0),
        ]
        cfg = CorrectionConfig(distance_limit=0.9, temperature=1.0)
        out, _ = correct_boxes(targets, preds, cfg)
        w_hi = math.exp(2.0) / (math.exp(2.0) + 1.0)
        expected = softmax_average_ref(
            [(0, 0, 10, 10), (4, 0, 14, 10)], [2.0, 0.0], 1.0
        )
        assert w_hi == pytest.approx(0.8808, abs=1e-4)
        np.testing.assert_allclose(out[0].box.as_tuple(), expected, atol=1e-12)

    def test_tiny_temperature_selects_argmax(self):
        targets = [ann(0, 0, 10, 10)]
        preds = [
            det(1, 1, 11, 11, logit=3.0),
            det(2, 0, 12, 10, logit=1.0),
        ]
        cfg = CorrectionConfig(distance_limit=0.9, temperature=1e-6)
        out, _ = correct_boxes(targets, preds, cfg)
        assert out[0].box == preds[0].box

    def test_far_prediction_influences_nothing(self):
        targets = [ann(0, 0, 10, 10)]
        preds = [det(300, 300, 320, 320, logit=5.0)]
        out, report = correct_boxes(targets, preds, BASIC)
        assert out[0] is targets[0]
        assert out[0].provenance == "original"
        assert report.assignment_sizes == [0]

    def test_empty_predictions_return_targets_unchanged(self):
        targets = [ann(0, 0, 10, 10), ann(20, 20, 40, 40, label=2)]
        out, report = correct_boxes(targets, [], BASIC)
        assert out == targets
        assert report.iterations == 0
        assert report.converged
        assert report.assignment_sizes == [0, 0]

    def test_empty_targets(self):
        out, report = correct_boxes([], [det(0, 0, 10, 10)], BASIC)
        assert out == []
        assert report.assignment_sizes == []

    def test_wrong_class_predictions_ignored(self):
        targets = [ann(0, 0, 10, 10, label=1)]
        preds = [det(1, 1, 11, 11, label=2, logit=4.0)]
        out, _ = correct_boxes(targets, preds, BASIC)
        assert out[0] is targets[0]

    def test_missing_distance_limit_raises(self):
        with pytest.raises(ConfigError, match="distance_limit"):
            correct_boxes([], [], CorrectionConfig())

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ConfigError):
            CorrectionConfig(distance_limit=-1.0).validate()
        with pytest.raises(ConfigError):
            CorrectionConfig(distance_limit=0.5, temperature=0.0).validate()
        with pytest.raises(ConfigError):
            CorrectionConfig(distance="warp").validate()
        with pytest.raises(ConfigError):
            CorrectionConfig(distance="center-normalized").validate()
        with pytest.raises(ConfigError):
            CorrectionConfig(mining_threshold=0.0).validate()
        with pytest.raises(ConfigError):
            CorrectionConfig(distance_limit=0.5, max_iterations=0).validate()
        with pytest.raises(ConfigError):
            CorrectionConfig(fixed_size=-3.0).validate()

    @pytest.mark.parametrize(
        "field",
        ["center_norm", "distance_limit", "temperature", "mining_threshold",
         "mining_nms_iou", "dedup_iou", "convergence_eps", "fixed_size"],
    )
    def test_nan_hyperparameters_raise(self, field):
        with pytest.raises(ConfigError, match=field):
            CorrectionConfig(**{"distance": "center-normalized", "center_norm": 1.0,
                                field: math.nan})


class TestCorrectBoxesStructure:
    def test_count_labels_order_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            targets = []
            preds = []
            for _ in range(int(rng.integers(1, 6))):
                x = float(rng.uniform(0, 400))
                y = float(rng.uniform(0, 400))
                w = float(rng.uniform(20, 60))
                h = float(rng.uniform(20, 60))
                label = int(rng.integers(1, 4))
                targets.append(ann(x, y, x + w, y + h, label=label))
            for _ in range(int(rng.integers(0, 8))):
                x = float(rng.uniform(0, 400))
                y = float(rng.uniform(0, 400))
                w = float(rng.uniform(20, 60))
                h = float(rng.uniform(20, 60))
                preds.append(
                    det(x, y, x + w, y + h, label=int(rng.integers(1, 4)),
                        logit=float(rng.normal(0, 2)))
                )
            out, report = correct_boxes(targets, preds, BASIC)
            assert len(out) == len(targets)
            assert [a.label for a in out] == [t.label for t in targets]
            assert sum(report.assignment_sizes) <= len(preds)
            assert report.iterations <= BASIC.max_iterations

    def test_corrected_coordinates_inside_prediction_hull(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            cx = float(rng.uniform(100, 300))
            cy = float(rng.uniform(100, 300))
            targets = [ann(cx - 20, cy - 20, cx + 20, cy + 20)]
            preds = [
                det(
                    cx - 20 + float(rng.uniform(-8, 8)),
                    cy - 20 + float(rng.uniform(-8, 8)),
                    cx + 20 + float(rng.uniform(-8, 8)),
                    cy + 20 + float(rng.uniform(-8, 8)),
                    logit=float(rng.normal(0, 2)),
                )
                for _ in range(int(rng.integers(1, 5)))
            ]
            out, _ = correct_boxes(targets, preds, BASIC)
            box = out[0].box
            if out[0].provenance == "corrected":
                for k in range(4):
                    coords = [p.box.as_tuple()[k] for p in preds]
                    assert min(coords) - 1e-9 <= box.as_tuple()[k] <= max(coords) + 1e-9

    def test_assignment_ties_go_to_lower_index(self):
        # prediction exactly between two identical targets
        targets = [ann(0, 0, 10, 10), ann(0, 0, 10, 10)]
        preds = [det(0, 0, 10, 10, logit=1.0)]
        out, report = correct_boxes(targets, preds, BASIC)
        assert report.assignment_sizes == [1, 0]
        assert out[0].box == preds[0].box
        assert out[1] is targets[1]

    @pytest.mark.parametrize("distance", ["iou", "giou", "center-normalized"])
    def test_equidistant_distinct_targets_tie_to_lower_index(self, distance):
        # the prediction sits exactly halfway between two different targets
        targets = [ann(0, 0, 20, 10), ann(10, 0, 30, 10)]
        preds = [det(5, 0, 25, 10, logit=1.0)]
        cfg = CorrectionConfig(distance=distance, center_norm=60.0, distance_limit=0.9)
        for order in (targets, targets[::-1]):
            out, report = correct_boxes(order, preds, cfg)
            assert report.assignment_sizes == [1, 0]
            assert out[0].box == preds[0].box
            assert out[1] is order[1]

    def test_multi_iteration_reassignment(self):
        # the middle prediction is exactly equidistant from both targets, so
        # the tie sends it to target A first; A's box is then dragged left by
        # a heavy prediction and the middle one migrates to B on round two
        targets = [ann(0, 0, 20, 20), ann(24, 0, 44, 20)]
        preds = [
            det(-8, 0, 12, 20, logit=5.0),   # drags A left
            det(12, 0, 32, 20, logit=0.0),   # tied between A and B initially
            det(26, 0, 46, 20, logit=2.0),   # anchors B
        ]
        cfg = CorrectionConfig(distance_limit=0.8, temperature=1.0)
        out, report = correct_boxes(targets, preds, cfg)
        assert report.converged
        assert report.iterations == 2
        assert report.assignment_sizes == [1, 2]

    def test_iteration_cap_reported_as_not_converged(self):
        # oscillation cannot happen with one target; force the cap instead
        targets = [ann(0, 0, 20, 20)]
        preds = [det(2, 0, 22, 20, logit=1.0), det(-2, 0, 18, 20, logit=1.0)]
        cfg = CorrectionConfig(distance_limit=0.9, max_iterations=1, convergence_eps=0.0)
        out, report = correct_boxes(targets, preds, cfg)
        # one update happens, then the repeat check ends it: still converged
        assert report.iterations == 1

    def test_determinism(self):
        rng = np.random.default_rng(33)
        targets = [ann(float(x), 0, float(x) + 30, 30) for x in range(0, 200, 40)]
        preds = []
        for _ in range(10):
            x = float(rng.uniform(0, 200))
            preds.append(det(x, 0, x + 30, 30, logit=float(rng.normal())))
        a = correct_boxes(targets, preds, BASIC)
        b = correct_boxes(targets, preds, BASIC)
        assert a == b


class TestSeparatedClusterOracle:
    def test_matches_closed_form_on_separated_instances(self):
        # targets far apart, predictions tightly around exactly one target:
        # the iterative algorithm must equal per-target softmax averaging
        rng = np.random.default_rng(34)
        d = 0.4
        cfg = CorrectionConfig(distance_limit=d, temperature=0.2)
        for _ in range(50):
            n_targets = int(rng.integers(1, 5))
            targets = []
            for t in range(n_targets):
                x = 200.0 * t
                targets.append(ann(x, 0.0, x + 40.0, 40.0))
            expected = []
            preds = []
            for t, target in enumerate(targets):
                group_boxes = []
                group_logits = []
                for _ in range(int(rng.integers(1, 4))):
                    jitter = rng.uniform(-3.0, 3.0, 4)
                    b = target.box
                    box = Box(
                        b.x1 + jitter[0], b.y1 + jitter[1],
                        b.x2 + abs(jitter[2]), b.y2 + abs(jitter[3]),
                    )
                    logit = float(rng.normal(0.0, 1.0))
                    preds.append(Detection.from_logit(box=box, label=1, logit=logit))
                    group_boxes.append(box.as_tuple())
                    group_logits.append(logit)
                expected.append(
                    softmax_average_ref(group_boxes, group_logits, cfg.temperature)
                )
            out, report = correct_boxes(targets, preds, cfg)
            assert report.converged
            for target_out, want in zip(out, expected):
                np.testing.assert_allclose(target_out.box.as_tuple(), want, atol=1e-9)


class TestFixedSizeVariant:
    CFG = CorrectionConfig(
        distance="center-normalized",
        center_norm=60.0,
        distance_limit=0.5,
        fixed_size=60.0,
    )

    def test_outputs_are_exact_squares(self):
        targets = [ann(70, 70, 130, 130), ann(300, 300, 360, 360)]
        preds = [
            det(80, 75, 135, 130, logit=1.0),
            det(295, 310, 350, 365, logit=2.0),
        ]
        out, _ = correct_boxes(targets, preds, self.CFG)
        for a in out:
            assert a.box.width == pytest.approx(60.0, abs=1e-9)
            assert a.box.height == pytest.approx(60.0, abs=1e-9)

    def test_center_is_weighted_average_of_prediction_centers(self):
        targets = [ann(70, 70, 130, 130)]
        preds = [
            det(60, 60, 120, 120, logit=0.5),
            det(90, 90, 150, 150, logit=0.5),
        ]
        out, _ = correct_boxes(targets, preds, self.CFG)
        assert out[0].box.center == (105.0, 105.0)

    def test_distance_gate_uses_normalized_center_distance(self):
        targets = [ann(70, 70, 130, 130)]
        # center distance 40 px = 40/60 > 0.5: ineligible
        far = [det(140, 70, 200, 130, logit=3.0)]
        out, report = correct_boxes(targets, far, self.CFG)
        assert report.assignment_sizes == [0]
        # center distance 24 px = 0.4 <= 0.5: eligible
        near = [det(94, 70, 154, 130, logit=3.0)]
        out, report = correct_boxes(targets, near, self.CFG)
        assert report.assignment_sizes == [1]
        assert out[0].box.center == (124.0, 100.0)

    def test_nonconforming_target_resquared_even_without_assignment(self):
        # a border-clipped 40x60 target comes back as a 60x60 square about
        # its center once any prediction exists for the image
        targets = [ann(0, 70, 40, 130)]
        preds = [det(400, 400, 460, 460, label=1, logit=1.0)]
        out, _ = correct_boxes(targets, preds, self.CFG)
        assert out[0].box.width == pytest.approx(60.0, abs=1e-9)
        assert out[0].box.center == (20.0, 100.0)


class TestMineLabels:
    CFG = CorrectionConfig(mining_threshold=0.8)

    def test_below_threshold_excluded(self):
        out = mine_labels([], [det(0, 0, 10, 10, logit=0.0)], self.CFG)
        assert out == []

    def test_threshold_boundary_inclusive(self):
        d = Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.8)
        out = mine_labels([], [d], self.CFG)
        assert len(out) == 1
        assert out[0].provenance == "mined"

    def test_overlapping_same_class_target_suppresses(self):
        targets = [ann(0, 0, 10, 10)]
        # IoU 0.6 with the target
        overlapping = Detection.from_prob(box=Box(0, 0, 10, 6), label=1, prob=0.9)
        assert iou(targets[0].box, overlapping.box) == 0.6
        out = mine_labels(targets, [overlapping], self.CFG)
        assert out == targets

    def test_dedup_boundary_is_strict(self):
        targets = [ann(0, 0, 4, 4)]
        at_half = Detection.from_prob(box=Box(0, 0, 4, 8), label=1, prob=0.9)
        assert iou(targets[0].box, at_half.box) == 0.5
        out = mine_labels(targets, [at_half], self.CFG)
        assert len(out) == 2  # exactly 0.5 is NOT a duplicate

    def test_different_class_overlap_is_kept(self):
        targets = [ann(0, 0, 10, 10, label=1)]
        other = Detection.from_prob(box=Box(0, 0, 10, 10), label=2, prob=0.9)
        out = mine_labels(targets, [other], self.CFG)
        assert len(out) == 2
        assert out[1].label == 2

    def test_nms_among_mined_candidates(self):
        a = Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.95)
        b = Detection.from_prob(box=Box(1, 0, 11, 10), label=1, prob=0.85)
        out = mine_labels([], [a, b], self.CFG)
        assert len(out) == 1
        assert out[0].box == a.box

    def test_disjoint_confident_prediction_mined(self):
        targets = [ann(0, 0, 10, 10)]
        d = Detection.from_prob(box=Box(100, 100, 120, 120), label=1, prob=0.9)
        out = mine_labels(targets, [d], self.CFG)
        assert out[:1] == targets
        assert out[1].box == d.box
        assert out[1].provenance == "mined"

    def test_targets_never_removed_or_reordered(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            targets = [
                ann(
                    float(rng.uniform(0, 400)), float(rng.uniform(0, 400)),
                    float(rng.uniform(400, 500)), float(rng.uniform(400, 500)),
                    label=int(rng.integers(1, 3)),
                )
                for _ in range(int(rng.integers(0, 5)))
            ]
            preds = [
                Detection.from_prob(
                    box=Box.spanning(*rng.uniform(0, 500, 2), *rng.uniform(0, 500, 2)),
                    label=int(rng.integers(1, 3)),
                    prob=float(rng.uniform(0.5, 1.0)),
                )
                for _ in range(int(rng.integers(0, 8)))
            ]
            out = mine_labels(targets, preds, self.CFG)
            assert out[: len(targets)] == targets
            for extra in out[len(targets):]:
                assert extra.provenance == "mined"

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            targets = [
                ann(x, 0.0, x + 30.0, 30.0, label=int(rng.integers(1, 3)))
                for x in rng.uniform(0, 300, int(rng.integers(0, 4)))
            ]
            preds = [
                Detection.from_prob(
                    box=Box(x, 0.0, x + 30.0, 30.0),
                    label=int(rng.integers(1, 3)),
                    prob=float(rng.uniform(0.4, 1.0)),
                )
                for x in rng.uniform(0, 300, int(rng.integers(0, 8)))
            ]
            got = mine_labels(targets, preds, self.CFG)[len(targets):]
            want = mine_ref(
                [(t.box.as_tuple(), t.label) for t in targets],
                [(p.box.as_tuple(), p.label, p.prob) for p in preds],
                0.8, 0.5, 0.5,
            )
            assert [(a.box.as_tuple(), a.label) for a in got] == [
                (box, label) for box, label, _ in want
            ]

    def test_missing_threshold_raises(self):
        with pytest.raises(ConfigError, match="mining_threshold"):
            mine_labels([], [], CorrectionConfig())


class TestCorrectTargets:
    def test_both_stages_disabled_is_identity(self):
        targets = [ann(0, 0, 10, 10)]
        preds = [det(1, 1, 11, 11, logit=4.0)]
        out, report = correct_targets(targets, preds, CorrectionConfig())
        assert out == targets
        assert report.iterations == 0
        assert report.mined == 0

    def test_mining_only_profile(self):
        cfg = CorrectionConfig(mining_threshold=0.9)
        targets = [ann(0, 0, 10, 10)]
        preds = [Detection.from_prob(box=Box(50, 50, 70, 70), label=1, prob=0.95)]
        out, report = correct_targets(targets, preds, cfg)
        assert out[0] is targets[0]
        assert len(out) == 2
        assert report.mined == 1

    def test_correction_only_profile(self):
        cfg = CorrectionConfig(distance_limit=0.6)
        targets = [ann(0, 0, 10, 10)]
        preds = [det(1, 1, 11, 11, logit=2.0)]
        out, report = correct_targets(targets, preds, cfg)
        assert len(out) == 1
        assert out[0].box == preds[0].box
        assert report.mined == 0

    def test_recovery_fixture_three_truth_two_noisy_one_missing(self):
        # truth objects at three sites; annotations exist for two (displaced),
        # the third must be mined from a confident prediction
        truth = [Box(50, 50, 100, 100), Box(200, 200, 260, 250), Box(400, 100, 440, 150)]
        targets = [
            ann(60, 42, 112, 95, label=1),
            ann(190, 210, 252, 262, label=1),
        ]
        preds = [
            det(51, 49, 101, 101, label=1, logit=2.5),
            det(199, 201, 261, 249, label=1, logit=2.2),
            det(401, 99, 441, 151, label=1, logit=2.0),  # the uncovered object
        ]
        cfg = CorrectionConfig(distance_limit=0.6, mining_threshold=0.8)
        out, report = correct_targets(targets, preds, cfg)
        assert len(out) == 3
        assert report.mined == 1
        for refined, true_box in zip(out, truth):
            assert iou(refined.box, true_box) > 0.9
        assert out[2].provenance == "mined"
        assert iou(out[2].box, truth[2]) > 0.9

    def test_mined_boxes_and_unmoved_targets_are_input_objects(self):
        cfg = CorrectionConfig(distance_limit=0.6, mining_threshold=0.8)
        targets = [ann(0, 0, 10, 10), ann(100, 100, 120, 120)]
        preds = [
            det(1, 1, 11, 11, logit=3.0),
            det(300, 300, 340, 340, logit=2.5),
            det(400.5, 50.25, 430.5, 80.25, label=2, logit=4.0),
        ]
        out, report = correct_targets(targets, preds, cfg)
        assert out[0].provenance == "corrected"
        assert out[1] is targets[1]
        # visit order: descending probability; preds[0] duplicates the target it moved
        assert report.mined == 2
        assert [a.provenance for a in out[2:]] == ["mined", "mined"]
        assert out[2].box is preds[2].box
        assert out[3].box is preds[1].box


def oracle_dataset(seed: int, n_images: int = 40) -> list[tuple[list, list]]:
    """Images of targets and predictions around them.

    Targets use classes 1-3 and predictions 1-4, so class 4 has no targets.
    Some images have no targets or no predictions; some repeat a target
    exactly, so predictions near it are equidistant to two targets. In every
    fourth image the stray predictions take a target's class and lie near
    the origin.
    """
    rng = np.random.default_rng(seed)
    images = []
    for k in range(n_images):
        stray_near_origin = k % 4 == 1
        targets = []
        for _ in range(int(rng.integers(0, 7))):
            x, y = rng.uniform(0.0, 300.0, 2).tolist()
            w, h = rng.uniform(10.0, 60.0, 2).tolist()
            targets.append(ann(x, y, x + w, y + h, label=int(rng.integers(1, 4))))
        if targets and k % 5 == 0:
            targets.append(targets[0])
        preds = []
        for t in targets:
            for _ in range(int(rng.integers(0, 4))):
                jx1, jy1, jx2, jy2 = rng.normal(0.0, 6.0, 4).tolist()
                b = t.box
                box = Box.spanning(b.x1 + jx1, b.y1 + jy1, b.x2 + jx2, b.y2 + jy2)
                label = t.label if rng.random() < 0.85 else int(rng.integers(1, 5))
                preds.append(
                    Detection.from_logit(box=box, label=label, logit=float(rng.normal(0.0, 2.0)))
                )
        for _ in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(0.0, 40.0 if stray_near_origin else 300.0, 2).tolist()
            w, h = rng.uniform(10.0, 60.0, 2).tolist()
            if stray_near_origin and targets:
                label = targets[int(rng.integers(len(targets)))].label
            else:
                label = int(rng.integers(1, 5))
            preds.append(det(x, y, x + w, y + h, label=label, logit=float(rng.normal())))
        rng.shuffle(preds)
        if k % 9 == 4:
            preds = []
        images.append((targets, preds))
    return images


ORACLE_CONFIGS = {
    "iou": CorrectionConfig(distance_limit=0.6),
    # a limit above 1 makes every same-class pair eligible: whole rows are
    # scored for eligibility
    "giou-wide": CorrectionConfig(distance="giou", distance_limit=1.5, temperature=0.5),
    "center-fixed": CorrectionConfig(
        distance="center-normalized", center_norm=30.0, distance_limit=2.5, fixed_size=30.0
    ),
    "iou-capped": CorrectionConfig(distance_limit=0.95, max_iterations=1, temperature=2.0),
    "center-capped": CorrectionConfig(
        distance="center-normalized", center_norm=20.0, distance_limit=3.0,
        max_iterations=2, convergence_eps=0.0,
    ),
}


def reference_distance(cfg: CorrectionConfig):
    if cfg.distance == "iou":
        return lambda a, b: 1.0 - iou_ref(a, b)
    if cfg.distance == "giou":
        return giou_distance_ref
    return lambda a, b: center_distance_ref(a, b, cfg.center_norm)


def correct_batch(images, cfg: CorrectionConfig):
    """``correct_sets`` over every ``(targets, predictions)`` image at once:
    each image's refined rows as objects, which of its targets moved, and
    its report."""
    targets = annotation_set([t for t, _ in images])
    refined, moved, reports = correct_sets(
        targets, detection_set([p for _, p in images]), cfg
    )
    bounds = targets.offsets.tolist()
    flags = [moved[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]
    return set_annotations(refined), flags, reports


class TestCorrectImagesOracle:
    """The dataset-level pass, ``correct_sets`` over the whole batch, equals a
    naive per-image, per-class loop exactly."""

    # pairs per block of geometry.pair_blocks: one prediction's pairs per
    # block, a few predictions', the default, all of them in one block
    BUDGETS = (1, 150, None, 1 << 40)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_correction_matches_oracle(self, monkeypatch, budget, name):
        if budget is not None:
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", budget)
        cfg = ORACLE_CONFIGS[name]
        images = oracle_dataset(37 + len(name))
        refined, moved, reports = correct_batch(images, cfg)
        assert len(refined) == len(reports) == len(images)
        stopped_early = 0
        for (targets, preds), out, flags, report in zip(images, refined, moved, reports):
            boxes, iterations, converged, sizes = correct_ref(
                [(t.box.as_tuple(), t.label) for t in targets],
                [(p.box.as_tuple(), p.label, p.logit) for p in preds],
                reference_distance(cfg),
                cfg.distance_limit,
                cfg.temperature,
                cfg.max_iterations,
                cfg.convergence_eps,
                cfg.fixed_size,
            )
            assert [a.box.as_tuple() for a in out] == boxes
            assert flags == [box != t.box.as_tuple() for t, box in zip(targets, boxes)]
            for a, t, box in zip(out, targets, boxes):
                if box == t.box.as_tuple():
                    assert a == t
                else:
                    assert (a.label, a.provenance) == (t.label, "corrected")
            assert report.iterations == iterations
            assert report.converged == converged
            assert report.assignment_sizes == sizes
            assert report.mined == 0
            stopped_early += not converged
        # the capped configurations really hit the cap
        assert (stopped_early > 0) == name.endswith("capped")

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_mining_matches_oracle(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", budget)
        cfg = CorrectionConfig(distance_limit=0.6, mining_threshold=0.7, mining_nms_iou=0.4)
        images = oracle_dataset(38)
        mined_total = 0
        for (targets, preds), out, _, report in zip(images, *correct_batch(images, cfg)):
            corrected, _ = correct_boxes(targets, preds, cfg)
            want = mine_ref(
                [(t.box.as_tuple(), t.label) for t in corrected],
                [(p.box.as_tuple(), p.label, p.prob) for p in preds],
                cfg.mining_threshold, cfg.mining_nms_iou, cfg.dedup_iou,
            )
            assert out[: len(corrected)] == corrected
            assert [(a.box.as_tuple(), a.label, a.provenance) for a in out[len(corrected):]] == [
                (box, label, "mined") for box, label, _ in want
            ]
            assert report.mined == len(want)
            mined_total += report.mined
        assert mined_total > 0

    def test_one_image_entry_points_agree(self):
        cfg = CorrectionConfig(distance_limit=0.6, mining_threshold=0.7)
        images = oracle_dataset(39, n_images=12)
        moved_total = 0
        for (targets, preds), rows, flags, report in zip(images, *correct_batch(images, cfg)):
            out, one = correct_targets(targets, preds, cfg)
            assert (out, one) == (rows, report)
            for a, t, moved in zip(out, targets, flags):
                assert (a is t) == (not moved)
            moved_total += sum(flags)
        assert moved_total > 0


def flat_images(rng: np.random.Generator, scale: float, n_images: int = 80):
    """Images as oracle tuples, ``(box, label)`` targets and ``(box, label,
    logit)`` predictions, at ``scale`` times unit coordinates.

    Some targets are exact copies, and some images put boxes on an integer
    grid, so that distances tie and centers lie exactly ``distance_limit``
    apart; some predictions lie far from every target, and logits repeat.
    """
    images = []
    for k in range(n_images):
        grid = k % 3 == 0
        targets = []
        for _ in range(int(rng.integers(0, 9))):
            if grid:
                x, y = rng.integers(0, 6, 2).tolist()
                w, h = rng.integers(1, 4, 2).tolist()
            else:
                x, y = rng.uniform(0.0, 8.0, 2).tolist()
                w, h = rng.uniform(0.5, 2.0, 2).tolist()
            box = (float(x), float(y), float(x + w), float(y + h))
            targets.append((box, int(rng.integers(1, 3))))
        if targets and k % 4 == 1:
            targets.append(targets[int(rng.integers(len(targets)))])
        preds = []
        for box, label in targets:
            for _ in range(int(rng.integers(0, 3))):
                if grid:
                    jitter = rng.integers(-1, 2, 4).astype(float)
                else:
                    jitter = rng.normal(0.0, 0.3, 4)
                xa, ya, xb, yb = (np.array(box) + jitter).tolist()
                corners = (min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))
                logit = float(rng.choice([0.0, 1.0, rng.normal()]))
                preds.append((corners, label if rng.random() < 0.9 else 3, logit))
        for _ in range(int(rng.integers(0, 4))):
            if grid:
                x, y = rng.integers(-3, 9, 2).tolist()
                w, h = rng.integers(1, 4, 2).tolist()
            else:
                x, y = rng.uniform(-20.0, 30.0, 2).tolist()
                w, h = 1.5, 1.0
            box = (float(x), float(y), float(x + w), float(y + h))
            preds.append((box, int(rng.integers(1, 3)), float(rng.normal())))
        rng.shuffle(preds)

        def scaled(box):
            return tuple(v * scale for v in box)

        images.append(
            (
                [(scaled(box), label) for box, label in targets],
                [(scaled(box), label, logit) for box, label, logit in preds],
            )
        )
    return images


def columns(side: list[list[tuple]], *extra: str) -> BoxSet:
    counts = [len(image) for image in side]
    rows = [row for image in side for row in image]
    out = BoxSet(
        np.array([row[0] for row in rows], dtype=np.float64).reshape(-1, 4),
        np.concatenate(([0], np.cumsum(counts))).astype(np.intp),
        labels=np.array([row[1] for row in rows], dtype=np.int64),
    )
    if extra:
        out.logits = np.array([row[2] for row in rows], dtype=np.float64)
    return out


def flat_configs(scale: float) -> dict[str, CorrectionConfig]:
    return {
        "iou": CorrectionConfig(distance_limit=0.6),
        "iou-capped-eps0": CorrectionConfig(
            distance_limit=0.9, max_iterations=1, convergence_eps=0.0
        ),
        "giou": CorrectionConfig(distance="giou", distance_limit=0.7, temperature=0.5),
        "giou-1": CorrectionConfig(distance="giou", distance_limit=1.0),
        "giou-wide": CorrectionConfig(distance="giou", distance_limit=1.6, max_iterations=2),
        "center": CorrectionConfig(
            distance="center-normalized", center_norm=1.5 * scale, distance_limit=2.0,
            convergence_eps=0.0,
        ),
        "center-fixed": CorrectionConfig(
            distance="center-normalized", center_norm=2.0 * scale, distance_limit=1.5,
            fixed_size=1.5 * scale,
        ),
        # on the integer grid many centers lie exactly distance_limit apart
        "center-edge": CorrectionConfig(
            distance="center-normalized", center_norm=1.0 * scale, distance_limit=2.0,
        ),
        "iou-fixed": CorrectionConfig(
            distance_limit=0.8, fixed_size=2.0 * scale, max_iterations=1
        ),
    }


class TestFlatPassProperty:
    """The flat pass, which scores only windows of pairs, equals the naive
    dense formula on every box, moved flag and report field."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e15])
    def test_flat_pass_matches_dense_formula(self, scale):
        rng = np.random.default_rng(int(math.log10(scale)) + 100)
        images = flat_images(rng, scale)
        targets = columns([t for t, _ in images])
        preds = columns([p for _, p in images], "logits")
        for name, cfg in flat_configs(scale).items():
            refined, moved, reports = correct_sets(targets, preds, cfg)
            assert len(refined) == len(targets)
            bounds = refined.offsets.tolist()
            for g, (t_img, p_img) in enumerate(images):
                boxes, iterations, converged, sizes = correct_ref(
                    t_img, p_img, reference_distance(cfg), cfg.distance_limit,
                    cfg.temperature, cfg.max_iterations, cfg.convergence_eps, cfg.fixed_size,
                )
                rows = slice(bounds[g], bounds[g + 1])
                assert [tuple(b) for b in refined.boxes[rows].tolist()] == boxes, (name, g)
                assert moved[rows].tolist() == [b != t for b, (t, _) in zip(boxes, t_img)]
                report = reports[g]
                assert report.iterations == iterations, (name, g)
                assert report.converged == converged, (name, g)
                assert report.assignment_sizes == sizes, (name, g)
                assert report.mined == 0


def test_flat_pass_scores_few_pairs(monkeypatch):
    """Spread-out boxes: the windows hold a small share of the pairs that
    the dense formula scores, once for eligibility and once per round."""
    rng = np.random.default_rng(61)
    images = []
    for _ in range(2):
        targets, preds = [], []
        for _ in range(1000):
            x, y = rng.uniform(0.0, 3000.0, 2).tolist()
            w, h = rng.uniform(10.0, 30.0, 2).tolist()
            label = int(rng.integers(1, 4))
            targets.append(((x, y, x + w, y + h), label))
            jx1, jy1, jx2, jy2 = rng.normal(0.0, 2.0, 4).tolist()
            box = (x + jx1, y + jy1, x + w + jx2, y + h + jy2)
            preds.append((box, label, float(rng.normal())))
        images.append((targets, preds))
    scored = []
    pairs = correction.iou_pairs
    monkeypatch.setattr(
        correction, "iou_pairs", lambda a, b: scored.append(a.shape[1]) or pairs(a, b)
    )
    _, moved, reports = correct_sets(
        columns([t for t, _ in images]), columns([p for _, p in images], "logits"),
        CorrectionConfig(distance_limit=0.6),
    )
    assert moved.sum() > 1500
    dense = sum(1000 * 1000 * (1 + r.iterations) for r in reports)
    assert 0 < sum(scored) < 0.05 * dense
