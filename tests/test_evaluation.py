"""AP50 scoring, quality statistics, error breakdown."""

from __future__ import annotations

import math

import numpy as np
import pytest

from boxrefine import evaluation
from boxrefine.datamodel import Annotation, Dataset, Detection, ImageRecord
from boxrefine.evaluation import (
    TP_IOU,
    error_breakdown,
    evaluate_ap50,
    quality_stats,
)
from boxrefine.geometry import Box, iou

from oracles import average_precision_ref


def ann(x1, y1, x2, y2, label=1):
    return Annotation(box=Box(x1, y1, x2, y2), label=label)


def det(x1, y1, x2, y2, label=1, prob=0.9):
    return Detection.from_prob(box=Box(x1, y1, x2, y2), label=label, prob=prob)


def dataset(images: dict[str, list[Annotation]], num_classes=3) -> Dataset:
    recs = [
        ImageRecord(image_id=image_id, width=512, height=512, annotations=anns)
        for image_id, anns in images.items()
    ]
    return Dataset(
        class_names=[f"c{i}" for i in range(1, num_classes + 1)], images=recs
    )


class TestEvaluateAp50:
    def test_perfect_predictions_score_one(self):
        gt = dataset({"a": [ann(0, 0, 10, 10), ann(50, 50, 80, 90, label=2)]})
        preds = {
            "a": [det(0, 0, 10, 10, prob=0.9), det(50, 50, 80, 90, label=2, prob=0.8)]
        }
        result = evaluate_ap50(gt, preds)
        assert result.map50 == 1.0
        assert result.per_class_ap == {1: 1.0, 2: 1.0}
        assert result.counts[1].tp == 1
        assert result.counts[1].fn == 0

    def test_no_predictions_scores_zero(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        result = evaluate_ap50(gt, {})
        assert result.map50 == 0.0
        assert result.per_class_ap == {1: 0.0}
        assert result.counts[1].fn == 1

    def test_two_prediction_fixture(self):
        # one GT; a matching high-score prediction plus a far lower-score one:
        # PR points (1, 1.0) then (1, 0.5) -> AP 1.0
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        preds = {
            "a": [det(0, 0, 10, 10, prob=0.9), det(200, 200, 220, 220, prob=0.3)]
        }
        assert evaluate_ap50(gt, preds).map50 == 1.0
        # flipped scores: the false positive ranks first -> AP 0.5
        preds = {
            "a": [det(0, 0, 10, 10, prob=0.3), det(200, 200, 220, 220, prob=0.9)]
        }
        assert evaluate_ap50(gt, preds).map50 == 0.5

    def test_iou_exactly_half_is_a_match(self):
        gt = dataset({"a": [ann(0, 0, 4, 4)]})
        preds = {"a": [det(0, 0, 4, 8, prob=0.9)]}
        assert evaluate_ap50(gt, preds).map50 == 1.0

    def test_each_gt_matched_at_most_once(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        preds = {"a": [det(0, 0, 10, 10, prob=0.9), det(1, 0, 11, 10, prob=0.8)]}
        result = evaluate_ap50(gt, preds)
        assert result.counts[1].tp == 1
        assert result.counts[1].fp == 1

    def test_wrong_class_never_matches(self):
        gt = dataset({"a": [ann(0, 0, 10, 10, label=1)]})
        preds = {"a": [det(0, 0, 10, 10, label=2, prob=0.9)]}
        result = evaluate_ap50(gt, preds)
        assert result.per_class_ap == {1: 0.0}
        assert result.counts[2].fp == 1
        assert 2 not in result.per_class_ap

    def test_unknown_image_id_rejected(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        with pytest.raises(ValueError, match="ghost"):
            evaluate_ap50(gt, {"ghost": [det(0, 0, 10, 10)]})

    def test_score_monotone_transform_invariance(self):
        rng = np.random.default_rng(41)
        gt, preds = random_instance(rng)
        base = evaluate_ap50(gt, preds).map50
        squeezed = {
            image_id: [
                Detection.from_prob(box=d.box, label=d.label, prob=0.1 + 0.8 * d.prob)
                for d in dets
            ]
            for image_id, dets in preds.items()
        }
        assert evaluate_ap50(gt, squeezed).map50 == pytest.approx(base, abs=1e-12)

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            gt, preds = random_instance(rng)
            result = evaluate_ap50(gt, preds)
            for label, got in result.per_class_ap.items():
                gt_by_image = {
                    rec.image_id: [
                        a.box.as_tuple() for a in rec.annotations if a.label == label
                    ]
                    for rec in gt.images
                }
                flat = []
                for rec in gt.images:
                    for d in preds.get(rec.image_id, []):
                        if d.label == label:
                            flat.append((rec.image_id, d.box.as_tuple(), d.prob))
                want = average_precision_ref(gt_by_image, flat)
                assert got == pytest.approx(want, abs=1e-9)


def random_instance(rng, max_images=3, num_classes=2):
    images = {}
    preds = {}
    for i in range(int(rng.integers(1, max_images + 1))):
        image_id = f"im{i}"
        anns = []
        for _ in range(int(rng.integers(0, 5))):
            x = float(rng.uniform(0, 400))
            y = float(rng.uniform(0, 400))
            w = float(rng.uniform(10, 80))
            h = float(rng.uniform(10, 80))
            anns.append(ann(x, y, x + w, y + h, label=int(rng.integers(1, num_classes + 1))))
        images[image_id] = anns
        dets = []
        for _ in range(int(rng.integers(0, 6))):
            if anns and rng.random() < 0.6:
                base = anns[int(rng.integers(len(anns)))].box
                jit = rng.uniform(-12, 12, 4)
                box = Box.spanning(
                    base.x1 + jit[0], base.y1 + jit[1], base.x2 + jit[2], base.y2 + jit[3]
                )
            else:
                x = float(rng.uniform(0, 400))
                y = float(rng.uniform(0, 400))
                box = Box(x, y, x + float(rng.uniform(10, 80)), y + float(rng.uniform(10, 80)))
            dets.append(
                Detection.from_prob(
                    box=box,
                    label=int(rng.integers(1, num_classes + 1)),
                    prob=float(rng.uniform(0.05, 0.99)),
                )
            )
        preds[image_id] = dets
    return dataset(images, num_classes), preds


class TestQualityStats:
    def test_identity_scores_one_one(self):
        gt = dataset({"a": [ann(0, 0, 10, 10), ann(30, 30, 60, 60)]})
        stats = quality_stats(gt, gt)
        assert stats.gt_to_annotations == 1.0
        assert stats.annotations_to_gt == 1.0
        assert not stats.gt_empty and not stats.annotations_empty

    def test_asymmetry_fixture(self):
        # two GT boxes, one annotation equal to the first:
        # GT -> annotations averages {1.0, 0.0} = 0.5; reverse finds 1.0
        gt = dataset({"a": [ann(0, 0, 10, 10), ann(100, 100, 140, 140)]})
        anns = dataset({"a": [ann(0, 0, 10, 10)]})
        stats = quality_stats(gt, anns)
        assert stats.gt_to_annotations == 0.5
        assert stats.annotations_to_gt == 1.0

    def test_empty_annotation_side_flagged(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        empty = dataset({"a": []})
        stats = quality_stats(gt, empty)
        assert stats.gt_to_annotations == 0.0
        assert stats.annotations_to_gt == 0.0
        assert stats.annotations_empty
        assert not stats.gt_empty

    def test_labels_are_ignored(self):
        gt = dataset({"a": [ann(0, 0, 10, 10, label=1)]})
        anns = dataset({"a": [ann(0, 0, 10, 10, label=2)]})
        stats = quality_stats(gt, anns)
        assert stats.gt_to_annotations == 1.0

    def test_image_id_mismatch_lists_offenders(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        anns = dataset({"b": [ann(0, 0, 10, 10)]})
        with pytest.raises(ValueError) as err:
            quality_stats(gt, anns)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            gt, _ = random_instance(rng)
            other, _ = random_instance(rng)
            # rebuild on the same image ids
            anns = dataset(
                {rec.image_id: list(other.images[0].annotations) for rec in gt.images}
            )
            stats = quality_stats(gt, anns)
            assert 0.0 <= stats.gt_to_annotations <= 1.0
            assert 0.0 <= stats.annotations_to_gt <= 1.0


class TestErrorBreakdown:
    def test_perfect_predictions(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        b = error_breakdown(gt, {"a": [det(0, 0, 10, 10, prob=0.9)]})
        assert b.true_positives == 1
        assert b.missed == 0
        assert b.localization == b.duplicate == b.background == b.classification == 0

    def test_background_prediction(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        b = error_breakdown(gt, {"a": [det(300, 300, 340, 340, prob=0.9)]})
        assert b.background == 1
        assert b.missed == 1

    def test_localization_error_band(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        # IoU 1/3: same class, poorly localised
        b = error_breakdown(gt, {"a": [det(5, 0, 15, 10, prob=0.9)]})
        assert b.localization == 1
        assert b.missed == 1

    def test_duplicate_error(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        b = error_breakdown(
            gt, {"a": [det(0, 0, 10, 10, prob=0.9), det(0, 0, 10, 11, prob=0.8)]}
        )
        assert b.true_positives == 1
        assert b.duplicate == 1

    def test_classification_error(self):
        gt = dataset({"a": [ann(0, 0, 10, 10, label=1)]})
        b = error_breakdown(gt, {"a": [det(0, 0, 10, 10, label=2, prob=0.9)]})
        assert b.classification == 1
        assert b.missed == 1

    def test_score_floor_filters(self):
        gt = dataset({"a": [ann(0, 0, 10, 10)]})
        b = error_breakdown(gt, {"a": [det(0, 0, 10, 10, prob=0.4)]}, score_floor=0.5)
        assert b.true_positives == 0
        assert b.missed == 1

    def test_buckets_partition_predictions(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            gt, preds = random_instance(rng)
            floor = 0.3
            b = error_breakdown(gt, preds, score_floor=floor)
            n_scored = sum(
                1 for dets in preds.values() for d in dets if d.prob >= floor
            )
            total = (
                b.true_positives
                + b.localization
                + b.duplicate
                + b.background
                + b.classification
            )
            assert total == n_scored
            n_gt = sum(len(rec.annotations) for rec in gt.images)
            assert b.missed == n_gt - b.true_positives
            assert 0 <= b.true_positives <= n_gt


class TestTiesAndAgreement:
    # the first detection overlaps both ground truths with IoU exactly 0.6;
    # the second copies the first ground truth and has IoU 1/3 with the other
    GT_PAIR = [ann(0, 0, 20, 10), ann(10, 0, 30, 10)]
    PREDS = [det(5, 0, 25, 10, prob=0.9), det(0, 0, 20, 10, prob=0.8)]

    def test_equal_iou_goes_to_lower_gt_index_in_ap(self):
        # the tie claims ground truth 0, so the copy of it finds it taken
        gt = dataset({"a": self.GT_PAIR})
        assert evaluate_ap50(gt, {"a": self.PREDS}).counts[1].tp == 1
        swapped = dataset({"a": self.GT_PAIR[::-1]})
        assert evaluate_ap50(swapped, {"a": self.PREDS}).counts[1].tp == 2

    def test_equal_iou_goes_to_lower_gt_index_in_breakdown(self):
        b = error_breakdown(dataset({"a": self.GT_PAIR}), {"a": self.PREDS})
        assert (b.true_positives, b.duplicate) == (1, 1)
        b = error_breakdown(dataset({"a": self.GT_PAIR[::-1]}), {"a": self.PREDS})
        assert (b.true_positives, b.duplicate) == (2, 0)

    def test_equal_iou_goes_to_lower_gt_index_in_x_order_too(self):
        # with a second image, pairs are scored in windows, whose ground
        # truths come in x order: here the lower row lies to the right
        gt = dataset({"a": self.GT_PAIR[::-1], "b": [ann(0, 0, 10, 10)]})
        preds = {"a": self.PREDS, "b": [det(0, 0, 10, 10)]}
        assert evaluate_ap50(gt, preds).counts[1].tp == 3
        b = error_breakdown(gt, preds)
        assert (b.true_positives, b.duplicate) == (3, 0)

    def test_breakdown_true_positives_equal_ap_true_positives(self):
        rng = np.random.default_rng(47)
        total_tp = 0
        for _ in range(80):
            gt, preds = random_instance(rng)
            # the two metrics part only at IoU exactly TP_IOU, absent here
            assert all(
                iou(d.box, a.box) != TP_IOU
                for rec in gt.images
                for d in preds[rec.image_id]
                for a in rec.annotations
            )
            tp = sum(c.tp for c in evaluate_ap50(gt, preds).counts.values())
            assert error_breakdown(gt, preds, score_floor=0.0).true_positives == tp
            total_tp += tp
        assert total_tp > 30


class TestSummationOrder:
    """Means add left to right. The builtin ``sum`` compensates floats from
    Python 3.12 on: ``sum([1e16, 1.0, -1e16])`` is 1.0 there, 0.0 before."""

    def test_values_are_added_left_to_right(self):
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert evaluation._sum(values) == 0.0
        assert evaluation._mean(values) == 0.0

    def test_a_compensated_builtin_sum_changes_no_metric(self, monkeypatch):
        # many overlaps and classes, so that some sums round differently
        rng = np.random.default_rng(71)
        gt, anns, preds = {}, {}, {}
        for image_id in ("a", "b", "c"):
            corners = rng.uniform(0, 400, (60, 2))
            sides = rng.uniform(20, 80, (60, 2))  # wider than the moves can cross
            labels = rng.integers(1, 13, 60).tolist()
            boxes = np.hstack((corners, corners + sides)).tolist()
            moved = (np.array(boxes) + rng.uniform(-9, 9, (60, 4))).tolist()
            gt[image_id] = [ann(*b, label=k) for b, k in zip(boxes, labels)]
            anns[image_id] = [ann(*b, label=k) for b, k in zip(moved, labels)]
            preds[image_id] = [det(*b, label=k, prob=p)
                               for b, k, p in zip(moved, labels, rng.uniform(0.1, 1, 60))]
        gt, anns = dataset(gt, 12), dataset(anns, 12)

        def metrics():
            stats = quality_stats(gt, anns)
            return (evaluate_ap50(gt, preds).map50, stats.gt_to_annotations,
                    stats.annotations_to_gt)

        plain = metrics()
        # the builtin sum as Python 3.12 computes it, for this module's reads
        monkeypatch.setattr(evaluation, "sum", math.fsum, raising=False)
        assert metrics() == plain
