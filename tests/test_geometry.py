"""Geometry primitives: boxes, distances, NMS."""

from __future__ import annotations

import numpy as np
import pytest

from boxrefine import geometry
from boxrefine.datamodel import Detection, detection_set
from boxrefine.geometry import (
    Box,
    BoxSet,
    best_iou,
    center_distance_normalized,
    center_distance_pairs,
    giou_distance,
    giou_pairs,
    grouped_iou,
    grouped_nms,
    iou,
    iou_distance,
    iou_pairs,
    nms,
)

from oracles import iou_ref


def box_set(groups: list[list[Box]]) -> BoxSet:
    return BoxSet.from_boxes([b for g in groups for b in g], [len(g) for g in groups])


def box_array(boxes: list[Box]) -> np.ndarray:
    return box_set([boxes]).boxes


def pair_matrix(kernel, a: list[Box], b: list[Box]) -> np.ndarray:
    """``(N, M)`` matrix of a per-pair kernel, entry (i, j) for a[i] and b[j],
    scored as one list of all N * M pairs."""
    i, j = np.divmod(np.arange(len(a) * len(b)), max(len(b), 1))
    a_planes, b_planes = box_array(a).T, box_array(b).T
    return kernel(a_planes[:, i], b_planes[:, j]).reshape(len(a), len(b))


def random_box(rng: np.random.Generator, span: float = 100.0) -> Box:
    x = sorted(rng.uniform(0.0, span, 2).tolist())
    y = sorted(rng.uniform(0.0, span, 2).tolist())
    return Box(x[0], y[0], x[1], y[1])


class TestBox:
    def test_rejects_non_canonical_corners(self):
        with pytest.raises(ValueError):
            Box(10.0, 0.0, 5.0, 10.0)
        with pytest.raises(ValueError):
            Box(0.0, 10.0, 5.0, 5.0)

    def test_spanning_reorders_corners(self):
        assert Box.spanning(10.0, 8.0, 2.0, 3.0) == Box(2.0, 3.0, 10.0, 8.0)

    def test_zero_area_is_legal(self):
        b = Box(5.0, 5.0, 5.0, 9.0)
        assert b.area == 0.0
        assert b.width == 0.0

    def test_clip(self):
        assert Box(-5.0, -5.0, 120.0, 40.0).clip(100.0, 50.0) == Box(
            0.0, 0.0, 100.0, 40.0
        )
        # entirely outside collapses onto the border
        assert Box(200.0, 10.0, 250.0, 20.0).clip(100.0, 50.0) == Box(
            100.0, 10.0, 100.0, 20.0
        )

    def test_center(self):
        assert Box(0.0, 0.0, 10.0, 20.0).center == (5.0, 10.0)


class TestIou:
    def test_identical_boxes(self):
        b = Box(3.0, 4.0, 50.0, 60.0)
        assert iou(b, b) == 1.0
        assert iou_distance(b, b) == 0.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_half_overlap_fixture(self):
        # intersection 50, union 150
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )
        assert iou_distance(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    def test_zero_area_operands(self):
        degenerate = Box(5.0, 5.0, 5.0, 5.0)
        assert iou(degenerate, degenerate) == 0.0
        assert iou(degenerate, Box(0, 0, 10, 10)) == 0.0

    def test_matches_reference_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == pytest.approx(iou_ref(a.as_tuple(), b.as_tuple()), abs=1e-12)
            assert 0.0 <= v <= 1.0
            assert iou(a, b) == iou(b, a)

    def test_one_only_for_equal_boxes(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = random_box(rng)
            b = random_box(rng)
            if iou(a, b) == 1.0:
                assert a == b


class TestGiouDistance:
    def test_identical_boxes(self):
        b = Box(0.0, 0.0, 12.0, 8.0)
        assert giou_distance(b, b) == 0.0

    def test_touching_boxes(self):
        # zero overlap, hull exactly covers the union: distance exactly 1
        assert giou_distance(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 1.0

    def test_far_apart_approaches_two(self):
        d = giou_distance(Box(0, 0, 1, 1), Box(999, 999, 1000, 1000))
        assert d > 1.9

    def test_containment_equals_iou_distance(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            outer = random_box(rng)
            fx = rng.uniform(0.0, 1.0, 2)
            fy = rng.uniform(0.0, 1.0, 2)
            inner = Box(
                outer.x1 + min(fx) * outer.width,
                outer.y1 + min(fy) * outer.height,
                outer.x1 + max(fx) * outer.width,
                outer.y1 + max(fy) * outer.height,
            )
            assert giou_distance(outer, inner) == pytest.approx(
                iou_distance(outer, inner), abs=1e-12
            )

    def test_never_below_iou_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert giou_distance(a, b) >= iou_distance(a, b) - 1e-12
            assert 0.0 <= giou_distance(a, b) <= 2.0


class TestCenterDistanceNormalized:
    def test_identical_centers(self):
        a = Box(0, 0, 10, 10)
        b = Box(2, 2, 8, 8)
        assert center_distance_normalized(a, b, 60.0) == 0.0

    def test_three_four_five_triangle(self):
        # centers (0, 0) and (30, 40): distance 50, norm 60
        a = Box(-5, -5, 5, 5)
        b = Box(25, 35, 35, 45)
        assert center_distance_normalized(a, b, 60.0) == pytest.approx(
            5.0 / 6.0, abs=1e-15
        )

    def test_one_norm_apart(self):
        a = Box(0, 0, 10, 10)
        b = Box(60, 0, 70, 10)
        assert center_distance_normalized(a, b, 60.0) == 1.0

    def test_rejects_non_positive_norm(self):
        a = Box(0, 0, 1, 1)
        with pytest.raises(ValueError):
            center_distance_normalized(a, a, 0.0)
        with pytest.raises(ValueError):
            center_distance_normalized(a, a, -2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert center_distance_normalized(a, b, 60.0) == pytest.approx(
                center_distance_normalized(b, a, 60.0), abs=1e-12
            )


def det(box: Box, label: int, prob: float) -> Detection:
    return Detection.from_prob(box=box, label=label, prob=prob)


class TestNms:
    def test_single_detection_survives(self):
        d = det(Box(0, 0, 10, 10), 1, 0.9)
        assert nms([d], 0.5) == [d]

    def test_same_class_duplicate_suppressed(self):
        hi = det(Box(0, 0, 10, 10), 1, 0.9)
        lo = det(Box(1, 0, 11, 10), 1, 0.6)
        assert nms([lo, hi], 0.5) == [hi]

    def test_different_classes_do_not_suppress(self):
        a = det(Box(0, 0, 10, 10), 1, 0.9)
        b = det(Box(0, 0, 10, 10), 2, 0.6)
        assert nms([a, b], 0.5) == [a, b]

    def test_threshold_is_inclusive_boundary(self):
        # IoU exactly 0.5: 4x4 vs 4x8 sharing the 4x4 area
        a = det(Box(0, 0, 4, 4), 1, 0.9)
        b = det(Box(0, 0, 4, 8), 1, 0.8)
        assert iou(a.box, b.box) == 0.5
        assert nms([a, b], 0.5) == [a, b]  # "> threshold" suppresses, 0.5 survives
        assert nms([a, b], 0.49) == [a]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    def test_properties_on_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            dets = [
                det(
                    random_box(rng, 40.0),
                    int(rng.integers(1, 3)),
                    float(rng.uniform(0.05, 0.95)),
                )
                for _ in range(int(rng.integers(0, 12)))
            ]
            kept = nms(dets, 0.5)
            # survivors are a subset, scores descend, same-class pairs obey the cap
            assert all(k in dets for k in kept)
            probs = [k.prob for k in kept]
            assert probs == sorted(probs, reverse=True)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    if a.label == b.label:
                        assert iou(a.box, b.box) <= 0.5 + 1e-12


def tricky_boxes(rng: np.random.Generator, n: int) -> list[Box]:
    """Random boxes mixed with the cases where float formulas part ways.

    Besides plain random boxes: identical copies, nested boxes, boxes that
    touch along an edge or a corner, zero-width, zero-height and point
    boxes, and boxes on an integer grid, where exact ties and IoU values of
    exactly 0.5 occur.
    """
    out: list[Box] = []
    while len(out) < n:
        kind = int(rng.integers(7))
        if kind == 0 or not out:
            out.append(random_box(rng))
            continue
        base = out[int(rng.integers(len(out)))]
        if kind == 1:
            out.append(Box(*base.as_tuple()))
        elif kind == 2:
            f = sorted(rng.uniform(0.0, 1.0, 2).tolist())
            out.append(Box(base.x1 + f[0] * base.width, base.y1, base.x1 + f[1] * base.width, base.y2))
        elif kind == 3:
            out.append(Box(base.x2, base.y1, base.x2 + base.width, base.y2))
        elif kind == 4:
            out.append(Box(base.x2, base.y2, base.x2 + 5.0, base.y2 + 5.0))
        elif kind == 5:
            x, y = rng.uniform(0.0, 100.0, 2).tolist()
            w = float(rng.choice([0.0, 3.0]))
            h = 0.0 if w else float(rng.choice([0.0, 7.0]))
            out.append(Box(x, y, x + w, y + h))
        else:
            x, y = rng.integers(0, 8, 2).tolist()
            w, h = rng.integers(0, 5, 2).tolist()
            out.append(Box(float(x), float(y), float(x + w), float(y + h)))
    return out


def scaled(boxes: list[Box], factor: float, offset: float) -> list[Box]:
    return [Box(*(v * factor + offset for v in b.as_tuple())) for b in boxes]


def assert_grouped_iou_contract(a_groups: list[list[Box]], b_groups: list[list[Box]]) -> None:
    """``grouped_iou`` against every pair of each image: each pair with
    positive IoU comes exactly once with its scalar value; any other pair it
    yields is of one image and comes with IoU 0. Pairs come by ``a`` row."""
    got: dict[tuple[int, int], float] = {}
    rows: list[int] = []
    for i, j, overlap in grouped_iou(box_set(a_groups), box_set(b_groups)):
        rows += i.tolist()
        for pair, value in zip(zip(i.tolist(), j.tolist()), overlap.tolist()):
            assert pair not in got
            got[pair] = value
    assert rows == sorted(rows)
    a_start = b_start = 0
    for a, b in zip(a_groups, b_groups):
        for i, p in enumerate(a, start=a_start):
            for j, q in enumerate(b, start=b_start):
                want = iou(p, q)
                if want > 0.0:
                    assert got.pop((i, j)) == want
                elif (i, j) in got:
                    assert got.pop((i, j)) == 0.0
        a_start, b_start = a_start + len(a), b_start + len(b)
    # no pair across images
    assert got == {}


class TestPairwiseMatrices:
    """The per-pair kernels must equal the scalar functions exactly, not
    approximately, on every entry of a pairwise matrix."""

    def cases(self, seed: int):
        rng = np.random.default_rng(seed)
        for n, m in ((1, 1), (7, 5), (150, 40), (0, 4), (4, 0), (0, 0)):
            yield tricky_boxes(rng, n), tricky_boxes(rng, m)

    def test_iou_matrix_is_bit_identical(self):
        for a, b in self.cases(41):
            got = pair_matrix(iou_pairs, a, b)
            assert got.shape == (len(a), len(b))
            assert got.tolist() == [[iou(p, q) for q in b] for p in a]
            assert (1.0 - got).tolist() == [[iou_distance(p, q) for q in b] for p in a]

    def test_giou_matrix_is_bit_identical(self):
        for a, b in self.cases(42):
            got = 1.0 - pair_matrix(giou_pairs, a, b)
            assert got.shape == (len(a), len(b))
            assert got.tolist() == [[giou_distance(p, q) for q in b] for p in a]

    def test_center_distance_matrix_is_bit_identical(self):
        for norm in (60.0, 7.3):
            for a, b in self.cases(43):
                got = pair_matrix(lambda x, y: center_distance_pairs(x, y, norm), a, b)
                assert got.shape == (len(a), len(b))
                want = [[center_distance_normalized(p, q, norm) for q in b] for p in a]
                assert got.tolist() == want

    def test_center_distance_matrix_rejects_non_positive_norm(self):
        boxes = box_array([Box(0, 0, 1, 1)]).T
        with pytest.raises(ValueError):
            center_distance_pairs(boxes, boxes, 0.0)

    @pytest.mark.parametrize("block", [7, None])
    def test_grouped_iou_covers_each_group_once(self, monkeypatch, block):
        if block is not None:
            # blocks smaller than one row's pairs, and rows split across blocks
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(44)
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e15):
            # empty groups included; every third image shifted partly left of zero
            a_groups, b_groups = (
                [
                    scaled(tricky_boxes(rng, int(n)), scale, -60.0 * scale * (g % 3 == 0))
                    for g, n in enumerate(rng.integers(0, 12, 150))
                ]
                for _ in range(2)
            )
            assert_grouped_iou_contract(a_groups, b_groups)

    # widths of finite corners far apart overflow to inf, as in the scalar formula
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_grouped_iou_skips_boxes_of_infinite_extent(self, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 7)
        huge, inf = 1e308, float("inf")
        rng = np.random.default_rng(47)
        extents = [
            Box(-huge, 0.0, huge, 1.0),  # finite corners, infinite width
            Box(-inf, 2.0, inf, 3.0),
            Box(1.0, -inf, 4.0, inf),
            Box(5.0, 5.0, inf, 9.0),
            Box(-inf, -inf, inf, inf),
        ]
        a_groups, b_groups = [], []
        for _ in range(40):
            a, b = tricky_boxes(rng, int(rng.integers(0, 8))), tricky_boxes(rng, 6)
            for boxes in (a, b):
                for k in rng.integers(0, len(extents), int(rng.integers(0, 3))).tolist():
                    boxes.insert(int(rng.integers(len(boxes) + 1)), extents[k])
            a_groups.append(a)
            b_groups.append(b)
        assert_grouped_iou_contract(a_groups, b_groups)
        a, b = box_set(a_groups), box_set(b_groups)
        for i, j, _ in grouped_iou(a, b):
            assert np.isfinite(a.boxes[i]).all() and np.isfinite(b.boxes[j]).all()

    def test_grouped_iou_window_allows_for_rounded_widths(self):
        # the width of b rounds down, so that x1 - width lies right of b's x1
        # although a and b overlap
        b = Box(-1024.0, 0.0, 2.430188813132612e-05, 1.0)
        x = 2.4301888131326115e-05
        assert x - b.width > b.x1
        a = Box(x, 0.0, x + 1.0, 1.0)
        assert iou(a, b) > 0.0
        # a second image keeps the pairs off the scalar path
        assert_grouped_iou_contract([[a], [a]], [[b], [b]])

    def test_grouped_iou_scores_only_boxes_that_can_overlap(self):
        # a row of disjoint boxes: each window holds the box itself alone
        row = [Box(2.0 * k, 0.0, 2.0 * k + 1.0, 1.0) for k in range(100)]
        pairs = [
            pair
            for i, j, _ in grouped_iou(box_set([row]), box_set([row]))
            for pair in zip(i.tolist(), j.tolist())
        ]
        assert pairs == [(k, k) for k in range(100)]

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 4), (4, 8), (5, 7), (6, 6), (9, 20)])
    def test_grouped_iou_of_one_image_is_bit_identical(self, n, m):
        # few pairs go through the scalar formula, more through numpy
        rng = np.random.default_rng(n * 100 + m)
        for _ in range(20):
            a, b = tricky_boxes(rng, n), tricky_boxes(rng, m)
            assert_grouped_iou_contract([a], [b])
            if n * m <= geometry._SCALAR_PAIRS:
                # the scalar formula scores every pair, in row order
                ((i, j, overlap),) = grouped_iou(box_set([a]), box_set([b]))
                assert list(zip(i.tolist(), j.tolist())) == [
                    (p, q) for p in range(n) for q in range(m)
                ]
                assert overlap.tolist() == [iou(p, q) for p in a for q in b]

    def test_nms_matches_scalar_greedy(self):
        rng = np.random.default_rng(45)
        for _ in range(60):
            boxes = tricky_boxes(rng, int(rng.integers(0, 30)))
            dets = [
                det(b, int(rng.integers(1, 3)), float(rng.choice([0.5, 0.7, 0.9])))
                for b in boxes
            ]
            threshold = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
            assert nms(dets, threshold) == scalar_nms(dets, threshold)


def scalar_nms(dets: list[Detection], threshold: float) -> list[Detection]:
    kept: list[Detection] = []
    for d in sorted(dets, key=lambda d: -d.prob):
        if all(k.label != d.label or iou(k.box, d.box) <= threshold for k in kept):
            kept.append(d)
    return kept


class TestBoxSet:
    def test_int_coordinates_survive_the_round_trip(self):
        boxes = [Box(0, 1.5, 512, 20.0), Box(3.25, 0.0, 512.0, 7)]
        s = box_set([boxes, []])
        assert s.int_edge.tolist() == [[True, False, True, False], [False, False, False, True]]
        back = s.to_boxes()
        assert [[type(v) for v in b.as_tuple()] for b in back] == [
            [type(v) for v in b.as_tuple()] for b in boxes
        ]
        assert back == boxes
        assert box_set([[Box(0.0, 0.0, 1.0, 1.0)]]).int_edge is None

    def test_take_keeps_rows_per_image(self):
        s = BoxSet.from_boxes(
            [Box(k, k, k + 1, k + 1) for k in range(6)], [2, 0, 3, 1], labels=[1, 2, 3, 1, 2, 3]
        )
        assert s.image_index.tolist() == [0, 0, 2, 2, 2, 3]
        part = s.take(np.array([1, 3, 4]))
        assert part.offsets.tolist() == [0, 1, 1, 3, 3]
        assert part.labels.tolist() == [2, 1, 2]
        assert part.boxes[:, 0].tolist() == [1.0, 3.0, 4.0]
        assert part.probs is None

    def test_best_iou_both_ways(self):
        a = box_set([[Box(0, 0, 10, 10), Box(20, 20, 30, 30)], [Box(0, 0, 1, 1)]])
        b = box_set([[Box(0, 0, 10, 5)], []])
        forward, backward = best_iou(a, b)
        assert forward.tolist() == [0.5, 0.0, 0.0]
        assert backward.tolist() == [0.5]


class TestImageStacks:
    """Many images per numpy call: each image's result equals its own."""

    # pairs per block of geometry.pair_blocks: one box's pairs, a few boxes', the default
    @pytest.mark.parametrize("budget", [1, 50, None])
    def test_grouped_nms_equals_scalar_greedy_per_group(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", budget)
        rng = np.random.default_rng(48)
        groups = []
        for _ in range(80):
            boxes = tricky_boxes(rng, int(rng.integers(0, 12)))
            groups.append(
                [
                    det(b, int(rng.integers(1, 3)), float(rng.choice([0.5, 0.7, 0.9])))
                    for b in boxes
                ]
            )
        flat = [d for g in groups for d in g]
        found = detection_set(groups)
        for threshold in (0.0, 0.3, 0.5, 1.0):
            rows = grouped_nms(found, threshold)
            got = [
                [flat[r] for r in rows[found.image_index[rows] == g].tolist()]
                for g in range(len(groups))
            ]
            assert got == [scalar_nms(g, threshold) for g in groups]
