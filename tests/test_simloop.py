"""Simulated detector, EMA coupling, and the refinement loop harness."""

from __future__ import annotations

import numpy as np
import pytest

from boxrefine.correction import CorrectionConfig
from boxrefine.datamodel import POINT_LABEL_MAX, Annotation, ImageRecord
from boxrefine.geometry import Box, BoxSet
from boxrefine.noise import NoiseConfig
from boxrefine.simloop import (
    DEFAULT_SCHEDULE,
    TRUTH_MAX_SIDE,
    EmaState,
    ImprovementSchedule,
    LoopConfig,
    SimDetectorParams,
    build_scenario,
    check_truth_arg,
    draw_predictions,
    ema_update,
    run_loop,
    simulate_predictions,
    synthesize_truth,
)
from boxrefine.streams import draws, stream_keys, uniforms

from oracles import StreamRef, draw_slots_ref, stream_ref, truth_ref

PERFECT = SimDetectorParams(
    localization_sigma=0.0, recall=1.0, fp_rate=0.0, score_sharpness=8.0
)


def truth_anns(n, rng, width=512.0, height=512.0):
    out = []
    for _ in range(n):
        w = rng.uniform(30, 70)
        h = rng.uniform(30, 70)
        x = rng.uniform(0, width - w)
        y = rng.uniform(0, height - h)
        out.append(Annotation(box=Box(x, y, x + w, y + h), label=int(rng.integers(1, 4))))
    return out


class TestSimDetectorParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="localization_sigma"):
            SimDetectorParams(-1.0, 0.5, 1.0, 3.0)
        with pytest.raises(ValueError, match="recall"):
            SimDetectorParams(1.0, 1.5, 1.0, 3.0)
        with pytest.raises(ValueError, match="fp_rate"):
            SimDetectorParams(1.0, 0.5, -0.1, 3.0)
        with pytest.raises(ValueError, match="score_sharpness"):
            SimDetectorParams(1.0, 0.5, 1.0, 0.0)

    def test_fp_rate_is_bounded_before_any_draw(self):
        # the Poisson draw of the spurious count takes rates up to 2**32
        for rate in (2**33, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=r"fp_rate must be in \[0, 2\*\*32\]"):
                SimDetectorParams(1.0, 0.5, rate, 3.0)
        assert SimDetectorParams(1.0, 0.5, 2**32, 3.0).fp_rate == 2**32

    def test_vector_round_trip(self):
        p = SimDetectorParams(2.0, 0.8, 0.5, 4.0)
        assert SimDetectorParams.from_vector(p.to_vector()) == p

    def test_from_vector_length_checked(self):
        with pytest.raises(ValueError, match="4"):
            SimDetectorParams.from_vector((1.0, 0.5))


class TestSimulatePredictions:
    def test_perfect_detector_reproduces_truth(self):
        rng = np.random.default_rng(50)
        anns = truth_anns(6, rng)
        preds = simulate_predictions(anns, PERFECT, rng, 512, 512, 3)
        assert len(preds) == len(anns)
        for p, a in zip(preds, anns):
            assert p.box == a.box
            assert p.label == a.label
            assert p.prob > 0.5
            assert p.logit == 8.0

    def test_zero_recall_zero_fp_is_empty(self):
        rng = np.random.default_rng(51)
        anns = truth_anns(10, rng)
        params = SimDetectorParams(0.0, 0.0, 0.0, 3.0)
        assert simulate_predictions(anns, params, rng, 512, 512, 3) == []

    def test_spurious_only_properties(self):
        rng = np.random.default_rng(52)
        params = SimDetectorParams(0.0, 0.0, 6.0, 3.0)
        seen_labels = set()
        total = 0
        for _ in range(200):
            preds = simulate_predictions([], params, rng, 512, 512, 3)
            total += len(preds)
            for p in preds:
                assert 0.0 <= p.box.x1 <= p.box.x2 <= 512.0
                assert 0.0 <= p.box.y1 <= p.box.y2 <= 512.0
                assert 1 <= p.label <= 3
                seen_labels.add(p.label)
                # no truth to overlap: logit is exactly -sharpness
                assert p.logit == -3.0
                assert p.prob < 0.5
        assert seen_labels == {1, 2, 3}
        assert total / 200 == pytest.approx(6.0, abs=0.5)

    def test_recall_rate(self):
        rng = np.random.default_rng(53)
        params = SimDetectorParams(0.0, 0.7, 0.0, 3.0)
        emitted = offered = 0
        for _ in range(500):
            anns = truth_anns(10, rng)
            offered += len(anns)
            emitted += len(simulate_predictions(anns, params, rng, 512, 512, 3))
        assert emitted / offered == pytest.approx(0.7, abs=0.03)

    def test_jitter_spread_matches_sigma(self):
        rng = np.random.default_rng(54)
        params = SimDetectorParams(2.0, 1.0, 0.0, 3.0)
        offsets = []
        for _ in range(2000):
            a = Annotation(box=Box(200, 200, 260, 250), label=1)
            (p,) = simulate_predictions([a], params, rng, 512, 512, 1)
            offsets.append(p.box.y1 - a.box.y1)
        assert np.std(offsets) == pytest.approx(2.0, abs=0.3)
        assert np.mean(offsets) == pytest.approx(0.0, abs=0.2)

    def test_score_tracks_overlap(self):
        # a nearly-perfect prediction must outscore a badly jittered one
        rng = np.random.default_rng(55)
        a = Annotation(box=Box(200, 200, 260, 250), label=1)
        tight = simulate_predictions([a], SimDetectorParams(0.5, 1.0, 0.0, 6.0), rng, 512, 512, 1)
        loose = simulate_predictions([a], SimDetectorParams(25.0, 1.0, 0.0, 6.0), rng, 512, 512, 1)
        assert tight[0].prob > loose[0].prob

    def test_num_classes_validated(self):
        rng = np.random.default_rng(56)
        with pytest.raises(ValueError, match="num_classes"):
            simulate_predictions([], PERFECT, rng, 512, 512, 0)


def typed(corners) -> list[tuple[float, type]]:
    """Each coordinate with its type: 512 and 512.0 differ in a written file."""
    return [(v, type(v)) for v in corners]


def border_truth(rng: np.random.Generator, width: float, height: float) -> list:
    """True boxes inside, on and past every border of a width x height image."""
    out = []
    for _ in range(12):
        w, h = rng.uniform(0.2, 60.0, 2).tolist()
        xs = [-w / 2, -w, 0.0, rng.uniform(0, width), width - w, width - w / 2, width]
        x = float(rng.choice(xs))
        ys = [-h / 2, -h, 0.0, rng.uniform(0, height), height - h, height - h / 2, height]
        y = float(rng.choice(ys))
        out.append(((x, y, x + w, y + h), int(rng.integers(1, 4))))
    return out


def flipped(truth: list, width: float) -> list:
    """The boxes of a horizontally flipped view, as the loop builds it."""
    w = float(width)
    return [((w - x2, y1, w - x1, y2), label) for (x1, y1, x2, y2), label in truth]


class TestDrawOracle:
    """The columnar draw equals the box-by-box draw, coordinate types included."""

    SIZES = [(512, 512), (512, 300), (1, 7), (3, 1), (0.5, 40), (40, 0.75), (511.5, 512.0)]
    PARAMS = [
        SimDetectorParams(8.0, 0.65, 1.0, 3.0),
        SimDetectorParams(0.0, 1.0, 0.0, 3.0),
        SimDetectorParams(0.0, 0.0, 2.0, 3.0),
        SimDetectorParams(30.0, 1.0, 3.0, 3.0),
    ]

    def cases(self, seed: int):
        rng = np.random.default_rng(seed)
        for width, height in self.SIZES:
            truth = border_truth(rng, width, height)
            yield width, height, truth
            yield width, height, flipped(truth, width)

    @staticmethod
    def want(k: int, g: int, params: SimDetectorParams, width, height, truth) -> list:
        """Image g's draw box by box, from the streams the loop's iteration 0
        uses under seed k: the count and the true boxes' slots follow the
        flip (draw 0) of stream ("loop", 0, g)."""
        return draw_slots_ref(
            truth, params.localization_sigma, params.recall, params.fp_rate,
            stream_ref(k, "loop", 0, g, skip=1), stream_ref(k, "spurious", 0, g),
            width, height, 3,
        )

    @pytest.mark.parametrize("k", range(4))
    def test_columnar_draw_equals_box_by_box(self, k):
        params = self.PARAMS[k]
        images = list(self.cases(60 + k))
        truth = BoxSet.from_boxes(
            [Box.spanning(*corners) for _, _, t in images for corners, _ in t],
            [len(t) for _, _, t in images],
            labels=[label for _, _, t in images for _, label in t],
        )
        keys = stream_keys(k, ("loop", 0), range(len(images)))
        spurious = stream_keys(k, ("spurious", 0), range(len(images)))
        drawn = draw_predictions(
            truth, [(w, h) for w, h, _ in images], params, 3,
            draws(keys, truth.counts, 5, first=2), uniforms(keys, 1),
            lambda counts: draws(spurious, counts, 5),
        )
        boxes = drawn.to_boxes()
        labels = drawn.labels.tolist()
        bounds = drawn.offsets.tolist()
        for g, (width, height, t) in enumerate(images):
            want = self.want(k, g, params, width, height, t)
            got = [(boxes[r].as_tuple(), labels[r]) for r in range(bounds[g], bounds[g + 1])]
            assert [(typed(c), label) for c, label in got] == [
                (typed(c), label) for c, label in want
            ], (width, height)

    def test_cases_reach_both_edge_forms_and_both_limit_branches(self):
        # (limit, type) of every coordinate that ends on its image bound
        seen = set()
        for k, params in enumerate(self.PARAMS):
            for g, (width, height, t) in enumerate(self.cases(60 + k)):
                for corners, _ in self.want(k, g, params, width, height, t):
                    for v, limit in zip(corners, (width, height, width, height)):
                        if v == limit:
                            seen.add((limit, type(v)))
        # clipped to an int bound, and a float bound reached by arithmetic
        assert {(512, int), (512, float)} <= seen
        # on a 1-px side, a span pushed off the far edge ends on the int bound
        # and one pushed off 0 on min(MIN_BOX_SIDE, 1), a float
        assert {(1, int), (1, float)} <= seen
        assert (0.5, float) in seen

    def test_simulate_predictions_keeps_int_edges(self):
        # a caller's generator: its random() gives the count, then five
        # draws per true box, then five per spurious box
        truth = flipped(border_truth(np.random.default_rng(70), 512, 300), 512)
        params = SimDetectorParams(0.0, 1.0, 3.0, 3.0)
        stream = StreamRef(np.random.default_rng(71).random(1000).tolist())
        want = draw_slots_ref(truth, 0.0, 1.0, 3.0, stream, stream, 512, 300, 3)
        got = simulate_predictions(
            [Annotation(Box.spanning(*c), label) for c, label in truth],
            params, np.random.default_rng(71), 512, 300, 3,
        )
        assert [(typed(p.box.as_tuple()), p.label) for p in got] == [
            (typed(c), label) for c, label in want
        ]
        assert any(type(v) is int for p in got for v in p.box.as_tuple())
        assert len(got) > len(truth)


class TestEma:
    def test_keep_rate_one_freezes_teacher(self):
        state = EmaState(teacher=(1.0, 2.0), student=(5.0, 6.0), keep_rate=1.0)
        assert ema_update(state).teacher == (1.0, 2.0)

    def test_keep_rate_zero_copies_student(self):
        state = EmaState(teacher=(1.0, 2.0), student=(5.0, 6.0), keep_rate=0.0)
        assert ema_update(state).teacher == (5.0, 6.0)

    def test_constant_student_closed_form(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            t0 = tuple(float(v) for v in rng.uniform(0, 10, 4))
            s = tuple(float(v) for v in rng.uniform(0, 10, 4))
            a = float(rng.uniform(0.5, 0.999))
            state = EmaState(teacher=t0, student=s, keep_rate=a)
            n = 200
            for _ in range(n):
                state = ema_update(state)
            want = [a**n * t + (1 - a**n) * sv for t, sv in zip(t0, s)]
            np.testing.assert_allclose(state.teacher, want, rtol=0, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            EmaState(teacher=(1.0,), student=(1.0, 2.0), keep_rate=0.9)

    def test_keep_rate_validated(self):
        with pytest.raises(ValueError, match="keep_rate"):
            EmaState(teacher=(1.0,), student=(2.0,), keep_rate=1.5)


class TestImprovementSchedule:
    def test_endpoints(self):
        assert DEFAULT_SCHEDULE.at(0.0) == DEFAULT_SCHEDULE.start
        assert DEFAULT_SCHEDULE.at(1.0) == DEFAULT_SCHEDULE.oracle

    def test_midpoint_is_average(self):
        mid = DEFAULT_SCHEDULE.at(0.5)
        for m, a, b in zip(
            mid.to_vector(),
            DEFAULT_SCHEDULE.start.to_vector(),
            DEFAULT_SCHEDULE.oracle.to_vector(),
        ):
            assert m == pytest.approx((a + b) / 2, abs=1e-12)

    def test_quality_clamped(self):
        assert DEFAULT_SCHEDULE.at(-0.3) == DEFAULT_SCHEDULE.start
        assert DEFAULT_SCHEDULE.at(1.7) == DEFAULT_SCHEDULE.oracle


class TestSynthesizeTruth:
    def test_deterministic(self):
        a = synthesize_truth(num_images=4, seed=3)
        b = synthesize_truth(num_images=4, seed=3)
        for ra, rb in zip(a.images, b.images):
            assert ra.image_id == rb.image_id
            assert ra.annotations == rb.annotations

    def test_geometry_and_labels(self):
        ds = synthesize_truth(num_images=5, boxes_per_image=7, num_classes=4)
        assert [r.image_id for r in ds.images] == [f"img_{i:04d}" for i in range(5)]
        for rec in ds.images:
            assert len(rec.annotations) == 7
            for a in rec.annotations:
                assert 0.0 <= a.box.x1 <= a.box.x2 <= rec.width
                assert 0.0 <= a.box.y1 <= a.box.y2 <= rec.height
                assert 28.0 <= a.box.width <= 80.0
                assert 28.0 <= a.box.height <= 80.0
                assert 1 <= a.label <= 4

    def test_image_size_must_fit_the_largest_box(self):
        side = int(TRUTH_MAX_SIDE)
        for size in ((side - 1, 512), (512, side - 1)):
            with pytest.raises(ValueError, match="image_size"):
                synthesize_truth(image_size=size)
        ds = synthesize_truth(num_images=20, image_size=(side, side))
        assert all(a.box.x2 <= side for rec in ds.images for a in rec.annotations)

    @pytest.mark.parametrize("size", [(float("inf"), 512), (512, float("nan"))])
    def test_image_size_must_be_finite(self, size):
        # a uniform draw up to an infinite side has no value
        with pytest.raises(ValueError, match="image_size must be finite"):
            synthesize_truth(image_size=size)
        with pytest.raises(ValueError, match="image size must be finite"):
            simulate_predictions([], PERFECT, np.random.default_rng(0), *size, 3)

    def test_class_count_is_bounded(self):
        # one class name is made per class: a count past a point CSV's is refused
        check_truth_arg("num_classes", POINT_LABEL_MAX)
        with pytest.raises(ValueError, match="num_classes must be at most 10000, got 10001"):
            check_truth_arg("num_classes", POINT_LABEL_MAX + 1)

    def test_seed_changes_output(self):
        a = synthesize_truth(seed=0)
        b = synthesize_truth(seed=1)
        assert a.images[0].annotations != b.images[0].annotations


def columns(s: BoxSet) -> tuple:
    """Every column of ``s`` as Python values, coordinate types included."""
    return (
        s.offsets.tolist(),
        [typed(c) for c in s.corners()],
        *(None if col is None else col.tolist()
          for col in (s.labels, s.probs, s.logits, s.provenance)),
    )


class TestTruthOracle:
    """The columnar truth equals the box-by-box draw, bit for bit."""

    @pytest.mark.parametrize(
        "seed, num_images, boxes_per_image, num_classes, image_size",
        [
            (0, 8, 6, 3, (512, 512)),
            (1, 5, 7, 1, (640, 480)),
            (2, 3, 0, 3, (512, 512)),
            (3, 0, 6, 2, (512, 512)),
            (4, 6, 9, 4, (int(TRUTH_MAX_SIDE), int(TRUTH_MAX_SIDE))),
            (5, 4, 3, 5, (int(TRUTH_MAX_SIDE), 300)),
        ],
    )
    def test_columnar_truth_equals_box_by_box(
        self, seed, num_images, boxes_per_image, num_classes, image_size
    ):
        ds = synthesize_truth(num_images, boxes_per_image, num_classes, image_size, seed)
        names, images = truth_ref(
            num_images, boxes_per_image, num_classes, image_size, seed, stream_ref
        )
        assert ds.class_names == names
        assert ds.image_ids() == [image_id for image_id, _, _ in images]
        assert ds.image_sizes() == [size for _, size, _ in images]
        s = ds.annotations
        corners, labels, bounds = s.corners(), s.labels.tolist(), s.offsets.tolist()
        assert [
            [(typed(corners[r]), labels[r]) for r in range(start, stop)]
            for start, stop in zip(bounds, bounds[1:])
        ] == [[(typed(c), label) for c, label in boxes] for _, _, boxes in images]


class TestBuildScenario:
    def test_zero_noise_targets_equal_truth(self):
        truth = synthesize_truth(num_images=3)
        scenario = build_scenario(truth, NoiseConfig())
        assert columns(scenario.targets) == columns(truth.annotations)

    def test_noise_perturbs_targets(self):
        truth = synthesize_truth(num_images=3)
        scenario = build_scenario(truth, NoiseConfig(box_noise=0.4, seed=5))
        targets, true = scenario.targets, truth.annotations
        assert targets.offsets.tolist() == true.offsets.tolist()
        changed = {
            image
            for image, a, b in zip(targets.image_index.tolist(), targets.boxes, true.boxes)
            if (a != b).any()
        }
        assert changed == {0, 1, 2}


def small_loop_cfg(**kw):
    base = dict(
        iterations=6,
        keep_rate=0.8,
        correction=CorrectionConfig(distance_limit=0.6, mining_threshold=0.8),
        noise=NoiseConfig(box_noise=0.4, sparsity="extreme", seed=0),
    )
    base.update(kw)
    return LoopConfig(**base)


class TestRunLoop:
    def test_trace_shape_and_ranges(self):
        truth = synthesize_truth(num_images=4, boxes_per_image=4)
        cfg = small_loop_cfg()
        scenario = build_scenario(truth, cfg.noise)
        trace, _ = run_loop(scenario, cfg)
        assert [r.iteration for r in trace] == list(range(6))
        for r in trace:
            assert 0.0 <= r.target_quality <= 1.0
            assert 0.0 <= r.ap50 <= 1.0
            assert r.mined >= 0

    def test_reruns_identical(self):
        truth = synthesize_truth(num_images=3, boxes_per_image=4)
        cfg = small_loop_cfg(iterations=4)
        scenario = build_scenario(truth, cfg.noise)
        trace_a, final_a = run_loop(scenario, cfg)
        trace_b, final_b = run_loop(build_scenario(truth, cfg.noise), cfg)
        assert trace_a == trace_b
        assert columns(final_a) == columns(final_b)

    def test_correction_disabled_is_exactly_flat(self):
        truth = synthesize_truth(num_images=4, boxes_per_image=4)
        cfg = small_loop_cfg(
            correction=CorrectionConfig(distance_limit=None, mining_threshold=None)
        )
        scenario = build_scenario(truth, cfg.noise)
        seen = []

        def hook(iteration, corrected, preds):
            seen.append(corrected)

        trace, _ = run_loop(scenario, cfg, hook=hook)
        assert len({r.target_quality for r in trace}) == 1
        assert all(r.mined == 0 for r in trace)
        # unmoved targets keep their corners, int edges included, and labels
        for corrected in seen:
            assert columns(corrected) == columns(scenario.targets)

    def test_clean_targets_without_correction_score_one(self):
        truth = synthesize_truth(num_images=3, boxes_per_image=3)
        cfg = small_loop_cfg(
            noise=NoiseConfig(),
            correction=CorrectionConfig(distance_limit=None, mining_threshold=None),
            iterations=3,
        )
        scenario = build_scenario(truth, cfg.noise)
        trace, _ = run_loop(scenario, cfg)
        assert all(r.target_quality == 1.0 for r in trace)

    def test_refinement_improves_targets(self):
        truth = synthesize_truth(num_images=6, boxes_per_image=6, seed=0)
        cfg = small_loop_cfg(iterations=20, keep_rate=0.95)
        scenario = build_scenario(truth, cfg.noise)
        trace, _ = run_loop(scenario, cfg)
        assert trace[-1].target_quality > trace[0].target_quality

    def test_hook_sees_every_iteration(self):
        truth = synthesize_truth(num_images=2, boxes_per_image=3)
        cfg = small_loop_cfg(iterations=5)
        scenario = build_scenario(truth, cfg.noise)
        calls = []
        run_loop(
            scenario, cfg, hook=lambda it, c, p: calls.append((it, c.num_images, p.num_images))
        )
        assert calls == [(it, 2, 2) for it in range(5)]

    def test_no_objects_built_without_a_hook(self, monkeypatch):
        truth = synthesize_truth(num_images=5, boxes_per_image=6, seed=4)
        built = {Box: 0, Annotation: 0, ImageRecord: 0}
        for cls in built:
            check = cls.__post_init__

            def counted(self, cls=cls, check=check):
                built[cls] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        for iterations in (1, 4):
            cfg = small_loop_cfg(iterations=iterations)
            scenario = build_scenario(truth, cfg.noise)
            _, final = run_loop(scenario, cfg)
            # the loop refined targets, and built no object for them
            assert (final.provenance != 0).any()
            run_loop(scenario, cfg, hook=lambda *args: None)
        assert built == {Box: 0, Annotation: 0, ImageRecord: 0}

    def test_loop_config_validated(self):
        with pytest.raises(ValueError, match="iterations"):
            small_loop_cfg(iterations=0)
        with pytest.raises(ValueError, match="keep_rate"):
            small_loop_cfg(keep_rate=-0.1)


class TestDeriveRngInLoop:
    def test_substreams_differ_by_iteration(self):
        a = uniforms(stream_keys(0, ("loop", 0), ["img_0000"]), np.arange(3))
        b = uniforms(stream_keys(0, ("loop", 1), ["img_0000"]), np.arange(3))
        assert not np.allclose(a, b)

    def test_flip_and_draws_follow_the_loop_stream(self):
        # iteration 0 flips image g's view when draw 0 of stream ("loop", 0,
        # g) is below one half, and draws its predictions on that view from
        # the slots that follow; the hook sees them flipped back
        truth = synthesize_truth(num_images=40, boxes_per_image=5, seed=2)
        cfg = small_loop_cfg(iterations=1, noise=NoiseConfig(seed=9))
        preds = []
        run_loop(build_scenario(truth, cfg.noise), cfg, hook=lambda it, c, p: preds.append(p))
        (drawn,) = preds
        corners, labels, bounds = drawn.corners(), drawn.labels.tolist(), drawn.offsets.tolist()
        start = cfg.schedule.start
        flips = set()
        for g, rec in enumerate(truth.images):
            flip = stream_ref(9, "loop", 0, rec.image_id).random() < 0.5
            flips.add(flip)
            view = [(a.box.as_tuple(), a.label) for a in rec.annotations]
            want = self.want(9, rec, start, flipped(view, rec.width) if flip else view)
            got = [(tuple(corners[r]), labels[r]) for r in range(bounds[g], bounds[g + 1])]
            assert got == (flipped(want, rec.width) if flip else want)
        assert flips == {False, True}

    @staticmethod
    def want(seed, rec, params, view):
        return draw_slots_ref(
            view, params.localization_sigma, params.recall, params.fp_rate,
            stream_ref(seed, "loop", 0, rec.image_id, skip=1),
            stream_ref(seed, "spurious", 0, rec.image_id), rec.width, rec.height, 3,
        )
