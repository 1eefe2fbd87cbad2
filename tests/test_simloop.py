"""Simulated detector, EMA coupling, and the refinement loop harness."""

from __future__ import annotations

import numpy as np
import pytest

import boxrefine.simloop as simloop_mod
from boxrefine import geometry
from boxrefine.correction import CorrectionConfig
from boxrefine.datamodel import Annotation
from boxrefine.geometry import Box, GeoTransform
from boxrefine.noise import NoiseConfig, derive_rng
from boxrefine.simloop import (
    DEFAULT_SCHEDULE,
    EmaState,
    ImprovementSchedule,
    LoopConfig,
    SimDetectorParams,
    build_scenario,
    ema_update,
    run_loop,
    simulate_predictions,
    synthesize_truth,
)

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

    def test_seed_changes_output(self):
        a = synthesize_truth(seed=0)
        b = synthesize_truth(seed=1)
        assert a.images[0].annotations != b.images[0].annotations


class TestBuildScenario:
    def test_zero_noise_targets_equal_truth(self):
        truth = synthesize_truth(num_images=3)
        scenario = build_scenario(truth, NoiseConfig())
        for rec in truth.images:
            assert scenario.targets[rec.image_id] == rec.annotations

    def test_noise_perturbs_targets(self):
        truth = synthesize_truth(num_images=3)
        scenario = build_scenario(truth, NoiseConfig(box_noise=0.4, seed=5))
        changed = sum(
            scenario.targets[rec.image_id] != rec.annotations for rec in truth.images
        )
        assert changed == 3


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
        trace = run_loop(scenario, cfg)
        assert [r.iteration for r in trace] == list(range(6))
        for r in trace:
            assert 0.0 <= r.target_quality <= 1.0
            assert 0.0 <= r.ap50 <= 1.0
            assert r.mined >= 0

    def test_reruns_identical(self):
        truth = synthesize_truth(num_images=3, boxes_per_image=4)
        cfg = small_loop_cfg(iterations=4)
        scenario = build_scenario(truth, cfg.noise)
        a = run_loop(scenario, cfg)
        b = run_loop(build_scenario(truth, cfg.noise), cfg)
        assert a == b

    def test_workers_do_not_change_results(self):
        truth = synthesize_truth(num_images=5, boxes_per_image=4)
        cfg = small_loop_cfg(iterations=4)
        serial = run_loop(build_scenario(truth, cfg.noise), cfg, workers=1)
        threaded = run_loop(build_scenario(truth, cfg.noise), cfg, workers=4)
        assert serial == threaded

    def test_image_chunks_do_not_change_results(self, monkeypatch):
        truth = synthesize_truth(num_images=7, boxes_per_image=5, seed=2)
        cfg = small_loop_cfg(iterations=3)
        runs = []
        for budget in (1, 60, 1 << 40):
            monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", budget)
            seen = []
            trace = run_loop(
                build_scenario(truth, cfg.noise), cfg,
                hook=lambda it, c, p: seen.append((c, p)),
            )
            runs.append((trace, seen))
        assert runs[0] == runs[1] == runs[2]

    def test_correction_disabled_is_exactly_flat(self):
        truth = synthesize_truth(num_images=4, boxes_per_image=4)
        cfg = small_loop_cfg(
            correction=CorrectionConfig(distance_limit=None, mining_threshold=None)
        )
        scenario = build_scenario(truth, cfg.noise)
        seen = []

        def hook(iteration, corrected, preds):
            seen.append(corrected)

        trace = run_loop(scenario, cfg, hook=hook)
        assert len({r.target_quality for r in trace}) == 1
        assert all(r.mined == 0 for r in trace)
        for corrected in seen:
            for image_id, anns in corrected.items():
                originals = scenario.targets[image_id]
                assert all(a is b for a, b in zip(anns, originals))
                assert len(anns) == len(originals)

    def test_clean_targets_without_correction_score_one(self):
        truth = synthesize_truth(num_images=3, boxes_per_image=3)
        cfg = small_loop_cfg(
            noise=NoiseConfig(),
            correction=CorrectionConfig(distance_limit=None, mining_threshold=None),
            iterations=3,
        )
        scenario = build_scenario(truth, cfg.noise)
        trace = run_loop(scenario, cfg)
        assert all(r.target_quality == 1.0 for r in trace)

    def test_refinement_improves_targets(self):
        truth = synthesize_truth(num_images=6, boxes_per_image=6, seed=0)
        cfg = small_loop_cfg(iterations=20, keep_rate=0.95)
        scenario = build_scenario(truth, cfg.noise)
        trace = run_loop(scenario, cfg)
        assert trace[-1].target_quality > trace[0].target_quality

    def test_hook_sees_every_iteration(self):
        truth = synthesize_truth(num_images=2, boxes_per_image=3)
        cfg = small_loop_cfg(iterations=5)
        scenario = build_scenario(truth, cfg.noise)
        calls = []
        run_loop(scenario, cfg, hook=lambda it, c, p: calls.append((it, sorted(c), sorted(p))))
        assert [c[0] for c in calls] == list(range(5))
        ids = sorted(r.image_id for r in truth.images)
        for _, c_ids, p_ids in calls:
            assert c_ids == ids and p_ids == ids

    def test_workers_validated(self):
        truth = synthesize_truth(num_images=1)
        cfg = small_loop_cfg(iterations=1)
        with pytest.raises(ValueError, match="workers"):
            run_loop(build_scenario(truth, cfg.noise), cfg, workers=0)

    def test_loop_config_validated(self):
        with pytest.raises(ValueError, match="iterations"):
            small_loop_cfg(iterations=0)
        with pytest.raises(ValueError, match="keep_rate"):
            small_loop_cfg(keep_rate=-0.1)


class TestAlignmentCheck:
    def test_exact_transforms_pass(self):
        anns = [Annotation(box=Box(10, 20, 60, 90), label=1)]
        simloop_mod._check_alignment(GeoTransform.hflip(512.0), anns)
        simloop_mod._check_alignment(GeoTransform.scale(1.0, 1.0), anns)

    def test_drift_raises(self, monkeypatch):
        real = simloop_mod.apply_transform

        def lossy(t, box):
            out = real(t, box)
            return Box(out.x1, out.y1 + 1e-6, out.x2, out.y2 + 1e-6)

        monkeypatch.setattr(simloop_mod, "apply_transform", lossy)
        anns = [Annotation(box=Box(10, 20, 60, 90), label=1)]
        with pytest.raises(RuntimeError, match="alignment drift"):
            simloop_mod._check_alignment(GeoTransform.hflip(512.0), anns)


class TestDeriveRngInLoop:
    def test_substreams_differ_by_iteration(self):
        a = derive_rng(0, "loop", 0, "img_0000").random(3)
        b = derive_rng(0, "loop", 1, "img_0000").random(3)
        assert not np.allclose(a, b)
