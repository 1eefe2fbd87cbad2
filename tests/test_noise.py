"""Noise protocols: displacement bounds, exact sparsity counts, injection."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from boxrefine.datamodel import Annotation, Dataset, ImageRecord
from boxrefine.geometry import Box, BoxSet
from boxrefine.noise import (
    MIN_BOX_SIDE,
    NoiseConfig,
    SuperfluousConfig,
    _uniform,
    constrain_corners,
    corrupt_dataset,
    derive_rng,
    derive_rngs,
    displace_boxes,
    inject_superfluous,
    sparsify,
)
from boxrefine.seedseq import seed_states

from oracles import constrain_ref, derive_rng_ref, superfluous_ref


def interior_annotations(rng, count, width=512.0, height=512.0, labels=3):
    """Boxes placed so that even 50% displacement cannot touch the border."""
    anns = []
    for _ in range(count):
        w = float(rng.uniform(20.0, 60.0))
        h = float(rng.uniform(20.0, 60.0))
        x1 = float(rng.uniform(w, width - 2.0 * w))
        y1 = float(rng.uniform(h, height - 2.0 * h))
        anns.append(
            Annotation(
                box=Box(x1, y1, x1 + w, y1 + h),
                label=int(rng.integers(1, labels + 1)),
            )
        )
    return anns


class TestDisplaceBoxes:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        anns = interior_annotations(np.random.default_rng(1), 20)
        out = displace_boxes(anns, 0.0, (512.0, 512.0), rng)
        assert [a.box for a in out] == [a.box for a in anns]
        assert [a.label for a in out] == [a.label for a in anns]

    def test_bound_respected_for_interior_boxes(self):
        master = np.random.default_rng(2)
        for level in (0.2, 0.4):
            anns = interior_annotations(master, 500)
            out = displace_boxes(anns, level, (512.0, 512.0), np.random.default_rng(3))
            for before, after in zip(anns, out):
                bw, bh = before.box.width, before.box.height
                assert abs(after.box.x1 - before.box.x1) <= bw * level + 1e-9
                assert abs(after.box.x2 - before.box.x2) <= bw * level + 1e-9
                assert abs(after.box.y1 - before.box.y1) <= bh * level + 1e-9
                assert abs(after.box.y2 - before.box.y2) <= bh * level + 1e-9

    def test_labels_count_and_provenance_unchanged(self):
        anns = interior_annotations(np.random.default_rng(4), 50)
        out = displace_boxes(anns, 0.3, (512.0, 512.0), np.random.default_rng(5))
        assert len(out) == len(anns)
        assert [a.label for a in out] == [a.label for a in anns]
        assert all(a.provenance == "original" for a in out)

    def test_output_clipped_and_never_degenerate(self):
        anns = [Annotation(box=Box(0.0, 0.0, 10.0, 10.0), label=1)] * 200
        out = displace_boxes(anns, 0.5, (512.0, 512.0), np.random.default_rng(6))
        for a in out:
            assert a.box.x1 >= 0.0 and a.box.y1 >= 0.0
            assert a.box.x2 <= 512.0 and a.box.y2 <= 512.0
            assert a.box.width >= MIN_BOX_SIDE - 1e-12
            assert a.box.height >= MIN_BOX_SIDE - 1e-12

    def test_same_seed_reproduces(self):
        anns = interior_annotations(np.random.default_rng(7), 30)
        a = displace_boxes(anns, 0.4, (512.0, 512.0), derive_rng(9, "d", "img"))
        b = displace_boxes(anns, 0.4, (512.0, 512.0), derive_rng(9, "d", "img"))
        assert a == b
        c = displace_boxes(anns, 0.4, (512.0, 512.0), derive_rng(10, "d", "img"))
        assert a != c

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            displace_boxes([], -0.1, (10.0, 10.0), np.random.default_rng(0))

    def test_draws_equal_four_scalar_calls_per_box(self):
        # one vector draw per image must give the scalar loop's boxes, bit for
        # bit, and leave the stream where the scalar loop leaves it
        def scalar_displace(anns, level, size, rng):
            out = []
            for ann in anns:
                b = ann.box
                dx, dy = b.width * level, b.height * level
                x1 = b.x1 + rng.uniform(-dx, dx)
                x2 = b.x2 + rng.uniform(-dx, dx)
                y1 = b.y1 + rng.uniform(-dy, dy)
                y2 = b.y2 + rng.uniform(-dy, dy)
                box = Box(*constrain_ref(Box.spanning(x1, y1, x2, y2).as_tuple(), *size))
                out.append(Annotation(box=box, label=ann.label, provenance=ann.provenance))
            return out

        master = np.random.default_rng(12)
        for seed in range(300):
            anns = interior_annotations(master, int(master.integers(0, 25)))
            anns += [Annotation(box=Box(0, 0, 512, 4), label=2, provenance="mined"),
                     Annotation(box=Box(500.0, 7.5, 500.0, 7.5), label=1)][: seed % 3]
            for level in (0.05, 0.2, 0.4, 0.9):
                fast, slow = derive_rng(seed, "d", level), derive_rng(seed, "d", level)
                got = displace_boxes(anns, level, (512.0, 512.0), fast)
                assert got == scalar_displace(anns, level, (512.0, 512.0), slow)
                assert fast.random() == slow.random()


class TestSparsify:
    def test_zero_sparsity_keeps_all(self):
        anns = interior_annotations(np.random.default_rng(8), 7)
        assert sparsify(anns, 0.0, np.random.default_rng(9)) == anns

    def test_half_removes_exact_count(self):
        anns = interior_annotations(np.random.default_rng(10), 10)
        out = sparsify(anns, 0.5, np.random.default_rng(11))
        assert len(out) == 5

    def test_half_rounds_away_from_zero(self):
        anns = interior_annotations(np.random.default_rng(12), 5)
        out = sparsify(anns, 0.5, np.random.default_rng(13))
        # 2.5 rounds to 3 removed
        assert len(out) == 2

    def test_full_sparsity_removes_all(self):
        anns = interior_annotations(np.random.default_rng(14), 6)
        assert sparsify(anns, 1.0, np.random.default_rng(15)) == []

    def test_extreme_keeps_exactly_one(self):
        anns = interior_annotations(np.random.default_rng(16), 7)
        out = sparsify(anns, "extreme", np.random.default_rng(17))
        assert len(out) == 1
        assert out[0] in anns

    def test_extreme_on_empty_input(self):
        assert sparsify([], "extreme", np.random.default_rng(18)) == []

    def test_survivors_are_subset_in_order(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(0, 20))
            frac = float(rng.uniform(0.0, 1.0))
            anns = interior_annotations(rng, n)
            out = sparsify(anns, frac, rng)
            assert len(out) == n - int(np.floor(n * frac + 0.5))
            it = iter(anns)
            assert all(any(survivor is candidate for candidate in it) for survivor in out)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            sparsify([], 1.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            NoiseConfig(sparsity="mild")


class TestInjectSuperfluous:
    def record(self, anns=()):
        return ImageRecord(
            image_id="a", width=512, height=512, annotations=list(anns)
        )

    def test_zero_success_adds_nothing(self):
        cfg = SuperfluousConfig(success=0.0)
        out = inject_superfluous(self.record(), cfg, 3, np.random.default_rng(20))
        assert out == []

    def test_existing_annotations_preserved_verbatim(self):
        anns = interior_annotations(np.random.default_rng(21), 5)
        out = inject_superfluous(self.record(anns), SuperfluousConfig(), 3, np.random.default_rng(22))
        assert out[: len(anns)] == anns

    def test_added_sides_within_range_before_clipping(self):
        rec = ImageRecord(image_id="a", width=4000, height=4000)
        rng = np.random.default_rng(23)
        added = []
        for _ in range(200):
            added.extend(inject_superfluous(rec, SuperfluousConfig(), 3, rng))
        assert added, "expected some injections"
        interior = 0
        for a in added:
            b = a.box
            # clipping only shrinks, so the upper bound holds unconditionally
            assert b.width <= 196.0 + 1e-9 and b.height <= 196.0 + 1e-9
            assert 0.0 <= b.x1 and b.x2 <= 4000.0
            assert a.provenance == "original"
            assert 1 <= a.label <= 3
            touches = b.x1 == 0.0 or b.y1 == 0.0 or b.x2 == 4000.0 or b.y2 == 4000.0
            if not touches:
                interior += 1
                assert b.width >= 16.0 - 1e-9 and b.height >= 16.0 - 1e-9
        assert interior > len(added) * 0.8

    def test_count_is_binomial_mean(self):
        rng = np.random.default_rng(24)
        rec = self.record()
        counts = [
            len(inject_superfluous(rec, SuperfluousConfig(), 2, rng))
            for _ in range(2000)
        ]
        assert np.mean(counts) == pytest.approx(5.0, abs=0.2)
        assert max(counts) <= 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuperfluousConfig(trials=-1)
        with pytest.raises(ValueError):
            SuperfluousConfig(success=1.5)
        with pytest.raises(ValueError):
            SuperfluousConfig(min_side=200.0, max_side=100.0)

    @pytest.mark.parametrize("name", ["min_side", "max_side"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_sides_rejected(self, name, value):
        # the draws use uniform's formula, which would give an infinite box
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SuperfluousConfig(**{name: value})

    def test_non_finite_image_rejected(self):
        # a uniform center in an infinite image has no value
        rec = ImageRecord(image_id="a", width=float("inf"), height=512)
        with pytest.raises(ValueError, match="image size must be finite, got infx512"):
            inject_superfluous(rec, SuperfluousConfig(), 3, np.random.default_rng(25))

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    @pytest.mark.parametrize("sizes", [(512, 300), (640.0, 97.5)])
    def test_dataset_injection_equals_scalar_oracle(self, seed, sizes):
        # the only check that injection keeps its bits: no benchmark run injects
        width, height = sizes
        cfg = SuperfluousConfig(trials=12, success=0.6, min_side=3.0, max_side=700.0)
        recs = [
            ImageRecord(image_id=f"img_{i}", width=width + i, height=height, annotations=[
                Annotation(Box(1.0, 2.0, 30.0, 40.0), label=2)
            ])
            for i in range(40)
        ]
        out, summary = corrupt_dataset(
            Dataset(["a", "b", "c"], recs), NoiseConfig(superfluous=cfg, seed=seed)
        )
        want = superfluous_ref(
            [(r.image_id, r.width, r.height) for r in recs], cfg.trials, cfg.success,
            (cfg.min_side, cfg.max_side), 3, seed, derive_rng_ref,
        )
        got = [
            [(a.box.as_tuple(), a.label) for a in rec.annotations[1:]] for rec in out.images
        ]

        def typed(images):
            return [[([(v, type(v)) for v in c], label) for c, label in i] for i in images]

        assert typed(got) == typed(want)
        assert summary["injected"] == sum(map(len, want)) > 100
        # boxes cross every border, so clipping to int and float bounds is reached
        assert any(type(v) is int for image in got for c, _ in image for v in c) == (
            type(width) is int
        )


def small_dataset(seed=0, images=4, per_image=5):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(images):
        recs.append(
            ImageRecord(
                image_id=f"img_{i}",
                width=512,
                height=512,
                annotations=interior_annotations(rng, per_image),
            )
        )
    return Dataset(class_names=["c1", "c2", "c3"], images=recs)


class TestCorruptDataset:
    def test_noop_config_preserves_everything(self):
        ds = small_dataset()
        out, summary = corrupt_dataset(ds, NoiseConfig())
        for a, b in zip(out.images, ds.images):
            assert a.annotations == b.annotations
        assert summary["removed_by_sparsity"] == 0
        assert summary["injected"] == 0

    def test_global_fraction_count_is_exact(self):
        ds = small_dataset(images=5, per_image=5)
        out, summary = corrupt_dataset(ds, NoiseConfig(sparsity=0.5, seed=3))
        total = sum(len(r.annotations) for r in out.images)
        # 25 * 0.5 rounds half away from zero: 13 removed
        assert total == 12
        assert summary["removed_by_sparsity"] == 13

    def test_extreme_keeps_one_per_image(self):
        ds = small_dataset(images=6, per_image=4)
        out, _ = corrupt_dataset(ds, NoiseConfig(sparsity="extreme", seed=4))
        assert all(len(r.annotations) == 1 for r in out.images)

    def test_injection_counts_reported(self):
        ds = small_dataset(images=3, per_image=2)
        cfg = NoiseConfig(superfluous=SuperfluousConfig(), seed=5)
        out, summary = corrupt_dataset(ds, cfg)
        added = sum(len(r.annotations) for r in out.images) - 6
        assert added == summary["injected"]
        assert added >= 0

    def test_deterministic_and_seed_sensitive(self):
        ds = small_dataset()
        cfg = NoiseConfig(box_noise=0.4, sparsity=0.3, superfluous=SuperfluousConfig(), seed=6)
        out1, _ = corrupt_dataset(ds, cfg)
        out2, _ = corrupt_dataset(ds, cfg)
        for a, b in zip(out1.images, out2.images):
            assert a.annotations == b.annotations
        out3, _ = corrupt_dataset(ds, NoiseConfig(box_noise=0.4, sparsity=0.3, superfluous=SuperfluousConfig(), seed=7))
        assert any(
            a.annotations != b.annotations for a, b in zip(out1.images, out3.images)
        )

    def test_image_order_does_not_leak_across_substreams(self):
        # corrupting a single image alone gives the same result as within a batch
        ds = small_dataset(images=3, per_image=4)
        cfg = NoiseConfig(box_noise=0.4, seed=8)
        batch, _ = corrupt_dataset(ds, cfg)
        solo_ds = Dataset(class_names=ds.class_names, images=[ds.images[2]])
        solo, _ = corrupt_dataset(solo_ds, cfg)
        assert solo.images[0].annotations == batch.images[2].annotations


    def test_each_generator_is_built_as_it_draws(self):
        # 2,000 images, whose generators took 1.7 MB when all were held at once
        n = 2000
        x1y1 = np.random.default_rng(9).uniform(0.0, 400.0, (n, 2))
        anns = BoxSet(np.hstack((x1y1, x1y1 + 30.0)), np.arange(n + 1),
                      labels=np.ones(n, np.int64), provenance=np.zeros(n, np.int8))
        ds = Dataset.from_columns(["c1"], [f"img_{i}" for i in range(n)], [(512, 512)] * n, anns)
        cfg = NoiseConfig(sparsity="extreme", superfluous=SuperfluousConfig(trials=1), seed=3)

        def traced_peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        corrupt_dataset(ds, cfg)  # numpy's first draws set up what they keep
        held = traced_peak(lambda: derive_rngs(3, ("sparsify",), ds.image_ids()))
        peak = traced_peak(lambda: corrupt_dataset(ds, cfg))
        assert peak < held / 2, (peak, held)


class TestConstrainBox:
    """One box clipped and widened by ``constrain_corners``."""

    @staticmethod
    def constrain(corners, width, height):
        boxes, int_edge = constrain_corners(
            np.array([corners]), np.array([[width, height]]), np.zeros((1, 2), dtype=bool)
        )
        assert not int_edge.any()
        return Box(*boxes[0].tolist())

    def test_degenerate_box_padded(self):
        out = self.constrain((10.0, 10.0, 10.0, 10.0), 512.0, 512.0)
        assert out.width == pytest.approx(MIN_BOX_SIDE)
        assert out.height == pytest.approx(MIN_BOX_SIDE)

    def test_padding_respects_borders(self):
        out = self.constrain((0.0, 511.9, 0.2, 512.0), 512.0, 512.0)
        assert out.x1 >= 0.0 and out.y2 <= 512.0
        assert out.width >= MIN_BOX_SIDE - 1e-12
        assert out.height >= MIN_BOX_SIDE - 1e-12

    def test_in_bounds_box_untouched(self):
        b = Box(10.0, 20.0, 30.0, 40.0)
        assert self.constrain(b.as_tuple(), 512.0, 512.0) == b


class TestDeriveRng:
    def test_bulk_seeding_equals_seeding_one_key_at_a_time(self):
        # 10,000 keys; a generator's state also holds its cached 32-bit half
        keys = 0
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
            for prefix in ((), ("displace",), ("loop", 14)):
                ids = [f"img_{i:04d}" for i in range(600)] + list(range(67)) + [None, "", "a|b"]
                for rng, image_id in zip(derive_rngs(seed, prefix, ids), ids, strict=True):
                    want = derive_rng_ref(seed, *prefix, image_id)
                    assert rng.bit_generator.state == want.bit_generator.state
                    keys += 1
        assert keys >= 10_000

    def test_seed_states_equal_numpy_seed_sequence(self):
        # hashing rarely gives a digest below 2**32, so the edges go in directly
        edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        rng = np.random.default_rng(26)
        drawn = rng.integers(0, 2**64, 3000, dtype=np.uint64, endpoint=False).tolist()
        small = rng.integers(0, 2**32, 1000, dtype=np.uint64).tolist()
        values = edges + drawn + small
        got = seed_states(np.array(values, dtype=np.uint64))
        want = [np.random.SeedSequence(v).generate_state(4, np.uint64) for v in values]
        np.testing.assert_array_equal(got, np.array(want))
        assert got.dtype == np.uint64 and got.shape == (len(values), 4)

    def test_one_key_case_and_edges(self):
        a = derive_rng(5, "sparsify")
        assert a.bit_generator.state == derive_rng_ref(5, "sparsify").bit_generator.state
        assert derive_rngs(5, ("op",), []) == []
        # any iterable of ids
        (b,) = derive_rngs(5, ["op"], (k for k in ["x"]))
        assert b.random() == derive_rng(5, "op", "x").random()
        with pytest.raises(TypeError, match="at least one key"):
            derive_rng(5)
        # the held state is only what PCG64 asks for
        with pytest.raises(NotImplementedError):
            b.bit_generator.seed_seq.generate_state(8)

    def test_one_key_seeds_as_many_keys_do(self):
        # one key is seeded through numpy's SeedSequence, many through seedseq
        ids = [f"img_{i}" for i in range(390)] + list(range(10))
        for rng, image_id in zip(derive_rngs(11, ("loop", 3), ids), ids, strict=True):
            one = derive_rng(11, "loop", 3, image_id)
            assert one.bit_generator.state == rng.bit_generator.state

    def test_same_keys_same_stream(self):
        a = derive_rng(42, "op", "img_1").uniform(0, 1, 5)
        b = derive_rng(42, "op", "img_1").uniform(0, 1, 5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_rng(42, "op", "img_1").uniform(0, 1, 5)
        b = derive_rng(42, "op", "img_2").uniform(0, 1, 5)
        c = derive_rng(43, "op", "img_1").uniform(0, 1, 5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 512.0, 1e15, 1e150, 1e300])
def test_unit_draws_equal_generator_uniform(scale):
    # Generator.uniform's formula on unit draws must give its values bit for
    # bit, zero spans and images without rows included, and leave each
    # stream where uniform leaves it
    master = np.random.default_rng(13)
    for seed in range(40):
        counts = master.integers(0, 6, size=int(master.integers(1, 8))) * 4
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        spans = master.uniform(0.0, 2.0, bounds[-1]) * scale
        spans[master.random(bounds[-1]) < 0.2] = 0.0
        fast = [derive_rng(seed, "d", g) for g in range(len(counts))]
        slow = [derive_rng(seed, "d", g) for g in range(len(counts))]
        want = [
            rng.uniform(-spans[a:b], spans[a:b]) for rng, a, b in zip(slow, bounds, bounds[1:])
        ]
        got = _uniform(fast, bounds, spans)
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert [r.random() for r in fast] == [r.random() for r in slow]


def test_unit_draws_name_the_image_past_the_float_range():
    spans = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 9e307, 1.0, 1.0, 1.0])
    rngs = [np.random.default_rng(g) for g in range(4)]
    with pytest.raises(OverflowError) as exc:
        _uniform(rngs, [0, 4, 4, 8, 12], spans)
    assert exc.value.args[0] == 3
