"""Acceptance suite: ten end-to-end properties with pinned tolerances.

Each test prints exactly one ``[acceptance NN] PASS/FAIL`` line through the
pytest terminal reporter (visible even with output capture on) and enforces
a wall-clock budget, so a full run doubles as a readable checklist.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from boxrefine.cli import main as cli_main
from boxrefine.correction import CorrectionConfig, correct_boxes, mine_labels
from boxrefine.datamodel import (
    Annotation,
    Dataset,
    Detection,
    ImageRecord,
    save_annotations,
)
from boxrefine.evaluation import evaluate_ap50, quality_stats
from boxrefine.geometry import Box, iou
from boxrefine.noise import (
    NoiseConfig,
    SuperfluousConfig,
    displace_boxes,
    inject_superfluous,
    sparsify,
)
from boxrefine.simloop import (
    EmaState,
    LoopConfig,
    build_scenario,
    ema_update,
    run_loop,
    synthesize_truth,
)

from oracles import average_precision_ref, derive_rng_ref, mine_ref, softmax_average_ref


@pytest.fixture
def report(request):
    reporter = request.config.pluginmanager.getplugin("terminalreporter")
    t0 = time.perf_counter()

    def _report(num: int, ok: bool, budget: float, label: str) -> None:
        elapsed = time.perf_counter() - t0
        within = elapsed < budget
        status = "PASS" if (ok and within) else "FAIL"
        line = f"[acceptance {num:02d}] {status} ({elapsed:.2f}s/{budget:.0f}s) {label}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, f"acceptance {num}: {label}"
        assert within, f"acceptance {num}: {elapsed:.2f}s exceeded {budget}s budget"

    return _report


def make_dataset(images: dict[str, list[Annotation]], num_classes=3) -> Dataset:
    return Dataset(
        class_names=[f"c{i}" for i in range(1, num_classes + 1)],
        images=[
            ImageRecord(image_id=image_id, width=512, height=512, annotations=anns)
            for image_id, anns in images.items()
        ],
    )


def test_single_prediction_fixed_point(report):
    """One eligible prediction: exact snap in one iteration; equal logits: mean."""
    rng = np.random.default_rng(101)
    cfg = CorrectionConfig(distance_limit=0.95)
    ok = True
    for _ in range(50):
        x, y = rng.uniform(50, 400, 2)
        w, h = rng.uniform(40, 100, 2)
        target = Annotation(box=Box(x, y, x + w, y + h), label=1)
        jit = rng.uniform(-4, 4, 4)
        det = Detection.from_prob(
            box=Box.spanning(x + jit[0], y + jit[1], x + w + jit[2], y + h + jit[3]),
            label=1,
            prob=float(rng.uniform(0.2, 0.95)),
        )
        corrected, rep = correct_boxes([target], [det], cfg)
        ok = ok and corrected[0].box == det.box and rep.iterations == 1
    for _ in range(50):
        x, y = rng.uniform(50, 400, 2)
        w, h = rng.uniform(40, 100, 2)
        target = Annotation(box=Box(x, y, x + w, y + h), label=1)
        logit = float(rng.uniform(-3, 3))
        dets = []
        for _ in range(int(rng.integers(2, 7))):
            jit = rng.uniform(-2, 2, 4)
            dets.append(
                Detection.from_logit(
                    box=Box.spanning(
                        x + jit[0], y + jit[1], x + w + jit[2], y + h + jit[3]
                    ),
                    label=1,
                    logit=logit,
                )
            )
        corrected, _ = correct_boxes([target], dets, cfg)
        mean = np.mean([d.box.as_tuple() for d in dets], axis=0)
        ok = ok and float(np.max(np.abs(np.asarray(corrected[0].box.as_tuple()) - mean))) <= 1e-12
    report(1, ok, 1.0, "single prediction snaps exactly; equal logits average")


def test_separated_clusters_match_closed_form(report):
    """Far-apart targets with near predictions equal one softmax average."""
    rng = np.random.default_rng(102)
    d = 0.4
    cfg = CorrectionConfig(distance_limit=d, temperature=0.3)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        targets = []
        clusters: list[list[tuple[Box, float]]] = []
        for t in range(n):
            cx = 200.0 + 400.0 * t
            w, h = rng.uniform(40, 100, 2)
            box = Box(cx - w / 2, 200 - h / 2, cx + w / 2, 200 + h / 2)
            targets.append(Annotation(box=box, label=1))
            cluster = []
            for _ in range(int(rng.integers(1, 5))):
                jit = rng.uniform(-2, 2, 4)
                pbox = Box.spanning(
                    box.x1 + jit[0], box.y1 + jit[1], box.x2 + jit[2], box.y2 + jit[3]
                )
                cluster.append((pbox, float(rng.uniform(-3, 3))))
            clusters.append(cluster)
        flat = [(t, pbox, logit) for t, cl in enumerate(clusters) for pbox, logit in cl]
        order = rng.permutation(len(flat))
        dets = [
            Detection.from_logit(box=flat[i][1], label=1, logit=flat[i][2])
            for i in order
        ]
        corrected, _ = correct_boxes(targets, dets, cfg)
        for t in range(n):
            boxes = [p.as_tuple() for p, _ in clusters[t]]
            logits = [l for _, l in clusters[t]]
            want = softmax_average_ref(boxes, logits, cfg.temperature)
            got = corrected[t].box.as_tuple()
            ok = ok and max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
    report(2, ok, 10.0, "per-target softmax average reproduced to 1e-9")


def test_correction_recovers_displaced_targets(report):
    """40% displaced targets move back toward truth given 5% jittered predictions."""
    wins = 0
    gains = []
    cfg = CorrectionConfig(distance_limit=0.6)
    for i in range(200):
        rng = derive_rng_ref(7, "recovery", i)
        truth = []
        for cell in range(6):
            col, row = cell % 3, cell // 3
            w, h = rng.uniform(40, 100, 2)
            cx = col * 170 + rng.uniform(60, 110)
            cy = row * 256 + rng.uniform(80, 176)
            truth.append(
                Annotation(
                    box=Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                    label=int(rng.integers(1, 4)),
                )
            )
        noisy = displace_boxes(truth, 0.40, (512, 512), rng)
        jittered = displace_boxes(truth, 0.05, (512, 512), rng)
        dets = []
        for p in jittered:
            q = max(iou(p.box, t.box) for t in truth)
            dets.append(Detection.from_logit(box=p.box, label=p.label, logit=8.0 * (2.0 * q - 1.0)))
        corrected, _ = correct_boxes(noisy, dets, cfg)
        before = float(np.mean([iou(a.box, t.box) for a, t in zip(noisy, truth)]))
        after = float(np.mean([iou(a.box, t.box) for a, t in zip(corrected, truth)]))
        wins += after > before
        gains.append(after - before)
    ok = wins >= 190 and float(np.mean(gains)) >= 0.15
    report(
        3,
        ok,
        60.0,
        f"refined targets beat noisy ones in {wins}/200 images, "
        f"mean gain {float(np.mean(gains)):.3f}",
    )


def test_mining_matches_naive_rules(report):
    """Threshold, NMS, and overlap-dedup boundaries agree with a naive oracle."""
    A = Box(0, 0, 4, 4)
    B = Box(0, 0, 4, 8)  # IoU(A, B) = 0.5 exactly
    C = Box(1, 0, 5, 4)  # IoU(A, C) = 0.6
    D = Box(2, 0, 6, 4)  # IoU(A, D) = 1/3
    E = Box(4, 0, 8, 4)  # touches A, IoU 0
    F = Box(100, 100, 104, 104)
    pred_pool = [A, B, C, F]
    target_pool = [A, B, D, E, F]
    probs = (0.75, 0.8, 0.85)  # below, at, above the 0.8 threshold
    labels = (1, 2)

    def disagrees(targets, dets, tau, nms_iou, dedup_iou):
        cfg = CorrectionConfig(
            mining_threshold=tau, mining_nms_iou=nms_iou, dedup_iou=dedup_iou
        )
        got = mine_labels(targets, dets, cfg)[len(targets):]
        want = mine_ref(
            [(t.box.as_tuple(), t.label) for t in targets],
            [(d.box.as_tuple(), d.label, d.prob) for d in dets],
            tau,
            nms_iou,
            dedup_iou,
        )
        if any(a.provenance != "mined" for a in got):
            return True
        return [(a.box.as_tuple(), a.label) for a in got] != [
            (box, label) for box, label, _ in want
        ]

    target_sets = [[]]
    for box, label in itertools.product(target_pool, labels):
        target_sets.append([Annotation(box=box, label=label)])
    for (bu, bv), (lu, lv) in itertools.product(
        itertools.combinations(target_pool, 2), itertools.product(labels, labels)
    ):
        target_sets.append(
            [Annotation(box=bu, label=lu), Annotation(box=bv, label=lv)]
        )

    pred_options = [
        Detection.from_prob(box=box, label=label, prob=prob)
        for box, prob, label in itertools.product(pred_pool, probs, labels)
    ]
    pred_sets = [[p] for p in pred_options] + [
        list(pair) for pair in itertools.product(pred_options, repeat=2)
    ]

    bad = 0
    for targets in target_sets:
        for dets in pred_sets:
            for nms_iou, dedup_iou in ((0.5, 0.5), (1 / 3, 0.6)):
                bad += disagrees(targets, dets, 0.8, nms_iou, dedup_iou)

    rng = np.random.default_rng(104)
    for _ in range(1500):
        targets = [
            Annotation(
                box=target_pool[int(rng.integers(len(target_pool)))],
                label=int(rng.integers(1, 3)),
            )
            for _ in range(int(rng.integers(0, 6)))
        ]
        dets = []
        for _ in range(int(rng.integers(0, 9))):
            base = pred_pool[int(rng.integers(len(pred_pool)))]
            if rng.random() < 0.5:
                jit = rng.uniform(-1.5, 1.5, 4)
                box = Box.spanning(
                    base.x1 + jit[0], base.y1 + jit[1], base.x2 + jit[2], base.y2 + jit[3]
                )
            else:
                box = base
            prob = float(rng.choice([0.75, 0.8, 0.85, float(rng.uniform(0.5, 1.0))]))
            dets.append(Detection.from_prob(box=box, label=int(rng.integers(1, 3)), prob=prob))
        bad += disagrees(targets, dets, 0.8, 0.5, 0.5)

    report(4, bad == 0, 10.0, f"mining agrees with the naive oracle ({bad} disagreements)")


def test_noise_protocol_properties(report):
    """Displacement bounds, exact sparsify counts, superfluous count mean."""
    ok = True
    for level in (0.1, 0.2, 0.4):
        rng = np.random.default_rng(105)
        anns = []
        for _ in range(10_000):
            w, h = rng.uniform(10, 200, 2)
            x, y = rng.uniform(1000, 40_000, 2)
            anns.append(Annotation(box=Box(x, y, x + w, y + h), label=1))
        moved = displace_boxes(anns, level, (50_000.0, 50_000.0), rng)
        for a, m in zip(anns, moved):
            bx = a.box.width * level + 1e-9  # float slack on the closed bound
            by = a.box.height * level + 1e-9
            ok = ok and abs(m.box.x1 - a.box.x1) <= bx and abs(m.box.x2 - a.box.x2) <= bx
            ok = ok and abs(m.box.y1 - a.box.y1) <= by and abs(m.box.y2 - a.box.y2) <= by

    rng = np.random.default_rng(205)
    base = [Annotation(box=Box(0, 0, 10, 10), label=1)] * 60
    for n in range(61):
        for fraction in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            kept = sparsify(base[:n], fraction, rng)
            ok = ok and len(kept) == n - int(np.floor(n * fraction + 0.5))
        kept = sparsify(base[:n], "extreme", rng)
        ok = ok and len(kept) == (1 if n else 0)

    rng = np.random.default_rng(305)
    record = ImageRecord(image_id="x", width=512, height=512)
    cfg = SuperfluousConfig()
    counts = [len(inject_superfluous(record, cfg, 3, rng)) for _ in range(10_000)]
    mean = float(np.mean(counts))
    ok = ok and abs(mean - 5.0) <= 0.1 and max(counts) <= 10
    report(5, ok, 30.0, f"noise protocol bounds hold, injected mean {mean:.3f}")


def test_ap_matches_naive_evaluator(report):
    """Random instances agree with a naive AP to 1e-9; fixtures are exact."""
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(100):
        images: dict[str, list[Annotation]] = {}
        preds: dict[str, list[Detection]] = {}
        for i in range(int(rng.integers(1, 4))):
            image_id = f"im{i}"
            anns = []
            for _ in range(int(rng.integers(0, 5))):
                x, y = rng.uniform(0, 400, 2)
                w, h = rng.uniform(10, 80, 2)
                anns.append(
                    Annotation(box=Box(x, y, x + w, y + h), label=int(rng.integers(1, 3)))
                )
            images[image_id] = anns
            dets = []
            for _ in range(int(rng.integers(0, 9))):
                if anns and rng.random() < 0.6:
                    b = anns[int(rng.integers(len(anns)))].box
                    jit = rng.uniform(-12, 12, 4)
                    box = Box.spanning(b.x1 + jit[0], b.y1 + jit[1], b.x2 + jit[2], b.y2 + jit[3])
                else:
                    x, y = rng.uniform(0, 400, 2)
                    box = Box(x, y, x + float(rng.uniform(10, 80)), y + float(rng.uniform(10, 80)))
                dets.append(
                    Detection.from_prob(
                        box=box, label=int(rng.integers(1, 3)), prob=float(rng.uniform(0.05, 0.99))
                    )
                )
            preds[image_id] = dets
        gt = make_dataset(images, num_classes=2)
        result = evaluate_ap50(gt, preds)
        for label, got in result.per_class_ap.items():
            gt_by_image = {
                rec.image_id: [a.box.as_tuple() for a in rec.annotations if a.label == label]
                for rec in gt.images
            }
            flat = [
                (rec.image_id, d.box.as_tuple(), d.prob)
                for rec in gt.images
                for d in preds[rec.image_id]
                if d.label == label
            ]
            ok = ok and abs(got - average_precision_ref(gt_by_image, flat)) <= 1e-9

    gt = make_dataset({"a": [Annotation(box=Box(0, 0, 10, 10), label=1)]})
    perfect = {"a": [Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.9)]}
    ok = ok and evaluate_ap50(gt, perfect).map50 == 1.0
    hit_first = {
        "a": [
            Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.9),
            Detection.from_prob(box=Box(200, 200, 220, 220), label=1, prob=0.3),
        ]
    }
    miss_first = {
        "a": [
            Detection.from_prob(box=Box(0, 0, 10, 10), label=1, prob=0.3),
            Detection.from_prob(box=Box(200, 200, 220, 220), label=1, prob=0.9),
        ]
    }
    ok = ok and evaluate_ap50(gt, hit_first).map50 == 1.0
    ok = ok and evaluate_ap50(gt, miss_first).map50 == 0.5
    report(6, ok, 10.0, "AP matches the naive evaluator and exact fixtures")


def test_ema_geometric_decay(report):
    """n EMA steps with a constant student shrink the gap by exactly alpha^n."""
    rng = np.random.default_rng(107)
    checkpoints = (1, 10, 100, 1000, 10_000)
    ok = True
    for alpha in (0.5, 0.9, 0.95, 0.99):
        t0 = tuple(float(v) for v in rng.uniform(0, 10, 4))
        s = tuple(float(v) for v in rng.uniform(0, 10, 4))
        state = EmaState(teacher=t0, student=s, keep_rate=alpha)
        step = 0
        for n in checkpoints:
            while step < n:
                state = ema_update(state)
                step += 1
            for got, t, sv in zip(state.teacher, t0, s):
                want = alpha**n * (t - sv) + sv
                ok = ok and abs(got - want) <= 1e-12
    report(7, ok, 1.0, "teacher gap decays geometrically to 1e-12 up to n=10000")


def test_refinement_loop_improves_targets(report):
    """Heavy-noise loop raises target quality; disabling correction stays flat."""
    correction = CorrectionConfig(distance_limit=0.6, mining_threshold=0.8)
    disabled = CorrectionConfig(distance_limit=None, mining_threshold=None)
    wins = 0
    flat = True
    for seed in range(20):
        truth = synthesize_truth(num_images=6, boxes_per_image=6, num_classes=3, seed=seed)
        noise = NoiseConfig(box_noise=0.4, sparsity="extreme", seed=seed)
        cfg = LoopConfig(iterations=20, keep_rate=0.95, correction=correction, noise=noise)
        trace, _ = run_loop(build_scenario(truth, noise), cfg)
        wins += trace[-1].target_quality > trace[0].target_quality
        control_cfg = LoopConfig(
            iterations=20, keep_rate=0.95, correction=disabled, noise=noise
        )
        control, _ = run_loop(build_scenario(truth, noise), control_cfg)
        flat = flat and len({r.target_quality for r in control}) == 1
    ok = wins >= 18 and flat
    report(
        8, ok, 120.0, f"quality improved in {wins}/20 seeds; disabled control flat"
    )


def test_cli_byte_determinism(report, tmp_path):
    """Re-runs of every subcommand produce byte-identical output trees."""

    def tree(root):
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    def run(args):
        assert cli_main(args) == 0

    clean = tmp_path / "clean.json"
    rng = np.random.default_rng(109)
    images = []
    for i in range(3):
        anns = []
        for _ in range(3):
            x, y = rng.uniform(20, 380, 2)
            w, h = rng.uniform(30, 90, 2)
            anns.append(
                Annotation(
                    box=Box.spanning(x, y, x + w, y + h).clip(512, 512),
                    label=int(rng.integers(1, 3)),
                )
            )
        images.append(ImageRecord(image_id=f"im{i}", width=512, height=512, annotations=anns))
    save_annotations(Dataset(class_names=["c1", "c2"], images=images), clean)

    dets_path = tmp_path / "dets.json"
    det_images = []
    for rec in images:
        dets = []
        for a in rec.annotations:
            jit = rng.uniform(-6, 6, 4)
            box = Box.spanning(
                a.box.x1 + jit[0], a.box.y1 + jit[1], a.box.x2 + jit[2], a.box.y2 + jit[3]
            ).clip(512, 512)
            dets.append(Detection.from_prob(box=box, label=a.label, prob=float(rng.uniform(0.3, 0.95))))
        dets.append(Detection.from_prob(box=Box(400, 400, 470, 460), label=1, prob=0.97))
        det_images.append(
            ImageRecord(image_id=rec.image_id, width=512, height=512, detections=dets)
        )
    save_annotations(Dataset(class_names=["c1", "c2"], images=det_images), dets_path)

    pairs = []
    inject = ["inject-noise", "--input", str(clean), "--box-noise", "0.2",
              "--sparsity", "0.25", "--superfluous", "on", "--seed", "3"]
    run(inject + ["--out", str(tmp_path / "n1")])
    run(inject + ["--out", str(tmp_path / "n2")])
    pairs.append(("inject-noise", "n1", "n2"))

    correct = ["correct", "--targets", str(clean), "--detections", str(dets_path),
               "--profile", "nb40-ex"]
    run(correct + ["--out", str(tmp_path / "c1")])
    run(correct + ["--out", str(tmp_path / "c2")])
    pairs.append(("correct", "c1", "c2"))

    evaluate = ["evaluate", "--ground-truth", str(clean), "--predictions",
                str(dets_path), "--annotations", str(clean)]
    run(evaluate + ["--out", str(tmp_path / "e1")])
    run(evaluate + ["--out", str(tmp_path / "e2")])
    pairs.append(("evaluate", "e1", "e2"))

    simulate = ["simulate", "--profile", "nb40-ex", "--iterations", "2",
                "--images", "3", "--boxes-per-image", "3", "--seed", "5", "--render"]
    run(simulate + ["--out", str(tmp_path / "s1")])
    run(simulate + ["--out", str(tmp_path / "s2")])
    pairs.append(("simulate", "s1", "s2"))

    render = ["render", "--dataset", str(clean), "--ground-truth", str(clean)]
    run(render + ["--out", str(tmp_path / "r1")])
    run(render + ["--out", str(tmp_path / "r2")])
    pairs.append(("render", "r1", "r2"))

    mismatched = [
        name for name, a, b in pairs if tree(tmp_path / a) != tree(tmp_path / b)
    ]
    # trace must carry real content, not vacuously identical empties
    nonempty = len(tree(tmp_path / "s1")) >= 5 and len(tree(tmp_path / "c1")) == 3
    ok = not mismatched and nonempty
    report(
        9, ok, 60.0,
        "all subcommands byte-identical across re-runs"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )


def test_coverage_asymmetry_fixture(report):
    """Half-annotated image: coverage reads 0.5 one way and 1.0 the other."""
    gt = make_dataset(
        {
            "a": [
                Annotation(box=Box(0, 0, 10, 10), label=1),
                Annotation(box=Box(100, 100, 140, 140), label=2),
            ]
        }
    )
    anns = make_dataset({"a": [Annotation(box=Box(0, 0, 10, 10), label=1)]})
    stats = quality_stats(gt, anns)
    ok = stats.gt_to_annotations == 0.5 and stats.annotations_to_gt == 1.0
    report(10, ok, 1.0, "coverage fixture yields (0.5, 1.0) exactly")
