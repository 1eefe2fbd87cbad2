"""Benchmark of the boxrefine command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline-dense --seed 1 --seconds 36 --trace 0

With ``--trace 0`` every stage runs as its own ``python -m boxrefine.cli``
process, one after another, the way a user runs them; the stage sequence is
repeated for ``--seconds`` seconds (at least three times) and medians are
reported. With ``--trace 1`` the stages run once as processes, to get the
reference outputs, and then in this process through ``boxrefine.cli.main``:
one pass counting scalar IoU calls, then alternating untraced and traced
passes, whose spans give the per-layer metrics (see ``spans.py``).
Reported times are rescaled to a nominal machine speed (see ``SpeedGauge``).

Every stage's output is checked (``checks.py``) and must be byte-identical
across repeats and between the process and in-process passes. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries reported, ungated
facts (output digests, mAP, counts, versions).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from gen import PipelineSize, generate_pipeline
from spans import Tracer, count_iou_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"
LAUNCHER = ROOT / "bench" / "launch.py"

MIN_REPEATS = 3
SETUP_PROBES = 5
# seconds ``reference_work`` takes at the nominal speed (see SpeedGauge)
REF_NOMINAL_S = 0.08
PIPELINE_PROFILE = "nb20-ns50"
LOOP_PROFILE = "nb40-ex"


@dataclass(frozen=True)
class LoopSize:
    images: int
    boxes_per_image: int
    iterations: int


# Why each workload: see bench/README.md.
WORKLOADS: dict[str, PipelineSize | LoopSize] = {
    "pipeline-dense": PipelineSize(
        images=8, objects_per_image=300, image_side=1536, classes=3,
        copies_per_object=2, background_per_image=60, min_side=24.0, max_side=96.0,
    ),
    "pipeline-wide": PipelineSize(
        images=2000, objects_per_image=4, image_side=512, classes=3,
        copies_per_object=2, background_per_image=1, min_side=24.0, max_side=96.0,
    ),
    "loop-sim": LoopSize(images=100, boxes_per_image=20, iterations=15),
}

# Same emphasis at a size that runs in seconds, for selftest.py.
TINY: dict[str, PipelineSize | LoopSize] = {
    "pipeline-dense": PipelineSize(2, 40, 512, 3, 2, 8, 24.0, 96.0),
    "pipeline-wide": PipelineSize(40, 4, 512, 3, 2, 1, 24.0, 96.0),
    "loop-sim": LoopSize(images=6, boxes_per_image=5, iterations=3),
}

STAGE_METRICS = ("inject_noise", "correct", "evaluate", "simulate")

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("cli", "datamodel", "noise", "correction", "geometry", "evaluation", "simloop")

# per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "datamodel.load_s": "datamodel.load",
    "datamodel.save_s": "datamodel.save",
    "noise.corrupt_s": "noise.corrupt",
    "correction.correct_boxes_s": "correction.correct_boxes",
    "correction.mine_labels_s": "correction.mine_labels",
    "geometry.nms_s": "geometry.nms",
    "evaluation.ap50_s": "evaluation.ap50",
    "evaluation.breakdown_s": "evaluation.breakdown",
    "evaluation.quality_s": "evaluation.quality",
    "simloop.predict_s": "simloop.predict",
    "simloop.self_s": "simloop.run_loop",
    "cli.self_s": "cli.main",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "datamodel.bytes_read": "bytes",
    "datamodel.bytes_written": "bytes",
    "correction.rounds": "count",
    "correction.moved_frac": "ratio",
    "correction.mining_yield": "ratio",
    "simloop.predictions": "count",
    "geometry.iou_calls": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    **{f"stage.{name}_s": "s" for name in STAGE_METRICS},
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: metric stem, argv after ``boxrefine``, output dir."""

    name: str
    argv: tuple[str, ...]
    out: str
    check: Callable[[Path], list[str]]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def make_stages(size: PipelineSize | LoopSize, seed: int, inputs: Path) -> list[Stage]:
    """Stage list for a workload.

    Every pass runs in ``<run dir>/pass`` beside ``<run dir>/inputs`` and names
    files by relative path, so every pass writes the same ``config.json`` bytes.
    """
    clean_path, dets_path = "../inputs/clean.json", "../inputs/dets.json"
    if isinstance(size, LoopSize):
        argv = (
            "simulate", "--profile", LOOP_PROFILE, "--seed", str(seed),
            "--images", str(size.images), "--boxes-per-image", str(size.boxes_per_image),
            "--iterations", str(size.iterations), "--out", "sim",
        )
        return [
            Stage("simulate", argv, "sim",
                  lambda d: checks.check_simulate(d / "sim", size.images, size.iterations))
        ]
    clean = json.loads((inputs / "clean.json").read_text(encoding="utf-8"))
    dets = json.loads((inputs / "dets.json").read_text(encoding="utf-8"))
    return [
        Stage(
            "inject_noise",
            ("inject-noise", "--profile", PIPELINE_PROFILE, "--seed", str(seed),
             "--input", clean_path, "--out", "noisy"),
            "noisy",
            lambda d: checks.check_inject_noise(d / "noisy", clean),
        ),
        Stage(
            "correct",
            ("correct", "--profile", PIPELINE_PROFILE, "--targets", "noisy/annotations.json",
             "--detections", dets_path, "--out", "corrected"),
            "corrected",
            lambda d: checks.check_correct(d / "corrected", d / "noisy" / "annotations.json"),
        ),
        Stage(
            "evaluate",
            ("evaluate", "--profile", PIPELINE_PROFILE, "--ground-truth", clean_path,
             "--predictions", dets_path, "--annotations", "corrected/corrected.json",
             "--out", "metrics"),
            "metrics",
            lambda d: checks.check_evaluate(d / "metrics", clean, dets),
        ),
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd: list[str], cwd: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run ``cmd`` through ``launch.py``; return (wall seconds, peak RSS MB, exit code)."""
    with stderr_path.open("wb") as err:
        # a new session puts the launcher and the program in one process group
        proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER), *cmd],
            cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=err,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        return 0.0, 0.0, proc.returncode
    report = json.loads(out)
    # ru_maxrss is in KiB on Linux
    return report["wall_s"], report["maxrss_kib"] / 1024.0, report["returncode"]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Verifier:
    """Checks each stage invocation and keeps the first digest of every stage.

    The invariant checks run on a stage's first output; any later output must
    have the same digest, which makes it byte-identical to a checked one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.summaries: dict[str, dict] = {}

    def record(self, label: str, stage: Stage, pass_dir: Path, rc: int, stderr: str = "") -> None:
        self.attempted += 1
        fails = [f"{label}: {stage.name}: exit code {rc}: {stderr[-300:]}"] if rc != 0 else []
        if not fails:
            out = pass_dir / stage.out
            got = checks.digest(out)
            want = self.digests.get(stage.name)
            if want is None:
                try:
                    fails = [f"{label}: {msg}" for msg in stage.check(pass_dir)]
                    self.summaries[stage.name] = checks.summarize(stage.name, out)
                except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                    fails = [f"{label}: {stage.name}: unreadable output: {exc!r}"]
                if not fails:
                    self.digests[stage.name] = got
            elif got != want:
                fails = [f"{label}: {stage.name}: output differs from the first run"]
        self.failures.extend(fails)

    def probe(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def reference_work() -> float:
    """Fixed pure-Python work, about 0.08 s, with a working set of several MB.

    It builds a 60,000-entry dict of tuples and reads it in scrambled order.
    Under contention its time tracks the program's closely; a loop that stays
    in the CPU's first-level cache slows down less than the program does.
    """
    n = 60_000
    table = {i: (i * 0.5, i * 1.5, str(i)) for i in range(n)}
    total = 0.0
    k = 1
    for _ in range(n):
        k = k * 48271 % 2147483647
        a, b, text = table[k % n]
        total += a + b + len(text)
    return total


class SpeedGauge:
    """Rescales wall times to a nominal machine speed.

    On a shared machine each CPU's speed changes by up to 2x within seconds,
    independently of the other CPUs and for reasons outside this process.
    The benchmark therefore keeps itself and its children on one CPU and
    times ``reference_work`` after every measured process. A wall time
    multiplied by ``factor()`` is the wall time at the speed where the
    reference takes ``REF_NOMINAL_S``: the run's mean reference time stands
    for the CPU's mean speed over the run. The reference is part of the
    benchmark, so no change to the program can move it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.samples)


def process_pass(
    stages: list[Stage],
    pass_dir: Path,
    verifier: Verifier,
    label: str,
    gauge: SpeedGauge,
    tamper: Callable[[str, Path], None] | None = None,
) -> tuple[dict[str, float], float]:
    """Run every stage as a fresh CLI process; return stage walls and peak RSS in MB."""
    walls: dict[str, float] = {}
    peak = 0.0
    for stage in stages:
        stderr_path = pass_dir / f"{stage.name}.stderr"
        wall, rss, rc = run_process(
            [sys.executable, "-m", "boxrefine.cli", *stage.argv], pass_dir, stderr_path
        )
        gauge.sample()
        walls[stage.name] = wall
        peak = max(peak, rss)
        if tamper is not None:
            tamper(stage.name, pass_dir / stage.out)
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace") if rc else ""
        verifier.record(label, stage, pass_dir, rc, stderr)
    return walls, peak


def setup_probe(pass_dir: Path, verifier: Verifier, gauge: SpeedGauge) -> float:
    """Wall time of a CLI process that imports everything, parses and exits."""
    wall, _, rc = run_process(
        [sys.executable, "-m", "boxrefine.cli", "--help"], pass_dir, pass_dir / "setup.stderr"
    )
    gauge.sample()
    verifier.probe(rc == 0, f"setup probe: exit code {rc}")
    return wall


def keep_going(durations: list[float], started: float, seconds: float, minimum: int) -> bool:
    """True while the minimum is not reached or another repeat fits the budget."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.fmean(durations) <= seconds


def measure_end_to_end(
    stages: list[Stage],
    run_dir: Path,
    seconds: float,
    verifier: Verifier,
    tamper: Callable[[str, Path, int], None] | None,
) -> tuple[dict, dict]:
    started = time.perf_counter()
    pass_dir = fresh_dir(run_dir / "pass")
    gauge = SpeedGauge()
    setup = [setup_probe(pass_dir, verifier, gauge) for _ in range(SETUP_PROBES)]
    totals: list[float] = []
    peaks: list[float] = []
    per_stage: dict[str, list[float]] = {s.name: [] for s in stages}
    durations: list[float] = []
    while keep_going(durations, started, seconds, MIN_REPEATS):
        t0 = time.perf_counter()
        pass_dir = fresh_dir(run_dir / "pass")
        repeat = len(durations)
        hook = (lambda stage, out: tamper(stage, out, repeat)) if tamper else None
        walls, peak = process_pass(stages, pass_dir, verifier, f"repeat {repeat}", gauge, hook)
        for name, wall in walls.items():
            per_stage[name].append(wall)
        totals.append(sum(walls.values()))
        peaks.append(peak)
        setup.append(setup_probe(pass_dir, verifier, gauge))
        durations.append(time.perf_counter() - t0)
    factor = gauge.factor()
    metrics = {
        "total_s": statistics.median(totals) * factor,
        "setup_s": statistics.median(setup) * factor,
        "peak_rss_mb": statistics.median(peaks),
    }
    info = {
        "repeats": len(totals),
        "setup_probes": len(setup),
        "stage_s": {name: statistics.median(v) * factor for name, v in per_stage.items()},
        "raw_total_s": statistics.median(totals),
        "raw_setup_s": statistics.median(setup),
        "speed_factor": factor,
    }
    return metrics, info


def import_program():
    """Import the package from this checkout's ``src`` for the in-process passes."""
    sys.path.insert(0, str(SRC))
    from boxrefine import cli, correction, evaluation, geometry, simloop

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"boxrefine was imported from {cli.__file__}, not {SRC}")
    return cli, correction, evaluation, geometry, simloop


def inprocess_pass(cli, stages: list[Stage], pass_dir: Path, verifier: Verifier, label: str) -> float:
    """Run every stage through ``cli.main`` in this process; return wall seconds."""
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        elapsed = 0.0
        for stage in stages:
            start = time.perf_counter()
            try:
                rc, detail = cli.main(list(stage.argv)), ""
            except Exception as exc:  # a crash in the program is a failed operation
                rc, detail = -1, traceback.format_exc()
            elapsed += time.perf_counter() - start
            verifier.record(label, stage, pass_dir, rc, detail)
    finally:
        os.chdir(cwd)
    return elapsed


class LayerCounts:
    """Counts taken from the arguments and results of traced calls."""

    def __init__(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.rounds = 0
        self.targets = 0
        self.moved = 0
        self.mined = 0
        self.confident = 0
        self.predictions = 0
        self.failed_mains = 0

    def main(self, rc, *args, **kwargs) -> None:
        self.failed_mains += rc != 0

    def load(self, result, path, *args, **kwargs) -> None:
        self.bytes_read += os.path.getsize(path)

    def save(self, result, dataset, path) -> None:
        self.bytes_written += os.path.getsize(path)

    def correct_boxes(self, result, targets, preds, cfg) -> None:
        out, report = result
        self.rounds += report.iterations
        self.targets += len(targets)
        self.moved += sum(1 for a, t in zip(out, targets) if a is not t)

    def mine_labels(self, result, targets, preds, cfg) -> None:
        self.mined += len(result) - len(targets)
        self.confident += sum(1 for p in preds if p.prob >= cfg.mining_threshold)

    def predict(self, result, *args, **kwargs) -> None:
        self.predictions += len(result)


def install_tracing(tracer: Tracer, counts: LayerCounts, cli, correction, simloop) -> None:
    """Wrap the public functions named in bench/README.md where they are imported."""
    wrap = tracer.wrap
    wrap(cli, "main", "cli.main", counts.main)
    wrap(cli, "load_annotations", "datamodel.load", counts.load)
    wrap(cli, "save_annotations", "datamodel.save", counts.save)
    wrap(cli, "corrupt_dataset", "noise.corrupt")
    wrap(cli, "correct_targets", "correction.correct_targets")
    wrap(cli, "evaluate_ap50", "evaluation.ap50")
    wrap(cli, "error_breakdown", "evaluation.breakdown")
    wrap(cli, "quality_stats", "evaluation.quality")
    wrap(cli, "run_loop", "simloop.run_loop")
    wrap(correction, "correct_boxes", "correction.correct_boxes", counts.correct_boxes)
    wrap(correction, "mine_labels", "correction.mine_labels", counts.mine_labels)
    wrap(correction, "nms", "geometry.nms")
    wrap(simloop, "simulate_predictions", "simloop.predict", counts.predict)
    wrap(simloop, "correct_targets", "correction.correct_targets")
    wrap(simloop, "evaluate_ap50", "evaluation.ap50")
    wrap(simloop, "corrupt_dataset", "noise.corrupt")


def traced_metrics(tracer: Tracer, counts: LayerCounts) -> dict[str, float]:
    self_times = tracer.self_times()
    out = {m: self_times.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
    out.update(
        {
            "datamodel.bytes_read": counts.bytes_read,
            "datamodel.bytes_written": counts.bytes_written,
            "correction.rounds": counts.rounds,
            "correction.moved_frac": counts.moved / counts.targets if counts.targets else 0.0,
            "correction.mining_yield": counts.mined / counts.confident if counts.confident else 0.0,
            "simloop.predictions": counts.predictions,
        }
    )
    errors = tracer.errors_by_layer()
    errors["cli"] = errors.get("cli", 0) + counts.failed_mains
    out.update({f"{layer}.errors": errors.get(layer, 0) for layer in LAYERS})
    return out


def measure_per_layer(
    stages: list[Stage], run_dir: Path, seconds: float, verifier: Verifier, trace_path: Path
) -> tuple[dict, dict]:
    started = time.perf_counter()
    gauge = SpeedGauge()
    walls, _ = process_pass(stages, fresh_dir(run_dir / "pass"), verifier, "reference", gauge)
    metrics: dict[str, float] = {f"stage.{n}_s": walls.get(n, 0.0) for n in STAGE_METRICS}

    cli, correction, evaluation, geometry, simloop = import_program()
    with count_iou_calls([geometry, correction, evaluation, simloop]) as calls:
        inprocess_pass(cli, stages, fresh_dir(run_dir / "pass"), verifier, "iou count")
    metrics["geometry.iou_calls"] = calls[0]

    plain: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict[str, float]] = []
    durations: list[float] = []
    while keep_going(durations, started, seconds, 1):
        t0 = time.perf_counter()
        gauge.sample()
        plain.append(
            inprocess_pass(cli, stages, fresh_dir(run_dir / "pass"), verifier, "untraced")
        )
        gauge.sample()
        tracer, counts = Tracer(), LayerCounts()
        install_tracing(tracer, counts, cli, correction, simloop)
        try:
            traced.append(
                inprocess_pass(cli, stages, fresh_dir(run_dir / "pass"), verifier, "traced")
            )
        finally:
            tracer.restore()
        layer_runs.append(traced_metrics(tracer, counts))
        durations.append(time.perf_counter() - t0)
    tracer.write(trace_path)
    for name in layer_runs[0]:
        metrics[name] = statistics.median_low(r[name] for r in layer_runs)
    metrics["trace.untraced_s"] = statistics.median(plain)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"] - 1.0
    factor = gauge.factor()
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            metrics[name] *= factor
    info = {
        "pairs": len(traced),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "speed_factor": factor,
    }
    return metrics, info


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    tamper: Callable[[str, Path, int], None] | None = None,
) -> tuple[dict, dict]:
    """Run one workload; return (result line, reported facts).

    ``tamper(stage, out_dir, repeat)``, when given, runs after each stage
    process of the end-to-end passes and before its output is checked; the
    self-test uses it to show that a damaged output counts as a failure.
    """
    if not (SRC / "boxrefine" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'boxrefine' / 'cli.py'} is missing")
    size = (TINY if tiny else WORKLOADS)[workload]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = fresh_dir(WORK / f"{workload}-s{seed}-p{os.getpid()}")
    try:
        inputs = run_dir / "inputs"
        inputs.mkdir()
        gen_stats = (
            generate_pipeline(size, seed, inputs) if isinstance(size, PipelineSize) else {}
        )
        stages = make_stages(size, seed, inputs)
        verifier = Verifier()
        if trace:
            trace_path = WORK / f"trace-{workload}-s{seed}.json"
            metrics, info = measure_per_layer(stages, run_dir, seconds, verifier, trace_path)
        else:
            metrics, info = measure_end_to_end(stages, run_dir, seconds, verifier, tamper)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = len(verifier.failures)
    info.update(
        {
            "workload": workload,
            "seed": seed,
            "inputs": gen_stats,
            "error_rate": failed / verifier.attempted,
            "failures": verifier.failures[:20],
            "digests": verifier.digests,
            "outputs": verifier.summaries,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "src_lines": src_lines(),
        }
    )
    units = END_TO_END_UNITS if not trace else PER_LAYER_UNITS
    result = {
        "correct": failed == 0,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so running processes are stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
