"""Self-test of the benchmark at tiny scale.

    python3 bench/selftest.py

Runs every workload once in each mode at a size that takes seconds and
checks that:

- every metric named in BENCHMARK.json is reported, with its unit, and no
  operation fails;
- a deliberately damaged output is counted as a failure, so the output
  checks are not vacuous;
- without the program beside it (only BENCHMARK.json and bench/), run.py
  exits non-zero and prints no result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7


def check_workloads(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, info = run.run_benchmark(workload, SEED, 0.0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want)}")
            if any(
                isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
                for m in result["metrics"].values()
            ):
                problems.append(f"{label}: a metric value is not a number")
            if not result["correct"] or result["failed"] or info["error_rate"] != 0:
                problems.append(f"{label}: failures {info['failures']}")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
    return problems


def check_damage_is_caught() -> list[str]:
    def tamper(stage: str, out_dir: Path, repeat: int) -> None:
        if stage == "evaluate" and repeat == 0:
            path = out_dir / "metrics.json"
            metrics = json.loads(path.read_text(encoding="utf-8"))
            metrics["error_breakdown"]["missed"] += 1
            path.write_text(json.dumps(metrics), encoding="utf-8")

    result, info = run.run_benchmark("pipeline-dense", SEED, 0.0, False, tiny=True, tamper=tamper)
    if result["correct"] or result["failed"] < 1:
        return [f"damaged metrics.json was not counted as a failure: {result}"]
    print(f"damaged output caught: {info['failures'][0]}")
    return []


def check_bare_checkout() -> list[str]:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "bench").glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "loop-sim", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_workloads(spec) + check_damage_is_caught() + check_bare_checkout()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
