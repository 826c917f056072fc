"""Host-cost benchmark for the simulator.

    python3 perfbench/run.py --workload net_sf10 [--seed 1] [--seconds 25] [--trace 0|1]

Runs one workload as a series of passes, each in a fresh single-threaded
worker process, for ``--seconds`` seconds, then prints every metric by
name with its unit and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

- ``--trace 0``: untraced passes, then set-up-only passes until there are
  enough set-up samples; the JSON carries the end-to-end metrics.
- ``--trace 1``: untraced and traced passes alternate; the JSON carries the
  per-layer metrics (the end-to-end ones are printed above it).

See ``RUNBOOK.md`` next to this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
#: Later claims must also hold on this seed, never used while tuning.
HELD_OUT_SEED = 7_919
#: Minimum full passes per run, per kind (untraced / traced).
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Set-up samples per run, full passes included (the warm-up is not).
SETUP_SAMPLES = 15
#: Stop starting passes past this many seconds, whatever --seconds says.
HARD_STOP_S = 150.0


class Passes:
    """Spawns worker passes and keeps their results."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.began = time.monotonic()
        self.untraced: List[dict] = []
        self.traced: List[dict] = []
        #: passes that measured set-up: full untraced and set-up-only
        self.setups: List[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.began

    def spawn(self, mode: str, trace: int = 0) -> dict:
        timeout = max(5.0, HARD_STOP_S + 20.0 - self.elapsed())
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--trace", str(trace),
        ]
        try:
            proc = subprocess.run(
                argv + ["--t0", repr(time.time())],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() killed and reaped it
            return {"exit": None, "problems": ["pass timed out"]}
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"problems": ["no result: %s" % proc.stderr[-2000:]]}
        result["exit"] = proc.returncode
        return result

    def full(self, trace: int) -> None:
        result = self.spawn("full", trace)
        (self.traced if trace else self.untraced).append(result)
        if not trace and result["exit"] == 0 and "cal_s" in result:
            self.setups.append(result)

    def setup_only(self) -> None:
        result = self.spawn("setup")
        if result["exit"] == 0 and "cal_s" in result:
            self.setups.append(result)

    def running(self, seconds: float) -> bool:
        return self.elapsed() < min(seconds, HARD_STOP_S)


def measure(workload: str, seed: int, seconds: float, trace: int) -> Passes:
    passes = Passes(workload, seed)
    passes.spawn("setup")  # warm-up: bytecode compiled, files cached; discarded
    if trace:
        while passes.running(seconds) or (
            len(passes.traced) < MIN_TRACED_PASSES
            and passes.elapsed() < HARD_STOP_S
        ):
            passes.full(trace=0)
            passes.full(trace=1)
    else:
        while passes.running(seconds) or (
            len(passes.untraced) < MIN_PASSES and passes.elapsed() < HARD_STOP_S
        ):
            passes.full(trace=0)
        while len(passes.setups) < SETUP_SAMPLES and (
            passes.elapsed() < HARD_STOP_S
        ):
            passes.setup_only()
    return passes


def _print_table(title: str, values: dict, table: dict) -> None:
    print(title)
    for name in table:
        print("  %-36s %16.6f %s" % (name, values[name], table[name][0]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no simulator source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    spec = workloads.WORKLOADS[args.workload]
    passes = measure(args.workload, args.seed, args.seconds, args.trace)
    everything = passes.untraced + passes.traced
    attempted, failed = metrics.account(everything, spec.attempted)
    good = metrics.agreeing(everything)
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    for result in everything:
        for problem in result["problems"]:
            print("pass problem: %s" % problem, file=sys.stderr)
    if not untraced or (args.trace and not traced) or not passes.setups:
        print("no usable pass: nothing to report", file=sys.stderr)
        return 1

    print(
        "workload %s seed %d: %d untraced, %d traced, %d set-up samples, "
        "%.1f s" % (args.workload, args.seed, len(passes.untraced),
                    len(passes.traced), len(passes.setups),
                    passes.elapsed())
    )
    print("wall host_s per untraced pass: %s" % " ".join(
        "%.4f" % r["host_s"] for r in untraced))
    print("speed factor (REF_CAL_S / cal_s) per pass: %s" % " ".join(
        "%.3f" % metrics.at_ref(r, 1.0) for r in untraced))
    e2e = metrics.end_to_end(untraced, passes.setups, attempted, failed)
    _print_table("end to end:", e2e, metrics.END_TO_END)
    if args.trace:
        layer = metrics.per_layer(untraced, traced)
        _print_table("per layer:", layer, metrics.PER_LAYER)
        reported = metrics.as_json_metrics(layer, metrics.PER_LAYER)
    else:
        reported = metrics.as_json_metrics(e2e, metrics.END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
