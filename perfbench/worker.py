"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload pipeline --seed 1 \
        --mode full --trace 0 --t0 <time.time() at spawn>

``run.py`` spawns one of these per pass and reads the JSON object it
prints as its last line.  ``--mode setup`` stops as soon as set-up ends
and reports only ``setup_s``; ``--trace 1`` wraps every layer's entry
points in spans (see ``spans.py``) and adds the per-layer self times.
A pass that raises reports the traceback as a problem and exits 1.

Every pass also reports ``cal_s``, the host-speed probe the parent uses
to express its times at a reference host speed (see ``metrics.at_ref``):
the mean time of a fixed calibration loop run right before and right
after the timed window (a set-up-only pass runs it once, after set-up).
Neither run falls inside a timed window.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


#: Iterations of the calibration loop (about 0.07 s on the reference host).
CAL_LOOP = 1_000_000


def calibrate() -> float:
    """Wall seconds this process takes for a fixed pure-Python loop.

    The host's speed swings by up to 2x over seconds; the loop sees the
    same swing.  It allocates no GC-tracked object, so it neither runs
    nor triggers a collection of the simulator's heap.
    """
    began = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - began


def _emit(result: dict) -> None:
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    result = {"mode": args.mode, "traced": bool(args.trace), "problems": []}
    cal_before = []

    def setup_over(probe) -> None:
        if args.mode == "setup":
            result["setup_s"] = probe.setup_s
            result["cal_s"] = calibrate()
            _emit(result)
            os._exit(0)  # set-up is all this pass measures

    recorder = spans.SpanRecorder() if args.trace else None
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(spans.instrumented(recorder))
        probe = workloads.Probe(
            args.t0, spec.setup_ends_at_start, setup_over, recorder,
            before_window=lambda: cal_before.append(calibrate()),
        )
        stack.enter_context(probe.installed())
        try:
            outcome = spec.run(args.seed, probe)
        except Exception:  # the pass fails; the parent counts its ops failed
            result["problems"].append(traceback.format_exc())
            _emit(result)
            return 1
        cal_after = calibrate()

    timed_s = probe.end - probe.first_run
    result.update(
        cal_s=(cal_before[0] + cal_after) / 2.0,
        setup_s=probe.setup_s,
        host_s=probe.host_s,
        start_s=probe.start_s or 0.0,
        fold_s=probe.fold_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=outcome.ops,
        problems=outcome.problems,
        sim=outcome.sim,
        counters=dict(probe.counters),
    )
    if recorder is not None:
        result["layers_s"] = recorder.self_s
        result["unattributed_s"] = timed_s - recorder.root_s
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
