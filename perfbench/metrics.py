"""Metric declarations and the arithmetic that turns passes into metrics.

A *pass* is one fresh worker process (``worker.py``) running one
workload once; its JSON result is a plain dict.  A benchmark run makes
several passes and reports medians.  Every metric is declared once here
with its unit and direction; ``BENCHMARK.json`` must agree (a test
checks it).

Host times are reported at a reference host speed (:func:`at_ref`): on
a shared machine the same pass runs up to 2x slower for tens of
seconds at a time, which no number of passes in one run averages out.
"""

from __future__ import annotations

import json
import re
import statistics
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

#: name -> (unit, better, definition)
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "host_s": ("s", "lower",
               "wall seconds from the first simulated step to the entry "
               "point's return, less the first arrival compile"),
    "host_us_per_op": ("us/op", "lower", "host_s per completed op"),
    "peak_rss_mb": ("MB", "lower",
                    "peak resident memory of the pass's process (ru_maxrss)"),
    "setup_s": ("s", "lower",
                "process start to the first simulated step, plus the first "
                "arrival compile (LoadGenerator.start)"),
    "completed_share": ("ratio", "higher",
                        "ops completed and passing every check / ops attempted"),
}

#: The layers whose traced self time is reported (``spans.LAYERS`` keys).
SELF_TIMED = ("core.runtime", "sim.events", "sim.segments", "unix.kernel",
              "unix.net", "core.lib", "check")

PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "core.runtime.steps_per_op": ("steps/op", "lower", "executor steps per op"),
    "core.runtime.switches_per_op": ("switches/op", "lower",
                                     "context switches per op"),
    "sim.events.scheduled_per_op": ("events/op", "lower",
                                    "events scheduled (EventQueue._seq) per op"),
    "sim.events.batched_share": ("ratio", "higher",
                                 "events fired in same-timestamp batches / "
                                 "events scheduled"),
    "sim.segments.replayed_share": ("ratio", "higher",
                                    "steps replayed by the segment compiler / "
                                    "steps"),
    "sim.segments.record_fail_share": ("ratio", "lower",
                                       "failed segment recordings / recordings"),
    "unix.kernel.syscalls_per_op": ("syscalls/op", "lower",
                                    "UNIX syscalls per op"),
    "unix.kernel.signals_per_op": ("signals/op", "lower",
                                   "UNIX signals delivered to the process "
                                   "per op"),
    "unix.net.messages_per_op": ("messages/op", "lower",
                                 "link messages delivered per op"),
    "unix.net.epoll_stale_share": ("ratio", "lower",
                                   "stale ready entries / (ready + stale)"),
    "core.lib.mutex_contentions_per_op": ("contentions/op", "lower",
                                          "mutex contentions per op"),
    "core.lib.pool_hit_share": ("ratio", "higher",
                                "TCB/stack cache hits / acquisitions"),
    "check.checks_per_op": ("checks/op", "higher",
                            "invariant sweeps per explored schedule"),
    "net.loadgen.start_s": ("s", "lower",
                            "first LoadGenerator.start (arrival compile)"),
    "net.scenario.fold_s": ("s", "lower",
                            "last run() return to the entry point's return "
                            "(run_scenario's report fold)"),
    **{
        "%s.self_us_per_op" % layer: (
            "us/op", "lower",
            "traced host self time of the layer's spans per op")
        for layer in SELF_TIMED
    },
    "unattributed.self_us_per_op": ("us/op", "lower",
                                    "traced host time outside every span "
                                    "per op"),
    "trace.overhead_share": ("ratio", "lower",
                             "traced host_s / untraced host_s - 1"),
    "sim.elapsed_us": ("sim_us", "lower",
                       "simulated elapsed time, virtual us (exact)"),
    "sim.latency_p99_us": ("sim_us", "lower",
                           "simulated p99 latency per op, virtual us (exact)"),
    "sim.throughput_rps": ("1/s", "higher",
                           "ops per simulated second (exact)"),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Wall seconds of ``worker.calibrate`` on the reference host (a 2-vCPU
#: KVM guest, Xeon, Python 3.11) at its typical speed.
REF_CAL_S = 0.075


def at_ref(result: dict, seconds: float) -> float:
    """A host time of one pass, rescaled to the reference host speed by
    the pass's own calibration time ``cal_s``."""
    return seconds * REF_CAL_S / result["cal_s"]


def per_op(total: float, ops: int) -> float:
    """Normalize a pass total to one op."""
    if ops < 1:
        raise ValueError("cannot normalize by %r ops" % ops)
    return total / ops


def share(part: float, whole: float) -> float:
    """``part / whole``, 0.0 when there was nothing to share."""
    return part / whole if whole else 0.0


def signature(result: dict) -> str:
    """Everything in a pass that must repeat exactly, as one string."""
    return json.dumps(
        {k: result.get(k) for k in ("ops", "sim", "counters")}, sort_keys=True
    )


def usable(result: dict) -> bool:
    """A full pass that ran to the end and passed its own checks."""
    return result.get("exit") == 0 and "sim" in result and not result["problems"]


def reference(results: Sequence[dict]) -> Optional[str]:
    """The signature most usable passes agree on (None: no usable pass)."""
    votes = Counter(signature(r) for r in results if usable(r))
    return votes.most_common(1)[0][0] if votes else None


def account(results: Sequence[dict], attempted_per_pass: int) -> Tuple[int, int]:
    """(attempted, failed) ops over full passes.

    A pass completes its ops only if it is usable and its exact results
    equal the reference; otherwise every op it attempted failed.
    """
    ref = reference(results)
    attempted = failed = 0
    for result in results:
        attempted += attempted_per_pass
        ok = usable(result) and signature(result) == ref
        failed += attempted_per_pass - (result["ops"] if ok else 0)
    return attempted, failed


def agreeing(results: Sequence[dict]) -> List[dict]:
    ref = reference(results)
    return [r for r in results if usable(r) and signature(r) == ref]


def end_to_end(
    untraced: Sequence[dict],
    setups: Sequence[dict],
    attempted: int,
    failed: int,
) -> Dict[str, float]:
    """``setups``: every pass that measured set-up (full or set-up-only)."""
    med = statistics.median
    return {
        "host_s": med(at_ref(r, r["host_s"]) for r in untraced),
        "host_us_per_op": med(
            per_op(at_ref(r, r["host_s"]), r["ops"]) * 1e6 for r in untraced
        ),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        "setup_s": med(at_ref(r, r["setup_s"]) for r in setups),
        "completed_share": (attempted - failed) / attempted,
    }


def per_layer(untraced: Sequence[dict], traced: Sequence[dict]) -> Dict[str, float]:
    """Counts from the (identical) untraced passes, self times from the
    traced ones."""
    med = statistics.median
    first = untraced[0]
    ops = first["ops"]
    c = first["counters"]
    out = {
        "core.runtime.steps_per_op": per_op(c["steps"], ops),
        "core.runtime.switches_per_op": per_op(c["switches"], ops),
        "sim.events.scheduled_per_op": per_op(c["events_scheduled"], ops),
        "sim.events.batched_share": share(c["events_batched"], c["events_scheduled"]),
        "sim.segments.replayed_share": share(c["steps_replayed"], c["steps"]),
        "sim.segments.record_fail_share": share(c["record_failures"], c["recordings"]),
        "unix.kernel.syscalls_per_op": per_op(c["syscalls"], ops),
        "unix.kernel.signals_per_op": per_op(c["signals"], ops),
        "unix.net.messages_per_op": per_op(c["messages"], ops),
        "unix.net.epoll_stale_share": share(
            c["epoll_stale"], c["epoll_ready"] + c["epoll_stale"]
        ),
        "core.lib.mutex_contentions_per_op": per_op(c["mutex_contentions"], ops),
        "core.lib.pool_hit_share": share(
            c["pool_hits"], c["pool_hits"] + c["pool_misses"]
        ),
        "check.checks_per_op": per_op(c["checks"], ops),
        "net.loadgen.start_s": med(at_ref(r, r["start_s"]) for r in untraced),
        "net.scenario.fold_s": med(at_ref(r, r["fold_s"]) for r in untraced),
    }
    for layer in SELF_TIMED:
        out["%s.self_us_per_op" % layer] = med(
            per_op(at_ref(r, r["layers_s"].get(layer, 0.0)), r["ops"]) * 1e6
            for r in traced
        )
    out["unattributed.self_us_per_op"] = med(
        per_op(at_ref(r, r["unattributed_s"]), r["ops"]) * 1e6 for r in traced
    )
    out["trace.overhead_share"] = (
        med(at_ref(r, r["host_s"]) for r in traced)
        / med(at_ref(r, r["host_s"]) for r in untraced)
        - 1.0
    )
    for key, value in first["sim"].items():
        out["sim." + key] = value
    return out


def as_json_metrics(values: Dict[str, float], table: Dict[str, tuple]) -> dict:
    return {
        name: {"value": values[name], "unit": table[name][0]} for name in table
    }
