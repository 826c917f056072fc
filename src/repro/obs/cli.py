"""The run-report CLI: ``python -m repro.obs <command>``.

Runs any standard :mod:`repro.bench.workloads` workload with full
observability attached and reports on it::

    python -m repro.obs report   --workload lock_storm
    python -m repro.obs report   --workload lock_storm --format json
    python -m repro.obs trace    --workload signal_storm --out trace.json
    python -m repro.obs trace    --workload pipeline --format jsonl --out t.jsonl
    python -m repro.obs timeline --workload lock_storm --width 100
    python -m repro.obs list

``report`` prints the metrics table and the per-category cycle
attribution, and verifies the attribution invariant: the category
total equals the run's final virtual clock, cycle for cycle.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Tuple

from repro.bench import workloads
from repro.debug.trace import Tracer
from repro.obs.core import Observability
from repro.obs.export import (
    ascii_timeline,
    write_chrome_trace,
    write_jsonl,
)

def run_observed(
    workload: str,
    model: str = "sparc-ipx",
    scale: int = 1,
    trace: Optional[object] = None,
    profile: bool = True,
) -> Tuple[Observability, Dict[str, Any]]:
    """Run one named workload with observability attached."""
    try:
        factory, priority = workloads.STANDARD[workload]
    except KeyError:
        raise SystemExit(
            "unknown workload %r (have: %s)"
            % (workload, ", ".join(sorted(workloads.STANDARD)))
        )
    obs = Observability(trace=trace, profile=profile)
    stats = workloads.run_workload(
        factory(scale), model=model, priority=priority, obs=obs
    )
    return obs, stats


def _check_attribution(obs: Observability) -> None:
    """The acceptance invariant: categories sum to the virtual clock."""
    profiler = obs.profiler
    if profiler is None:
        return
    total = profiler.total_cycles
    span = profiler.attributed_span()
    if total != span:
        raise SystemExit(
            "cycle attribution lost cycles: categories sum to %d but the "
            "clock advanced %d" % (total, span)
        )


def cmd_report(args: argparse.Namespace) -> int:
    obs, stats = run_observed(
        args.workload, model=args.model, scale=args.scale,
        profile=not args.no_profile,
    )
    _check_attribution(obs)
    if args.format == "json":
        # Machine-readable snapshot: counter values diff cleanly and
        # the bench harness ingests them without parsing ASCII.
        import json

        payload = obs.snapshot()
        payload["workload"] = args.workload
        payload["model"] = args.model
        payload["scale"] = args.scale
        payload["context_switches"] = stats["context_switches"]
        payload["syscalls"] = stats["syscalls"]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(obs.report())
    if obs.profiler is not None:
        print(
            "attribution check: %d cycles attributed == %d on the clock"
            % (obs.profiler.total_cycles, obs.profiler.attributed_span())
        )
    print(
        "workload summary: %.2f simulated us, %d context switches, "
        "%d syscalls"
        % (stats["elapsed_us"], stats["context_switches"], stats["syscalls"])
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    tracer = Tracer(limit=args.limit)
    obs, stats = run_observed(
        args.workload, model=args.model, scale=args.scale, trace=tracer
    )
    world = obs.runtime.world
    if args.format == "chrome":
        write_chrome_trace(
            args.out, tracer,
            us_per_cycle=1.0 / world.model.mhz, end_time=world.now,
        )
    else:
        write_jsonl(args.out, tracer)
    print(
        "wrote %s (%d records, %d dropped, %.2f simulated us)"
        % (args.out, len(tracer), tracer.dropped, stats["elapsed_us"])
    )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    tracer = Tracer(kinds=None, limit=args.limit)
    obs, _ = run_observed(
        args.workload, model=args.model, scale=args.scale, trace=tracer
    )
    world = obs.runtime.world
    print(
        ascii_timeline(
            tracer,
            end_time=world.now,
            us_per_cycle=1.0 / world.model.mhz,
            width=args.width,
        )
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    del args
    for name in sorted(workloads.STANDARD):
        print(name)
    return 0


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workload", required=True, help="see `list`")
    sub.add_argument("--model", default="sparc-ipx")
    sub.add_argument("--scale", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    subs = parser.add_subparsers(dest="command", required=True)

    report = subs.add_parser("report", help="metrics + cycle attribution")
    _common(report)
    report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json: machine-readable snapshot (diffable; ingestible by "
        "the repro.bench harness via records_from_metrics)",
    )
    report.add_argument(
        "--no-profile",
        action="store_true",
        help="skip cycle attribution; the segment cache stays live, so "
        "the exec.segment.* counters show real replay activity",
    )
    report.set_defaults(fn=cmd_report)

    trace = subs.add_parser("trace", help="export a trace file")
    _common(trace)
    trace.add_argument("--format", choices=("chrome", "jsonl"), default="chrome")
    trace.add_argument("--out", default="trace.json")
    trace.add_argument("--limit", type=int, default=200_000)
    trace.set_defaults(fn=cmd_trace)

    timeline = subs.add_parser("timeline", help="ASCII who-ran-when")
    _common(timeline)
    timeline.add_argument("--width", type=int, default=72)
    timeline.add_argument("--limit", type=int, default=200_000)
    timeline.set_defaults(fn=cmd_timeline)

    lst = subs.add_parser("list", help="available workloads")
    lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
