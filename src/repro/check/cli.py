"""The checker CLI: ``python -m repro.check <command>``.

Explore a workload's schedules and check invariants::

    python -m repro.check list
    python -m repro.check explore --workload lock_storm --mode random
    python -m repro.check explore --workload writer_cancel \\
        --preseed wrlock-cancel --mode random --runs 80
    python -m repro.check replay --workload writer_cancel \\
        --preseed wrlock-cancel --decisions 0,0,3

``explore`` searches (DFS or seeded random walks), shrinks the first
failure to a minimal decision vector, and prints the replay command.
``replay`` runs a decision vector twice and verifies the two schedules
are identical (the reproducibility property the paper prizes) before
reporting the failure it triggers.  Exit status: 0 when no violation
was found (or the replay reproduced nothing), 1 when a violation was
found and reproduced.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Tuple

from repro.bench.workloads import STANDARD
from repro.check import workloads as check_workloads
from repro.check.explore import Explorer, ExploreReport, RunResult
from repro.check.preseed import BUGS, preseeded
from repro.check.reduce import Reducer
from repro.debug.replay import compare_schedules

#: name -> (factory(scale) -> workload main, main-thread priority).
#: The standard workloads (``repro.bench.workloads.STANDARD``) and the
#: targeted ones that exercise the checker's protocol windows.
WORKLOADS: Dict[str, Tuple[Callable[[int], Callable], int]] = dict(STANDARD)
WORKLOADS.update(
    {
        "cond_relay": (
            lambda scale: check_workloads.cond_relay(waiters=2 * scale),
            100,
        ),
        "writer_cancel": (
            lambda scale: check_workloads.writer_cancel(hold_us=500.0 * scale),
            100,
        ),
        "pooled_server": (
            lambda scale: check_workloads.pooled_server(
                clients=3 * scale, workers=2
            ),
            100,
        ),
        "epoll_server": (
            lambda scale: check_workloads.epoll_server(clients=3 * scale),
            100,
        ),
        "timed_sleepers": (
            lambda scale: check_workloads.timed_sleepers(
                timeout_us=1_000.0 * scale
            ),
            100,
        ),
        "smp_timer_mutex": (
            lambda scale: check_workloads.smp_timer_mutex(
                workers=2 * scale, iterations=4 * scale
            ),
            100,
        ),
    }
)


def make_explorer(args: argparse.Namespace) -> Explorer:
    try:
        factory, priority = WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(
            "unknown workload %r (have: %s)"
            % (args.workload, ", ".join(sorted(WORKLOADS)))
        )
    return Explorer(
        lambda: factory(args.scale),
        priority=priority,
        model=args.model,
        seed=args.world_seed,
        max_depth=args.max_depth,
        max_branch=args.max_branch,
        ncpus=args.ncpus,
    )


def _parse_decisions(text: str):
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _print_failure(result: RunResult, args: argparse.Namespace) -> None:
    print("FAILURE: %s" % result.failure)
    print("  decision vector : %s" % (result.decisions or "[] (default)"))
    print(
        "  trail           : %s"
        % " ".join(str(point) for point in result.trail[:16])
    )
    print("  schedule steps  : %d" % len(result.schedule))
    print("  elapsed         : %.1f us" % result.elapsed_us)
    replay = "python -m repro.check replay --workload %s --decisions %s" % (
        args.workload,
        ",".join(str(d) for d in result.decisions) or "''",
    )
    if args.preseed:
        replay += " --preseed %s" % args.preseed
    print("  replay with     : %s" % replay)


def cmd_list(args: argparse.Namespace) -> int:
    del args
    print("workloads:")
    for name in sorted(WORKLOADS):
        origin = "bench" if name in STANDARD else "check"
        print("  %-20s (%s)" % (name, origin))
    print("preseedable bugs:")
    for name in sorted(BUGS):
        print("  %s" % name)
    return 0


def _fleet_note(report, requested_jobs: int = 1) -> None:
    """Fleet diagnostics go to stderr: stdout is the determinism
    contract (byte-identical for any --jobs), execution detail is not.

    Printed whenever parallelism was *requested*: on a small host the
    core-count cap may have degraded the request to in-process, and
    saying so beats silence."""
    fleet = report.fleet
    if fleet is None or (requested_jobs <= 1 and fleet.backend == "inproc"):
        return
    note = "fleet: backend=%s jobs=%d tasks=%d" % (
        fleet.backend,
        fleet.jobs,
        fleet.tasks,
    )
    if fleet.snapshots_created:
        note += " snapshots=%d hits=%d steps_saved=%d" % (
            fleet.snapshots_created,
            fleet.snapshot_hits,
            fleet.steps_saved,
        )
    if fleet.fallbacks:
        note += " fallbacks=%d" % fleet.fallbacks
    print(note, file=sys.stderr)


def cmd_explore(args: argparse.Namespace) -> int:
    explorer = make_explorer(args)
    with preseeded(args.preseed):
        if args.mode == "dfs":
            report = explorer.explore_dfs(
                max_runs=args.runs,
                jobs=args.jobs,
                snapshot=args.snapshots,
            )
        else:
            report = explorer.explore_random(
                runs=args.runs, seed=args.seed, jobs=args.jobs
            )
        print(report.render())
        _fleet_note(report, requested_jobs=args.jobs)
        failure = report.first_failure
        if failure is None:
            print("no violations found")
            return 0
        reducer = Reducer(explorer)
        minimized = reducer.shrink(failure)
        print(
            "minimized in %d attempts (%d -> %d decisions)"
            % (
                reducer.attempts,
                len(failure.vector),
                len(minimized.decisions),
            )
        )
        _print_failure(minimized, args)
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    explorer = make_explorer(args)
    decisions = _parse_decisions(args.decisions)
    with preseeded(args.preseed):
        first = explorer.run_once(decisions, extract=True)
        second = explorer.run_once(decisions, extract=True)
    diff = compare_schedules(first.schedule, second.schedule)
    if not diff:
        print("NOT DETERMINISTIC: %s" % diff.detail)
        return 2
    print(
        "deterministic: %d dispatches, identical across two runs"
        % len(first.schedule)
    )
    if first.failure is None:
        print("no failure under this schedule")
        return 0
    _print_failure(first, args)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Schedule exploration and invariant checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", required=True)
        p.add_argument("--scale", type=int, default=1)
        p.add_argument("--model", default="sparc-ipx")
        p.add_argument("--world-seed", type=int, default=0)
        p.add_argument("--max-depth", type=int, default=64)
        p.add_argument("--max-branch", type=int, default=4)
        p.add_argument(
            "--ncpus",
            type=int,
            default=1,
            help="simulated CPUs (>1 routes async signals via IPI)",
        )
        p.add_argument(
            "--preseed",
            choices=sorted(BUGS),
            default=None,
            help="temporarily reinstate a fixed bug first",
        )

    p_list = sub.add_parser("list", help="list workloads and bugs")
    p_list.set_defaults(fn=cmd_list)

    p_explore = sub.add_parser("explore", help="search for violations")
    common(p_explore)
    p_explore.add_argument("--mode", choices=("dfs", "random"), default="dfs")
    p_explore.add_argument("--runs", type=int, default=200)
    p_explore.add_argument(
        "--seed", type=int, default=1234, help="random-walk seed"
    )
    p_explore.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (output is byte-identical for any value)",
    )
    p_explore.add_argument(
        "--snapshots",
        dest="snapshots",
        action="store_true",
        default=None,
        help="checkpoint DFS prefixes (default: on when --jobs > 1)",
    )
    p_explore.add_argument(
        "--no-snapshots",
        dest="snapshots",
        action="store_false",
        help="replay every DFS schedule from scratch",
    )
    p_explore.set_defaults(fn=cmd_explore)

    p_replay = sub.add_parser("replay", help="replay a decision vector")
    common(p_replay)
    p_replay.add_argument(
        "--decisions",
        default="",
        help="comma-separated decision vector, e.g. 0,0,3",
    )
    p_replay.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
