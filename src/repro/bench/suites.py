"""The benchmark suite runners, callable from anywhere.

This module is the one home for the measurement loops; the
``benchmarks/`` modules and the ``python -m repro.bench run`` CLI both
call in here, so a suite run from CI and a suite run from the shell
produce the same records.

Every runner returns a validated :class:`~repro.bench.schema.SuiteResult`.
Each metric is declared once -- name, unit, direction, tolerance -- on
the line that records its measured value (``rec(...)`` below), so the
gate semantics of a number sit next to the ``perf_counter`` or report
field that produced it:

- **virtual-clock outputs** (``simulated_us``, net ``elapsed_us``,
  schedule/check counts, makespans) are ``exact`` -- the simulation is
  deterministic, so any difference is a semantics change that needs a
  deliberate baseline regeneration;
- **wall-clock rates** (``steps_per_sec``) are ``higher`` with the
  default 20% band; fleet wall-clock *ratios* get a wider per-record
  band because CI runners are shared and noisy;
- **harvested counters** (``exec.segment.*``, syscalls, completions,
  fleet snapshot stats) are ``info``: archived for the trend history,
  never gated.
"""

from __future__ import annotations

import dataclasses
import os
import platform as platform_mod
import subprocess
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.bench import workloads
from repro.bench.schema import BenchRecord, EnvFingerprint, SuiteResult

#: Wall-clock speedup ratios on shared CI runners need a wide band.
WALL_RATIO_TOLERANCE = 0.5

# ---------------------------------------------------------------------------
# record plumbing
# ---------------------------------------------------------------------------


def git_commit(short: bool = True) -> str:
    """The current commit hash, or ``"unknown"`` outside a checkout."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    value = out.stdout.strip()
    return value or "unknown"


def env_fingerprint(
    scale: Optional[int] = None, commit: Optional[str] = None
) -> EnvFingerprint:
    """Fingerprint the measuring host (commit/python/cores/platform)."""
    return EnvFingerprint(
        commit=commit or git_commit(),
        python=platform_mod.python_version(),
        cores=os.cpu_count() or 1,
        platform=platform_mod.system().lower(),
        scale=scale,
    )


def records_from_metrics(
    metrics: Mapping[str, Any],
    suite: str,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    prefixes: Optional[tuple] = None,
) -> List[BenchRecord]:
    """Harvest a counter mapping (``repro.obs`` snapshot style) into
    ``info`` records.

    Accepts both flat ``name -> number`` mappings (segment counters,
    ``FleetStats`` dicts) and the richer ``repro.obs`` snapshot shape
    where histograms appear as dicts -- histogram entries contribute
    their ``count``/``mean``/``max`` as separate metrics.  Pass
    ``prefixes`` to keep only matching counter families (e.g.
    ``("exec.segment.", "net.")``).
    """
    records: List[BenchRecord] = []
    params = dict(params or {})
    for name in sorted(metrics):
        if prefixes is not None and not any(
            name.startswith(prefix) for prefix in prefixes
        ):
            continue
        value = metrics[name]
        if isinstance(value, Mapping):  # histogram snapshot
            for part in ("count", "mean", "max"):
                if part in value and isinstance(
                    value[part], (int, float)
                ) and not isinstance(value[part], bool):
                    records.append(
                        BenchRecord(
                            suite=suite,
                            workload=workload,
                            metric="%s.%s" % (name, part),
                            value=value[part],
                            unit="count",
                            direction="info",
                            params=params,
                        )
                    )
            continue
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            continue
        records.append(
            BenchRecord(
                suite=suite,
                workload=workload,
                metric=name,
                value=value,
                unit="count",
                direction="info",
                params=params,
            )
        )
    return records


def recorder(
    records: List[BenchRecord],
    suite: str,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
) -> Callable[..., None]:
    """``rec(metric, value, unit, direction, tolerance=None)`` appending
    one record for ``workload`` under ``params`` to ``records``."""
    params = dict(params or {})

    def rec(metric: str, value, unit: str, direction: str,
            tolerance: Optional[float] = None) -> None:
        records.append(
            BenchRecord(
                suite=suite,
                workload=workload,
                metric=metric,
                value=int(value) if isinstance(value, bool) else value,
                unit=unit,
                direction=direction,
                params=params,
                tolerance=tolerance,
            )
        )

    return rec


def _result(
    suite: str,
    records: List[BenchRecord],
    config: Dict[str, Any],
    scale: Optional[int] = None,
) -> SuiteResult:
    return SuiteResult(
        suite=suite, env=env_fingerprint(scale=scale), config=config,
        records=records,
    ).validate()


# ---------------------------------------------------------------------------
# host throughput
# ---------------------------------------------------------------------------


def standard_workloads(scale: int) -> Dict[str, Dict[str, Any]]:
    """The host benchmark matrix.  ``scale`` multiplies iteration counts."""
    return {
        "lock_storm": {
            "factory": lambda: workloads.lock_storm(
                threads=8, iterations=25 * scale
            ),
            "priority": 100,
        },
        "signal_storm": {
            "factory": lambda: workloads.signal_storm(
                victims=4, rounds=100 * scale
            ),
            "priority": 50,
        },
        "pipeline": {
            "factory": lambda: workloads.pipeline(
                stages=4, items=25 * scale
            ),
            "priority": 100,
        },
        "create_join_churn": {
            "factory": lambda: workloads.create_join_churn(
                rounds=12 * scale, burst=8
            ),
            "priority": 100,
        },
    }


def run_host(
    scale: int = 4, repeat: int = 3, model: str = "sparc-ipx"
) -> SuiteResult:
    """Executor wall-clock throughput over the standard workloads.

    Each workload runs ``repeat`` times and the best wall time wins
    (minimum is the standard noise-rejection estimator for
    throughput); the simulated time must be identical across repeats.
    """
    records: List[BenchRecord] = []
    for name, spec in standard_workloads(scale).items():
        best_wall = None
        simulated_us = None
        for _ in range(repeat):
            main_fn = spec["factory"]()
            start = time.perf_counter()
            stats = workloads.run_workload(
                main_fn, model=model, priority=spec["priority"]
            )
            wall = time.perf_counter() - start
            if simulated_us is not None and simulated_us != stats["elapsed_us"]:
                raise AssertionError(
                    "%s: non-deterministic simulated time (%r != %r)"
                    % (name, simulated_us, stats["elapsed_us"])
                )
            simulated_us = stats["elapsed_us"]
            if best_wall is None or wall < best_wall:
                best_wall = wall
        rt = stats["runtime"]
        rec = recorder(records, "host", name)
        rec("steps_per_sec", round(rt.steps / best_wall, 1), "steps/s",
            "higher")
        rec("wall_seconds", round(best_wall, 6), "s", "info")
        rec("simulated_us", simulated_us, "us", "exact")
        rec("simulated_us_per_sec", round(simulated_us / best_wall, 1),
            "us/s", "info")
        rec("steps", rt.steps, "count", "exact")
        rec("context_switches", stats["context_switches"], "count", "info")
        if rt._segments is not None:
            records.extend(
                records_from_metrics(rt._segments.counters(), "host", name)
            )
    config = {"scale": scale, "repeat": repeat, "model": model}
    return _result("host", records, config, scale=scale)


# ---------------------------------------------------------------------------
# net architecture sweep
# ---------------------------------------------------------------------------

#: Open-loop load: one request per connection, arrivals ~Poisson(150us),
#: no think time -- the connection mix, not any client's patience,
#: determines the backlog.
NET_LOAD: Dict[str, Any] = dict(
    requests_per_client=1,
    service_cycles=300,
    think_us=0.0,
    arrival="poisson",
    mean_gap_us=150.0,
    workers=16,
    seed=42,
    latency_us=60.0,
    first_class=True,  # identical completion path for all three archs
)

NET_ARCHS = ("perconn", "pool", "select", "epoll")
NET_CLIENT_SWEEP = (50, 200, 1000)
NET_CACHE_POOL_SIZE = 64

#: Closed-loop scale-factor fixtures: long-lived connections, many
#: request rounds, think time far above the arrival window so peak
#: concurrency equals the client count.  This is the regime the epoll
#: interest list exists for -- a huge watched set that is mostly idle
#: at any instant -- and the regime where select's O(n) scan per
#: wakeup stops amortizing.  ``archs`` is part of the fixture because
#: select's per-call fd-set rebuild is host-prohibitive past ~10^3
#: registered descriptors; sf10 up runs the epoll dispatcher only.
NET_SF_FIXTURES: Dict[str, Dict[str, Any]] = {
    "sf1": dict(
        clients=1000,
        requests_per_client=8,
        mean_gap_us=150.0,
        archs=("select", "epoll"),
    ),
    "sf10": dict(
        clients=10000,
        requests_per_client=4,
        mean_gap_us=15.0,
        archs=("epoll",),
    ),
    "sf100": dict(  # opt-in: ~10^5 concurrent clients, minutes of host time
        clients=100000,
        requests_per_client=2,
        mean_gap_us=1.5,
        archs=("epoll",),
    ),
}

#: sf100 stays out of the default (and therefore archived/CI) set.
NET_SF_DEFAULT = ("sf1", "sf10")

#: Load shape shared by every sf fixture (clients/gap/rounds vary).
NET_SF_LOAD: Dict[str, Any] = dict(
    arrival="poisson",
    think_us=200000.0,
    service_cycles=100,
    req_bytes=256,
    resp_bytes=1024,
    seed=42,
    latency_us=60.0,
)


def run_net_point(
    arch: str,
    clients: int,
    pool_size: int,
    load: Optional[Dict[str, Any]] = None,
    sweep: str = "cold",
) -> List[BenchRecord]:
    """One grid cell: run the scenario, record its report."""
    from repro.net.scenario import run_scenario

    load = dict(NET_LOAD if load is None else load)
    report = run_scenario(
        arch=arch, clients=clients, pool_size=pool_size, **load
    )
    assert report.requests_served == clients  # every request answered
    assert report.refused == 0
    records: List[BenchRecord] = []
    rec = recorder(records, "net", arch, {
        "clients": clients, "pool_size": pool_size, "sweep": sweep,
    })
    rec("elapsed_us", round(report.elapsed_us, 1), "us", "exact")
    rec("throughput_rps", round(report.throughput_rps, 1), "req/s", "higher")
    rec("latency_p50_us", round(report.latency_p50_us, 1), "us", "info")
    rec("latency_p99_us", round(report.latency_p99_us, 1), "us", "lower")
    rec("accept_wait_p50_us", round(report.accept_wait_p50_us, 1), "us",
        "info")
    rec("accept_wait_p99_us", round(report.accept_wait_p99_us, 1), "us",
        "lower")
    rec("accept_depth_max", report.accept_depth_max, "count", "info")
    rec("syscalls", report.syscalls, "count", "info")
    rec("context_switches", report.context_switches, "count", "info")
    rec("completions_sigio", report.completions_sigio, "count", "info")
    rec("completions_fc", report.completions_fc, "count", "info")
    rec("queue_wait_p99_us", round(report.queue_wait_p99_us, 1), "us",
        "info")
    return records


def run_sf_point(sf: str, arch: str) -> List[BenchRecord]:
    """One scale-factor cell: run the fixture, record per-sample metrics.

    Every rate/percentile is per-sample (per reply), so rows are
    comparable across fixtures whose client and request counts differ
    by orders of magnitude.
    """
    from repro.net.scenario import run_scenario

    fixture = dict(NET_SF_FIXTURES[sf])
    fixture.pop("archs")
    clients = fixture.pop("clients")
    report = run_scenario(
        arch=arch, clients=clients, backlog=clients,
        **fixture, **NET_SF_LOAD
    )
    expected = clients * report.requests_per_client
    assert report.refused == 0
    assert report.replies == expected  # every request answered
    assert report.peak_clients == clients  # all concurrently resident
    records: List[BenchRecord] = []
    rec = recorder(records, "net", arch, {
        "sf": sf, "clients": clients, "sweep": "sf",
    })
    rec("elapsed_us", round(report.elapsed_us, 1), "us", "exact")
    rec("peak_clients", report.peak_clients, "count", "exact")
    rec("throughput_rps", round(report.throughput_rps, 1), "req/s", "higher")
    rec("latency_p50_us", round(report.latency_p50_us, 1), "us", "info")
    rec("latency_p99_us", round(report.latency_p99_us, 1), "us", "lower")
    rec("latency_mean_us", round(report.latency_mean_us, 1), "us", "info")
    rec("syscalls_per_request", round(report.syscalls / report.replies, 3),
        "count", "lower")
    rec("replies", report.replies, "count", "info")
    rec("epoll_waits", report.epoll_waits, "count", "info")
    rec("epoll_wakeups", report.epoll_wakeups, "count", "info")
    rec("epoll_ctl_calls", report.epoll_ctl_calls, "count", "info")
    rec("epoll_ready_returned", report.epoll_ready_returned, "count", "info")
    rec("epoll_stale_dropped", report.epoll_stale_dropped, "count", "info")
    return records


def run_net(
    client_sweep: Sequence[int] = NET_CLIENT_SWEEP,
    archs: Sequence[str] = NET_ARCHS,
    cache_pool_size: int = NET_CACHE_POOL_SIZE,
    load: Optional[Dict[str, Any]] = None,
    sf: Sequence[str] = NET_SF_DEFAULT,
) -> SuiteResult:
    """The server-architecture sweep.

    The headline grid (``sweep=cold``) disables the TCB/stack cache
    (``pool_size=0``) to isolate the architecture comparison; a second
    sweep (``sweep=warm``) at the top client count re-enables the
    cache and shows the gap narrow -- ``pthread_create`` pre-caching is
    itself a thread pool, one layer down.  The ``sf`` scale-factor
    fixtures (``sweep=sf``) then push the dispatcher architectures
    into the long-lived high-concurrency regime (``NET_SF_FIXTURES``);
    sf100 is opt-in (pass ``sf`` explicitly).
    """
    load = dict(NET_LOAD if load is None else load)
    records: List[BenchRecord] = []
    for clients in client_sweep:
        for arch in archs:
            records += run_net_point(arch, clients, pool_size=0, load=load)
    for arch in archs:
        records += run_net_point(arch, client_sweep[-1], cache_pool_size,
                                 load=load, sweep="warm")
    for name in sf:
        for arch in NET_SF_FIXTURES[name]["archs"]:
            records += run_sf_point(name, arch)
    config = {
        "client_sweep": sorted(set(client_sweep)),
        "archs": sorted(set(archs)),
        "cache_pool_size": cache_pool_size,
        "load": load,
        "model": "sparc-ipx",
        "sf": sorted(set(sf)),
    }
    return _result("net", records, config)


# ---------------------------------------------------------------------------
# check exploration sweep
# ---------------------------------------------------------------------------


def run_check(
    runs: int = 15,
    seed: int = 99,
    scale: int = 1,
    names: Optional[Sequence[str]] = None,
) -> SuiteResult:
    """Seeded random-walk exploration over the checker workloads.

    Everything but ``wall_seconds`` is deterministic for a fixed
    library: the same seed replays the same schedules, runs the same
    invariant sweeps, and must keep finding nothing.
    """
    from repro.check.cli import WORKLOADS
    from repro.check.explore import Explorer

    chosen = sorted(WORKLOADS) if names is None else list(names)
    records: List[BenchRecord] = []
    for name in chosen:
        factory, priority = WORKLOADS[name]
        explorer = Explorer(lambda: factory(scale), priority=priority)
        start = time.perf_counter()
        report = explorer.explore_random(runs=runs, seed=seed)
        wall = time.perf_counter() - start
        rec = recorder(records, "check", name, {
            "mode": "random", "runs": runs, "seed": seed,
        })
        rec("schedules_explored", report.schedules_explored, "count",
            "exact")
        rec("checks_run", report.checks_run, "count", "exact")
        rec("failures", len(report.failures), "count", "exact")
        rec("wall_seconds", round(wall, 6), "s", "info")
    config = {"runs": runs, "seed": seed, "scale": scale}
    return _result("check", records, config, scale=scale)


# ---------------------------------------------------------------------------
# fleet scaling sweep
# ---------------------------------------------------------------------------


def run_fleet(
    max_runs: int = 40,
    rounds: int = 800,
    max_depth: int = 2000,
    max_branch: int = 4,
    jobs: int = 4,
    grid: bool = True,
    grid_repeat: int = 3,
) -> SuiteResult:
    """DFS snapshot sweep + scenario compare grid.  Needs :func:`os.fork`.

    The DFS speedup is algorithmic (prefix checkpoints cut simulated
    steps), so it holds on a single-core host; the grid speedup is
    pure fan-out and is bounded by the host's core count.  The
    algorithmic facts (schedules explored, byte-identical reports, the
    full replay step count) are ``exact``; snapshot placement counters
    depend on speculation timing, so they are harvested per ``phase``
    as ``info``.
    """
    from repro.bench.workloads import signal_storm
    from repro.check.explore import Explorer
    from repro.net.scenario import compare_scenarios

    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
        raise RuntimeError("the fleet suite needs os.fork")

    def make_explorer() -> Explorer:
        # rounds=800 (scale 8): the trail is ~1600 choice points spread
        # across the whole run, so deep DFS children share long
        # prefixes -- the workload prefix snapshots were built for.
        return Explorer(
            lambda: signal_storm(victims=4, rounds=rounds),
            priority=50,  # the bench registry's tuning for this workload
            max_depth=max_depth,
            max_branch=max_branch,
        )

    def timed_dfs(dfs_jobs: int, snapshot: bool):
        explorer = make_explorer()
        start = time.perf_counter()
        report = explorer.explore_dfs(
            max_runs=max_runs, jobs=dfs_jobs, snapshot=snapshot
        )
        return report, time.perf_counter() - start

    seq_report, seq_s = timed_dfs(dfs_jobs=1, snapshot=False)
    snap_report, snap_s = timed_dfs(dfs_jobs=1, snapshot=True)
    par_report, par_s = timed_dfs(dfs_jobs=jobs, snapshot=True)

    dfs_identical = (
        snap_report == seq_report
        and par_report == seq_report
        and par_report.render() == seq_report.render()
    )

    records: List[BenchRecord] = []
    rec = recorder(records, "fleet", "dfs")
    rec("schedules_explored", seq_report.schedules_explored, "count",
        "exact")
    rec("sequential_s", round(seq_s, 3), "s", "info")
    rec("snapshot_jobs1_s", round(snap_s, 3), "s", "info")
    rec("jobs4_s", round(par_s, 3), "s", "info")
    rec("speedup_snapshot_jobs1", round(seq_s / snap_s, 2), "ratio",
        "higher", WALL_RATIO_TOLERANCE)
    rec("speedup_jobs4", round(seq_s / par_s, 2), "ratio", "higher",
        WALL_RATIO_TOLERANCE)
    rec("reports_identical", dfs_identical, "bool", "exact")
    rec("steps_full", seq_report.fleet.steps_full, "count", "exact")
    for phase, report in (("sequential", seq_report),
                          ("snapshot", snap_report), ("jobs4", par_report)):
        stats = report.fleet
        records += records_from_metrics(
            dict(dataclasses.asdict(stats), steps_saved=stats.steps_saved),
            "fleet", "dfs", params={"phase": phase},
        )

    if grid:
        cells = [
            dict(arch=arch, clients=120, requests_per_client=2, workers=16,
                 seed=42, arrival=arrival, pool_size=pool_size)
            for arch in ("perconn", "pool", "select")
            for arrival in ("poisson", "bursty")
            for pool_size in (64, 0)
        ]

        # Best-of-N (the standard noise-rejection estimator, same as
        # the host-throughput runner): a single shot of a sub-second
        # grid is dominated by host jitter.
        def timed_grid(grid_jobs: int):
            best_s, best = None, None
            for _ in range(grid_repeat):
                start = time.perf_counter()
                reports = compare_scenarios(cells, jobs=grid_jobs)
                elapsed = time.perf_counter() - start
                if best_s is None or elapsed < best_s:
                    best_s, best = elapsed, reports
            return best, best_s

        grid_seq, grid_seq_s = timed_grid(grid_jobs=1)
        grid_par, grid_par_s = timed_grid(grid_jobs=jobs)
        grid_identical = grid_par == grid_seq and [
            r.render() for r in grid_par
        ] == [r.render() for r in grid_seq]
        rec = recorder(records, "fleet", "compare_grid")
        rec("cells", len(cells), "count", "exact")
        rec("sequential_s", round(grid_seq_s, 3), "s", "info")
        rec("jobs4_s", round(grid_par_s, 3), "s", "info")
        rec("speedup_jobs4", round(grid_seq_s / grid_par_s, 2), "ratio",
            "higher", WALL_RATIO_TOLERANCE)
        rec("reports_identical", grid_identical, "bool", "exact")

    config = {
        "workload": "signal_storm",
        "max_runs": max_runs,
        "rounds": rounds,
        "max_depth": max_depth,
        "max_branch": max_branch,
        "grid": grid,
    }
    return _result("fleet", records, config)


# ---------------------------------------------------------------------------
# smp lock-algorithm zoo
# ---------------------------------------------------------------------------


def run_smp(
    acquisitions: int = 10,
    section_cycles: int = 400,
    think_cycles: int = 300,
    model: str = "niagara-t3",
    seed: int = 42,
    ipi_rounds: int = 40,
) -> SuiteResult:
    """The lock-zoo crossover sweep plus an IPI-routed signal workload.

    Every simulated number is deterministic in (model, seed, axes):
    the zoo's per-cell makespans come off per-CPU virtual clocks, and
    the IPI row runs ``signal_storm`` on a 2-CPU world where every
    async signal crosses from the interrupt CPU as an IPI event.  A
    changed makespan is a changed contention semantics, so they are
    ``exact``; coherence/IPI counters are harvested as ``info``, and
    only the ``*_wall_seconds`` vary run to run.
    """
    from repro.locks.workload import run_zoo

    records: List[BenchRecord] = []
    wall = recorder(records, "smp", "suite")
    start = time.perf_counter()
    rows = run_zoo(
        acquisitions=acquisitions,
        section_cycles=section_cycles,
        think_cycles=think_cycles,
        model=model,
        seed=seed,
    )
    wall("zoo_wall_seconds", round(time.perf_counter() - start, 6), "s",
         "info")
    for row in rows:
        params = {"ncpus": row["ncpus"], "model": row["model"]}
        rec = recorder(records, "smp", row["algo"], params)
        rec("makespan_cycles", row["makespan_cycles"], "cycles", "exact")
        rec("cycles_per_acquisition", row["cycles_per_acquisition"],
            "cycles", "exact")
        rec("executor_steps", row["executor_steps"], "count", "exact")
        rec("acquisitions", row["acquisitions"], "count", "exact")
        records += records_from_metrics(
            row["counters"], "smp", row["algo"], params=params
        )
        records += records_from_metrics(
            {"lock.%s" % k: v for k, v in row["lock"].items()},
            "smp", row["algo"], params=params,
        )

    start = time.perf_counter()
    stats = workloads.run_workload(
        workloads.signal_storm(victims=4, rounds=ipi_rounds),
        model="sparc-ipx",  # signal costs calibrated on the paper's host
        priority=50,
        # A tight slice so timer expiries (async "timer" causes, the
        # IPI-routed kind) actually land inside this short run.
        timeslice_us=1_000.0,
        ncpus=2,
    )
    wall("ipi_wall_seconds", round(time.perf_counter() - start, 6), "s",
         "info")
    rt = stats["runtime"]
    smp = rt.world.smp.counters()
    rec = recorder(records, "smp", "ipi_signal_storm",
                   {"ncpus": 2, "rounds": ipi_rounds})
    rec("elapsed_us", stats["elapsed_us"], "us", "exact")
    rec("ipis_sent", smp["smp.ipis_sent"], "count", "exact")
    rec("ipis_delivered", smp["smp.ipis_delivered"], "count", "exact")
    rec("ipi_posts", rt.proc.signals.ipi_posts, "count", "exact")
    rec("context_switches", stats["context_switches"], "count", "info")

    config = {
        "acquisitions": acquisitions,
        "section_cycles": section_cycles,
        "think_cycles": think_cycles,
        "model": model,
        "seed": seed,
        "ipi_rounds": ipi_rounds,
    }
    return _result("smp", records, config)


# ---------------------------------------------------------------------------
# the registry the CLI dispatches on
# ---------------------------------------------------------------------------

#: suite name -> runner.  The gate re-measures a baseline by feeding
#: its archived ``config`` back in as keyword arguments.
SUITE_RUNNERS: Dict[str, Callable[..., SuiteResult]] = {
    "host": run_host,
    "net": run_net,
    "check": run_check,
    "fleet": run_fleet,
    "smp": run_smp,
}

SUITES = tuple(sorted(SUITE_RUNNERS))
